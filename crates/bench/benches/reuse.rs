//! §9 future-work item (2): "accelerating the execution speed of updated
//! queries (e.g., by reusing intermediate results)". Compares cold
//! re-execution of a history of patterns against a session that reverts
//! to them, which shows each step's kept match again.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_core::pattern::{NodeFilter, QueryPattern};
use etable_core::session::Session;
use etable_core::{matching, ops};
use etable_datagen::GenConfig;
use etable_relational::expr::CmpOp;
use etable_tgm::Tgdb;

/// A browsing history: filter, pivot, revert, repeat — patterns recur, as
/// they do when users revert or re-run steps.
fn history(tgdb: &Tgdb) -> Vec<QueryPattern> {
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
    let base = ops::initiate(tgdb, papers).unwrap();
    let filtered = ops::select(tgdb, &base, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
    let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
    let pivoted = ops::add(tgdb, &filtered, ae).unwrap();
    // Revert-style repetitions.
    vec![
        base.clone(),
        filtered.clone(),
        pivoted.clone(),
        filtered.clone(),
        pivoted.clone(),
        base,
        filtered,
        pivoted,
    ]
}

fn bench_reuse(c: &mut Criterion) {
    let (_, tgdb) = etable_bench::dataset(&GenConfig::small().with_papers(1000));
    let hist = history(&tgdb);
    let mut group = c.benchmark_group("reuse");
    group.sample_size(15);
    group.bench_function("cold_reexecution", |b| {
        b.iter(|| {
            hist.iter()
                .map(|q| matching::match_primary(&tgdb, q).unwrap().rows().len())
                .sum::<usize>()
        })
    });
    // The same history through one session: open, filter, pivot, then
    // reverts to steps 1, 2, 0, 1, 2, each table shown.
    group.bench_function("session_reverts", |b| {
        b.iter(|| {
            let mut s = Session::new(tgdb.clone());
            let shown = |s: &mut Session| s.etable().unwrap().len();
            s.open_by_name("Papers").unwrap();
            let mut rows = shown(&mut s);
            s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
            rows += shown(&mut s);
            s.pivot("Authors").unwrap();
            rows += shown(&mut s);
            for step in [1, 2, 0, 1, 2] {
                s.revert(step).unwrap();
                rows += shown(&mut s);
            }
            rows
        })
    });
    group.finish();
}

criterion_group!(benches, bench_reuse);
criterion_main!(benches);
