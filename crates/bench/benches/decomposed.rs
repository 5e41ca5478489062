//! §6.2 ablation: "we partition a long SQL query into multiple queries ...
//! and merge them". Monolithic evaluation materializes the full graph
//! relation (Definition 4) and projects per column; decomposed evaluation
//! (Yannakakis-style) computes per-node participating sets and row-scoped
//! neighbor walks. The decomposed strategy is what the ETable layer uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etable_core::pattern::{FilterAtom, NodeFilter, PatternNodeId, QueryPattern};
use etable_core::{matching, ops};
use etable_datagen::GenConfig;
use etable_relational::expr::CmpOp;
use etable_tgm::Tgdb;

/// A wide pattern: Papers (primary) with Conferences, Authors and keywords
/// all participating — the cross-product within each row is what the
/// monolithic plan pays for.
fn wide_pattern(tgdb: &Tgdb) -> QueryPattern {
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
    let q = ops::initiate(tgdb, papers).unwrap();
    let q = ops::select(tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
    let (ce, _) = tgdb.schema.outgoing_by_name(papers, "Conferences").unwrap();
    let q = ops::add(tgdb, &q, ce).unwrap();
    let q = ops::shift(&q, PatternNodeId(0)).unwrap();
    let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
    let q = ops::add(tgdb, &q, ae).unwrap();
    let q = ops::shift(&q, PatternNodeId(0)).unwrap();
    let (ke, _) = tgdb
        .schema
        .outgoing_by_name(papers, "Paper_Keywords: keyword")
        .unwrap();
    let q = ops::add(tgdb, &q, ke).unwrap();
    ops::shift(&q, PatternNodeId(0)).unwrap()
}

/// A selective pattern, the shape of Table 2's task 4: one institution's
/// authors' papers and the papers those cite (primary). The institution
/// seeds the match and every other node grows from its parent's
/// neighbors, where the non-selective `wide_pattern` scans whole types.
fn selective_pattern(tgdb: &Tgdb) -> QueryPattern {
    let (insts, _) = tgdb.schema.node_type_by_name("Institutions").unwrap();
    let q = ops::initiate(tgdb, insts).unwrap();
    let cmu = NodeFilter::cmp("name", CmpOp::Eq, "Carnegie Mellon University");
    let mut q = ops::select(tgdb, &q, cmu).unwrap();
    for name in ["Authors", "Papers", "Papers (referenced)"] {
        let (e, _) = tgdb
            .schema
            .outgoing_by_name(q.primary_node().node_type, name)
            .unwrap();
        q = ops::add(tgdb, &q, e).unwrap();
    }
    q
}

/// Table 2's task-4 chain: one institution's authors' papers' conferences
/// (primary), seeded at the institution, every other node grown from its
/// parent's neighbors, so the down pass re-checks only rows under the
/// parent rows the up pass dropped.
fn chain_pattern(tgdb: &Tgdb) -> QueryPattern {
    let (insts, _) = tgdb.schema.node_type_by_name("Institutions").unwrap();
    let q = ops::initiate(tgdb, insts).unwrap();
    let cmu = NodeFilter::cmp("name", CmpOp::Eq, "Carnegie Mellon University");
    let mut q = ops::select(tgdb, &q, cmu).unwrap();
    for name in ["Authors", "Papers", "Conferences"] {
        let (e, _) = tgdb
            .schema
            .outgoing_by_name(q.primary_node().node_type, name)
            .unwrap();
        q = ops::add(tgdb, &q, e).unwrap();
    }
    q
}

/// One-node opens whose filter is the whole cost of a match: `Papers`
/// whose title equals one paper's (one hit, the `title = '…'` opens of
/// Table 2's scripts), and Figure 1's `Papers` whose keywords match
/// `LIKE '%user%'` (a neighbor-label filter).
fn filtered_opens(tgdb: &Tgdb) -> [(&'static str, QueryPattern); 2] {
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
    let nodes = tgdb.instances.nodes_of_type(papers);
    let title = tgdb.instances.label(nodes.node(nodes.len() as u32 / 2));
    let (ke, _) = tgdb
        .schema
        .outgoing_by_name(papers, "Paper_Keywords: keyword")
        .unwrap();
    let keyword = NodeFilter::atom(FilterAtom::NeighborLabelLike {
        edge: ke,
        pattern: "%user%".into(),
    });
    let open = |filter| ops::select(tgdb, &ops::initiate(tgdb, papers).unwrap(), filter).unwrap();
    [
        ("eq_open", open(NodeFilter::cmp("title", CmpOp::Eq, title))),
        ("neighbor_like", open(keyword)),
    ]
}

fn bench_decomposed(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposed_vs_monolithic");
    group.sample_size(12);
    for papers in [300usize, 1000] {
        let (_, tgdb) = etable_bench::dataset(&GenConfig::small().with_papers(papers));
        let q = wide_pattern(&tgdb);
        group.bench_with_input(
            BenchmarkId::new("monolithic_full_join", papers),
            &papers,
            |b, _| {
                b.iter(|| {
                    let full = matching::match_full(&tgdb, &q).unwrap();
                    // Project every attribute, as a per-column presentation
                    // over the monolithic result would.
                    q.node_ids()
                        .map(|id| full.distinct_nodes(id).unwrap().len())
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decomposed_yannakakis", papers),
            &papers,
            |b, _| {
                b.iter(|| {
                    let m = matching::match_primary(&tgdb, &q).unwrap();
                    q.node_ids().map(|id| m.projection(id).len()).sum::<usize>()
                })
            },
        );
        if papers == 1000 {
            for (name, q) in filtered_opens(&tgdb) {
                group.bench_with_input(BenchmarkId::new(name, papers), &papers, |b, _| {
                    b.iter(|| matching::match_primary(&tgdb, &q).unwrap().rows().len())
                });
            }
            for (name, q) in [
                ("selective_pivot", selective_pattern(&tgdb)),
                ("chain_match", chain_pattern(&tgdb)),
            ] {
                group.bench_with_input(BenchmarkId::new(name, papers), &papers, |b, _| {
                    b.iter(|| {
                        let m = matching::match_primary(&tgdb, &q).unwrap();
                        q.node_ids().map(|id| m.projection(id).len()).sum::<usize>()
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_decomposed);
criterion_main!(benches);
