//! Join-path benchmarks for the columnar selection-vector pipeline: the
//! build/probe hash join over `Int` and `Sym` column words, multi-join
//! chains with pushdown, the grouped join tail (which never materializes
//! an input row), and the final-projection gather.
//!
//! These medians feed `BENCH_results.json` and are pinned by the committed
//! `BENCH_baseline.json` gate and by CI's same-runner A/B `bench-gate`
//! job; `join+group` at medium scale is the headline number for the
//! selection-vector refactor.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_bench::parse_select as parse;
use etable_datagen::{generate, GenConfig};
use etable_relational::sql::executor::execute_query;

fn bench_join(c: &mut Criterion) {
    let db = generate(&GenConfig::medium());
    let cases: &[(&str, &str)] = &[
        // 3-table chain, final projection gathers straight into output
        // columns (no grouping): the duplication-blowup workload of Fig 1.
        (
            "project_3way",
            "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id",
        ),
        // Pushdown selection composing into the join's row-id vectors.
        (
            "filtered_3way",
            "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.year >= 2008",
        ),
        // Grouped join tail: aggregates straight off the selection
        // vectors, no input row ever materialized.
        (
            "group_3way",
            "SELECT c.acronym, COUNT(*) AS n FROM Conferences c, Papers p, Paper_Authors pa \
             WHERE p.conference_id = c.id AND pa.paper_id = p.id \
             GROUP BY c.acronym ORDER BY n DESC, c.acronym",
        ),
        // Text-keyed self join: probe keys are interned u32 symbol words.
        (
            "text_selfjoin",
            "SELECT COUNT(*) AS n FROM Papers p, Papers q WHERE p.title = q.title",
        ),
    ];
    let mut group = c.benchmark_group("join");
    group.sample_size(30);
    for (name, sql) in cases {
        let q = parse(sql);
        group.bench_function(*name, |b| {
            b.iter(|| {
                execute_query(&db, &q)
                    .expect("benchmark query executes")
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
