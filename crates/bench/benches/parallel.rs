//! Morsel-execution benchmarks: the same filtered scan, join probe, and
//! grouped aggregation measured at pool sizes 1 and 4 (installed
//! in-process via `exec::pool::with_pool`, never through the
//! environment), plus `scan_like_title_dict` — a LIKE scan answered by one
//! per-symbol bitmap probe per row. Those run on the medium corpus (3 000
//! papers, two morsels of `Papers`); `grouped_agg_highcard` groups the
//! 110 746 rows of `Paper_Authors` at 38 000 papers into 20 671 groups —
//! the size at which the per-morsel partial tables used to make pool 2
//! slower than pool 1. Grouping is sequential now, so its pool-4 entries
//! pin "no slower than pool 1".
//!
//! On the 1-CPU dev container the pool-4 numbers measure dispatch overhead
//! rather than speedup; the committed baseline pins them anyway so that
//! overhead cannot silently regress.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use etable_bench::parse_select as parse;
use etable_datagen::{generate, GenConfig};
use etable_relational::database::Database;
use etable_relational::exec::pool::{with_pool, Pool, PoolConfig};
use etable_relational::sql::executor::execute_query;

/// Benches `sql` over `db` as `{name}_pool1` and `{name}_pool4`.
fn bench_pools(group: &mut BenchmarkGroup<'_>, db: &Database, name: &str, sql: &str) {
    let q = parse(sql);
    for threads in [1usize, 4] {
        let pool = Pool::new(PoolConfig::fixed(threads));
        group.bench_function(format!("{name}_pool{threads}"), |b| {
            with_pool(&pool, || {
                b.iter(|| {
                    execute_query(db, &q)
                        .expect("benchmark query executes")
                        .len()
                })
            })
        });
    }
}

fn bench_parallel(c: &mut Criterion) {
    let db = generate(&GenConfig::medium());
    let cases: &[(&str, &str)] = &[
        (
            "filtered_scan",
            "SELECT id FROM Papers WHERE year >= 2005 AND title LIKE '%data%'",
        ),
        (
            "join_probe",
            "SELECT pa.paper_id FROM Papers p, Paper_Authors pa WHERE p.id = pa.paper_id",
        ),
        (
            "grouped_agg",
            "SELECT year, COUNT(*) AS n, SUM(id) AS s FROM Papers GROUP BY year",
        ),
    ];
    let mut group = c.benchmark_group("parallel");
    group.sample_size(30);
    for (name, sql) in cases {
        bench_pools(&mut group, &db, name, sql);
    }
    // The dictionary-predicate LIKE scan: one bitmap probe per row.
    let like = parse("SELECT id FROM Papers WHERE title LIKE '%data%'");
    let pool = Pool::new(PoolConfig::fixed(1));
    group.bench_function("scan_like_title_dict", |b| {
        with_pool(&pool, || {
            b.iter(|| {
                execute_query(&db, &like)
                    .expect("benchmark query executes")
                    .len()
            })
        });
    });
    // Generated last: a second, twelve times larger corpus in the process
    // (its strings join the interner the LIKE bitmap is built over) must
    // not sit under the medium-scale entries above.
    let paper_scale = generate(&GenConfig::medium().with_papers(38_000));
    bench_pools(
        &mut group,
        &paper_scale,
        "grouped_agg_highcard",
        "SELECT author_id, COUNT(*) AS n FROM Paper_Authors GROUP BY author_id",
    );
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
