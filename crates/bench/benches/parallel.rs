//! Morsel-execution benchmarks: the same filtered scan, join probe, and
//! grouped aggregation measured at pool sizes 1 and 4 (installed
//! in-process via `exec::pool::with_pool`, never through the
//! environment), plus `scan_like_title_dict` — a LIKE scan answered by one
//! per-symbol bitmap probe per row.
//!
//! On the 1-CPU dev container the pool-4 numbers measure dispatch overhead
//! rather than speedup; the committed baseline pins them anyway so that
//! overhead cannot silently regress.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_bench::parse_select as parse;
use etable_datagen::{generate, GenConfig};
use etable_relational::exec::pool::{with_pool, Pool, PoolConfig};
use etable_relational::sql::executor::execute_query;

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
        let q = parse(sql);
        for threads in [1usize, 4] {
            let pool = Pool::new(PoolConfig::fixed(threads));
            group.bench_function(format!("{name}_pool{threads}"), |b| {
                with_pool(&pool, || {
                    b.iter(|| {
                        execute_query(&db, &q)
                            .expect("benchmark query executes")
                            .len()
                    })
                })
            });
        }
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
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
