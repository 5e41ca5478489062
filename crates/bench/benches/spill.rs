//! Grace-join spill benchmarks: the same 3-way join executed resident
//! (unlimited budget — the unchanged fast path) and under memory budgets
//! that force the disk-spilling Grace path (`storage::spill`), swept
//! in-process with `exec::budget::with_budget` so one run measures both
//! regimes on identical data.
//!
//! `resident_3way` pins the fast path against the committed baseline —
//! the budget check is one thread-local read per join, so this median
//! must not move. `grace_64k` partitions the build side once and joins
//! most partitions through the resident kernel; `grace_1` is the
//! adversarial floor: every partition is over budget at every depth, so
//! the join recurses to the bound and finishes on the sort fallback.
//! Output cardinality is asserted equal across all three every
//! iteration — a spill bench that returned different rows would be
//! measuring a bug.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_bench::parse_select as parse;
use etable_datagen::{generate, GenConfig};
use etable_relational::exec::budget::with_budget;
use etable_relational::sql::executor::execute_query;

fn bench_spill(c: &mut Criterion) {
    let db = generate(&GenConfig::medium());
    let q = parse(
        "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a \
         WHERE p.id = pa.paper_id AND pa.author_id = a.id",
    );
    let expected = execute_query(&db, &q)
        .expect("benchmark query executes")
        .len();

    let cases: &[(&str, Option<u64>)] = &[
        ("resident_3way", None),
        ("grace_64k", Some(64 << 10)),
        ("grace_1", Some(1)),
    ];
    let mut group = c.benchmark_group("spill");
    group.sample_size(10);
    for &(name, budget) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                let n = with_budget(budget, || {
                    execute_query(&db, &q)
                        .expect("benchmark query executes")
                        .len()
                });
                assert_eq!(n, expected, "spilled join changed cardinality");
                n
            })
        });
    }
    group.finish();

    // Spill hygiene: every per-join directory removes itself, and the last
    // drop removes the root. Leftovers would mean the RAII cleanup broke.
    let root = std::env::temp_dir().join("etable-spill");
    assert!(
        !root.exists(),
        "leftover spill files under {}",
        root.display()
    );
}

criterion_group!(benches, bench_spill);
criterion_main!(benches);
