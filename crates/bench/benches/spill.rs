//! Grace-join spill benchmarks: the same 3-way join executed resident
//! (unlimited budget — the unchanged fast path) and under memory budgets
//! that force the disk-spilling Grace path (`storage::spill`), swept
//! in-process with `exec::budget::with_budget` so one run measures both
//! regimes on identical data.
//!
//! `resident_3way` pins the fast path against the committed baseline —
//! the budget check is one thread-local read per join, so this median
//! must not move. `grace_64k` sets a budget that every build side of
//! this corpus fits (the largest, 3 000 rows, is estimated at 54 000
//! bytes), so it prices the budget check on joins that stay resident;
//! `grace_1` is the adversarial floor: every partition is over budget at
//! every depth, so the join recurses to the bound and finishes there on
//! the resident kernel, over budget.
//! Output cardinality is asserted equal across all three every
//! iteration — a spill bench that returned different rows would be
//! measuring a bug.
//!
//! The corpus is loaded into a twin schema that declares no foreign
//! keys: a join along a stored foreign-key index never hashes or spills,
//! and every join of this query is along one. Each case asserts whether
//! it ran Grace joins.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_bench::parse_select as parse;
use etable_datagen::{generate, GenConfig};
use etable_relational::database::Database;
use etable_relational::exec::budget::with_budget;
use etable_relational::sql::executor::execute_query;
use etable_relational::storage::spill::grace_joins_on_this_thread;

/// `db`'s tables and rows under schemas without foreign keys.
fn without_fks(db: &Database) -> Database {
    let mut twin = Database::new();
    for table in db.tables() {
        let mut schema = table.schema().clone();
        schema.foreign_keys.clear();
        let name = schema.name.clone();
        twin.create_table(schema).expect("schema is valid");
        twin.append_rows(&name, table.iter_rows())
            .expect("rows fit their schema");
    }
    twin
}

fn bench_spill(c: &mut Criterion) {
    let db = without_fks(&generate(&GenConfig::medium()));
    let q = parse(
        "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a \
         WHERE p.id = pa.paper_id AND pa.author_id = a.id",
    );
    let expected = execute_query(&db, &q)
        .expect("benchmark query executes")
        .len();

    // (name, budget, whether its joins spill)
    let cases: &[(&str, Option<u64>, bool)] = &[
        ("resident_3way", None, false),
        ("grace_64k", Some(64 << 10), false),
        ("grace_1", Some(1), true),
    ];
    let mut group = c.benchmark_group("spill");
    group.sample_size(10);
    for &(name, budget, spills) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                let spilled = grace_joins_on_this_thread();
                let n = with_budget(budget, || {
                    execute_query(&db, &q)
                        .expect("benchmark query executes")
                        .len()
                });
                assert_eq!(n, expected, "spilled join changed cardinality");
                assert_eq!(
                    grace_joins_on_this_thread() > spilled,
                    spills,
                    "{name}: Grace path taken or skipped unexpectedly"
                );
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
