//! Storage bench family: pins the disk-resident snapshot's cold-start
//! contract. `open_snapshot` vs `datagen_medium` is the load-bearing
//! pair — opening the saved binary corpus must beat regenerating it by
//! at least 5x (the CI bench gate holds each family to its baseline, so
//! a regression in either side of the ratio is caught). `save_medium`
//! prices snapshot creation (paid once per cache miss). At 38 000 papers,
//! `translate` and `check_integrity` price the two bulk users of
//! foreign-key matching — the graph's edge load and the whole-database
//! check — and `write_cycle` is the write path end to end: the load
//! harness's INSERT / UPDATE / DELETE of one `Papers` row through
//! [`SharedDatabase::execute`], each a clone-modify-publish of the whole
//! database beside a pinned reader (the DELETE's RESTRICT check reads the
//! stored index of every foreign key referencing `Papers`).
//! `translate` runs on a database with no stored foreign-key index, as a
//! freshly loaded one has, so it pays for building them;
//! `check_integrity` reads the indexes that are already built, and
//! `fk_index_build` is the same check on a cold database, so the two
//! differ by the build. `delete_restrict` is the write cycle's DELETE
//! alone.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_datagen::{generate, GenConfig};
use etable_relational::database::Database;
use etable_relational::shared::SharedDatabase;
use etable_tgm::{translate, TranslateOptions};
use std::path::PathBuf;

/// Scratch directory for this process's bench snapshots.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("etable-bench-storage-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_storage(c: &mut Criterion) {
    let cfg = GenConfig::medium();
    let db = generate(&cfg);
    let dir = scratch("open");
    db.save(&dir).expect("bench snapshot saves");

    let mut group = c.benchmark_group("storage");
    group.sample_size(10);
    // The cold path the snapshot cache replaces: full generation.
    group.bench_function("datagen_medium", |b| {
        b.iter(|| generate(&cfg).table_names().len())
    });
    // Snapshot creation cost (one cache miss).
    let save_dir = scratch("save");
    group.bench_function("save_medium", |b| {
        b.iter(|| db.save(&save_dir).expect("save succeeds"))
    });
    // The warm path: open reads, verifies and decodes every column, so
    // this is the whole interactive cold-start cost — it must undercut
    // datagen_medium by >= 5x.
    group.bench_function("open_snapshot", |b| {
        b.iter(|| {
            Database::open(&dir)
                .expect("open succeeds")
                .table_names()
                .len()
        })
    });
    // Generated last: its strings join the interner the entries above
    // were measured over. The pinned snapshot keeps the previous epoch
    // alive across the cycle, so every statement's copy-on-write is real
    // and the old epoch's drop is paid inside the measurement.
    let paper_scale = generate(&GenConfig::medium().with_papers(38_000));
    // `table_mut` drops the stored indexes into and out of a table, so a
    // clone put through it for every table has none.
    let names: Vec<String> = paper_scale
        .table_names()
        .into_iter()
        .map(String::from)
        .collect();
    let cold = || {
        let mut db = paper_scale.clone();
        for name in &names {
            db.table_mut(name).expect("table exists");
        }
        db
    };
    group.bench_function("translate", |b| {
        b.iter(|| {
            translate(&cold(), &TranslateOptions::default())
                .expect("corpus translates")
                .instances
                .edge_count()
        })
    });
    paper_scale.check_integrity().expect("corpus is consistent");
    group.bench_function("check_integrity", |b| {
        b.iter(|| paper_scale.check_integrity().expect("corpus is consistent"))
    });
    group.bench_function("fk_index_build", |b| {
        b.iter(|| cold().check_integrity().expect("corpus is consistent"))
    });
    let shared = SharedDatabase::new(paper_scale);
    group.bench_function("write_cycle", |b| {
        b.iter(|| {
            let _reader = shared.snapshot();
            for stmt in [
                "INSERT INTO Papers VALUES (10000042, 1, 'benchmark data row 42', 2010, 17, 25)",
                "UPDATE Papers SET year = 2100 WHERE id = 10000042",
                "DELETE FROM Papers WHERE id = 10000042",
            ] {
                shared.execute(stmt).expect("write succeeds");
            }
        })
    });
    // One row per call (the warm-up call and 10 samples), deleted last
    // inserted first, so each DELETE removes the table's last row, as the
    // write cycle's does.
    let ids: Vec<i64> = (0..11).map(|i| 20_000_000 + i).collect();
    for id in &ids {
        shared
            .execute(&format!(
                "INSERT INTO Papers VALUES ({id}, 1, 'restrict row', 2010, 17, 25)"
            ))
            .expect("insert succeeds");
    }
    let mut doomed = ids.into_iter().rev();
    group.bench_function("delete_restrict", |b| {
        b.iter(|| {
            let _reader = shared.snapshot();
            let id = doomed.next().expect("one row per call");
            shared
                .execute(&format!("DELETE FROM Papers WHERE id = {id}"))
                .expect("delete succeeds")
        })
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&save_dir);
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
