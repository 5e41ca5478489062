//! Concurrent-reader stress suite for [`SharedDatabase`]: N threads × M
//! mixed queries against one shared database must produce results
//! byte-identical to the sequential baseline — including under a forced
//! `ETABLE_MEM_BUDGET`-style spill budget, where every thread's joins go
//! through their own on-disk spill directories concurrently.

use etable_relational::database::Database;
use etable_relational::exec::budget::with_budget;
use etable_relational::relation::Relation;
use etable_relational::shared::SharedDatabase;
use etable_relational::sql::execute;
use etable_relational::storage::spill::grace_joins_on_this_thread;
use etable_relational::value::Value;
use std::thread;

const READERS: usize = 8;
const ROUNDS: usize = 4;

/// A deterministic three-table corpus big enough to exercise joins,
/// grouping, LIKE scans and sorting, small enough to keep the suite fast.
/// With `fks` false the link table declares no foreign keys, so every
/// join is a hash join (a join along a stored foreign-key index never
/// spills).
fn build_db(fks: bool) -> Database {
    let mut db = Database::new();
    execute(
        &mut db,
        "CREATE TABLE authors (id INT PRIMARY KEY, name TEXT NOT NULL, born INT)",
    )
    .unwrap();
    execute(
        &mut db,
        "CREATE TABLE papers (id INT PRIMARY KEY, title TEXT NOT NULL, year INT NOT NULL)",
    )
    .unwrap();
    let keys = if fks {
        ", FOREIGN KEY (paper_id) REFERENCES papers (id), \
         FOREIGN KEY (author_id) REFERENCES authors (id)"
    } else {
        ""
    };
    execute(
        &mut db,
        &format!(
            "CREATE TABLE paper_authors (paper_id INT, author_id INT, \
             PRIMARY KEY (paper_id, author_id){keys})"
        ),
    )
    .unwrap();
    let mut batch = |rows: Vec<String>, table: &str| {
        for chunk in rows.chunks(64) {
            execute(
                &mut db,
                &format!("INSERT INTO {table} VALUES {}", chunk.join(", ")),
            )
            .unwrap();
        }
    };
    batch(
        (0..150)
            .map(|i| {
                format!(
                    "({i}, 'author {}{i}', {})",
                    (b'a' + (i % 26) as u8) as char,
                    1940 + i % 60
                )
            })
            .collect(),
        "authors",
    );
    batch(
        (0..300)
            .map(|i| {
                format!(
                    "({i}, 'paper {} on topic {}', {})",
                    i,
                    i % 17,
                    1990 + i % 30
                )
            })
            .collect(),
        "papers",
    );
    batch(
        (0..300)
            .flat_map(|p| (0..=(p % 3)).map(move |k| format!("({p}, {})", (p * 7 + k * 31) % 150)))
            .collect(),
        "paper_authors",
    );
    db
}

/// The mixed read workload: scans, LIKE, multi-way joins, grouping,
/// aggregates, DISTINCT, pagination, and EXPLAIN (whose plan text must
/// also be byte-stable across threads).
const QUERIES: [&str; 10] = [
    "SELECT name, born FROM authors ORDER BY id",
    "SELECT COUNT(*) FROM papers",
    "SELECT title FROM papers WHERE title LIKE '%topic 1%' ORDER BY title",
    "SELECT a.name, COUNT(*) AS n FROM authors a, paper_authors pa \
     WHERE a.id = pa.author_id GROUP BY a.name ORDER BY n DESC, a.name LIMIT 25",
    "SELECT p.title, a.name FROM papers p, paper_authors pa, authors a \
     WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.year > 2010 \
     ORDER BY p.title, a.name",
    "SELECT DISTINCT year FROM papers ORDER BY year DESC",
    "SELECT MIN(born), MAX(born), AVG(born) FROM authors",
    "SELECT year, COUNT(*) AS n FROM papers GROUP BY year HAVING COUNT(*) > 8 ORDER BY year",
    "SELECT id, title FROM papers ORDER BY year, id LIMIT 20 OFFSET 35",
    "EXPLAIN SELECT a.name FROM authors a, paper_authors pa \
     WHERE a.id = pa.author_id AND a.born < 1960 GROUP BY a.name",
];

/// Canonical byte form of a result: column shape plus every row.
fn canon(r: &Relation) -> String {
    let cols: Vec<String> = r
        .columns
        .iter()
        .map(|c| format!("{}:{:?}", c.qualified_name(), c.data_type))
        .collect();
    format!("{cols:?}\n{:?}", r.rows)
}

/// Runs every query sequentially against `db` and returns the canonical
/// baselines.
fn baselines(db: &SharedDatabase) -> Vec<String> {
    QUERIES
        .iter()
        .map(|q| canon(&db.execute(q).unwrap()))
        .collect()
}

/// `READERS` threads, each running every query `ROUNDS` times against the
/// shared handle (with a per-thread stagger so different queries overlap),
/// all asserting byte-identity with the sequential baseline. Under a
/// budget every thread must also have run Grace joins.
fn hammer(db: &SharedDatabase, expected: &[String], budget: Option<u64>) {
    let threads: Vec<_> = (0..READERS)
        .map(|t| {
            let db = db.clone();
            let expected = expected.to_vec();
            thread::spawn(move || {
                let spilled_before = grace_joins_on_this_thread();
                with_budget(budget, || {
                    for round in 0..ROUNDS {
                        for qi in 0..QUERIES.len() {
                            // Stagger so thread t starts at a different query.
                            let qi = (qi + t + round) % QUERIES.len();
                            let got = canon(&db.execute(QUERIES[qi]).unwrap());
                            assert_eq!(
                                got, expected[qi],
                                "thread {t} round {round} diverged on: {}",
                                QUERIES[qi]
                            );
                        }
                    }
                });
                if budget.is_some() {
                    assert!(
                        grace_joins_on_this_thread() > spilled_before,
                        "thread {t} ran no Grace join under budget {budget:?}"
                    );
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_readers_match_sequential_baseline() {
    let db = SharedDatabase::new(build_db(true));
    let expected = baselines(&db);
    hammer(&db, &expected, None);
}

#[test]
fn concurrent_readers_match_baseline_under_forced_spilling() {
    let db = SharedDatabase::new(build_db(false));
    // Baseline computed unspilled; a 64-byte budget then forces every
    // thread's hash joins through the Grace spill path concurrently.
    let expected = baselines(&db);
    hammer(&db, &expected, Some(64));

    // Per-connection spill directories are named <pid>-<seq> off one
    // process-global counter, so concurrent joins never collide, and each
    // directory is removed when its join finishes: after the stress run
    // this process must leave nothing behind.
    let root = std::env::temp_dir().join("etable-spill");
    if let Ok(entries) = std::fs::read_dir(&root) {
        let pid_prefix = format!("{}-", std::process::id());
        let leftovers: Vec<_> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&pid_prefix))
            .collect();
        assert!(
            leftovers.is_empty(),
            "leftover spill dirs after concurrent run: {leftovers:?}"
        );
    }
}

#[test]
fn readers_see_only_published_epochs_during_writes() {
    let db = SharedDatabase::new(build_db(true));
    const NEW_ROWS: i64 = 40;

    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            for i in 0..NEW_ROWS {
                db.execute(&format!(
                    "INSERT INTO authors VALUES ({}, 'late author {i}', 2000)",
                    1000 + i
                ))
                .unwrap();
            }
        })
    };

    // Every count a reader observes must be a published prefix state
    // (150 + k for some whole statement k), and per-reader observations
    // are monotonic because each query pins a fresh, newer-or-equal epoch.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            thread::spawn(move || {
                let mut last = 0i64;
                for _ in 0..60 {
                    let r = db.execute("SELECT COUNT(*) FROM authors").unwrap();
                    let Value::Int(n) = r.get(0, 0) else {
                        panic!("COUNT(*) not an int");
                    };
                    assert!(
                        (150..=150 + NEW_ROWS).contains(&n),
                        "count {n} is not a published state"
                    );
                    assert!(n >= last, "count went backwards: {last} -> {n}");
                    last = n;
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for h in readers {
        h.join().unwrap();
    }
    let r = db.execute("SELECT COUNT(*) FROM authors").unwrap();
    assert_eq!(r.get(0, 0), Value::Int(150 + NEW_ROWS));
    assert_eq!(db.epoch(), NEW_ROWS as u64);
}
