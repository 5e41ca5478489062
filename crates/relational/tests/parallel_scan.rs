//! Pool invisibility: every data-parallel kernel — the sharded filtered
//! scan and the morselized hash-join probe — and everything downstream of
//! them (grouped aggregation, top-k ordering) must produce byte-identical
//! results (rows, row order, ORDER BY tie policy, and error messages) at
//! every worker pool size.
//!
//! Pool sizes are swept **in-process** with
//! [`etable_relational::exec::pool::with_pool`] over explicitly
//! constructed pools: the process environment is never mutated
//! (`ETABLE_SCAN_THREADS` is read exactly once, at global-pool
//! construction, and `std::env::set_var` in a threaded process is a
//! glibc data race anyway — the repo lint forbids it in tests too).

use etable_relational::database::Database;
use etable_relational::exec::pool::{with_pool, Pool, PoolConfig, CHUNK_ROWS};
use etable_relational::sql::{execute, executor::execute_query, parse_statement, Statement};
use etable_relational::value::Value;

fn fixture() -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE big (id INT PRIMARY KEY, grp INT NOT NULL, txt TEXT, val INT)",
        "CREATE TABLE side (id INT PRIMARY KEY, name TEXT NOT NULL)",
        "INSERT INTO side VALUES (0, 'even'), (1, 'odd')",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    let words = ["pear", "apple", "fig", "banana", "kiwi"];
    let n = 3 * CHUNK_ROWS + 123; // several chunks plus a ragged tail
    let rows: Vec<Vec<Value>> = (0..n as i64)
        .map(|i| {
            vec![
                i.into(),
                (i % 7).into(),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    words[(i % 5) as usize].into()
                },
                if i % 13 == 0 {
                    Value::Null
                } else {
                    ((i * 37) % 100).into()
                },
            ]
        })
        .collect();
    db.append_rows("big", rows).unwrap();
    db
}

fn run(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let q = match parse_statement(sql).unwrap() {
        Statement::Select(q) => q,
        other => panic!("expected SELECT, got {other:?}"),
    };
    execute_query(db, &q).unwrap().rows
}

/// Runs every query at pool sizes 1, 2 and 8 and asserts the rows are
/// byte-identical to the size-1 (sequential) baseline.
fn assert_pool_invisible(db: &Database, queries: &[&str], expect_rows: bool) {
    let mut baseline: Vec<Vec<Vec<Value>>> = Vec::new();
    for (pi, threads) in [1usize, 2, 8].into_iter().enumerate() {
        let pool = Pool::new(PoolConfig::fixed(threads));
        with_pool(&pool, || {
            for (qi, sql) in queries.iter().enumerate() {
                let rows = run(db, sql);
                if pi == 0 {
                    if expect_rows {
                        assert!(!rows.is_empty(), "fixture must exercise `{sql}`");
                    }
                    baseline.push(rows);
                } else {
                    assert_eq!(
                        rows, baseline[qi],
                        "pool size {threads} diverged from sequential on `{sql}`"
                    );
                }
            }
        });
    }
}

#[test]
fn scan_join_group_identical_across_pool_sizes() {
    let db = fixture();
    assert_pool_invisible(
        &db,
        &[
            // Sharded filtered scan (LIKE runs on the dictionary bitmap),
            // output in row order.
            "SELECT id, txt FROM big WHERE val >= 50 AND txt LIKE '%a%'",
            // Vectorized group scan over a selection vector, with HAVING and
            // a tie-prone ORDER BY (many groups share n).
            "SELECT grp, COUNT(*) AS n, MIN(txt) AS lo, MAX(val) AS hi FROM big \
             WHERE val < 90 GROUP BY grp HAVING COUNT(*) > 10 ORDER BY n DESC, grp",
            // ORDER BY with ties on a text key: the stable-sort ties policy
            // (input order) must survive any pool size.
            "SELECT txt, id FROM big WHERE grp = 3 ORDER BY txt LIMIT 200",
            // Grouped join over the scans' selection vectors.
            "SELECT s.name, COUNT(*) AS n FROM big b, side s \
             WHERE b.grp = s.id AND b.val >= 10 GROUP BY s.name ORDER BY s.name",
            // Non-grouped join projection with no ORDER BY: the morselized
            // probe's pair order must be byte-identical at every pool size
            // because pairs are merged in chunk order.
            "SELECT b.id, b.txt, s.name FROM big b, side s \
             WHERE b.grp = s.id AND b.val >= 50 LIMIT 500",
            // 3-table chain (self-joining the side table under two aliases)
            // over a text-filtered parallel scan.
            "SELECT b.id, s.name, c.name FROM big b, side s, side c \
             WHERE b.grp = s.id AND b.val = c.id AND b.txt LIKE '%a%'",
            // Global aggregates over the full table (no selection vector):
            // every aggregate kind in one pass.
            "SELECT COUNT(*) AS n, COUNT(val) AS nv, SUM(val) AS s, AVG(val) AS a, \
             MIN(val) AS lo, MAX(val) AS hi, MIN(txt) AS tl, MAX(txt) AS th FROM big",
            // Grouped AVG/SUM over INT inputs: exact `i128` accumulation.
            "SELECT grp, SUM(val) AS s, AVG(val) AS a FROM big \
             GROUP BY grp ORDER BY grp",
            // More groups than a morsel has rows, in first-occurrence
            // order (no ORDER BY), below a parallel filtered scan.
            "SELECT id, COUNT(*) AS n, SUM(val) AS s, MIN(txt) AS lo FROM big \
             WHERE val >= 5 GROUP BY id",
            // The same many-group input through HAVING and a top-k whose
            // leading key ties on every group.
            "SELECT id, COUNT(*) AS n, MAX(val) AS hi FROM big GROUP BY id \
             HAVING MAX(val) < 60 ORDER BY n DESC, hi LIMIT 50 OFFSET 7",
            // Many groups below a morselized join probe, multi-column key.
            "SELECT b.id, s.name, COUNT(*) AS n FROM big b, side s \
             WHERE b.grp = s.id GROUP BY b.id, s.name",
        ],
        true,
    );
}

#[test]
fn error_reporting_identical_across_pool_sizes() {
    // A predicate that fails mid-scan (LIKE over INT) must report the
    // error of the first failing row in row order at every pool size.
    let db = fixture();
    let q = match parse_statement("SELECT id FROM big WHERE val LIKE 'x%'").unwrap() {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    let mut messages: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(PoolConfig::fixed(threads));
        with_pool(&pool, || {
            messages.push(execute_query(&db, &q).unwrap_err().to_string());
        });
    }
    assert_eq!(messages[0], messages[1]);
    assert_eq!(messages[0], messages[2]);
}

/// Adversarial morsel boundaries: empty input, a single row, an exact
/// chunk multiple (empty tail morsel never materializes), a single-row
/// tail, and an all-rows-match predicate (maximal per-morsel output).
#[test]
fn adversarial_morsel_boundaries() {
    for n in [0usize, 1, CHUNK_ROWS, 2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 1] {
        let mut db = Database::new();
        for stmt in [
            "CREATE TABLE t (id INT PRIMARY KEY, g INT NOT NULL, w TEXT)",
            "CREATE TABLE d (g INT PRIMARY KEY, label TEXT NOT NULL)",
            "INSERT INTO d VALUES (0, 'zero'), (1, 'one'), (2, 'two')",
        ] {
            execute(&mut db, stmt).unwrap();
        }
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| vec![i.into(), (i % 3).into(), format!("w{}", i % 4).into()])
            .collect();
        db.append_rows("t", rows).unwrap();
        assert_pool_invisible(
            &db,
            &[
                // All rows match: every morsel emits its full range.
                "SELECT id FROM t WHERE id >= 0",
                // No row matches: every morsel emits nothing.
                "SELECT id FROM t WHERE id < 0",
                "SELECT t.id, d.label FROM t, d WHERE t.g = d.g AND t.id >= 0",
                "SELECT g, COUNT(*) AS n, SUM(id) AS s, MIN(w) AS lo FROM t \
                 GROUP BY g ORDER BY g",
                "SELECT COUNT(*) AS n, SUM(id) AS s FROM t",
            ],
            false,
        );
    }
}

/// Float aggregates: `f64` accumulation is order-dependent, so SUM/AVG
/// over FLOAT inputs must fold every group in row order whatever the pool
/// size is; float MIN/MAX are exact comparisons. Neither may depend on
/// the pool size.
#[test]
fn float_aggregates_identical_across_pool_sizes() {
    let mut db = Database::new();
    execute(
        &mut db,
        "CREATE TABLE fx (id INT PRIMARY KEY, g INT NOT NULL, f FLOAT)",
    )
    .unwrap();
    let n = 2 * CHUNK_ROWS + 57;
    let rows: Vec<Vec<Value>> = (0..n as i64)
        .map(|i| {
            vec![
                i.into(),
                (i % 5).into(),
                if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 200) as f64 * 0.25)
                },
            ]
        })
        .collect();
    db.append_rows("fx", rows).unwrap();
    assert_pool_invisible(
        &db,
        &[
            // SUM/AVG over FLOAT: row-order accumulation at any pool size.
            "SELECT g, SUM(f) AS s, AVG(f) AS a FROM fx GROUP BY g ORDER BY g",
            // MIN/MAX over FLOAT + COUNT.
            "SELECT g, MIN(f) AS lo, MAX(f) AS hi, COUNT(f) AS n FROM fx \
             GROUP BY g ORDER BY g",
        ],
        true,
    );
}
