//! The suite's multi-thousand-row SQL inputs — many groups, ragged row
//! counts, NULL-sprinkled keys — checked against the naive oracle
//! ([`etable_relational::sql::naive`]): every query must return the
//! oracle's rows, in the oracle's order wherever the query fixes one (a
//! single-table scan or group pass keeps row / first-occurrence order on
//! both sides; a total ORDER BY fixes it everywhere) and as a bag where it
//! does not (join output order is the plan's business). An ill-typed
//! predicate is refused by both engines before any row is read.

use etable_relational::database::Database;
use etable_relational::sql::naive::execute_query_naive;
use etable_relational::sql::{execute, executor::execute_query, parse_statement, Statement};
use etable_relational::value::Value;
use etable_relational::Error;

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
    let n = 3 * 2048 + 123;
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

fn parse(sql: &str) -> etable_relational::sql::Query {
    match parse_statement(sql).unwrap() {
        Statement::Select(q) => q,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

/// How a query's rows are compared with the oracle's.
#[derive(Clone, Copy)]
enum Cmp {
    /// Same rows in the same order.
    Ordered,
    /// Same rows as a bag: the query leaves the order to the plan.
    Bag,
}
use Cmp::{Bag, Ordered};

/// Runs every query through the executor and the oracle and asserts they
/// agree.
fn assert_matches_oracle(db: &Database, queries: &[(Cmp, &str)], expect_rows: bool) {
    for &(cmp, sql) in queries {
        let q = parse(sql);
        let mut got = execute_query(db, &q)
            .unwrap()
            .rows
            .iter()
            .collect::<Vec<_>>();
        let mut want = execute_query_naive(db, &q)
            .unwrap()
            .rows
            .iter()
            .collect::<Vec<_>>();
        if expect_rows {
            assert!(!got.is_empty(), "fixture must exercise `{sql}`");
        }
        if let Bag = cmp {
            got.sort();
            want.sort();
        }
        assert_eq!(got, want, "executor diverged from the oracle on `{sql}`");
    }
}

#[test]
fn scan_join_group_match_the_oracle() {
    let db = fixture();
    assert_matches_oracle(
        &db,
        &[
            // Filtered scan (LIKE runs on the dictionary bitmap), output in
            // row order.
            (
                Ordered,
                "SELECT id, txt FROM big WHERE val >= 50 AND txt LIKE '%a%'",
            ),
            // Vectorized group scan over a selection vector, with HAVING and
            // a tie-prone ORDER BY (many groups share n).
            (
                Ordered,
                "SELECT grp, COUNT(*) AS n, MIN(txt) AS lo, MAX(val) AS hi FROM big \
                 WHERE val < 90 GROUP BY grp HAVING COUNT(*) > 10 ORDER BY n DESC, grp",
            ),
            // ORDER BY with ties on a text key: the stable-sort ties policy
            // (input order) decides which 200 rows survive.
            (
                Ordered,
                "SELECT txt, id FROM big WHERE grp = 3 ORDER BY txt LIMIT 200",
            ),
            // Grouped join over the scans' selection vectors.
            (
                Ordered,
                "SELECT s.name, COUNT(*) AS n FROM big b, side s \
                 WHERE b.grp = s.id AND b.val >= 10 GROUP BY s.name ORDER BY s.name",
            ),
            // Non-grouped join projection under a total ORDER BY, cut by
            // LIMIT inside the probe side's row range.
            (
                Ordered,
                "SELECT b.id, b.txt, s.name FROM big b, side s \
                 WHERE b.grp = s.id AND b.val >= 50 ORDER BY b.id LIMIT 500",
            ),
            // The same probe without ORDER BY: pair order is the plan's.
            (
                Bag,
                "SELECT b.id, b.txt, s.name FROM big b, side s \
                 WHERE b.grp = s.id AND b.val >= 50",
            ),
            // 3-table chain (self-joining the side table under two aliases)
            // over a text-filtered scan.
            (
                Bag,
                "SELECT b.id, s.name, c.name FROM big b, side s, side c \
                 WHERE b.grp = s.id AND b.val = c.id AND b.txt LIKE '%a%'",
            ),
            // Global aggregates over the full table (no selection vector):
            // every aggregate kind in one pass.
            (
                Ordered,
                "SELECT COUNT(*) AS n, COUNT(val) AS nv, SUM(val) AS s, AVG(val) AS a, \
                 MIN(val) AS lo, MAX(val) AS hi, MIN(txt) AS tl, MAX(txt) AS th FROM big",
            ),
            // Grouped AVG/SUM over INT inputs: exact `i128` accumulation.
            (
                Ordered,
                "SELECT grp, SUM(val) AS s, AVG(val) AS a FROM big \
                 GROUP BY grp ORDER BY grp",
            ),
            // Thousands of groups in first-occurrence order (no ORDER BY),
            // below a filtered scan.
            (
                Ordered,
                "SELECT id, COUNT(*) AS n, SUM(val) AS s, MIN(txt) AS lo FROM big \
                 WHERE val >= 5 GROUP BY id",
            ),
            // The same many-group input through HAVING and a top-k whose
            // leading key ties on every group.
            (
                Ordered,
                "SELECT id, COUNT(*) AS n, MAX(val) AS hi FROM big GROUP BY id \
                 HAVING MAX(val) < 60 ORDER BY n DESC, hi LIMIT 50 OFFSET 7",
            ),
            // Many groups below a join probe, multi-column key.
            (
                Bag,
                "SELECT b.id, s.name, COUNT(*) AS n FROM big b, side s \
                 WHERE b.grp = s.id GROUP BY b.id, s.name",
            ),
        ],
        true,
    );
}

#[test]
fn ill_typed_predicate_is_refused_by_both_engines() {
    // LIKE over INT would fail on a row (the first non-NULL `val`), so
    // the analyzer refuses it before any row is read, for the engine and
    // the oracle alike.
    let db = fixture();
    let q = parse("SELECT id FROM big WHERE val LIKE 'x%'");
    let rejected = execute_query(&db, &q).unwrap_err();
    assert!(matches!(rejected, Error::Analyze(_)), "{rejected}");
    assert_eq!(execute_query_naive(&db, &q).unwrap_err(), rejected);
}

/// Ragged row counts: empty input, a single row, the old executor's
/// 2048-row block and its multiples, a one-row tail, with an
/// all-rows-match and a no-row-matches predicate.
#[test]
fn ragged_row_counts() {
    for n in [0usize, 1, 2048, 4096, 4097] {
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
        assert_matches_oracle(
            &db,
            &[
                (Ordered, "SELECT id FROM t WHERE id >= 0"),
                (Ordered, "SELECT id FROM t WHERE id < 0"),
                (
                    Bag,
                    "SELECT t.id, d.label FROM t, d WHERE t.g = d.g AND t.id >= 0",
                ),
                (
                    Ordered,
                    "SELECT g, COUNT(*) AS n, SUM(id) AS s, MIN(w) AS lo FROM t \
                     GROUP BY g ORDER BY g",
                ),
                (Ordered, "SELECT COUNT(*) AS n, SUM(id) AS s FROM t"),
            ],
            false,
        );
    }
}

/// Float aggregates: `f64` accumulation is order-dependent, so SUM/AVG
/// over FLOAT inputs must fold every group in row order — the order the
/// oracle folds them in — to the last bit; float MIN/MAX are exact
/// comparisons.
#[test]
fn float_aggregates_fold_in_row_order() {
    let mut db = Database::new();
    execute(
        &mut db,
        "CREATE TABLE fx (id INT PRIMARY KEY, g INT NOT NULL, f FLOAT)",
    )
    .unwrap();
    let n = 2 * 2048 + 57;
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
    assert_matches_oracle(
        &db,
        &[
            (
                Ordered,
                "SELECT g, SUM(f) AS s, AVG(f) AS a FROM fx GROUP BY g ORDER BY g",
            ),
            (
                Ordered,
                "SELECT g, MIN(f) AS lo, MAX(f) AS hi, COUNT(f) AS n FROM fx \
                 GROUP BY g ORDER BY g",
            ),
        ],
        true,
    );
}
