//! Differential testing of the SQL planner: randomly generated queries are
//! executed by the optimizing executor (predicate pushdown + greedy hash
//! joins) and by the naive cross-product evaluator; results must be
//! identical bags.

use etable_relational::database::Database;
use etable_relational::sql::naive::execute_query_naive;
use etable_relational::sql::{execute, executor::execute_query, parse_statement, Statement};
use etable_relational::value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// A three-table star schema with moderately skewed data.
fn fixture() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut db = Database::new();
        for stmt in [
            "CREATE TABLE dim (id INT PRIMARY KEY, grp INT NOT NULL, tag TEXT NOT NULL)",
            "CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT REFERENCES dim(id), \
             val INT NOT NULL, note TEXT)",
            "CREATE TABLE link (fact_id INT, dim_id INT, PRIMARY KEY (fact_id, dim_id), \
             FOREIGN KEY (fact_id) REFERENCES fact (id), \
             FOREIGN KEY (dim_id) REFERENCES dim (id))",
        ] {
            execute(&mut db, stmt).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(17);
        for id in 1..=20i64 {
            let grp = rng.gen_range(0..4);
            let tag = ["red", "green", "blue"][rng.gen_range(0..3)];
            db.insert("dim", vec![id.into(), grp.into(), tag.into()])
                .unwrap();
        }
        for id in 1..=60i64 {
            let dim = rng.gen_range(1..=20i64);
            let val = rng.gen_range(0..100i64);
            let note: Value = if rng.gen_range(0..5) == 0 {
                Value::Null
            } else {
                ["x", "xy", "yz", "zz"][rng.gen_range(0..4)].into()
            };
            db.insert("fact", vec![id.into(), dim.into(), val.into(), note])
                .unwrap();
        }
        let mut pairs = std::collections::BTreeSet::new();
        while pairs.len() < 50 {
            pairs.insert((rng.gen_range(1..=60i64), rng.gen_range(1..=20i64)));
        }
        for (f, d) in pairs {
            db.insert("link", vec![f.into(), d.into()]).unwrap();
        }
        db
    })
}

/// Builds a random supported SELECT over the fixture schema.
fn random_sql(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    // FROM shape: 1..3 tables with join conditions keeping results bounded.
    let shape = rng.gen_range(0..4);
    let (from, joins): (&str, Vec<String>) = match shape {
        0 => ("dim d", vec![]),
        1 => ("fact f", vec![]),
        2 => ("fact f, dim d", vec!["f.dim_id = d.id".to_string()]),
        _ => (
            "fact f, link l, dim d",
            vec![
                "l.fact_id = f.id".to_string(),
                "l.dim_id = d.id".to_string(),
            ],
        ),
    };
    let has_dim = shape != 1;
    let has_fact = shape != 0;

    // Random predicates.
    let mut preds = joins;
    for _ in 0..rng.gen_range(0..3) {
        let p = match rng.gen_range(0..6) {
            0 if has_fact => format!("f.val >= {}", rng.gen_range(0..100)),
            1 if has_fact => format!("f.val < {}", rng.gen_range(0..100)),
            2 if has_dim => format!("d.grp = {}", rng.gen_range(0..4)),
            3 if has_dim => format!("d.tag LIKE '%{}%'", ["r", "e", "u"][rng.gen_range(0..3)]),
            4 if has_fact => "f.note IS NULL".to_string(),
            _ if has_fact => format!(
                "f.val IN ({}, {})",
                rng.gen_range(0..50),
                rng.gen_range(50..100)
            ),
            _ => format!("d.grp <> {}", rng.gen_range(0..4)),
        };
        preds.push(p);
    }
    let where_clause = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };

    // Grouped or plain projection; ORDER BY makes comparison deterministic
    // after sorting rows ourselves, so it is optional here.
    if rng.gen_range(0..3) == 0 && has_dim {
        let having = if rng.gen_range(0..2) == 0 {
            " HAVING COUNT(*) >= 1".to_string()
        } else {
            String::new()
        };
        format!(
            "SELECT d.grp, COUNT(*) AS n, MIN(d.id), MAX(d.id) FROM {from}{where_clause} \
             GROUP BY d.grp{having}"
        )
    } else {
        let distinct = if rng.gen_range(0..3) == 0 {
            "DISTINCT "
        } else {
            ""
        };
        let cols = match (has_fact, has_dim) {
            (true, true) => "f.id, f.val, d.tag",
            (true, false) => "f.id, f.val",
            _ => "d.id, d.tag",
        };
        format!("SELECT {distinct}{cols} FROM {from}{where_clause}")
    }
}

/// Runs `sql` on `db` through both engines and returns (planned, naive).
fn both_on(db: &Database, sql: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let q = match parse_statement(sql).unwrap() {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    (
        execute_query(db, &q)
            .unwrap()
            .rows
            .iter()
            .collect::<Vec<_>>(),
        execute_query_naive(db, &q)
            .unwrap()
            .rows
            .iter()
            .collect::<Vec<_>>(),
    )
}

/// Both engines over the fixture, as sorted bags.
fn run_both(sql: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let (mut planned, mut naive) = both_on(fixture(), sql);
    planned.sort();
    naive.sort();
    (planned, naive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn planner_agrees_with_naive_evaluator(seed in 0u64..100_000) {
        let sql = random_sql(seed);
        let (planned, naive) = run_both(&sql);
        prop_assert_eq!(planned, naive, "divergence on: {}", sql);
    }
}

#[test]
fn planner_agrees_on_handpicked_corner_cases() {
    for sql in [
        // Empty result propagation.
        "SELECT f.id, f.val FROM fact f WHERE f.val > 1000",
        // NULL-heavy predicate.
        "SELECT f.id, f.val FROM fact f WHERE f.note IS NULL AND f.val >= 0",
        // Cross join without condition (small tables only).
        "SELECT d.id, d.tag FROM dim d, dim e WHERE d.grp = 1 AND e.grp = 2",
        // Aggregate over empty input.
        "SELECT d.grp, COUNT(*) AS n FROM dim d WHERE d.grp > 99 GROUP BY d.grp",
        // DISTINCT shrinking a join.
        "SELECT DISTINCT d.tag FROM fact f, dim d WHERE f.dim_id = d.id",
    ] {
        let (planned, naive) = run_both(sql);
        assert_eq!(planned, naive, "divergence on: {sql}");
    }
}

#[test]
fn hash_join_on_interned_text_keys_agrees_with_naive() {
    // Joins keyed on TEXT columns exercise the symbol-id hash path of the
    // interned executor; the naive cross-product oracle and a hand-computed
    // expectation pin the semantics. Tags are interned in an order unrelated
    // to the data so symbol ids and join keys cannot accidentally align.
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE l (id INT PRIMARY KEY, tag TEXT)",
        "CREATE TABLE r (id INT PRIMARY KEY, tag TEXT)",
        "INSERT INTO l VALUES (1, 'zeta'), (2, 'alpha'), (3, 'alpha'), (4, NULL), (5, 'mu')",
        "INSERT INTO r VALUES (1, 'alpha'), (2, 'mu'), (3, 'mu'), (4, NULL), (5, 'omega')",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    let sql = "SELECT l.id, r.id, l.tag FROM l, r WHERE l.tag = r.tag";
    let q = match parse_statement(sql).unwrap() {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    let mut planned = execute_query(&db, &q)
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>();
    let mut naive = execute_query_naive(&db, &q)
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>();
    planned.sort();
    naive.sort();
    assert_eq!(planned, naive);
    // 'alpha' x 2 on the left matches 1 on the right; 'mu' x 1 matches 2;
    // NULL never joins: 2*1 + 1*2 = 4 rows.
    assert_eq!(planned.len(), 4);
    assert!(planned.iter().all(|r| !r[2].is_null()));
}

#[test]
fn cyclic_join_graph_is_handled() {
    // fact-link-dim plus a redundant fact.dim_id = dim.id edge forms a
    // cycle; the greedy planner applies the extra edge as a filter.
    let sql = "SELECT f.id, f.val, d.tag FROM fact f, link l, dim d \
               WHERE l.fact_id = f.id AND l.dim_id = d.id AND f.dim_id = d.id";
    let (planned, naive) = run_both(sql);
    assert_eq!(planned, naive);
}

#[test]
fn integer_sums_are_exact_beyond_f64_precision() {
    // 2^53 + 1 is the first integer an f64 cannot hold: an accumulator
    // that passes through f64 returns ...992. The fuzzer's integers are
    // small, so only these hand-picked cases reach the boundary.
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE t (id INT PRIMARY KEY, x INT NOT NULL)",
        "INSERT INTO t VALUES (1, 9007199254740993), (2, 0)",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    let (planned, naive) = both_on(&db, "SELECT SUM(t.x) FROM t");
    assert_eq!(planned, vec![vec![Value::Int(9_007_199_254_740_993)]]);
    assert_eq!(naive, planned);
    // Grouped, and beside AVG, whose integer sum is exact before its one
    // division.
    let (planned, naive) = both_on(&db, "SELECT t.id, SUM(t.x), AVG(t.x) FROM t GROUP BY t.id");
    assert_eq!(naive, planned);
}

#[test]
fn integer_sum_saturates_in_both_engines() {
    let mut db = Database::new();
    execute(
        &mut db,
        "CREATE TABLE t (id INT PRIMARY KEY, x INT NOT NULL)",
    )
    .unwrap();
    for id in [1, 2] {
        db.insert("t", vec![Value::Int(id), Value::Int(i64::MAX)])
            .unwrap();
    }
    let (planned, naive) = both_on(&db, "SELECT SUM(t.x) FROM t");
    assert_eq!(planned, vec![vec![Value::Int(i64::MAX)]]);
    assert_eq!(naive, planned);
    // Saturation applies once, to the final sum: a running total that
    // leaves the i64 range and comes back is still exact.
    for id in [3, 4] {
        db.insert("t", vec![Value::Int(id), Value::Int(i64::MIN)])
            .unwrap();
    }
    let (planned, naive) = both_on(&db, "SELECT SUM(t.x) FROM t");
    assert_eq!(planned, vec![vec![Value::Int(-2)]]);
    assert_eq!(naive, planned);
}

#[test]
fn sum_over_float_column_with_integer_inputs_is_float() {
    // Integer literals stored into a FLOAT column are float inputs: the
    // sum is FLOAT even when every input was written as an integer.
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE t (id INT PRIMARY KEY, f FLOAT)",
        "INSERT INTO t VALUES (1, 1), (2, 2.5), (3, NULL), (4, 9007199254740993)",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    let (planned, naive) = both_on(&db, "SELECT SUM(t.f), AVG(t.f) FROM t");
    assert_eq!(naive, planned);
    assert!(matches!(planned[0][0], Value::Float(_)), "{planned:?}");
    let (planned, naive) = both_on(&db, "SELECT SUM(t.f) FROM t WHERE t.id <= 2");
    assert_eq!(planned, vec![vec![Value::Float(3.5)]]);
    assert_eq!(naive, planned);
}
