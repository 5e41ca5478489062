//! Aggregate edge cases pinned as unit tests: NULL-only groups, AVG
//! rounding over ints, SUM overflow behavior, grouped queries on empty
//! input, HAVING that eliminates every group, and MIN/MAX over interned
//! text under adversarial intern order — each exercised through both the
//! single-table group scan and grouping after a join, and where the
//! answer is not hand-computable cell by cell, against the naive oracle.

use etable_relational::database::Database;
use etable_relational::sql::execute;
use etable_relational::sql::naive::execute_naive;
use etable_relational::value::Value;

fn db() -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE m (id INT PRIMARY KEY, k INT NOT NULL, v INT, txt TEXT)",
        // k = 1: values present; k = 2: v and txt entirely NULL.
        "INSERT INTO m VALUES (1, 1, 1, 'pear'), (2, 1, 2, 'apple'), (3, 2, NULL, NULL), \
         (4, 2, NULL, NULL)",
        "CREATE TABLE empty_t (id INT PRIMARY KEY, k INT NOT NULL, v INT)",
        // A one-row side table so a join forces the materialized path.
        "CREATE TABLE one (id INT PRIMARY KEY)",
        "INSERT INTO one VALUES (1)",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    db
}

/// Runs `sql` through the vectorized fast path (single-table form) and
/// returns the rows.
fn run(db: &mut Database, sql: &str) -> Vec<Vec<Value>> {
    execute(db, sql).unwrap().rows.iter().collect::<Vec<_>>()
}

#[test]
fn null_only_group_yields_nulls_and_zero_counts() {
    let mut d = db();
    for sql in [
        // Vectorized single-table group scan.
        "SELECT k, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS a, \
         MIN(v) AS mn, MAX(txt) AS mx FROM m GROUP BY k ORDER BY k",
        // Same query forced through the materialized join path.
        "SELECT m.k, COUNT(*) AS n, COUNT(m.v) AS nv, SUM(m.v) AS s, AVG(m.v) AS a, \
         MIN(m.v) AS mn, MAX(m.txt) AS mx FROM m, one WHERE one.id = 1 \
         GROUP BY m.k ORDER BY m.k",
    ] {
        let rows = run(&mut d, sql);
        assert_eq!(rows.len(), 2, "{sql}");
        // Group k = 2 holds only NULLs: COUNT(*) still counts rows,
        // COUNT(v) is 0, every other aggregate is NULL.
        let g2 = &rows[1];
        assert_eq!(g2[1], Value::Int(2), "{sql}");
        assert_eq!(g2[2], Value::Int(0), "{sql}");
        assert!(g2[3].is_null() && g2[4].is_null() && g2[5].is_null() && g2[6].is_null());
    }
}

#[test]
fn avg_over_ints_is_exact_float_division() {
    let mut d = db();
    let rows = run(&mut d, "SELECT AVG(v) AS a FROM m WHERE k = 1");
    // AVG(1, 2) = 1.5, and an integral mean still comes back as FLOAT.
    assert!(matches!(rows[0][0], Value::Float(f) if f == 1.5));
    execute(&mut d, "INSERT INTO m VALUES (9, 1, 3, NULL)").unwrap();
    let rows = run(&mut d, "SELECT AVG(v) AS a FROM m WHERE k = 1");
    assert!(
        matches!(rows[0][0], Value::Float(f) if f == 2.0),
        "AVG must stay FLOAT even when integral, got {:?}",
        rows[0][0]
    );
}

/// Integer SUM accumulates exactly and saturates: a sum past `i64::MAX`
/// pins to `i64::MAX` (and symmetrically to `i64::MIN`) instead of
/// wrapping or panicking — in the engine and in the oracle, which keep
/// independent accumulators.
#[test]
fn sum_overflow_saturates_at_i64_bounds() {
    for bound in [i64::MAX, i64::MIN] {
        let mut d = Database::new();
        execute(&mut d, "CREATE TABLE big (id INT PRIMARY KEY, v INT)").unwrap();
        for id in [1, 2] {
            d.insert("big", vec![Value::Int(id), Value::Int(bound)])
                .unwrap();
        }
        let sql = "SELECT SUM(v) AS s FROM big";
        assert_eq!(run(&mut d, sql), vec![vec![Value::Int(bound)]]);
        assert_eq!(execute_naive(&d, sql).unwrap().get(0, 0), Value::Int(bound));
    }
}

/// One group mixing values and NULLs: COUNT(*) counts rows, COUNT(col)
/// and every other aggregate skip the NULL.
#[test]
fn aggregates_skip_nulls_inside_a_group() {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE g (id INT PRIMARY KEY, k INT NOT NULL, v INT)",
        "INSERT INTO g VALUES (1, 1, 10), (2, 1, NULL), (3, 2, 30)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    let sql = "SELECT k, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS a, \
               MIN(v) AS mn, MAX(v) AS mx FROM g GROUP BY k ORDER BY k";
    let rows = run(&mut d, sql);
    assert_eq!(rows, execute_naive(&d, sql).unwrap().rows);
    assert_eq!(
        rows[0],
        vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(1),
            Value::Int(10),
            Value::Float(10.0),
            Value::Int(10),
            Value::Int(10),
        ]
    );
}

#[test]
fn grouped_query_on_empty_input() {
    let mut d = db();
    // With GROUP BY: no input rows, no groups, no output rows.
    let rows = run(
        &mut d,
        "SELECT k, COUNT(*) AS n FROM empty_t GROUP BY k ORDER BY k",
    );
    assert!(rows.is_empty());
    // Global aggregates still yield exactly one row (SQL semantics):
    // COUNT 0, every other aggregate NULL.
    let rows = run(
        &mut d,
        "SELECT COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS a, MIN(v) AS mn \
         FROM empty_t",
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(0));
    assert_eq!(rows[0][1], Value::Int(0));
    assert!(rows[0][2].is_null() && rows[0][3].is_null() && rows[0][4].is_null());
    // A WHERE clause that empties a non-empty table behaves identically.
    let rows = run(&mut d, "SELECT COUNT(*) AS n FROM m WHERE k > 99");
    assert_eq!(rows[0][0], Value::Int(0));
}

#[test]
fn having_can_filter_every_group() {
    let mut d = db();
    let rows = run(
        &mut d,
        "SELECT k, COUNT(*) AS n FROM m GROUP BY k HAVING COUNT(*) > 100",
    );
    assert!(rows.is_empty());
    // HAVING over a NULL-producing aggregate: NULL comparisons are
    // UNKNOWN, which filters the group out.
    let rows = run(
        &mut d,
        "SELECT k FROM m GROUP BY k HAVING SUM(v) > -9999 ORDER BY k",
    );
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn min_max_on_text_follow_strings_not_intern_order() {
    // Intern the candidates in reverse lexicographic order first, so
    // symbol-id order inverts string order: a rank/id confusion would
    // flip every assertion below.
    for w in ["zzz-agg", "omega-agg", "delta-agg", "alpha-agg"] {
        let _ = Value::text(w);
    }
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE w (id INT PRIMARY KEY, k INT NOT NULL, txt TEXT)",
        "INSERT INTO w VALUES (1, 1, 'omega-agg'), (2, 1, 'alpha-agg'), (3, 1, 'zzz-agg'), \
         (4, 2, 'delta-agg'), (5, 2, NULL)",
        "CREATE TABLE one_w (id INT PRIMARY KEY)",
        "INSERT INTO one_w VALUES (1)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    for sql in [
        // Vectorized group scan.
        "SELECT k, MIN(txt) AS lo, MAX(txt) AS hi FROM w GROUP BY k ORDER BY k",
        // Materialized path via a join.
        "SELECT w.k, MIN(w.txt) AS lo, MAX(w.txt) AS hi FROM w, one_w \
         WHERE one_w.id = 1 GROUP BY w.k ORDER BY w.k",
    ] {
        let rows = execute(&mut d, sql)
            .unwrap()
            .rows
            .iter()
            .collect::<Vec<_>>();
        assert_eq!(rows[0][1], "alpha-agg".into(), "{sql}");
        assert_eq!(rows[0][2], "zzz-agg".into(), "{sql}");
        // Single non-NULL value: MIN == MAX, NULL ignored.
        assert_eq!(rows[1][1], "delta-agg".into(), "{sql}");
        assert_eq!(rows[1][2], "delta-agg".into(), "{sql}");
    }
}

/// A table whose every column shape can be a GROUP BY key — INT and TEXT
/// (hashed as column words), FLOAT and BOOL (value keys) — each with
/// NULLs, beside INT, FLOAT and TEXT aggregate inputs with NULLs of their
/// own.
fn key_shapes_db() -> Database {
    let mut d = Database::new();
    execute(
        &mut d,
        "CREATE TABLE ks (id INT PRIMARY KEY, i INT, s TEXT, f FLOAT, b BOOL, \
         v INT, w FLOAT, t TEXT)",
    )
    .unwrap();
    let words = ["agg-kiwi", "agg-fig", "agg-plum"];
    let rows: Vec<Vec<Value>> = (0..120i64)
        .map(|n| {
            let nullable = |hole: i64, v: Value| if n % hole == 0 { Value::Null } else { v };
            vec![
                n.into(),
                nullable(7, (n % 4).into()),
                nullable(5, words[(n % 3) as usize].into()),
                nullable(11, Value::Float((n % 3) as f64 * 0.5)),
                nullable(13, Value::Bool(n % 2 == 0)),
                nullable(3, (n * 7 % 50).into()),
                nullable(4, Value::Float((n % 9) as f64 * 0.25)),
                nullable(6, words[(n % 2) as usize].into()),
            ]
        })
        .collect();
    d.append_rows("ks", rows).unwrap();
    d
}

/// Every aggregate over every key shape, a NULL key group included,
/// equals the naive oracle's answer cell for cell.
#[test]
fn every_aggregate_over_every_key_shape_matches_the_oracle() {
    let mut d = key_shapes_db();
    for keys in ["i", "s", "f", "b", "i, s", "s, f, b", "b, i, f"] {
        let sql = format!(
            "SELECT {keys}, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS sv, AVG(v) AS av, \
             MIN(v) AS lv, MAX(v) AS hv, SUM(w) AS sw, AVG(w) AS aw, MIN(w) AS lw, \
             MAX(t) AS ht, MIN(t) AS lt FROM ks GROUP BY {keys} ORDER BY {keys}"
        );
        let rows = run(&mut d, &sql);
        assert_eq!(rows, execute_naive(&d, &sql).unwrap().rows, "{sql}");
        let n_keys = keys.split(", ").count();
        assert!(
            rows.iter().any(|r| r[..n_keys].iter().all(Value::is_null)),
            "`{keys}` must have an all-NULL key group"
        );
        let total: i64 = rows.iter().map(|r| r[n_keys].as_int().unwrap()).sum();
        assert_eq!(total, 120, "every row lands in exactly one group: {sql}");
    }
}

/// NULL keys form one group of their own — first-occurrence order puts it
/// where its first row is — and it is not the group of any value.
#[test]
fn null_key_is_one_group_of_its_own() {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE nk (id INT PRIMARY KEY, k INT, s TEXT)",
        "INSERT INTO nk VALUES (1, 0, 'x'), (2, NULL, NULL), (3, 0, 'x'), (4, NULL, NULL), \
         (5, 1, NULL)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    assert_eq!(
        run(&mut d, "SELECT k, COUNT(*) AS n FROM nk GROUP BY k"),
        vec![
            vec![Value::Int(0), Value::Int(2)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(1), Value::Int(1)],
        ]
    );
    assert_eq!(
        run(&mut d, "SELECT s, COUNT(*) AS n FROM nk GROUP BY s"),
        vec![
            vec!["x".into(), Value::Int(2)],
            vec![Value::Null, Value::Int(3)],
        ]
    );
    // (NULL, NULL) and (1, NULL) differ in the first column only.
    assert_eq!(
        run(&mut d, "SELECT k, s, COUNT(*) AS n FROM nk GROUP BY k, s").len(),
        3
    );
}

/// An INT literal stored into a FLOAT key column lands in the group of
/// the equal float, and `-0.0` in the group of `0.0`.
#[test]
fn int_and_float_fold_on_a_float_key_column() {
    let mut d = Database::new();
    execute(&mut d, "CREATE TABLE fk (id INT PRIMARY KEY, f FLOAT)").unwrap();
    d.append_rows(
        "fk",
        vec![
            vec![1.into(), Value::Float(2.0)],
            vec![2.into(), Value::Int(2)],
            vec![3.into(), Value::Float(-0.0)],
            vec![4.into(), Value::Float(0.0)],
            vec![5.into(), Value::Float(2.5)],
        ],
    )
    .unwrap();
    let sql = "SELECT f, COUNT(*) AS n FROM fk GROUP BY f";
    let rows = run(&mut d, sql);
    assert_eq!(
        rows.iter().map(|r| r[1]).collect::<Vec<_>>(),
        vec![Value::Int(2), Value::Int(2), Value::Int(1)]
    );
    assert_eq!(rows[0][0], Value::Float(2.0));
    let mut naive = execute_naive(&d, sql)
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>();
    naive.sort();
    let mut sorted = rows;
    sorted.sort();
    assert_eq!(sorted, naive);
}
