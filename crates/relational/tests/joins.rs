//! Join edge cases for the columnar selection-vector join path: NULL keys,
//! duplicate-key multiplicity (bag semantics), text keys under adversarial
//! intern order, cross-type numeric keys, cross joins, empty sides, and
//! self joins. Every case is checked three ways where it applies: against
//! the naive cross-product oracle (independent row-at-a-time joins), as a
//! bag, and against hand-computed cardinalities. Joins over
//! multi-thousand-row inputs live in `large_inputs.rs`.

use etable_relational::database::Database;
use etable_relational::sql::naive::execute_query_naive;
use etable_relational::sql::{execute, executor::execute_query, parse_statement, Statement};
use etable_relational::value::Value;

fn run_both(db: &Database, sql: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let q = match parse_statement(sql).unwrap() {
        Statement::Select(q) => q,
        other => panic!("expected SELECT, got {other:?}"),
    };
    let mut planned = execute_query(db, &q)
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>();
    let mut naive = execute_query_naive(db, &q)
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>();
    planned.sort();
    naive.sort();
    (planned, naive)
}

fn setup(stmts: &[&str]) -> Database {
    let mut db = Database::new();
    for stmt in stmts {
        execute(&mut db, stmt).unwrap();
    }
    db
}

#[test]
fn null_join_keys_never_match() {
    // NULLs on both sides, int and text keys: SQL equality over NULL is
    // UNKNOWN, so no NULL row may pair — not even NULL with NULL.
    let db = setup(&[
        "CREATE TABLE l (id INT PRIMARY KEY, k INT, tag TEXT)",
        "CREATE TABLE r (id INT PRIMARY KEY, k INT, tag TEXT)",
        "INSERT INTO l VALUES (1, NULL, NULL), (2, 7, 'x'), (3, NULL, 'y')",
        "INSERT INTO r VALUES (1, NULL, NULL), (2, 7, NULL), (3, 8, 'y')",
    ]);
    let (planned, naive) = run_both(&db, "SELECT l.id, r.id FROM l, r WHERE l.k = r.k");
    assert_eq!(planned, naive);
    assert_eq!(planned, vec![vec![2.into(), 2.into()]]);
    let (planned, naive) = run_both(&db, "SELECT l.id, r.id FROM l, r WHERE l.tag = r.tag");
    assert_eq!(planned, naive);
    assert_eq!(planned, vec![vec![3.into(), 3.into()]]);
}

#[test]
fn duplicate_key_multiplicity_is_bag_correct() {
    // k appears 3x on the left and 2x on the right -> exactly 6 pairs;
    // every pairing must be emitted, none deduplicated.
    let db = setup(&[
        "CREATE TABLE l (id INT PRIMARY KEY, k INT NOT NULL)",
        "CREATE TABLE r (id INT PRIMARY KEY, k INT NOT NULL)",
        "INSERT INTO l VALUES (1, 5), (2, 5), (3, 5), (4, 6)",
        "INSERT INTO r VALUES (1, 5), (2, 5), (3, 7)",
    ]);
    let (planned, naive) = run_both(&db, "SELECT l.id, r.id FROM l, r WHERE l.k = r.k");
    assert_eq!(planned, naive);
    assert_eq!(planned.len(), 6);
    // All 3x2 combinations are present.
    for li in 1..=3i64 {
        for ri in 1..=2i64 {
            assert!(planned.contains(&vec![li.into(), ri.into()]), "{li}x{ri}");
        }
    }
}

#[test]
fn text_keys_under_adversarial_intern_order() {
    // Intern the join vocabulary in reverse-lexicographic order before the
    // tables exist, so symbol ids anti-correlate with string order; the
    // symbol-word join kernel must still match by string identity only.
    for w in ["join-zz", "join-mm", "join-aa", "join-"] {
        let _ = Value::text(w);
    }
    let db = setup(&[
        "CREATE TABLE l (id INT PRIMARY KEY, tag TEXT)",
        "CREATE TABLE r (id INT PRIMARY KEY, tag TEXT)",
        "INSERT INTO l VALUES (1, 'join-aa'), (2, 'join-zz'), (3, 'join-'), (4, 'join-mm')",
        "INSERT INTO r VALUES (1, 'join-mm'), (2, 'join-aa'), (3, 'join-aa'), (4, 'join-xx')",
    ]);
    let (planned, naive) = run_both(
        &db,
        "SELECT l.id, r.id, l.tag FROM l, r WHERE l.tag = r.tag ORDER BY l.id, r.id",
    );
    assert_eq!(planned, naive);
    // aa matches twice, mm once; zz / empty-ish / xx never.
    assert_eq!(planned.len(), 3);
    assert_eq!(
        planned,
        vec![
            vec![1.into(), 2.into(), "join-aa".into()],
            vec![1.into(), 3.into(), "join-aa".into()],
            vec![4.into(), 1.into(), "join-mm".into()],
        ]
    );
}

#[test]
fn cross_type_numeric_keys_widen() {
    // INT joined against FLOAT: 2 must match 2.0 (the Value-keyed fallback
    // kernel), 2.5 must match nothing.
    let db = setup(&[
        "CREATE TABLE l (id INT PRIMARY KEY, k INT NOT NULL)",
        "CREATE TABLE r (id INT PRIMARY KEY, k FLOAT NOT NULL)",
        "INSERT INTO l VALUES (1, 2), (2, 3)",
        "INSERT INTO r VALUES (1, 2.0), (2, 2.5), (3, 3.0)",
    ]);
    let (planned, naive) = run_both(&db, "SELECT l.id, r.id FROM l, r WHERE l.k = r.k");
    assert_eq!(planned, naive);
    assert_eq!(
        planned,
        vec![vec![1.into(), 1.into()], vec![2.into(), 3.into()]]
    );
}

#[test]
fn cross_join_is_full_product() {
    let db = setup(&[
        "CREATE TABLE a (id INT PRIMARY KEY)",
        "CREATE TABLE b (id INT PRIMARY KEY)",
        "INSERT INTO a VALUES (1), (2), (3)",
        "INSERT INTO b VALUES (10), (20)",
    ]);
    let (planned, naive) = run_both(&db, "SELECT a.id, b.id FROM a, b");
    assert_eq!(planned, naive);
    assert_eq!(planned.len(), 6);
    // A filter after the cross still sees every pairing.
    let (planned, naive) = run_both(&db, "SELECT a.id, b.id FROM a, b WHERE a.id < b.id");
    assert_eq!(planned, naive);
    assert_eq!(planned.len(), 6);
}

#[test]
fn empty_sides_produce_empty_joins() {
    let db = setup(&[
        "CREATE TABLE l (id INT PRIMARY KEY, k INT)",
        "CREATE TABLE r (id INT PRIMARY KEY, k INT)",
        "INSERT INTO l VALUES (1, 5)",
    ]);
    // Empty build side and empty probe side.
    let (planned, naive) = run_both(&db, "SELECT l.id FROM l, r WHERE l.k = r.k");
    assert_eq!(planned, naive);
    assert!(planned.is_empty());
    let (planned, naive) = run_both(&db, "SELECT l.id FROM r, l WHERE r.k = l.k");
    assert_eq!(planned, naive);
    assert!(planned.is_empty());
}

#[test]
fn self_join_with_aliases() {
    let db = setup(&[
        "CREATE TABLE p (id INT PRIMARY KEY, year INT NOT NULL)",
        "INSERT INTO p VALUES (1, 2000), (2, 2000), (3, 2001)",
    ]);
    let (planned, naive) = run_both(
        &db,
        "SELECT a.id, b.id FROM p a, p b WHERE a.year = b.year AND a.id < b.id",
    );
    assert_eq!(planned, naive);
    assert_eq!(planned, vec![vec![1.into(), 2.into()]]);
}

#[test]
fn three_table_chain_with_pushdown_and_group() {
    // The paper's Table-2 shape: entity - link - entity with a pushed-down
    // filter, grouped tail, and duplicate multiplicities through the link.
    let db = setup(&[
        "CREATE TABLE papers (id INT PRIMARY KEY, year INT NOT NULL)",
        "CREATE TABLE pa (paper_id INT, author_id INT, PRIMARY KEY (paper_id, author_id))",
        "CREATE TABLE authors (id INT PRIMARY KEY, name TEXT NOT NULL)",
        "INSERT INTO papers VALUES (1, 2000), (2, 2001), (3, 2001)",
        "INSERT INTO pa VALUES (1, 10), (1, 11), (2, 10), (3, 10), (3, 11)",
        "INSERT INTO authors VALUES (10, 'n'), (11, 'm')",
    ]);
    let (planned, naive) = run_both(
        &db,
        "SELECT a.name, COUNT(*) AS n FROM papers p, pa, authors a \
         WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.year >= 2001 \
         GROUP BY a.name ORDER BY n DESC, a.name",
    );
    assert_eq!(planned, naive);
    assert_eq!(
        planned,
        vec![vec!["m".into(), 1.into()], vec!["n".into(), 2.into()]]
    );
}

#[test]
fn wildcard_output_columns_follow_from_order() {
    // The analyzer expands `SELECT *` in syntactic FROM order, so the
    // output shape no longer depends on which side the greedy planner
    // starts from (here it starts from small, despite FROM order) and
    // both engines agree on it. Before the typed-plan pass the executor
    // leaked its greedy join order into the wildcard expansion while the
    // oracle expanded syntactically — a latent differential divergence.
    let db = setup(&[
        "CREATE TABLE small (id INT PRIMARY KEY, s TEXT NOT NULL)",
        "CREATE TABLE big (id INT PRIMARY KEY, small_id INT NOT NULL, v INT NOT NULL)",
        "INSERT INTO small VALUES (1, 'one')",
        "INSERT INTO big VALUES (1, 1, 10), (2, 1, 20), (3, 1, 30)",
    ]);
    let q = match parse_statement("SELECT * FROM big b, small s WHERE b.small_id = s.id").unwrap() {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    let rel = execute_query(&db, &q).unwrap();
    let names: Vec<String> = rel
        .columns
        .iter()
        .map(|c| c.qualified_name().to_string())
        .collect();
    assert_eq!(names, ["b.id", "b.small_id", "b.v", "s.id", "s.s"]);
    assert_eq!(rel.len(), 3);
    let naive = execute_query_naive(&db, &q).unwrap();
    let naive_names: Vec<String> = naive
        .columns
        .iter()
        .map(|c| c.qualified_name().to_string())
        .collect();
    assert_eq!(names, naive_names);
    assert_eq!(rel.columns.len(), 5);
}
