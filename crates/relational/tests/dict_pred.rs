//! Dictionary-encoded predicate lifecycle: LIKE/equality/IN over text
//! columns evaluate against a membership bitmap built once per distinct
//! interned symbol. The interner arena is append-only, so a cached bitmap
//! is never *wrong* — it just stops short: symbols interned after the
//! snapshot must be (re)evaluated, either by extending the bitmap on the
//! next compile or by the per-row direct-match fallback. These tests grow
//! the arena between queries and check both the extension path and
//! equivalence with the naive oracle, which evaluates uncompiled `Expr`s.

use etable_relational::database::Database;
use etable_relational::sql::execute;
use etable_relational::sql::naive::execute_naive;
use etable_relational::value::Value;

fn ids(db: &mut Database, sql: &str) -> Vec<i64> {
    execute(db, sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(i) => i,
            ref v => panic!("expected INT id, got {v:?}"),
        })
        .collect()
}

#[test]
fn like_bitmap_extends_over_newly_interned_symbols() {
    let mut db = Database::new();
    execute(&mut db, "CREATE TABLE n (id INT PRIMARY KEY, title TEXT)").unwrap();
    execute(
        &mut db,
        "INSERT INTO n VALUES (1, 'dictgrow-alpha-match'), (2, 'dictgrow-beta-other'), (3, NULL)",
    )
    .unwrap();
    // First query snapshots the arena and caches the pattern's bitmap.
    assert_eq!(
        ids(
            &mut db,
            "SELECT id FROM n WHERE title LIKE '%match%' ORDER BY id"
        ),
        vec![1]
    );
    // Grow the arena with symbols the cached bitmap has never seen — both
    // a matching and a non-matching one — then requery.
    execute(
        &mut db,
        "INSERT INTO n VALUES (4, 'dictgrow-gamma-match-late'), (5, 'dictgrow-delta-late')",
    )
    .unwrap();
    assert_eq!(
        ids(
            &mut db,
            "SELECT id FROM n WHERE title LIKE '%match%' ORDER BY id"
        ),
        vec![1, 4]
    );
    // Equality and IN compile to symbol-id tests; they must see late
    // symbols too (the literal itself is interned at compile time).
    assert_eq!(
        ids(
            &mut db,
            "SELECT id FROM n WHERE title = 'dictgrow-gamma-match-late'"
        ),
        vec![4]
    );
    assert_eq!(
        ids(
            &mut db,
            "SELECT id FROM n WHERE title IN ('dictgrow-delta-late', 'dictgrow-alpha-match') \
             ORDER BY id"
        ),
        vec![1, 5]
    );
    // NULL titles stay excluded by <> under 3VL.
    assert_eq!(
        ids(
            &mut db,
            "SELECT id FROM n WHERE title <> 'dictgrow-beta-other' ORDER BY id"
        ),
        vec![1, 4, 5]
    );
}

#[test]
fn dict_and_generic_evaluation_agree() {
    let mut db = Database::new();
    execute(
        &mut db,
        "CREATE TABLE m (id INT PRIMARY KEY, tag TEXT, v INT)",
    )
    .unwrap();
    let tags = ["red-apple", "red-pear", "green-apple", "plum"];
    for i in 0..200i64 {
        let tag = if i % 7 == 0 {
            "NULL".to_string()
        } else {
            format!("'{}'", tags[(i % 4) as usize])
        };
        execute(
            &mut db,
            &format!("INSERT INTO m VALUES ({i}, {tag}, {})", i % 10),
        )
        .unwrap();
    }
    let queries = [
        "SELECT id FROM m WHERE tag LIKE 'red%' ORDER BY id",
        "SELECT id FROM m WHERE tag LIKE '%apple' AND v >= 5 ORDER BY id",
        "SELECT id FROM m WHERE tag = 'plum' ORDER BY id",
        "SELECT id FROM m WHERE tag <> 'plum' ORDER BY id",
        "SELECT id FROM m WHERE tag IN ('plum', 'red-pear', 'no-such-tag') ORDER BY id",
        "SELECT id FROM m WHERE tag IN ('plum', NULL) OR v = 3 ORDER BY id",
        "SELECT id FROM m WHERE NOT (tag LIKE '%pear%') ORDER BY id",
    ];
    for sql in queries {
        let generic = execute_naive(&db, sql).unwrap().rows;
        let dict = execute(&mut db, sql).unwrap().rows;
        assert_eq!(dict, generic, "dict/generic divergence on `{sql}`");
    }
}
