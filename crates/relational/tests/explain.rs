//! EXPLAIN: the greedy planner's decisions are observable and pinned.

use etable_relational::database::Database;
use etable_relational::sql::execute;

fn db() -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE small (id INT PRIMARY KEY, tag TEXT NOT NULL)",
        "CREATE TABLE big (id INT PRIMARY KEY, small_id INT REFERENCES small(id), v INT NOT NULL)",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    for i in 1..=5i64 {
        execute(
            &mut db,
            &format!("INSERT INTO small VALUES ({i}, 'tag{i}')"),
        )
        .unwrap();
    }
    for i in 1..=100i64 {
        execute(
            &mut db,
            &format!("INSERT INTO big VALUES ({i}, {}, {})", i % 5 + 1, i % 17),
        )
        .unwrap();
    }
    db
}

fn plan(db: &mut Database, sql: &str) -> String {
    let rel = execute(db, sql).unwrap();
    assert_eq!(rel.columns[0].name, "plan");
    rel.rows
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_shows_pushdown_and_join_order() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag, b.v FROM big b, small s \
         WHERE b.small_id = s.id AND b.v >= 10",
    );
    // The filter on big is pushed below the join.
    assert!(
        text.contains("scan b (100 rows) pushdown [b.v >= 10]"),
        "{text}"
    );
    // The planner starts from the smaller side.
    assert!(text.contains("start from smallest relation s"), "{text}");
    assert!(text.contains("hash join"), "{text}");
    assert!(text.contains("output:"), "{text}");
}

#[test]
fn explain_shows_cross_products_when_disconnected() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag, t.tag FROM small s, small t WHERE s.id = 1",
    );
    assert!(text.contains("cross product"), "{text}");
}

#[test]
fn explain_shows_residuals_and_grouping() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag, COUNT(*) AS n FROM big b, small s \
         WHERE b.small_id = s.id AND b.v < s.id GROUP BY s.tag",
    );
    // b.v < s.id spans both tables but is not an equi-join -> residual.
    assert!(text.contains("residual filter [b.v < s.id]"), "{text}");
    // The group-id pass names how it hashes the key and what it found.
    assert!(
        text.contains("group by 1 key(s) [TEXT word] -> 5 groups"),
        "{text}"
    );
}

#[test]
fn explain_shows_key_shapes_and_the_top_k_tail() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag, COUNT(*) AS n FROM big b, small s \
         WHERE b.small_id = s.id GROUP BY s.tag ORDER BY n DESC, s.tag LIMIT 2 OFFSET 1",
    );
    assert!(
        text.contains("group by 1 key(s) [TEXT word] -> 5 groups"),
        "{text}"
    );
    // LIMIT 2 OFFSET 1 keeps the first three of the five groups.
    assert!(
        text.contains("top 3 of 5 by [COUNT(*) DESC, s.tag]"),
        "{text}"
    );
    assert!(text.contains("output: 2 rows"), "{text}");

    // One shape per key column; the plain tail traces its top-k too.
    let text = plan(
        &mut d,
        "EXPLAIN SELECT v, small_id, COUNT(*) FROM big GROUP BY v, small_id",
    );
    assert!(
        text.contains("group by 2 key(s) [INT word, INT word] -> 85 groups"),
        "{text}"
    );
    let text = plan(
        &mut d,
        "EXPLAIN SELECT id FROM big ORDER BY v DESC LIMIT 10",
    );
    assert!(text.contains("top 10 of 100 by [big.v DESC]"), "{text}");
    // DISTINCT between sort and limit: the full sort, so no top-k line.
    let text = plan(
        &mut d,
        "EXPLAIN SELECT DISTINCT v FROM big ORDER BY v LIMIT 3",
    );
    assert!(!text.contains("top "), "{text}");
}

#[test]
fn explain_does_not_change_results() {
    let mut d = db();
    let sql = "SELECT s.tag, b.v FROM big b, small s WHERE b.small_id = s.id AND b.v >= 10";
    let direct = execute(&mut d, sql).unwrap();
    let _ = plan(&mut d, &format!("EXPLAIN {sql}"));
    let again = execute(&mut d, sql).unwrap();
    assert_eq!(direct.rows, again.rows);
}

#[test]
fn explain_row_counts_are_accurate() {
    let mut d = db();
    let sql = "SELECT b.id, b.v FROM big b, small s WHERE b.small_id = s.id AND s.tag = 'tag1'";
    let text = plan(&mut d, &format!("EXPLAIN {sql}"));
    let result = execute(&mut d, sql).unwrap();
    let last = text.lines().last().unwrap();
    assert!(
        last.contains(&format!("output: {} rows", result.len())),
        "{last} vs {} rows",
        result.len()
    );
}
