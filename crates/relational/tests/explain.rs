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
    assert!(text.contains("fk join s.id = b.small_id"), "{text}");
    assert!(text.contains("output:"), "{text}");
}

/// Only an edge that is exactly a foreign key onto its primary key joins
/// through the stored index; any other equi-join hashes.
#[test]
fn explain_names_the_join_kernel_per_edge() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag FROM big b, small s WHERE b.v = s.id",
    );
    assert!(text.contains("hash join s.id = b.v with b"), "{text}");
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag FROM small s JOIN big b ON s.id = b.small_id",
    );
    assert!(text.contains("fk join s.id = b.small_id with b"), "{text}");
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

    // One shape per key column; the plain tail records its top-k too.
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

/// The whole EXPLAIN text of a join + GROUP BY + HAVING + ORDER BY …
/// LIMIT, byte for byte: the typed plan, then every recorded stage.
#[test]
fn explain_golden_grouped_top_k() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag, COUNT(*) AS n, MAX(b.v) AS hi FROM big b, small s \
         WHERE b.small_id = s.id AND b.v >= 3 GROUP BY s.tag \
         HAVING COUNT(*) > 16 AND MIN(b.v) < 5 ORDER BY n DESC, s.tag LIMIT 2",
    );
    assert_eq!(
        text,
        "typed plan:
  from big AS b [id INT, small_id INT?, v INT] pushdown [b.v >= 3]
  from small AS s [id INT, tag TEXT]
  join edge b.small_id = s.id [INT]
  group keys [s.tag] aggregates [COUNT(*) INT, MAX(b.v) INT, MIN(b.v) INT]
  having [COUNT(*) > 16 AND MIN(b.v) < 5]
  sort keys [COUNT(*) DESC, s.tag]
  output columns [s.tag TEXT, n INT, hi INT]
execution:
scan b (100 rows) pushdown [b.v >= 3] -> 83 rows
scan s (5 rows)
start from smallest relation s
fk join s.id = b.small_id with b (83 rows) -> 83 rows
group by 1 key(s) [TEXT word] -> 5 groups
top 2 of 3 by [COUNT(*) DESC, s.tag]
output: 2 rows x 3 columns"
    );
}

/// The whole EXPLAIN text of a plain join ORDER BY … LIMIT OFFSET.
#[test]
fn explain_golden_plain_top_k() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT b.id, s.tag FROM big b JOIN small s ON b.small_id = s.id \
         WHERE s.tag <> 'tag3' ORDER BY b.v DESC, b.id LIMIT 5 OFFSET 2",
    );
    assert_eq!(
        text,
        "typed plan:
  from big AS b [id INT, small_id INT?, v INT]
  from small AS s [id INT, tag TEXT] pushdown [s.tag <> 'tag3']
  join edge b.small_id = s.id [INT]
  sort keys [b.v DESC, b.id]
  output columns [b.id INT, s.tag TEXT]
execution:
scan b (100 rows)
scan s (5 rows) pushdown [s.tag <> 'tag3'] -> 4 rows
start from smallest relation s
fk join s.id = b.small_id with b (100 rows) -> 80 rows
top 7 of 80 by [b.v DESC, b.id]
output: 5 rows x 2 columns"
    );
}

/// The whole EXPLAIN text of a three-table join the planner runs in an
/// order that is not the FROM order (s, b, m), with a residual across two
/// tables and ORDER BY on a column of the table joined last.
#[test]
fn explain_golden_join_order_differs_from_from_order() {
    let mut d = db();
    execute(
        &mut d,
        "CREATE TABLE mid (id INT PRIMARY KEY, small_id INT REFERENCES small(id), w INT NOT NULL)",
    )
    .unwrap();
    for i in 1..=20i64 {
        execute(
            &mut d,
            &format!("INSERT INTO mid VALUES ({i}, {}, {})", i % 5 + 1, i % 7),
        )
        .unwrap();
    }
    let text = plan(
        &mut d,
        "EXPLAIN SELECT b.id, m.w, s.tag FROM big b, mid m, small s \
         WHERE b.small_id = s.id AND m.small_id = s.id AND b.v < m.w \
         ORDER BY m.w DESC, b.id, m.id LIMIT 4",
    );
    assert_eq!(
        text,
        "typed plan:
  from big AS b [id INT, small_id INT?, v INT]
  from mid AS m [id INT, small_id INT?, w INT]
  from small AS s [id INT, tag TEXT]
  join edge b.small_id = s.id [INT]
  join edge m.small_id = s.id [INT]
  residual [b.v < m.w]
  sort keys [m.w DESC, b.id, m.id]
  output columns [b.id INT, m.w INT, s.tag TEXT]
execution:
scan b (100 rows)
scan m (20 rows)
scan s (5 rows)
start from smallest relation s
fk join s.id = b.small_id with b (100 rows) -> 100 rows
fk join s.id = m.small_id with m (20 rows) -> 400 rows
residual filter [b.v < m.w] -> 72 rows
top 4 of 72 by [m.w DESC, b.id, m.id]
output: 4 rows x 3 columns"
    );
}

/// The whole EXPLAIN text of a grouped `SELECT *` with HAVING and ORDER BY
/// an aggregate's alias.
#[test]
fn explain_golden_grouped_wildcard() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT *, COUNT(*) AS n FROM big b, small s WHERE b.small_id = s.id \
         GROUP BY s.tag, b.small_id HAVING SUM(b.v) > 160 ORDER BY n DESC, s.tag",
    );
    assert_eq!(
        text,
        "typed plan:
  from big AS b [id INT, small_id INT?, v INT]
  from small AS s [id INT, tag TEXT]
  join edge b.small_id = s.id [INT]
  group keys [s.tag, b.small_id] aggregates [COUNT(*) INT, SUM(b.v) INT]
  having [SUM(b.v) > 160]
  sort keys [COUNT(*) DESC, s.tag]
  output columns [s.tag TEXT, b.small_id INT, n INT]
execution:
scan b (100 rows)
scan s (5 rows)
start from smallest relation s
fk join s.id = b.small_id with b (100 rows) -> 100 rows
group by 2 key(s) [TEXT word, INT word] -> 5 groups
output: 2 rows x 3 columns"
    );
}

/// The whole EXPLAIN text of a grouped query over a foreign-key tree,
/// which runs no join: the pass weighs `s`'s rows by the `b` rows that
/// reference them — the five `b` rows the scan keeps, a sparse message —
/// and groups `s`'s rows of nonzero weight.
#[test]
fn explain_golden_fk_tree() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT s.tag, COUNT(*) AS n, MIN(s.id) AS lo FROM big b, small s \
         WHERE b.small_id = s.id AND b.v = 16 GROUP BY s.tag ORDER BY n DESC, s.tag LIMIT 2",
    );
    assert_eq!(
        text,
        "typed plan:
  from big AS b [id INT, small_id INT?, v INT] pushdown [b.v = 16]
  from small AS s [id INT, tag TEXT]
  join edge b.small_id = s.id [INT]
  group keys [s.tag] aggregates [COUNT(*) INT, MIN(s.id) INT]
  sort keys [COUNT(*) DESC, s.tag]
  output columns [s.tag TEXT, n INT, lo INT]
execution:
scan b (100 rows) pushdown [b.v = 16] -> 5 rows
scan s (5 rows)
fk tree to s, no join built: weighed b 10 (sparse) -> 5 rows
group by 1 key(s) [TEXT word] -> 5 groups
top 2 of 5 by [COUNT(*) DESC, s.tag]
output: 2 rows x 3 columns"
    );
}

/// The whole EXPLAIN text of the join steps no other golden holds: a
/// cross product (the filtered `t` shares no edge), a hash join on a
/// non-key edge, the second edge between the same two tables applied as a
/// cycle filter, and a global aggregate, which prints no `group by` line.
#[test]
fn explain_golden_cross_hash_cycle_global_aggregate() {
    let mut d = db();
    let text = plan(
        &mut d,
        "EXPLAIN SELECT COUNT(*), MAX(b.v) FROM big b, small s, small t \
         WHERE b.v = s.id AND b.small_id = s.id AND t.id <= 2",
    );
    assert_eq!(
        text,
        "typed plan:
  from big AS b [id INT, small_id INT?, v INT]
  from small AS s [id INT, tag TEXT]
  from small AS t [id INT, tag TEXT] pushdown [t.id <= 2]
  join edge b.v = s.id [INT]
  join edge b.small_id = s.id [INT]
  group keys [] aggregates [COUNT(*) INT, MAX(b.v) INT]
  output columns [COUNT(*) INT, MAX(b.v) INT]
execution:
scan b (100 rows)
scan s (5 rows)
scan t (5 rows) pushdown [t.id <= 2] -> 2 rows
start from smallest relation t
cross product with s (5 rows) -> 10 rows
hash join s.id = b.v with b (100 rows) -> 60 rows
cycle filter b.small_id = s.id -> 10 rows
output: 1 rows x 2 columns"
    );
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
