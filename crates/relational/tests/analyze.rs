//! The static analyzer's contract, from the outside: every semantic
//! error is reported before any state is read or written, each
//! diagnostic names the offending identifier, both engines reject the
//! same statements, and EXPLAIN surfaces the typed plan.
//!
//! The "zero rows touched" tests are the regression pin for the DML
//! path: an UPDATE/INSERT/DELETE with any semantic error — even one
//! discovered only at the last row of a multi-row INSERT — must leave
//! the table byte-identical.

use etable_relational::database::Database;
use etable_relational::sql::explain::explain_query;
use etable_relational::sql::naive::execute_query_naive;
use etable_relational::sql::{execute, executor, parse_statement, SelectItem, SqlExpr, Statement};
use etable_relational::Error;

fn setup() -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE papers (id INT PRIMARY KEY, year INT NOT NULL, title TEXT NOT NULL, score FLOAT)",
        "CREATE TABLE authors (id INT PRIMARY KEY, name TEXT NOT NULL)",
        "CREATE TABLE pa (paper_id INT NOT NULL, author_id INT NOT NULL, PRIMARY KEY (paper_id, author_id))",
        "INSERT INTO papers VALUES (1, 2014, 'a', 0.5), (2, 2015, 'b', NULL)",
        "INSERT INTO authors VALUES (10, 'n'), (11, 'm')",
        "INSERT INTO pa VALUES (1, 10), (2, 10), (2, 11)",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    db
}

/// Runs a SELECT through both engines and asserts they produce the same
/// error, returning its display string.
fn reject_both(db: &Database, sql: &str) -> String {
    let q = match parse_statement(sql).unwrap() {
        Statement::Select(q) => q,
        other => panic!("expected SELECT, got {other:?}"),
    };
    let planned = executor::execute_query(db, &q).expect_err(sql);
    let naive = execute_query_naive(db, &q).expect_err(sql);
    assert_eq!(planned, naive, "engines disagree on rejection of {sql}");
    planned.to_string()
}

#[test]
fn unknown_table_names_the_table() {
    let db = setup();
    let msg = reject_both(&db, "SELECT * FROM nosuch");
    assert!(msg.contains("`nosuch`"), "{msg}");
}

/// A qualified wildcard must name a table in FROM, grouped or not; a known
/// qualifier in a grouped select still expands to its key columns.
#[test]
fn unknown_wildcard_qualifier_names_the_table() {
    let db = setup();
    for sql in [
        "SELECT nope.* FROM papers",
        "SELECT nope.*, COUNT(*) AS n FROM papers GROUP BY year",
    ] {
        let msg = reject_both(&db, sql);
        assert!(msg.contains("unknown table `nope`"), "{msg}");
    }
    let mut d = db.clone();
    let r = execute(
        &mut d,
        "SELECT papers.*, COUNT(*) AS n FROM papers GROUP BY papers.year",
    )
    .unwrap();
    let names: Vec<String> = r.columns.iter().map(|c| c.qualified_name()).collect();
    assert_eq!(names, ["papers.year", "n"]);
}

#[test]
fn unknown_column_names_the_column() {
    let db = setup();
    let msg = reject_both(&db, "SELECT flavor FROM papers");
    assert!(msg.contains("`flavor`"), "{msg}");
    let msg = reject_both(&db, "SELECT papers.id FROM papers WHERE papers.flavor = 1");
    assert!(msg.contains("flavor`"), "{msg}");
}

#[test]
fn ambiguous_unqualified_column_across_joins() {
    let db = setup();
    // `id` exists in both papers and authors.
    let msg = reject_both(&db, "SELECT id FROM papers, authors");
    assert!(msg.contains("ambiguous"), "{msg}");
    assert!(msg.contains("`id`"), "{msg}");
    // Qualifying resolves it.
    let q = match parse_statement("SELECT papers.id FROM papers, authors").unwrap() {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    assert!(executor::execute_query(&db, &q).is_ok());
}

#[test]
fn non_grouped_column_in_grouped_select() {
    let db = setup();
    let msg = reject_both(&db, "SELECT title, COUNT(*) AS n FROM papers GROUP BY year");
    assert!(msg.contains("`title`"), "{msg}");
    assert!(msg.contains("GROUP BY"), "{msg}");
}

#[test]
fn having_without_group_by() {
    let db = setup();
    let msg = reject_both(&db, "SELECT id FROM papers HAVING id > 1");
    assert!(msg.contains("HAVING"), "{msg}");
}

#[test]
fn aggregate_nested_in_aggregate() {
    let db = setup();
    let msg = reject_both(
        &db,
        "SELECT COUNT(MAX(year)) AS n FROM papers GROUP BY year",
    );
    assert!(msg.contains("aggregate nested in aggregate"), "{msg}");
    assert!(msg.contains("MAX"), "{msg}");
}

#[test]
fn aggregate_in_where_is_rejected() {
    let db = setup();
    let msg = reject_both(&db, "SELECT id FROM papers WHERE COUNT(*) > 1");
    assert!(msg.contains("row context"), "{msg}");
}

#[test]
fn type_mismatched_comparison_names_both_sides() {
    let db = setup();
    let msg = reject_both(&db, "SELECT id FROM papers WHERE title > 5");
    assert!(msg.contains("type mismatch"), "{msg}");
    assert!(msg.contains("`title`"), "{msg}");
    let msg = reject_both(&db, "SELECT id FROM papers WHERE year LIKE '%x%'");
    assert!(msg.contains("LIKE"), "{msg}");
    assert!(msg.contains("`year`"), "{msg}");
    // Int/Float widening is fine — the lattice admits it.
    let q = match parse_statement("SELECT id FROM papers WHERE score > 0").unwrap() {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    assert!(executor::execute_query(&db, &q).is_ok());
}

/// The select-list and ORDER BY resolver's refusals, plain and grouped,
/// word for word: an expression that is not a column (or, grouped, an
/// aggregate), an ORDER BY column that does not resolve, and a literal in
/// a grouped select list.
#[test]
fn select_and_order_by_refusals_name_the_expression() {
    let db = setup();
    for (sql, want) in [
        (
            "SELECT year > 2000 FROM papers",
            "analysis error: unsupported select expression `year > 2000` outside GROUP BY",
        ),
        (
            "SELECT year, COUNT(*) > 1 FROM papers GROUP BY year",
            "analysis error: unsupported grouped select expression `COUNT(*) > 1`",
        ),
        (
            "SELECT year, 7 FROM papers GROUP BY year",
            "analysis error: unsupported grouped select expression `7`",
        ),
        (
            "SELECT id FROM papers ORDER BY (year > 2000)",
            "analysis error: unsupported ORDER BY expression `year > 2000`",
        ),
        (
            "SELECT year, COUNT(*) AS n FROM papers GROUP BY year ORDER BY (COUNT(*) > 1)",
            "analysis error: unsupported ORDER BY expression `COUNT(*) > 1`",
        ),
        (
            "SELECT id FROM papers ORDER BY nope",
            "unknown column `nope`",
        ),
        (
            "SELECT year, COUNT(*) AS n FROM papers GROUP BY year ORDER BY nope",
            "analysis error: column `nope` must appear in GROUP BY or an aggregate",
        ),
    ] {
        assert_eq!(reject_both(&db, sql), want, "{sql}");
    }
}

/// ORDER BY an output alias, plain and grouped, and ORDER BY an aggregate
/// written out: the engine and the oracle agree row for row.
#[test]
fn order_by_output_alias_matches_the_oracle() {
    let mut db = setup();
    execute(
        &mut db,
        "INSERT INTO papers VALUES (3, 2014, 'c', 2.5), (4, 2016, 'd', 1.5), (5, 2015, 'e', NULL)",
    )
    .unwrap();
    for sql in [
        "SELECT title AS t, year FROM papers ORDER BY t DESC",
        "SELECT id AS k FROM papers ORDER BY year DESC, k",
        "SELECT year, COUNT(*) AS n FROM papers GROUP BY year ORDER BY n DESC, year",
        "SELECT year AS y, MAX(score) AS hi FROM papers GROUP BY year ORDER BY y DESC",
        "SELECT year, MIN(score) AS lo FROM papers GROUP BY year ORDER BY MIN(score), year",
    ] {
        let q = match parse_statement(sql).unwrap() {
            Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let planned = executor::execute_query(&db, &q).unwrap();
        let naive = execute_query_naive(&db, &q).unwrap();
        assert_eq!(planned.columns, naive.columns, "{sql}");
        assert_eq!(planned.rows, naive.rows, "{sql}");
        assert_eq!(
            planned.len(),
            if sql.contains("GROUP") { 3 } else { 5 },
            "{sql}"
        );
    }
}

/// An aggregate other than COUNT without an input column — `SUM(*)`,
/// which the parser refuses but the AST can hold — is refused by the
/// analyzer for both engines, not run to an error or a NULL.
#[test]
fn input_less_aggregate_other_than_count_is_refused() {
    let db = setup();
    let Statement::Select(mut q) = parse_statement("SELECT SUM(year) FROM papers").unwrap() else {
        unreachable!()
    };
    match &mut q.items[0] {
        SelectItem::Expr {
            expr: SqlExpr::Aggregate { input, .. },
            ..
        } => *input = None,
        other => panic!("not an aggregate: {other:?}"),
    }
    let planned = executor::execute_query(&db, &q).unwrap_err();
    assert_eq!(execute_query_naive(&db, &q).unwrap_err(), planned);
    assert_eq!(
        planned,
        Error::Analyze("aggregate `SUM(*)` requires an input column".into())
    );
}

#[test]
fn sum_over_text_is_rejected_statically() {
    let db = setup();
    let msg = reject_both(&db, "SELECT SUM(title) AS s FROM papers");
    assert!(msg.contains("numeric"), "{msg}");
    assert!(msg.contains("SUM"), "{msg}");
}

// ---------------------------------------------------------------------
// Zero rows touched: semantic DML errors must not mutate state.
// ---------------------------------------------------------------------

fn rows_of(db: &Database, table: &str) -> Vec<Vec<etable_relational::value::Value>> {
    let mut d = db.clone();
    execute(&mut d, &format!("SELECT * FROM {table}"))
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>()
}

#[test]
fn invalid_update_touches_zero_rows() {
    let db = setup();
    let before = rows_of(&db, "papers");

    // Unknown SET column.
    let mut d = db.clone();
    assert!(execute(&mut d, "UPDATE papers SET flavor = 1 WHERE id = 1").is_err());
    assert_eq!(rows_of(&d, "papers"), before);

    // Type-mismatched SET value: the first row would have matched and
    // been rewritten before the failure was discovered, pre-analyzer.
    let mut d = db.clone();
    assert!(execute(&mut d, "UPDATE papers SET year = 'nineteen' WHERE id >= 1").is_err());
    assert_eq!(rows_of(&d, "papers"), before);

    // NULL into NOT NULL.
    let mut d = db.clone();
    assert!(execute(&mut d, "UPDATE papers SET title = NULL WHERE id = 1").is_err());
    assert_eq!(rows_of(&d, "papers"), before);

    // Bad WHERE (unknown column).
    let mut d = db.clone();
    assert!(execute(&mut d, "UPDATE papers SET year = 2020 WHERE flavor = 1").is_err());
    assert_eq!(rows_of(&d, "papers"), before);

    // Non-boolean WHERE.
    let mut d = db.clone();
    assert!(execute(&mut d, "UPDATE papers SET year = 2020 WHERE year").is_err());
    assert_eq!(rows_of(&d, "papers"), before);
}

#[test]
fn invalid_delete_touches_zero_rows() {
    let db = setup();
    let before = rows_of(&db, "papers");
    let mut d = db.clone();
    assert!(execute(&mut d, "DELETE FROM papers WHERE flavor = 1").is_err());
    assert_eq!(rows_of(&d, "papers"), before);
}

#[test]
fn invalid_insert_touches_zero_rows() {
    let db = setup();
    let before = rows_of(&db, "papers");

    // Arity mismatch.
    let mut d = db.clone();
    assert!(execute(&mut d, "INSERT INTO papers VALUES (3, 2016)").is_err());
    assert_eq!(rows_of(&d, "papers"), before);

    // First row valid, second row type-mismatched: without whole-batch
    // analysis the first row landed before the second failed.
    let mut d = db.clone();
    assert!(execute(
        &mut d,
        "INSERT INTO papers VALUES (3, 2016, 'c', 0.1), (4, 'bad', 'd', 0.2)"
    )
    .is_err());
    assert_eq!(rows_of(&d, "papers"), before);

    // NULL into NOT NULL in the last row.
    let mut d = db.clone();
    assert!(execute(
        &mut d,
        "INSERT INTO papers VALUES (3, 2016, 'c', 0.1), (4, 2017, NULL, 0.2)"
    )
    .is_err());
    assert_eq!(rows_of(&d, "papers"), before);
}

// ---------------------------------------------------------------------
// EXPLAIN surfaces the typed plan.
// ---------------------------------------------------------------------

#[test]
fn explain_renders_typed_plan_sections() {
    let db = setup();
    let q = match parse_statement(
        "SELECT a.name, COUNT(*) AS n FROM papers p, pa, authors a \
         WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.year >= 2015 \
         GROUP BY a.name ORDER BY n DESC, a.name LIMIT 5",
    )
    .unwrap()
    {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    let lines = explain_query(&db, &q).unwrap();
    let text = lines.join("\n");
    // Typed-plan header with scans, pushdowns, typed join edges, group
    // keys, aggregates, sort keys and the typed output schema.
    assert!(text.contains("typed plan:"), "{text}");
    assert!(text.contains("from papers AS p"), "{text}");
    assert!(text.contains("pushdown"), "{text}");
    assert!(
        text.contains("join edge p.id = pa.paper_id [INT]"),
        "{text}"
    );
    assert!(text.contains("group keys [a.name]"), "{text}");
    assert!(text.contains("aggregates [COUNT(*) INT]"), "{text}");
    // The grouped sort key renders under the aggregate's canonical key.
    assert!(text.contains("sort keys [COUNT(*) DESC, a.name]"), "{text}");
    assert!(
        text.contains("output columns [a.name TEXT, n INT]"),
        "{text}"
    );
    // The recorded stages follow, ending with the output shape.
    assert!(text.contains("execution:"), "{text}");
    let last = lines.last().unwrap();
    assert!(last.starts_with("output: "), "{last}");
}

#[test]
fn explain_marks_nullable_columns() {
    let db = setup();
    let q = match parse_statement("SELECT score FROM papers").unwrap() {
        Statement::Select(q) => q,
        _ => unreachable!(),
    };
    let lines = explain_query(&db, &q).unwrap();
    let text = lines.join("\n");
    // score is a nullable FLOAT: rendered with a `?` marker.
    assert!(text.contains("score FLOAT?"), "{text}");
}
