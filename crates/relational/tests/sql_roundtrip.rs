//! Lexer/parser round-trip coverage for the Table 2 task queries.
//!
//! The user-study tasks (both matched sets) are the queries every bench
//! binary and the study runner push through `relational::sql`, so this
//! guards the executor path end to end: each query must (1) tokenize,
//! render back from its tokens, and re-tokenize to the same stream;
//! (2) parse, and re-parse its token-rendered form to the identical AST;
//! (2b) print from its AST (`impl Display for Query`, the one SQL printer)
//! and re-parse to the identical AST; (3) execute on a hand-built Figure 3 schema with the planned and naive
//! evaluators agreeing.
//!
//! The queries come straight from `etable_datagen::tasks::task_set` — a
//! dev-dependency cycle (datagen's lib depends on this crate), which cargo
//! permits and which keeps a single canonical definition of the task SQL.

use etable_datagen::tasks::{task_set, TaskSet};
use etable_relational::database::Database;
use etable_relational::sql::lexer::{render_tokens, tokenize};
use etable_relational::sql::naive::execute_query_naive;
use etable_relational::sql::{execute, executor::execute_query, parse_statement, Statement};

/// The Table 2 ground-truth queries of both matched task sets.
fn all_table2_queries() -> Vec<String> {
    let mut qs: Vec<String> = task_set(TaskSet::A).into_iter().map(|t| t.sql).collect();
    qs.extend(task_set(TaskSet::B).into_iter().map(|t| t.sql));
    assert_eq!(qs.len(), 12);
    qs
}

#[test]
fn table2_queries_lex_and_relex_identically() {
    for sql in all_table2_queries() {
        let tokens = tokenize(&sql).unwrap_or_else(|e| panic!("lexing {sql:?}: {e}"));
        assert!(!tokens.is_empty(), "no tokens for {sql:?}");
        let rendered = render_tokens(&tokens);
        let relexed = tokenize(&rendered).unwrap_or_else(|e| panic!("re-lexing {rendered:?}: {e}"));
        assert_eq!(tokens, relexed, "lexer round-trip diverged on {sql:?}");
    }
}

#[test]
fn table2_queries_parse_and_reparse_identically() {
    for sql in all_table2_queries() {
        let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("parsing {sql:?}: {e}"));
        assert!(
            matches!(stmt, Statement::Select(_)),
            "not a SELECT: {sql:?}"
        );
        let rendered = render_tokens(&tokenize(&sql).unwrap());
        let reparsed =
            parse_statement(&rendered).unwrap_or_else(|e| panic!("re-parsing {rendered:?}: {e}"));
        assert_eq!(stmt, reparsed, "parser round-trip diverged on {sql:?}");
    }
}

#[test]
fn table2_queries_print_and_reparse_identically() {
    for sql in all_table2_queries() {
        let stmt = parse_statement(&sql).unwrap();
        let Statement::Select(q) = &stmt else {
            panic!("not a SELECT: {sql:?}");
        };
        let printed = q.to_string();
        let reparsed =
            parse_statement(&printed).unwrap_or_else(|e| panic!("re-parsing {printed:?}: {e}"));
        assert_eq!(stmt, reparsed, "printer round-trip diverged on {sql:?}");
    }
}

/// A miniature Figure 3 database with the planted entities the task
/// queries refer to.
fn figure3_fixture() -> Database {
    let mut db = Database::new();
    for ddl in [
        "CREATE TABLE Conferences (id INT PRIMARY KEY, acronym TEXT NOT NULL, title TEXT NOT NULL)",
        "CREATE TABLE Institutions (id INT PRIMARY KEY, name TEXT NOT NULL, country TEXT NOT NULL)",
        "CREATE TABLE Authors (id INT PRIMARY KEY, name TEXT NOT NULL, \
         institution_id INT REFERENCES Institutions(id))",
        "CREATE TABLE Papers (id INT PRIMARY KEY, conference_id INT REFERENCES Conferences(id), \
         title TEXT NOT NULL, year INT NOT NULL, page_start INT NOT NULL, page_end INT NOT NULL)",
        "CREATE TABLE Paper_Authors (paper_id INT, author_id INT, ord INT NOT NULL, \
         PRIMARY KEY (paper_id, author_id), \
         FOREIGN KEY (paper_id) REFERENCES Papers (id), \
         FOREIGN KEY (author_id) REFERENCES Authors (id))",
        "CREATE TABLE Paper_Keywords (paper_id INT, keyword TEXT, \
         PRIMARY KEY (paper_id, keyword), \
         FOREIGN KEY (paper_id) REFERENCES Papers (id))",
    ] {
        execute(&mut db, ddl).unwrap();
    }
    for (id, acr, title) in [(1i64, "SIGMOD", "SIGMOD Conference"), (7, "KDD", "SIGKDD")] {
        db.insert("Conferences", vec![id.into(), acr.into(), title.into()])
            .unwrap();
    }
    for (id, name, country) in [
        (1i64, "Carnegie Mellon University", "USA"),
        (2, "Massachusetts Institute of Technology", "USA"),
        (11, "Seoul National University", "South Korea"),
        (12, "KAIST", "South Korea"),
    ] {
        db.insert("Institutions", vec![id.into(), name.into(), country.into()])
            .unwrap();
    }
    for (id, name, inst) in [
        (1i64, "Samuel Madden", 2i64),
        (2, "Ada Author", 1),
        (3, "Ben Builder", 11),
        (4, "Cho Researcher", 11),
        (5, "Dae Scholar", 12),
    ] {
        db.insert("Authors", vec![id.into(), name.into(), inst.into()])
            .unwrap();
    }
    for (id, conf, title, year) in [
        (1i64, 1i64, "Making database systems usable", 2007i64),
        (2, 7, "Collaborative filtering with temporal dynamics", 2009),
        (3, 1, "A study in relational browsing", 2014),
        (4, 7, "Mining skewed graphs", 2015),
    ] {
        db.insert(
            "Papers",
            vec![
                id.into(),
                conf.into(),
                title.into(),
                year.into(),
                1.into(),
                12.into(),
            ],
        )
        .unwrap();
    }
    for (paper, author, ord) in [
        (1i64, 1i64, 1i64),
        (2, 1, 1),
        (3, 1, 1),
        (3, 2, 2),
        (4, 3, 1),
        (4, 5, 2),
    ] {
        db.insert(
            "Paper_Authors",
            vec![paper.into(), author.into(), ord.into()],
        )
        .unwrap();
    }
    for (paper, kw) in [(1i64, "usability"), (1, "databases"), (2, "recommendation")] {
        db.insert("Paper_Keywords", vec![paper.into(), kw.into()])
            .unwrap();
    }
    db
}

#[test]
fn table2_queries_execute_with_planner_and_naive_agreement() {
    let db = figure3_fixture();
    for sql in all_table2_queries() {
        let q = match parse_statement(&sql).unwrap() {
            Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let planned = execute_query(&db, &q)
            .unwrap_or_else(|e| panic!("planned execution of {sql:?}: {e}"))
            .rows;
        let naive = execute_query_naive(&db, &q)
            .unwrap_or_else(|e| panic!("naive execution of {sql:?}: {e}"))
            .rows;
        assert_eq!(planned, naive, "evaluator divergence on {sql:?}");
    }
}

#[test]
fn table2_fixture_answers_are_sensible() {
    let mut db = figure3_fixture();
    // Task 1: publication year of the planted paper.
    let r = execute(
        &mut db,
        "SELECT year FROM Papers WHERE title = 'Making database systems usable'",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 1);
    // Task 5: SNU (2 authors) beats KAIST (1) — and LIMIT 1 applies.
    let r = execute(
        &mut db,
        "SELECT i.name FROM Institutions i, Authors a \
         WHERE a.institution_id = i.id AND i.country = 'South Korea' \
         GROUP BY i.name ORDER BY COUNT(*) DESC, i.name LIMIT 1",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.get(0, 0).to_string(), "Seoul National University");
}

#[test]
fn offset_after_a_bare_table_name_is_not_an_alias() {
    // `impl Display for Query` prints `limit: None, offset: 3` as exactly
    // this text, so print → parse is the same AST only when `OFFSET` is
    // not read as an alias of `Papers`.
    let sql = "SELECT id FROM Papers OFFSET 3";
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a SELECT: {sql:?}");
    };
    assert_eq!(q.from[0].alias, None);
    assert_eq!((q.limit, q.offset), (None, 3));
    assert_eq!(q.to_string(), sql);
    let db = figure3_fixture();
    let want = vec![vec![4.into()]];
    assert_eq!(execute_query(&db, &q).unwrap().rows, want);
    assert_eq!(execute_query_naive(&db, &q).unwrap().rows, want);
}
