//! SQL execution over analyzed plans: predicate pushdown, greedy
//! hash-join planning, grouping, and projection.
//!
//! Every statement is first run through the static analyzer
//! ([`super::analyze()`]): name resolution, type inference and
//! aggregate/GROUP BY validity all happen **before** execution, and the
//! plan already holds the predicates, picks and sort keys this pipeline
//! runs, over positions. The planner mirrors what a simple RDBMS does for
//! the paper's workloads: single-table predicates are pushed below joins,
//! equi-join edges become joins chosen greedily from the smallest
//! filtered relation outward, and anything else is applied as a residual
//! filter. An edge that is exactly a single-column foreign key onto its
//! primary key joins through the key's stored index
//! (`ColRelation::fk_join`, EXPLAIN's `fk join`); every other edge is a
//! hash join (`hash join`). Both emit the same pairs in the same order.
//!
//! A grouped or DISTINCT query over a tree of stored foreign keys, whose
//! grouped (or DISTINCT) columns all lie in one table and whose answer
//! cannot tell the join order, builds no join pair at all: one
//! leaves-to-root pass weighs that table's rows by the join results each
//! takes part in, and the weighed rows are grouped or made DISTINCT
//! (`crate::exec::tree`, EXPLAIN's `fk tree`). Its answer is the greedy
//! loop's, byte for byte.
//!
//! Execution is columnar end to end: every base scan yields a
//! [`ColRelation`] (a selection vector over the stored table — see
//! [`crate::colrel`]), joins compose paired row-id vectors, and residual
//! filters rewrite those vectors. The greedy join order is the only place
//! positions are mapped: once the joins are done, the joined relation's
//! sources go back to the plan's table order, so residuals, grouping and
//! the tail read the plan's positions as they are. Grouping turns the
//! joined relation into typed stores, one row per group, read as a
//! `ColRelation` of its own. From there one tail serves every SELECT:
//! HAVING is a select, ORDER BY a permutation (a top-k under LIMIT), and
//! rows are materialized exactly once — by the final projection gather,
//! for the rows that are kept.

use super::analyze::{
    analyze, analyze_delete, analyze_insert, analyze_update, TypedPlan, TypedPred,
};
use super::ast::{Query, Statement};
use super::explain::{explain_query, Stage};
use crate::colrel::{ColRelation, Pick, RowIds};
use crate::database::Database;
use crate::exec::agg::AggSpec;
use crate::exec::tree::{joins_rule, weigh, FkTree, Joins, Walk, Weighed};
use crate::relation::{RelColumn, Relation, SortKey};
use crate::schema::{Column, ForeignKey, TableSchema};
use crate::value::Value;
use crate::{Error, Result};

/// Executes a SQL string against the database.
///
/// `SELECT` returns the result relation; DDL/DML return an empty
/// relation. A write is statement-atomic: it runs on a clone of `db`
/// (pointer copies) that replaces `db` only if the statement succeeds.
pub fn execute(db: &mut Database, sql: &str) -> Result<Relation> {
    let stmt = super::parser::parse_statement(sql)?;
    if is_read_only(&stmt) {
        return execute_read(db, &stmt);
    }
    let mut next = db.clone();
    let out = execute_statement(&mut next, stmt)?;
    *db = next;
    Ok(out)
}

/// True when `stmt` only reads (`SELECT` / `EXPLAIN`) — the predicate
/// [`crate::shared::SharedDatabase`] uses to route statements: reads run
/// against an epoch snapshot, everything else through the serialized
/// clone-modify-publish write path.
pub fn is_read_only(stmt: &Statement) -> bool {
    matches!(stmt, Statement::Select(_) | Statement::Explain(_))
}

/// Executes a read-only statement (see [`is_read_only`]) against a
/// shared, immutable database view. Write statements are an internal
/// routing bug, reported as an evaluation error rather than a panic.
pub fn execute_read(db: &Database, stmt: &Statement) -> Result<Relation> {
    match stmt {
        Statement::Select(q) => execute_query(db, q),
        Statement::Explain(q) => {
            let lines = explain_query(db, q)?;
            Ok(Relation::from_rows(
                vec![RelColumn::bare("plan", crate::value::DataType::Text)],
                lines.into_iter().map(|l| vec![Value::from(l)]).collect(),
            ))
        }
        _ => Err(Error::Eval(
            "internal: write statement routed to the read-only executor".into(),
        )),
    }
}

/// Executes one already-parsed statement. The string front end
/// ([`execute`]) and the shared-database router both land here, so
/// parse-once callers never pay a second tokenization. A constraint can
/// fail part-way through a write, so both run it on a clone.
pub fn execute_statement(db: &mut Database, stmt: Statement) -> Result<Relation> {
    match stmt {
        Statement::Select(_) | Statement::Explain(_) => execute_read(db, &stmt),
        Statement::CreateTable {
            name,
            columns,
            primary_key,
            foreign_keys,
        } => {
            let cols = columns
                .into_iter()
                .map(|c| Column {
                    name: c.name,
                    data_type: c.data_type,
                    nullable: c.nullable,
                })
                .collect();
            let mut schema = TableSchema::new(name, cols);
            schema.primary_key = primary_key;
            // SQL semantics: PRIMARY KEY implies NOT NULL.
            for pk in schema.primary_key.clone() {
                if let Some(i) = schema.column_index(&pk) {
                    schema.columns[i].nullable = false;
                }
            }
            schema.foreign_keys = foreign_keys
                .into_iter()
                .map(|(cols, table, ref_cols)| ForeignKey {
                    columns: cols,
                    referenced_table: table,
                    referenced_columns: ref_cols,
                })
                .collect();
            db.create_table(schema)?;
            Ok(Relation::default())
        }
        Statement::Insert { table, rows } => {
            analyze_insert(db, &table, &rows)?;
            for row in rows {
                db.insert(&table, row)?;
            }
            Ok(Relation::default())
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let pred = analyze_delete(db, &table, where_clause.as_ref())?;
            db.delete_where(&table, &pred)?;
            Ok(Relation::default())
        }
        Statement::Update {
            table,
            sets,
            where_clause,
        } => {
            let pred = analyze_update(db, &table, &sets, where_clause.as_ref())?;
            db.update_where(&table, &pred, &sets)?;
            Ok(Relation::default())
        }
    }
}

/// Executes a parsed SELECT query: analyze, then run the typed plan.
pub fn execute_query(db: &Database, q: &Query) -> Result<Relation> {
    let plan = analyze(db, q)?;
    Ok(execute_typed(db, &plan)?.0)
}

/// Removes and returns the smallest of the pending relations (the first
/// such in plan table order). `pending` is never empty when called: the
/// analyzer refuses an empty FROM.
fn take_smallest<'a>(pending: &mut Vec<(usize, ColRelation<'a>)>) -> (usize, ColRelation<'a>) {
    let len = |i: usize| pending[i].1.len();
    let smallest = (1..pending.len()).fold(0, |best, i| if len(i) < len(best) { i } else { best });
    pending.remove(smallest)
}

/// Executes a typed plan over the columnar pipeline, and returns the
/// result with the `Stage` each operator recorded, in the order they
/// ran.
pub(crate) fn execute_typed(db: &Database, plan: &TypedPlan) -> Result<(Relation, Vec<Stage>)> {
    execute_forced(db, plan, Forced::default())
}

/// What a test may force on [`execute_forced`] in place of the executor's
/// own rules: the greedy loop where the foreign-key tree pass would run,
/// or one walk for every message of the tree pass. Both answer the same
/// bytes; only the work differs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Forced {
    pub(crate) greedy: bool,
    pub(crate) walk: Option<Walk>,
}

/// [`execute_typed`], with the strategies `forced` names.
pub(crate) fn execute_forced(
    db: &Database,
    plan: &TypedPlan,
    forced: Forced,
) -> Result<(Relation, Vec<Stage>)> {
    let mut stages = Vec::new();
    // 1. Columnar scans with pushed-down predicates. A filtered scan *is*
    //    the selection vector `scan::filter_indices` returns; from here
    //    to the final projection the pipeline only rewrites row-id
    //    vectors, so filtered-out rows are never touched again and no
    //    intermediate row is materialized. Each scan waits, beside its
    //    plan table, until the greedy loop joins it.
    let mut pending: Vec<(usize, ColRelation)> = Vec::with_capacity(plan.tables.len());
    for (i, (t, preds)) in plan.tables.iter().zip(&plan.scans).enumerate() {
        let table = db.table(&t.name)?;
        // Scan predicates read the table's own columns.
        let rel = match TypedPred::all(preds) {
            None => ColRelation::from_table(table, &t.alias),
            Some(pred) => ColRelation::from_table_filtered(table, &t.alias, &pred),
        };
        let kept = Some(rel.len()).filter(|_| !preds.is_empty());
        stages.push(Stage::Scan {
            table: i,
            rows: table.len(),
            kept,
        });
        pending.push((i, rel));
    }

    // 2. A grouped or DISTINCT query over a foreign-key tree weighs the
    //    rows of its root table instead of joining (`exec::tree`).
    let joins = match forced.greedy {
        true => Joins::Greedy,
        false => joins_rule(db, plan)?,
    };
    if let Joins::Tree(tree) = joins {
        let scans = pending
            .into_iter()
            .map(|(_, rel)| rel.into_scan())
            .collect();
        return tree_query(db, plan, &tree, weigh(&tree, scans, forced.walk)?, stages);
    }

    // 3. Greedy join: start from the smallest relation; repeatedly join a
    //    connected relation via a build/probe join over the edge's key
    //    columns, else cross the smallest remaining. Each join emits
    //    paired (build, probe) position vectors that compose with the
    //    inputs' selections. `offset[t]` is where table `t`'s columns
    //    start in the joined relation, recorded when `t` joins.
    let (start, mut current) = take_smallest(&mut pending);
    let mut joined = vec![start];
    let mut offset = vec![0; plan.tables.len()];
    let mut width = plan.tables[start].columns.len();
    let mut used_edges = vec![false; plan.edges.len()];
    stages.push(Stage::Start { table: start });

    while !pending.is_empty() {
        // The first unused edge between the joined set and a pending
        // relation, oriented (joined side, pending side).
        let next = (plan.edges.iter().enumerate())
            .filter(|&(ei, _)| !used_edges[ei])
            .flat_map(|(ei, e)| [(ei, false, e.left, e.right), (ei, true, e.right, e.left)])
            .find_map(|(ei, flipped, cur, other)| {
                let at = pending.iter().position(|&(t, _)| t == other.table);
                let at = at.filter(|_| joined.contains(&cur.table))?;
                Some((ei, flipped, at, cur, other))
            });
        let other = match next {
            Some((edge, flipped, at, cur, other_id)) => {
                used_edges[edge] = true;
                let (other, other_rel) = pending.remove(at);
                let right_rows = other_rel.len();
                let cols = (offset[cur.table] + cur.column, other_id.column);
                let (cur_key, other_key) = (
                    (plan.tables[cur.table].name.as_str(), cur.column),
                    (plan.tables[other].name.as_str(), other_id.column),
                );
                // An edge that is exactly a foreign key onto a primary key
                // joins through the key's stored index, either way round.
                let fk = match db.fk_index_on(cur_key, other_key)? {
                    Some(ix) => Some((ix, true)),
                    None => db.fk_index_on(other_key, cur_key)?.map(|ix| (ix, false)),
                };
                current = match fk {
                    Some((ix, fk_left)) => current.fk_join(&other_rel, cols, ix, fk_left)?,
                    None => current.hash_join(&other_rel, cols.0, cols.1)?,
                };
                stages.push(Stage::Join {
                    edge,
                    flipped,
                    fk: fk.is_some(),
                    with: other,
                    rows: right_rows,
                    out: current.len(),
                });
                other
            }
            None => {
                // Disconnected: cross product with the smallest remaining.
                let (other, other_rel) = take_smallest(&mut pending);
                let right_rows = other_rel.len();
                current = current.cross(&other_rel)?;
                stages.push(Stage::Cross {
                    with: other,
                    rows: right_rows,
                    out: current.len(),
                });
                other
            }
        };
        joined.push(other);
        offset[other] = width;
        width += plan.tables[other].columns.len();
        // Apply any edges now internal to the joined set (multi-edge cycles).
        for (edge, e) in plan.edges.iter().enumerate() {
            if used_edges[edge] {
                continue;
            }
            if joined.contains(&e.left.table) && joined.contains(&e.right.table) {
                used_edges[edge] = true;
                let la = offset[e.left.table] + e.left.column;
                let lb = offset[e.right.table] + e.right.column;
                current = current.select(&TypedPred::columns_equal(la, lb));
                let out = current.len();
                stages.push(Stage::Cycle { edge, out });
            }
        }
    }

    // The joined relation back in the plan's table order: from here on
    // every position is the plan's own.
    let mut current = current.reorder_sources(&joined);

    // 4. Residual predicates (evaluated over only the columns they read).
    for (pred, p) in plan.residual.iter().enumerate() {
        current = current.select(p);
        let out = current.len();
        stages.push(Stage::Residual { pred, out });
    }

    // 5. Grouping: grouped queries aggregate straight off the selection
    //    vectors (no input row is ever materialized) into typed stores, one
    //    row per group. `grouped` owns the stores the grouped relation
    //    reads.
    let grouped;
    let input = match &plan.grouping {
        None => current,
        Some(g) => {
            grouped = current.group_by(&g.keys, &g.aggregates)?;
            let shapes = g.keys.iter().map(|&c| current.key_shape(c)).collect();
            let groups = grouped.len;
            stages.push(Stage::Group { shapes, groups });
            grouped.relation()
        }
    };
    Ok(tail(input, plan, 0, stages))
}

/// A tree-pass query from the root's weighed rows (`exec::tree`): they
/// are grouped with their weights, or are the DISTINCT query's input,
/// and the tail runs as for every SELECT. The root's columns start at
/// the flat row's `shift`, so the plan's grouping and tail positions
/// move down by it.
fn tree_query(
    db: &Database,
    plan: &TypedPlan,
    tree: &FkTree,
    weighed: Weighed,
    mut stages: Vec<Stage>,
) -> Result<(Relation, Vec<Stage>)> {
    let (root, rows) = (&plan.tables[tree.root], weighed.rows.len());
    let table = db.table(&root.name)?;
    stages.push(Stage::Tree {
        root: tree.root,
        steps: weighed.steps,
        rows,
    });
    let ids = RowIds::Sel(weighed.rows);
    let rel = ColRelation::from_columns(root.columns.clone(), table.columns(), table.len(), ids);
    let shift = plan.offset_of(tree.root);
    let Some(g) = &plan.grouping else {
        return Ok(tail(rel, plan, shift, stages));
    };
    let keys: Vec<usize> = g.keys.iter().map(|&k| k - shift).collect();
    let aggs: Vec<AggSpec> = (g.aggregates.iter())
        .map(|a| AggSpec::new(a.call.map(|(f, c)| (f, c - shift)), &a.output_name))
        .collect();
    let grouped = rel.group_weighed(&keys, &aggs, Some(&weighed.weights))?;
    let shapes = keys.iter().map(|&c| rel.key_shape(c)).collect();
    stages.push(Stage::Group {
        shapes,
        groups: grouped.len,
    });
    Ok(tail(grouped.relation(), plan, 0, stages))
}

/// The query tail, one for every SELECT, over `input`, whose columns are
/// the tail input's from position `shift` on. HAVING filters the groups
/// on the WHERE kernel. ORDER BY is a permutation over rank-decorated key
/// columns — only its first `rows_kept` positions when a LIMIT follows —
/// the final projection gathers each kept output cell once, in that
/// order, and DISTINCT / OFFSET / LIMIT run on the already-final output.
fn tail(
    mut input: ColRelation,
    plan: &TypedPlan,
    shift: usize,
    mut stages: Vec<Stage>,
) -> (Relation, Vec<Stage>) {
    if let Some(h) = &plan.having {
        input = input.select(h);
    }
    let order_by: Vec<SortKey> = (plan.order_by.iter())
        .map(|k| SortKey {
            column: k.column - shift,
            ..*k
        })
        .collect();
    let picks: Vec<Pick> = (plan.picks.iter())
        .map(|p| match *p {
            Pick::Col(c) => Pick::Col(c - shift),
            lit => lit,
        })
        .collect();
    let keep = rows_kept(plan);
    let order = if order_by.is_empty() && keep.is_none() {
        None
    } else {
        if let (Some(k), false) = (keep, order_by.is_empty()) {
            let (kept, of) = (k.min(input.len()), input.len());
            stages.push(Stage::TopK { kept, of });
        }
        // No key at all orders by input position: a bare LIMIT gathers
        // only its leading rows.
        Some(input.sort_order(&order_by, keep))
    };
    let mut out = input.project(plan.output.clone(), &picks, order.as_deref());
    if plan.distinct {
        out = out.distinct();
    }
    out = out.offset(plan.offset);
    if let Some(n) = plan.limit {
        out = out.limit(n);
    }
    let (rows, columns) = (out.len(), out.columns.len());
    stages.push(Stage::Output { rows, columns });
    (out, stages)
}

/// How many leading rows of the ordered result the tail needs: `OFFSET +
/// LIMIT` (saturating) — unless DISTINCT sits between the sort and the
/// limit, when how many sorted rows yield that many distinct ones is not
/// known up front.
fn rows_kept(plan: &TypedPlan) -> Option<usize> {
    match plan.limit {
        Some(k) if !plan.distinct => Some(k.saturating_add(plan.offset)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        execute(
            &mut db,
            "CREATE TABLE Conferences (id INT PRIMARY KEY, acronym TEXT NOT NULL)",
        )
        .unwrap();
        execute(
            &mut db,
            "CREATE TABLE Papers (id INT PRIMARY KEY, conference_id INT REFERENCES Conferences(id), \
             title TEXT NOT NULL, year INT NOT NULL)",
        )
        .unwrap();
        execute(
            &mut db,
            "CREATE TABLE Authors (id INT PRIMARY KEY, name TEXT NOT NULL)",
        )
        .unwrap();
        execute(
            &mut db,
            "CREATE TABLE Paper_Authors (paper_id INT, author_id INT, \
             PRIMARY KEY (paper_id, author_id), \
             FOREIGN KEY (paper_id) REFERENCES Papers (id), \
             FOREIGN KEY (author_id) REFERENCES Authors (id))",
        )
        .unwrap();
        execute(
            &mut db,
            "INSERT INTO Conferences VALUES (1, 'SIGMOD'), (2, 'KDD')",
        )
        .unwrap();
        execute(
            &mut db,
            "INSERT INTO Papers VALUES \
             (10, 1, 'Making database systems usable', 2007), \
             (11, 1, 'SkewTune', 2012), \
             (12, 2, 'Deep stuff', 2014)",
        )
        .unwrap();
        execute(
            &mut db,
            "INSERT INTO Authors VALUES (100, 'Jagadish'), (101, 'Nandi'), (102, 'Kwon')",
        )
        .unwrap();
        execute(
            &mut db,
            "INSERT INTO Paper_Authors VALUES (10, 100), (10, 101), (11, 102), (12, 101)",
        )
        .unwrap();
        db
    }

    #[test]
    fn filter_and_project() {
        let mut d = db();
        let r = execute(&mut d, "SELECT title FROM Papers WHERE year >= 2012").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.columns.len(), 1);
    }

    #[test]
    fn join_on_syntax() {
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT p.title FROM Papers p JOIN Conferences c ON p.conference_id = c.id \
             WHERE c.acronym = 'SIGMOD' ORDER BY p.title",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0, 0), "Making database systems usable".into());
    }

    #[test]
    fn comma_join_where() {
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT a.name FROM Papers p, Paper_Authors pa, Authors a \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.id = 10 \
             ORDER BY a.name",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0, 0), "Jagadish".into());
    }

    #[test]
    fn duplication_blowup_visible() {
        // The motivating example: joining Papers with Authors duplicates
        // paper rows once per author.
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id",
        )
        .unwrap();
        assert_eq!(r.len(), 4); // 3 papers -> 4 join rows
    }

    #[test]
    fn group_by_count_order() {
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT a.name, COUNT(*) AS n FROM Authors a, Paper_Authors pa \
             WHERE a.id = pa.author_id GROUP BY a.name ORDER BY n DESC, a.name LIMIT 2",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0, 0), "Nandi".into());
        assert_eq!(r.get(0, 1), Value::Int(2));
    }

    #[test]
    fn having_filters_groups() {
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT a.name FROM Authors a, Paper_Authors pa WHERE a.id = pa.author_id \
             GROUP BY a.name HAVING COUNT(*) > 1",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0, 0), "Nandi".into());
    }

    #[test]
    fn global_aggregate() {
        let mut d = db();
        let r = execute(&mut d, "SELECT COUNT(*) FROM Papers").unwrap();
        assert_eq!(r.get(0, 0), Value::Int(3));
        let r = execute(&mut d, "SELECT MIN(year), MAX(year), AVG(year) FROM Papers").unwrap();
        assert_eq!(r.get(0, 0), Value::Int(2007));
        assert_eq!(r.get(0, 1), Value::Int(2014));
        assert_eq!(r.get(0, 2), Value::Float((2007 + 2012 + 2014) as f64 / 3.0));
    }

    #[test]
    fn distinct_dedups() {
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT DISTINCT c.acronym FROM Conferences c, Papers p WHERE p.conference_id = c.id",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn like_filter() {
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT title FROM Papers WHERE title LIKE '%usable%'",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let mut d = db();
        let r = execute(&mut d, "SELECT * FROM Papers").unwrap();
        assert_eq!(r.columns.len(), 4);
        let r = execute(
            &mut d,
            "SELECT c.* FROM Papers p, Conferences c WHERE p.conference_id = c.id",
        )
        .unwrap();
        assert_eq!(r.columns.len(), 2);
    }

    #[test]
    fn wildcard_order_is_syntactic() {
        // `SELECT *` expands in FROM-clause order even when the planner
        // joins in a different order (small Conferences first).
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT * FROM Papers p, Conferences c WHERE p.conference_id = c.id",
        )
        .unwrap();
        assert_eq!(r.columns[0].qualified_name(), "p.id");
        assert_eq!(r.columns[4].qualified_name(), "c.id");
    }

    #[test]
    fn error_on_unknown_column_or_table() {
        let mut d = db();
        assert!(execute(&mut d, "SELECT nope FROM Papers").is_err());
        assert!(execute(&mut d, "SELECT * FROM Nope").is_err());
    }

    #[test]
    fn ambiguous_column_rejected() {
        let mut d = db();
        assert!(execute(
            &mut d,
            "SELECT id FROM Papers p, Authors a WHERE p.id = a.id"
        )
        .is_err());
    }

    #[test]
    fn limit_offset_paginate() {
        let mut d = db();
        let page1 = execute(&mut d, "SELECT id FROM Papers ORDER BY id LIMIT 2").unwrap();
        let page2 = execute(&mut d, "SELECT id FROM Papers ORDER BY id LIMIT 2 OFFSET 2").unwrap();
        assert_eq!(page1.len(), 2);
        assert_eq!(page2.len(), 1);
        let all = execute(&mut d, "SELECT id FROM Papers ORDER BY id").unwrap();
        let mut paged: Vec<_> = page1.rows.iter().collect();
        paged.extend(page2.rows.iter());
        assert_eq!(all.rows, paged);
        // Offset past the end yields nothing.
        let none = execute(&mut d, "SELECT id FROM Papers ORDER BY id OFFSET 99").unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn offset_works_with_group_by() {
        let mut d = db();
        let r = execute(
            &mut d,
            "SELECT a.name, COUNT(*) AS n FROM Authors a, Paper_Authors pa \
             WHERE a.id = pa.author_id GROUP BY a.name ORDER BY n DESC, a.name \
             LIMIT 1 OFFSET 1",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0, 1), Value::Int(1));
    }

    #[test]
    fn select_data_types_preserved() {
        let mut d = db();
        let r = execute(&mut d, "SELECT year FROM Papers LIMIT 1").unwrap();
        assert_eq!(r.columns[0].data_type, DataType::Int);
    }
}
