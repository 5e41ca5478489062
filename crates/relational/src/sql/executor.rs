//! SQL execution over analyzed plans: predicate pushdown, greedy
//! hash-join planning, grouping, and projection.
//!
//! Every statement is first run through the static analyzer
//! ([`super::analyze()`]): name resolution, type inference and
//! aggregate/GROUP BY validity all happen **before** execution, so the
//! pipeline below never resolves a name — it only translates the plan's
//! resolved [`ColumnId`]s into physical positions. The planner mirrors
//! what a simple RDBMS does for the paper's workloads: single-table
//! predicates are pushed below joins, equi-join edges become hash joins
//! chosen greedily from the smallest filtered relation outward, and
//! anything else is applied as a residual filter.
//!
//! Execution is columnar end to end: every base scan yields a
//! [`ColRelation`] (a selection vector over the stored table — see
//! [`crate::colrel`]), joins compose paired row-id vectors, and residual
//! filters rewrite those vectors. Grouping turns the joined relation into
//! typed stores, one row per group, read as a `ColRelation` of its own.
//! From there one tail serves every SELECT: HAVING is a select, ORDER BY a
//! permutation (a top-k under LIMIT), and rows are materialized exactly
//! once — by the final projection gather, for the rows that are kept.

use super::analyze::{
    analyze, analyze_delete, analyze_insert, analyze_update, ColumnId, OrderTarget, TypedGrouping,
    TypedPick, TypedPlan,
};
use super::ast::{Query, Statement};
use crate::colrel::{ColRelation, Pick};
use crate::database::Database;
use crate::exec::agg::AggSpec;
use crate::expr::Expr;
use crate::relation::{RelColumn, Relation, SortKey};
use crate::schema::{Column, ForeignKey, TableSchema};
use crate::value::Value;
use crate::{Error, Result};

/// Executes a SQL string against the database.
///
/// `SELECT` returns the result relation; DDL/DML return an empty
/// relation. DML statements are fully validated by the analyzer before
/// any row is read or written.
pub fn execute(db: &mut Database, sql: &str) -> Result<Relation> {
    execute_statement(db, super::parser::parse_statement(sql)?)
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
            Ok(Relation::new(
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
/// parse-once callers never pay a second tokenization.
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
    execute_typed(db, &plan, &mut None)
}

/// Renders the analyzed plan (typed scans, join edges with key types,
/// grouped shape, output row) followed by the trace of the greedy
/// optimizer's decisions: pushed-down filters with their selectivity, the
/// join order with intermediate sizes, residual predicates, and the
/// tail. Backing for the SQL `EXPLAIN` statement.
pub fn explain_query(db: &Database, q: &Query) -> Result<Vec<String>> {
    let plan = analyze(db, q)?;
    let mut lines = plan.render();
    let mut trace = Some(Vec::new());
    execute_typed(db, &plan, &mut trace)?;
    lines.extend(trace.unwrap_or_default());
    Ok(lines)
}

/// An internal inconsistency between a [`TypedPlan`] and the executor —
/// never a user error; the analyzer guarantees resolvability.
fn plan_desync() -> Error {
    Error::Eval("internal: typed plan out of sync with executor".into())
}

/// The position of `c` in the current joined relation, whose column shape
/// is the concatenation of the plan tables in `joined_ids` order.
fn joined_pos(plan: &TypedPlan, joined_ids: &[usize], c: ColumnId) -> Option<usize> {
    let mut off = 0;
    for &t in joined_ids {
        if t == c.table {
            return Some(off + c.column);
        }
        off += plan.tables[t].columns.len();
    }
    None
}

/// Executes a typed plan over the columnar pipeline, optionally tracing
/// the planner's decisions into `trace`.
fn execute_typed(
    db: &Database,
    plan: &TypedPlan,
    trace: &mut Option<Vec<String>>,
) -> Result<Relation> {
    macro_rules! log {
        ($($arg:tt)*) => {
            if let Some(t) = trace.as_mut() {
                t.push(format!($($arg)*));
            }
        };
    }
    // 1. Columnar scans with pushed-down predicates. A filtered scan *is*
    //    the selection vector `scan::filter_indices` returns; from here
    //    to the final projection the pipeline only rewrites row-id
    //    vectors, so filtered-out rows are never touched again and no
    //    intermediate row is materialized.
    let mut relations: Vec<Option<ColRelation>> = Vec::with_capacity(plan.tables.len());
    for (i, t) in plan.tables.iter().enumerate() {
        let table = db.table(&t.name)?;
        let preds = &plan.scans[i];
        if preds.is_empty() {
            let rel = ColRelation::from_table(table, &t.alias);
            log!("scan {} ({} rows)", t.alias, rel.len());
            relations.push(Some(rel));
            continue;
        }
        let before = table.len();
        // Scan predicates run against the single table's own shape, so a
        // ColumnId maps straight to its schema position.
        let mut combined: Option<Expr> = None;
        for p in preds {
            let e = p.expr.to_expr(&|c: ColumnId| Some(c.column))?;
            combined = Some(match combined {
                Some(acc) => acc.and(e),
                None => e,
            });
        }
        let combined = combined.ok_or_else(plan_desync)?;
        let filtered = ColRelation::from_table_filtered(table, &t.alias, &combined)?;
        log!(
            "scan {} ({} rows) pushdown [{}] -> {} rows",
            t.alias,
            before,
            preds
                .iter()
                .map(|p| p.display.clone())
                .collect::<Vec<_>>()
                .join(" AND "),
            filtered.len()
        );
        relations.push(Some(filtered));
    }

    // 2. Greedy join: start from the smallest relation; repeatedly join a
    //    connected relation via a build/probe hash join over the edge's
    //    key columns, else cross the smallest remaining. Each join emits
    //    paired (build, probe) position vectors that compose with the
    //    inputs' selections.
    let mut remaining: Vec<usize> = (0..plan.tables.len()).collect();
    let start = remaining
        .iter()
        .copied()
        .min_by_key(|&i| relations[i].as_ref().map(ColRelation::len).unwrap_or(0))
        .ok_or_else(plan_desync)?;
    remaining.retain(|&i| i != start);
    let mut joined_ids = vec![start];
    let mut current = relations[start].take().ok_or_else(plan_desync)?;
    let mut used_edges = vec![false; plan.edges.len()];
    log!("start from smallest relation {}", plan.tables[start].alias);

    while !remaining.is_empty() {
        // Find an edge between the joined set and a remaining relation.
        let mut next: Option<(usize, usize)> = None; // (edge idx, other rel)
        for (ei, e) in plan.edges.iter().enumerate() {
            if used_edges[ei] {
                continue;
            }
            let a_in = joined_ids.contains(&e.left.table);
            let b_in = joined_ids.contains(&e.right.table);
            if a_in && remaining.contains(&e.right.table) {
                next = Some((ei, e.right.table));
                break;
            }
            if b_in && remaining.contains(&e.left.table) {
                next = Some((ei, e.left.table));
                break;
            }
        }
        match next {
            Some((ei, other)) => {
                used_edges[ei] = true;
                let e = &plan.edges[ei];
                let other_rel = relations[other].take().ok_or_else(plan_desync)?;
                // Which side belongs to the current (joined) relation?
                let (cur_id, other_id, cur_name, other_name) = if e.right.table == other {
                    (e.left, e.right, &e.left_name, &e.right_name)
                } else {
                    (e.right, e.left, &e.right_name, &e.left_name)
                };
                let lcol = joined_pos(plan, &joined_ids, cur_id).ok_or_else(plan_desync)?;
                let rcol = other_id.column;
                let right_rows = other_rel.len();
                current = current.hash_join(&other_rel, lcol, rcol)?;
                log!(
                    "hash join {} = {} with {} ({} rows) -> {} rows",
                    cur_name,
                    other_name,
                    plan.tables[other].alias,
                    right_rows,
                    current.len()
                );
                joined_ids.push(other);
                remaining.retain(|&i| i != other);
            }
            None => {
                // Disconnected: cross product with the smallest remaining.
                let other = remaining
                    .iter()
                    .copied()
                    .min_by_key(|&i| relations[i].as_ref().map(ColRelation::len).unwrap_or(0))
                    .ok_or_else(plan_desync)?;
                let other_rel = relations[other].take().ok_or_else(plan_desync)?;
                let right_rows = other_rel.len();
                current = current.cross(&other_rel)?;
                log!(
                    "cross product with {} ({} rows) -> {} rows",
                    plan.tables[other].alias,
                    right_rows,
                    current.len()
                );
                joined_ids.push(other);
                remaining.retain(|&i| i != other);
            }
        }
        // Apply any edges now internal to the joined set (multi-edge cycles).
        for (ei, e) in plan.edges.iter().enumerate() {
            if used_edges[ei] {
                continue;
            }
            if joined_ids.contains(&e.left.table) && joined_ids.contains(&e.right.table) {
                used_edges[ei] = true;
                let la = joined_pos(plan, &joined_ids, e.left).ok_or_else(plan_desync)?;
                let lb = joined_pos(plan, &joined_ids, e.right).ok_or_else(plan_desync)?;
                current = current.select(&Expr::col(la).eq(Expr::col(lb)))?;
                log!(
                    "cycle filter {} = {} -> {} rows",
                    e.left_name,
                    e.right_name,
                    current.len()
                );
            }
        }
    }

    // 3. Residual predicates (evaluated over only the columns they read).
    let jpos = |c: ColumnId| joined_pos(plan, &joined_ids, c);
    for p in &plan.residual {
        let e = p.expr.to_expr(&jpos)?;
        current = current.select(&e)?;
        log!("residual filter [{}] -> {} rows", p.display, current.len());
    }

    // 4. Grouping: grouped queries aggregate straight off the selection
    //    vectors (no input row is ever materialized) into typed stores, one
    //    row per group, and HAVING filters those groups on the WHERE kernel.
    //    `grouped` owns the stores the grouped relation reads.
    let grouped;
    let input = match &plan.grouping {
        None => current,
        Some(g) => {
            let group_cols = g
                .keys
                .iter()
                .map(|&k| jpos(k).ok_or_else(plan_desync))
                .collect::<Result<Vec<_>>>()?;
            grouped = current.group_by(&group_cols, &agg_specs(g, &jpos)?)?;
            if trace.is_some() && !g.keys.is_empty() {
                let shapes: Vec<String> = group_cols
                    .iter()
                    .map(|&c| current.key_shape(c).to_string())
                    .collect();
                log!(
                    "group by {} key(s) [{}] -> {} groups",
                    g.keys.len(),
                    shapes.join(", "),
                    grouped.len
                );
            }
            match &g.having {
                Some(h) => grouped.relation().select(&h.to_expr(&Some)?)?,
                None => grouped.relation(),
            }
        }
    };

    // 5. The query tail, one for every SELECT. A plain plan's picks and
    //    sort targets name joined-input columns (`jpos`), a grouped plan's
    //    name grouped positions; the other kind is a desync. ORDER BY is a
    //    permutation over rank-decorated key columns — only its first
    //    `rows_kept` positions when a LIMIT follows — the final projection
    //    gathers each kept output cell once, in that order, and DISTINCT /
    //    OFFSET / LIMIT run on the already-final output.
    let is_grouped = plan.grouping.is_some();
    let pos = |t: OrderTarget| match t {
        OrderTarget::Input(c) if !is_grouped => jpos(c).ok_or_else(plan_desync),
        OrderTarget::Group(i) if is_grouped => Ok(i),
        _ => Err(plan_desync()),
    };
    let mut out_cols: Vec<RelColumn> = Vec::with_capacity(plan.output.len());
    let mut picks: Vec<Pick> = Vec::with_capacity(plan.output.len());
    for o in &plan.output {
        out_cols.push(o.column.clone());
        picks.push(match o.pick {
            TypedPick::Input(c) => Pick::Col(pos(OrderTarget::Input(c))?),
            TypedPick::Group(i) => Pick::Col(pos(OrderTarget::Group(i))?),
            TypedPick::Lit(v) => Pick::Lit(v),
        });
    }
    let keep = rows_kept(plan);
    let order = if plan.order_by.is_empty() && keep.is_none() {
        None
    } else {
        let keys = plan
            .order_by
            .iter()
            .map(|o| {
                Ok(SortKey {
                    column: pos(o.target)?,
                    descending: o.descending,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        if let (Some(k), false) = (keep, keys.is_empty()) {
            let n = input.len();
            log!("top {} of {n} by [{}]", k.min(n), plan.sort_keys_display());
        }
        // No key at all orders by input position: a bare LIMIT gathers
        // only its leading rows.
        Some(input.sort_order(&keys, keep))
    };
    let mut out = input.project(out_cols, &picks, order.as_deref());
    if plan.distinct {
        out = out.distinct();
    }
    out = out.offset(plan.offset);
    if let Some(n) = plan.limit {
        out = out.limit(n);
    }
    log!("output: {} rows x {} columns", out.len(), out.columns.len());
    Ok(out)
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

/// Lowers the plan's aggregates into [`AggSpec`]s through `pos`.
fn agg_specs(g: &TypedGrouping, pos: &impl Fn(ColumnId) -> Option<usize>) -> Result<Vec<AggSpec>> {
    g.aggregates
        .iter()
        .map(|x| {
            let input = match x.input {
                Some(c) => Some(pos(c).ok_or_else(plan_desync)?),
                None => None,
            };
            Ok(AggSpec::new(x.func, input, x.key.clone()))
        })
        .collect()
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
        assert_eq!(r.rows[0][0], "Making database systems usable".into());
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
        assert_eq!(r.rows[0][0], "Jagadish".into());
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
        assert_eq!(r.rows[0][0], "Nandi".into());
        assert_eq!(r.rows[0][1], Value::Int(2));
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
        assert_eq!(r.rows[0][0], "Nandi".into());
    }

    #[test]
    fn global_aggregate() {
        let mut d = db();
        let r = execute(&mut d, "SELECT COUNT(*) FROM Papers").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
        let r = execute(&mut d, "SELECT MIN(year), MAX(year), AVG(year) FROM Papers").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2007));
        assert_eq!(r.rows[0][1], Value::Int(2014));
        assert_eq!(
            r.rows[0][2],
            Value::Float((2007 + 2012 + 2014) as f64 / 3.0)
        );
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
        let mut paged = page1.rows.clone();
        paged.extend(page2.rows.clone());
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
        assert_eq!(r.rows[0][1], Value::Int(1));
    }

    #[test]
    fn select_data_types_preserved() {
        let mut d = db();
        let r = execute(&mut d, "SELECT year FROM Papers LIMIT 1").unwrap();
        assert_eq!(r.columns[0].data_type, DataType::Int);
    }
}
