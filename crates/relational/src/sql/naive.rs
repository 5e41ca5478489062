//! A deliberately naive reference evaluator for SELECT queries: cross
//! product of all FROM/JOIN tables, then filter, then the query tail —
//! every step a row-at-a-time loop over plain `Vec<Row>`s in this file.
//!
//! It shares no planning logic with [`super::executor`] — no predicate
//! pushdown, no join ordering, no hash joins — and none of the engine's
//! kernels either: grouping here is a linear key scan with per-group
//! recomputation (no `GroupAcc`, no `AggState` vectors, no
//! dictionary-rank snapshots), sorting compares values through
//! [`Value::total_cmp`] directly (no rank-decorated key columns),
//! DISTINCT is a quadratic first-occurrence scan (no hashing), and
//! predicates run uncompiled. The
//! [`TypedPlan`](super::analyze::TypedPlan) *is* shared (the analyzer's
//! name resolution, typing and output shaping are the query's
//! specification, not an optimization), so both engines accept and
//! reject exactly the same statements, a differential mismatch always
//! points at an execution-kernel bug, and a kernel bug can never cancel
//! out by running on both sides. The cross product *is* the plan's flat
//! row — every table's columns in FROM + JOIN order — so the oracle
//! applies every predicate as a plain filter over it: residuals as they
//! are, each scan pushdown rebased from its table's columns to the
//! table's offset, each join edge as an equality. Grouping yields the
//! grouped row, and HAVING, ORDER BY and the picks read whichever row the
//! plan's tail runs on, with no mode to check.

use super::analyze::analyze;
use super::ast::{Query, Statement};
use crate::colrel::Pick;
use crate::database::Database;
use crate::exec::agg::{AggFunc, AggSpec};
use crate::expr::Expr;
use crate::relation::{Relation, SortKey};
use crate::table::Row;
use crate::value::Value;
use crate::{Error, Result};

/// Executes a SELECT with the naive strategy.
pub fn execute_naive(db: &Database, sql: &str) -> Result<Relation> {
    match super::parser::parse_statement(sql)? {
        Statement::Select(q) => execute_query_naive(db, &q),
        _ => Err(Error::Parse("naive evaluator only supports SELECT".into())),
    }
}

/// Executes a parsed SELECT with the naive strategy: analyze into the
/// same [`TypedPlan`](super::analyze::TypedPlan) the optimizing executor
/// consumes, then evaluate it with no planning at all.
pub fn execute_query_naive(db: &Database, q: &Query) -> Result<Relation> {
    let plan = analyze(db, q)?;

    // Cross product of every table, in syntactic order: the flat row.
    let mut rows: Vec<Row> = vec![Vec::new()];
    for t in &plan.tables {
        rows = cross(&rows, &db.table(&t.name)?.to_rows());
    }

    // Apply every typed predicate post hoc: pushed-down scan filters,
    // join edges (as plain equality filters), residuals.
    for (t, preds) in plan.scans.iter().enumerate() {
        for p in preds {
            rows = filter(rows, &p.expr().rebased(0, plan.offset_of(t)))?;
        }
    }
    for e in &plan.edges {
        let (l, r) = (plan.flat_pos(e.left), plan.flat_pos(e.right));
        rows = filter(rows, &Expr::col(l).eq(Expr::col(r)))?;
    }
    for p in &plan.residual {
        rows = filter(rows, p.expr())?;
    }

    // Grouping, then the tail: HAVING, ORDER BY, projection, DISTINCT,
    // OFFSET, LIMIT.
    if let Some(g) = &plan.grouping {
        rows = naive_group(&rows, &g.keys, &g.aggregates)?;
    }
    if let Some(h) = &plan.having {
        rows = filter(rows, h.expr())?;
    }
    naive_sort(&mut rows, &plan.order_by);
    let project = |r: &Row| -> Row {
        plan.picks
            .iter()
            .map(|p| match p {
                Pick::Col(i) => r[*i],
                Pick::Lit(v) => *v,
            })
            .collect()
    };
    let mut rows: Vec<Row> = rows.iter().map(project).collect();
    if plan.distinct {
        rows = naive_distinct(rows);
    }
    let rows = rows
        .into_iter()
        .skip(plan.offset)
        .take(plan.limit.unwrap_or(usize::MAX))
        .collect();
    Ok(Relation::from_rows(plan.output, rows))
}

/// Cartesian product: every row of `left` followed by every row of `right`.
fn cross(left: &[Row], right: &[Row]) -> Vec<Row> {
    let mut rows = Vec::with_capacity(left.len() * right.len());
    for l in left {
        for r in right {
            rows.push(l.iter().chain(r).copied().collect());
        }
    }
    rows
}

/// Keeps the rows satisfying `pred`, evaluated uncompiled.
fn filter(rows: Vec<Row>, pred: &Expr) -> Result<Vec<Row>> {
    let mut kept = Vec::new();
    for r in rows {
        if pred.matches(&r)? {
            kept.push(r);
        }
    }
    Ok(kept)
}

/// GROUP BY + aggregates by linear key scan: groups are discovered in
/// first-occurrence order with `Vec<Value>` keys compared by value
/// equality, and each aggregate (function, input position) is recomputed
/// per group from the member rows. Output rows are the keys followed by
/// one cell per aggregate.
fn naive_group(rows: &[Row], group_cols: &[usize], aggs: &[AggSpec]) -> Result<Vec<Row>> {
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        let key: Vec<Value> = group_cols.iter().map(|&c| row[c]).collect();
        match keys.iter().position(|k| *k == key) {
            Some(g) => members[g].push(ri),
            None => {
                keys.push(key);
                members.push(vec![ri]);
            }
        }
    }
    // Empty input with no grouping keys still yields one (empty) group for
    // aggregates, matching SQL semantics.
    if keys.is_empty() && group_cols.is_empty() && !aggs.is_empty() {
        keys.push(Vec::new());
        members.push(Vec::new());
    }
    let mut out: Vec<Row> = Vec::with_capacity(keys.len());
    for (mut row, idxs) in keys.into_iter().zip(&members) {
        for a in aggs {
            row.push(naive_agg(rows, idxs, a.call)?);
        }
        out.push(row);
    }
    Ok(out)
}

/// One aggregate over one group's member rows, recomputed from scratch.
fn naive_agg(rows: &[Row], idxs: &[usize], call: Option<(AggFunc, usize)>) -> Result<Value> {
    // COUNT(*) counts rows.
    let Some((func, c)) = call else {
        return Ok(Value::Int(idxs.len() as i64));
    };
    // Every other aggregate skips NULL inputs.
    let vals: Vec<Value> = (idxs.iter().map(|&r| rows[r][c]))
        .filter(|v| !v.is_null())
        .collect();
    match func {
        AggFunc::Count => Ok(Value::Int(vals.len() as i64)),
        _ if vals.is_empty() => Ok(Value::Null),
        AggFunc::Sum => Ok(match numeric_sum("SUM", &vals)? {
            // An integer sum saturates into the `i64` value domain.
            (ints, None) => Value::Int(ints.clamp(i64::MIN.into(), i64::MAX.into()) as i64),
            (ints, Some(floats)) => Value::Float(ints as f64 + floats),
        }),
        AggFunc::Avg => {
            let (ints, floats) = numeric_sum("AVG", &vals)?;
            Ok(Value::Float(
                (ints as f64 + floats.unwrap_or(0.0)) / vals.len() as f64,
            ))
        }
        AggFunc::Min | AggFunc::Max => {
            let want = if func == AggFunc::Min {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            };
            let mut best = vals[0];
            for v in &vals[1..] {
                if v.total_cmp(&best) == want {
                    best = *v;
                }
            }
            Ok(best)
        }
    }
}

/// The documented SUM/AVG accumulation, written independently of the
/// engine's: integer inputs sum exactly (an `i128` cannot overflow on
/// `i64` inputs, however many), float inputs sum in row order, and the
/// float part is `None` unless a float input appeared.
fn numeric_sum(what: &str, vals: &[Value]) -> Result<(i128, Option<f64>)> {
    let mut ints: i128 = 0;
    let mut floats: Option<f64> = None;
    for v in vals {
        match v {
            Value::Int(i) => ints += i128::from(*i),
            Value::Float(f) => floats = Some(floats.unwrap_or(0.0) + f),
            _ => return Err(Error::Eval(format!("{what} over non-number {v}"))),
        }
    }
    Ok((ints, floats))
}

/// Stable multi-key sort comparing through [`Value::total_cmp`] per probe —
/// ties keep input order, exactly the engine's ties policy.
fn naive_sort(rows: &mut [Row], keys: &[SortKey]) {
    rows.sort_by(|a, b| {
        for k in keys {
            let ord = a[k.column].total_cmp(&b[k.column]);
            let ord = if k.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// First-occurrence DISTINCT by quadratic value-equality scan.
fn naive_distinct(rows: Vec<Row>) -> Vec<Row> {
    let mut kept: Vec<Row> = Vec::new();
    for r in rows {
        if !kept.contains(&r) {
            kept.push(r);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::execute;

    fn db() -> Database {
        let mut db = Database::new();
        for stmt in [
            "CREATE TABLE a (id INT PRIMARY KEY, x INT NOT NULL)",
            "CREATE TABLE b (id INT PRIMARY KEY, a_id INT REFERENCES a(id), y TEXT)",
            "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)",
            "INSERT INTO b VALUES (1, 1, 'p'), (2, 1, 'q'), (3, 2, 'r')",
        ] {
            execute(&mut db, stmt).unwrap();
        }
        db
    }

    fn sorted(rel: Relation) -> Vec<Vec<crate::value::Value>> {
        let mut rows: Vec<_> = rel.rows.iter().collect();
        rows.sort();
        rows
    }

    #[test]
    fn naive_matches_planner_on_join() {
        let d = db();
        let sql = "SELECT a.x, b.y FROM a, b WHERE a.id = b.a_id AND a.x >= 10";
        let mut d2 = d.clone();
        let planned = execute(&mut d2, sql).unwrap();
        let naive = execute_naive(&d, sql).unwrap();
        assert_eq!(sorted(planned), sorted(naive));
    }

    #[test]
    fn naive_matches_planner_on_group_by() {
        let d = db();
        let sql = "SELECT a.x, COUNT(*) AS n FROM a, b WHERE a.id = b.a_id \
                   GROUP BY a.x ORDER BY n DESC, a.x";
        let mut d2 = d.clone();
        let planned = execute(&mut d2, sql).unwrap();
        let naive = execute_naive(&d, sql).unwrap();
        assert_eq!(planned.rows, naive.rows); // fully ordered
    }

    #[test]
    fn naive_rejects_non_select() {
        let d = db();
        assert!(execute_naive(&d, "INSERT INTO a VALUES (9, 9)").is_err());
    }
}
