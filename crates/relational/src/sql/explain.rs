//! EXPLAIN: the analyzed plan, then what the executor ran, as text.
//!
//! This is the one module that knows EXPLAIN's text. The executor does
//! not narrate: every run of a plan records one `Stage` per operator —
//! plan positions and counts, nothing else — and EXPLAIN renders
//! [`TypedPlan::render`] followed by each stage read against the plan.

use super::analyze::{analyze, ty_name, TypedPlan, TypedPred};
use super::ast::Query;
use super::executor::execute_typed;
use crate::database::Database;
use crate::exec::agg::KeyShape;
use crate::exec::tree::TreeStep;
use crate::relation::RelColumn;
use crate::Result;
use std::borrow::Borrow;

/// One operator the executor ran, over the plan's positions: a table is
/// an index into [`TypedPlan::tables`], an edge into
/// [`TypedPlan::edges`], a residual into [`TypedPlan::residual`].
#[derive(Debug)]
pub(crate) enum Stage {
    /// A base scan of `rows` stored rows; `kept` is how many its
    /// pushed-down predicates kept, `None` when it has none.
    Scan {
        table: usize,
        rows: usize,
        kept: Option<usize>,
    },
    /// The greedy join order starts from this (smallest) relation.
    Start { table: usize },
    /// `edge` joined table `with` (`rows` rows) to the joined set,
    /// giving `out` rows; `flipped` when the edge's right key is on the
    /// joined side, `fk` when it ran through the stored foreign-key index.
    Join {
        edge: usize,
        flipped: bool,
        fk: bool,
        with: usize,
        rows: usize,
        out: usize,
    },
    /// No edge reached a pending table: a cross product with `with`.
    Cross {
        with: usize,
        rows: usize,
        out: usize,
    },
    /// `edge` fell inside the joined set and ran as a filter.
    Cycle { edge: usize, out: usize },
    /// Residual predicate `pred` kept `out` rows.
    Residual { pred: usize, out: usize },
    /// The foreign-key tree pass (`exec::tree`) in place of the joins:
    /// each non-root table's message, and the `rows` of `root` that
    /// weigh more than 0.
    Tree {
        root: usize,
        steps: Vec<TreeStep>,
        rows: usize,
    },
    /// The group-id pass: one shape per GROUP BY key (none for a global
    /// aggregate), and the groups it found.
    Group {
        shapes: Vec<KeyShape>,
        groups: usize,
    },
    /// ORDER BY under LIMIT sorted only the first `kept` of `of` rows.
    TopK { kept: usize, of: usize },
    /// The result's shape.
    Output { rows: usize, columns: usize },
}

impl Stage {
    /// The stage's EXPLAIN line; `None` for a global aggregate's group
    /// pass, which EXPLAIN does not show.
    pub(crate) fn render(&self, plan: &TypedPlan) -> Option<String> {
        let alias = |t: usize| &plan.tables[t].alias;
        Some(match self {
            Stage::Scan { table, rows, kept } => {
                let scan = format!("scan {} ({rows} rows)", alias(*table));
                match kept {
                    None => scan,
                    Some(kept) => {
                        let pushdown = pushdown(&plan.scans[*table]);
                        format!("{scan} {pushdown} -> {kept} rows")
                    }
                }
            }
            Stage::Start { table } => format!("start from smallest relation {}", alias(*table)),
            Stage::Join {
                edge,
                flipped,
                fk,
                with,
                rows,
                out,
            } => {
                let e = &plan.edges[*edge];
                let (cur, other) = match flipped {
                    false => (&e.left_name, &e.right_name),
                    true => (&e.right_name, &e.left_name),
                };
                let kind = if *fk { "fk" } else { "hash" };
                let with = alias(*with);
                format!("{kind} join {cur} = {other} with {with} ({rows} rows) -> {out} rows")
            }
            Stage::Cross { with, rows, out } => {
                let with = alias(*with);
                format!("cross product with {with} ({rows} rows) -> {out} rows")
            }
            Stage::Cycle { edge, out } => {
                let e = &plan.edges[*edge];
                let (left, right) = (&e.left_name, &e.right_name);
                format!("cycle filter {left} = {right} -> {out} rows")
            }
            Stage::Residual { pred, out } => {
                let pred = plan.residual[*pred].display();
                format!("residual filter [{pred}] -> {out} rows")
            }
            Stage::Tree { root, steps, rows } => {
                let steps = steps.iter().map(|s| {
                    let (t, w) = (alias(s.table), s.weighed);
                    format!("{t} {w} ({})", s.walk.name())
                });
                let root = alias(*root);
                format!(
                    "fk tree to {root}, no join built: weighed {} -> {rows} rows",
                    list(steps)
                )
            }
            Stage::Group { shapes, .. } if shapes.is_empty() => return None,
            Stage::Group { shapes, groups } => {
                let (n, shapes) = (shapes.len(), list(shapes.iter().map(|&s| shape_name(s))));
                format!("group by {n} key(s) [{shapes}] -> {groups} groups")
            }
            Stage::TopK { kept, of } => {
                format!("top {kept} of {of} by [{}]", sort_keys(plan))
            }
            Stage::Output { rows, columns } => {
                format!("output: {rows} rows x {columns} columns")
            }
        })
    }
}

/// How the group-id pass hashes a key of this shape.
fn shape_name(shape: KeyShape) -> &'static str {
    match shape {
        KeyShape::IntWord => "INT word",
        KeyShape::TextWord => "TEXT word",
        KeyShape::Values => "value keys",
    }
}

/// A scan's pushed-down predicates: `pushdown [p₁ AND …]`.
fn pushdown(preds: &[TypedPred]) -> String {
    let preds: Vec<&str> = preds.iter().map(TypedPred::display).collect();
    format!("pushdown [{}]", preds.join(" AND "))
}

/// `items` joined by `, `.
fn list<S: Borrow<str>>(items: impl Iterator<Item = S>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

/// The ORDER BY keys: `n DESC, a.name`.
fn sort_keys(plan: &TypedPlan) -> String {
    let columns = plan.tail_columns();
    list(plan.order_by.iter().map(|k| {
        let name = columns[k.column].qualified_name();
        match k.descending {
            true => format!("{name} DESC"),
            false => name,
        }
    }))
}

/// Analyzes and runs `q`, and renders its plan followed by the stages
/// the run recorded: pushed-down filters with their selectivity, the
/// join order with intermediate sizes, residual predicates, and the
/// tail. Backing for the SQL `EXPLAIN` statement.
pub fn explain_query(db: &Database, q: &Query) -> Result<Vec<String>> {
    let plan = analyze(db, q)?;
    let (_, stages) = execute_typed(db, &plan)?;
    let mut lines = plan.render();
    lines.extend(stages.iter().filter_map(|s| s.render(&plan)));
    Ok(lines)
}

impl TypedPlan {
    /// Renders the analyzed plan for EXPLAIN: scans with column types and
    /// pushdowns, join edges with key types, residuals, the grouped
    /// shape, sort keys, and the typed output row.
    pub fn render(&self) -> Vec<String> {
        let mut out = vec!["typed plan:".to_string()];
        for (t, preds) in self.tables.iter().zip(&self.scans) {
            let cols =
                t.columns.iter().zip(&t.nullable).map(|(c, &n)| {
                    format!("{} {}{}", c.name, c.data_type, if n { "?" } else { "" })
                });
            let cols = list(cols);
            let mut line = match t.alias == t.name {
                true => format!("  from {} [{cols}]", t.name),
                false => format!("  from {} AS {} [{cols}]", t.name, t.alias),
            };
            if !preds.is_empty() {
                line = format!("{line} {}", pushdown(preds));
            }
            out.push(line);
        }
        for e in &self.edges {
            let (l, r, ty) = (&e.left_name, &e.right_name, ty_name(e.key_ty));
            out.push(format!("  join edge {l} = {r} [{ty}]"));
        }
        for p in &self.residual {
            out.push(format!("  residual [{}]", p.display()));
        }
        if let Some(g) = &self.grouping {
            let (keys, aggs) = g.columns.split_at(g.keys.len());
            let keys = list(keys.iter().map(RelColumn::qualified_name));
            let aggs = list(aggs.iter().map(|c| format!("{} {}", c.name, c.data_type)));
            out.push(format!("  group keys [{keys}] aggregates [{aggs}]"));
        }
        if let Some(h) = &self.having {
            out.push(format!("  having [{}]", h.display()));
        }
        if !self.order_by.is_empty() {
            out.push(format!("  sort keys [{}]", sort_keys(self)));
        }
        let cols = self.output.iter();
        let cols = list(cols.map(|c| format!("{} {}", c.qualified_name(), c.data_type)));
        out.push(format!("  output columns [{cols}]"));
        out.push("execution:".to_string());
        out
    }
}
