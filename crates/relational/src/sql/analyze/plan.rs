//! The analyzed plan of a SELECT, [`TypedPlan`] (its EXPLAIN text is
//! [`crate::sql::explain`]'s).
//!
//! A plan holds what both engines execute — [`Expr`](crate::expr::Expr)s,
//! [`Pick`]s, [`SortKey`]s and [`AggSpec`]s over column positions — so
//! neither maps a name or a column reference at run time. Each stage
//! reads one position space:
//!
//! * a scan predicate reads its own table's columns;
//! * a residual predicate, a GROUP BY key and an aggregate input read the
//!   *flat row*: every plan table's columns in FROM + JOIN order
//!   ([`TypedPlan::flat_pos`]);
//! * HAVING, the output picks and the ORDER BY keys read the *tail
//!   input*: the flat row, or for a grouped query the grouped row — the
//!   key columns, then one column per aggregate.

use super::typing::{Ty, TypedPred};
use crate::colrel::Pick;
use crate::exec::agg::AggSpec;
use crate::relation::{RelColumn, Relation, SortKey};
use crate::table::Table;
use crate::value::DataType;
use crate::{Error, Result};

/// A column named by its table — position in the plan's syntactic FROM +
/// JOIN order — and its position within that table: a join edge's key,
/// or where a flat-row position falls ([`TypedPlan::column_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnId {
    /// Index into [`TypedPlan::tables`].
    pub table: usize,
    /// Column index within that table's schema.
    pub column: usize,
}

/// One base table of the plan, in syntactic FROM + JOIN order.
#[derive(Debug, Clone)]
pub struct PlanTable {
    /// Stored table name.
    pub name: String,
    /// Effective alias (the table name when none was given).
    pub alias: String,
    /// Column shape a scan of this table produces (alias-qualified).
    pub columns: Vec<RelColumn>,
    /// Per-column nullability from the schema.
    pub nullable: Vec<bool>,
}

impl PlanTable {
    /// The stored table `name` (`table`) scanned under `alias`.
    pub(super) fn new(name: &str, alias: &str, table: &Table) -> PlanTable {
        PlanTable {
            name: name.to_string(),
            alias: alias.to_string(),
            columns: Relation::table_columns(table, alias),
            nullable: table.schema().columns.iter().map(|c| c.nullable).collect(),
        }
    }
}

/// An equi-join conjunct `left = right` across two distinct tables.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Left key as written in the SQL.
    pub left: ColumnId,
    /// Right key as written in the SQL.
    pub right: ColumnId,
    /// Display name of the left key (as written).
    pub left_name: String,
    /// Display name of the right key (as written).
    pub right_name: String,
    /// Joined key type under the widening lattice.
    pub key_ty: Option<DataType>,
}

/// The grouped shape of a query.
#[derive(Debug, Clone)]
pub struct TypedGrouping {
    /// GROUP BY key columns, at flat-row positions.
    pub keys: Vec<usize>,
    /// Deduplicated aggregates in first-appearance order, inputs at
    /// flat-row positions, each named by its display key (`COUNT(*)`).
    pub aggregates: Vec<AggSpec>,
    /// The grouped row: the key columns (original qualified metadata),
    /// then one bare column per aggregate.
    pub columns: Vec<RelColumn>,
}

/// The analyzed, fully resolved and typed logical plan of a SELECT (see
/// the module docs for the position space each field reads).
#[derive(Debug, Clone, Default)]
pub struct TypedPlan {
    /// Base tables in syntactic FROM + JOIN order.
    pub tables: Vec<PlanTable>,
    /// Single-table predicates pushed into each table's scan, over that
    /// table's columns.
    pub scans: Vec<Vec<TypedPred>>,
    /// Equi-join edges across tables.
    pub edges: Vec<JoinEdge>,
    /// Everything else (multi-table non-equi predicates, constants,
    /// non-column equalities), over the flat row.
    pub residual: Vec<TypedPred>,
    /// The grouped shape, when the query groups or aggregates.
    pub grouping: Option<TypedGrouping>,
    /// HAVING, over the grouped row.
    pub having: Option<TypedPred>,
    /// Output columns in select-list order (wildcards expanded
    /// syntactically).
    pub output: Vec<RelColumn>,
    /// One pick per output column, over the tail input.
    pub picks: Vec<Pick>,
    /// ORDER BY keys, over the tail input.
    pub order_by: Vec<SortKey>,
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: usize,
}

impl TypedPlan {
    /// Where table `table`'s columns start in the flat row.
    pub fn offset_of(&self, table: usize) -> usize {
        self.tables[..table].iter().map(|t| t.columns.len()).sum()
    }

    /// The position of `c` in the flat row.
    pub fn flat_pos(&self, c: ColumnId) -> usize {
        self.offset_of(c.table) + c.column
    }

    /// The column at flat-row position `pos` (the inverse of
    /// [`TypedPlan::flat_pos`]); `None` past the last column.
    pub fn column_id(&self, pos: usize) -> Option<ColumnId> {
        let mut column = pos;
        for (table, t) in self.tables.iter().enumerate() {
            if column < t.columns.len() {
                return Some(ColumnId { table, column });
            }
            column -= t.columns.len();
        }
        None
    }

    /// Resolves a (possibly qualified) column name against every table to
    /// its flat-row position and type: zero matches is unknown, more than
    /// one is ambiguous.
    pub(super) fn resolve(&self, name: &str) -> Result<(usize, Ty)> {
        let flat = self
            .tables
            .iter()
            .flat_map(|t| t.columns.iter().zip(&t.nullable));
        let mut hit = None;
        for (pos, (col, &nullable)) in flat.enumerate() {
            if col.matches_name(name) {
                if hit.is_some() {
                    return Err(Error::Analyze(format!(
                        "ambiguous column reference `{name}`"
                    )));
                }
                let base = Some(col.data_type);
                hit = Some((pos, Ty { base, nullable }));
            }
        }
        hit.ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// The tail input's columns: the grouped row, or the flat row.
    pub(crate) fn tail_columns(&self) -> Vec<&RelColumn> {
        match &self.grouping {
            Some(g) => g.columns.iter().collect(),
            None => self.tables.iter().flat_map(|t| &t.columns).collect(),
        }
    }
}
