//! Static validation of INSERT / UPDATE / DELETE: every semantic error is
//! raised before a row is read or written, so an invalid statement
//! touches zero rows.

use super::super::ast::SqlExpr;
use super::plan::{PlanTable, TypedPlan};
use super::typing::{type_pred, TypedPred};
use crate::database::Database;
use crate::value::Value;
use crate::{Error, Result};

/// Types an optional DML WHERE clause against `table`'s own columns
/// (`None` → always true). All name and type errors surface here, before
/// any row is read.
fn dml_predicate(db: &Database, table: &str, where_clause: Option<&SqlExpr>) -> Result<TypedPred> {
    let scope = TypedPlan {
        tables: vec![PlanTable::new(table, table, db.table(table)?)],
        ..TypedPlan::default()
    };
    let always = SqlExpr::Literal(Value::Bool(true));
    type_pred(where_clause.unwrap_or(&always), |name| scope.resolve(name))
}

/// Statically validates a DELETE and returns its positional predicate.
pub fn analyze_delete(
    db: &Database,
    table: &str,
    where_clause: Option<&SqlExpr>,
) -> Result<TypedPred> {
    dml_predicate(db, table, where_clause)
}

/// Statically validates an UPDATE — SET columns exist, assigned values
/// fit their column types (INT→FLOAT widening allowed) and nullability —
/// and returns the positional WHERE predicate. An invalid UPDATE
/// therefore touches zero rows.
pub fn analyze_update(
    db: &Database,
    table: &str,
    sets: &[(String, Value)],
    where_clause: Option<&SqlExpr>,
) -> Result<TypedPred> {
    let schema = db.table(table)?.schema();
    for (name, v) in sets {
        let i = schema
            .column_index(name)
            .ok_or_else(|| Error::UnknownColumn(name.clone()))?;
        let col = &schema.columns[i];
        if v.is_null() {
            if !col.nullable {
                return Err(Error::Analyze(format!(
                    "cannot assign NULL to NOT NULL column `{table}.{name}`"
                )));
            }
        } else if !v.fits(col.data_type) {
            return Err(Error::Analyze(format!(
                "type mismatch: cannot assign {v} to `{table}.{name}` ({})",
                col.data_type
            )));
        }
    }
    dml_predicate(db, table, where_clause)
}

/// Statically validates every INSERT row — arity, value/column type fit,
/// nullability — before any row is stored. PK/FK uniqueness stays a
/// runtime constraint check, found while the rows are stored; both
/// callers run the statement on a clone, so a refusal there leaves no
/// earlier row behind either.
pub fn analyze_insert(db: &Database, table: &str, rows: &[Vec<Value>]) -> Result<()> {
    let schema = db.table(table)?.schema();
    for row in rows {
        if row.len() != schema.columns.len() {
            return Err(Error::Analyze(format!(
                "INSERT row has {} values but table `{table}` has {} columns",
                row.len(),
                schema.columns.len()
            )));
        }
        for (v, col) in row.iter().zip(&schema.columns) {
            if v.is_null() {
                if !col.nullable {
                    return Err(Error::Analyze(format!(
                        "cannot insert NULL into NOT NULL column `{table}.{}`",
                        col.name
                    )));
                }
            } else if !v.fits(col.data_type) {
                return Err(Error::Analyze(format!(
                    "type mismatch: cannot insert {v} into `{table}.{}` ({})",
                    col.name, col.data_type
                )));
            }
        }
    }
    Ok(())
}
