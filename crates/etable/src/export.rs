//! Machine-readable export of enriched tables.
//!
//! The original system serves ETables to an HTML/D3 front-end as JSON; the
//! exporters here reproduce that interchange layer (hand-rolled, no serde:
//! the structure is small and the escaping rules are few) plus a flat CSV
//! form for spreadsheet users — the audience the paper's related work says
//! prefers tabular tools.

use crate::etable::{Cell, ColumnKind, EnrichedTable};
use std::fmt::Write;

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_value(v: &etable_relational::value::Value) -> String {
    use etable_relational::value::Value;
    match v {
        Value::Null => "null".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => f.to_string(),
        Value::Float(_) => "null".into(), // NaN/inf have no JSON form
        Value::Text(s) => format!("\"{}\"", json_escape(s.as_str())),
        Value::Bool(b) => b.to_string(),
    }
}

/// Serializes an enriched table to JSON:
/// `{"primary": ..., "filter": ..., "columns": [...], "rows": [...]}`.
///
/// ```
/// use etable_core::{export, ops, transform};
/// use etable_core::testutil::academic_tgdb;
///
/// let tgdb = academic_tgdb();
/// let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
/// let q = ops::initiate(&tgdb, papers).unwrap();
/// let table = transform::execute(&tgdb, &q).unwrap();
/// let json = export::to_json(&table);
/// assert!(json.starts_with("{\"primary\":\"Papers\""));
/// ```
///
/// Entity-reference cells become `{"count": n, "refs": [{"node": id,
/// "label": ...}, ...]}` — the count is what the UI badge shows.
pub fn to_json(table: &EnrichedTable) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"primary\":\"{}\",\"filter\":\"{}\",\"columns\":[",
        json_escape(&table.primary_type_name),
        json_escape(&table.filter_desc)
    );
    for (i, col) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match col.kind {
            ColumnKind::Base { .. } => "base",
            ColumnKind::Participating { .. } => "participating",
            ColumnKind::Neighbor { .. } => "neighbor",
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"kind\":\"{kind}\"}}",
            json_escape(&col.name)
        );
    }
    out.push_str("],\"rows\":[");
    let mut columns = columns(table);
    for (ri, node) in table.nodes().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"node\":{},\"cells\":[", node.0);
        let cells = columns.iter_mut().filter_map(Iterator::next);
        for (ci, cell) in cells.enumerate() {
            if ci > 0 {
                out.push(',');
            }
            match cell {
                Cell::Atomic(v) => out.push_str(&json_value(&v)),
                Cell::Refs(refs) => {
                    let _ = write!(out, "{{\"count\":{},\"refs\":[", refs.ids().len());
                    for (i, r) in refs.ids().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(
                            out,
                            "{{\"node\":{},\"label\":\"{}\"}}",
                            r.0,
                            json_escape(&table.label_text(r))
                        );
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// One cursor per column, advanced in step to read the table row by row:
/// each column is computed in one pass that reuses its buffers.
fn columns(table: &EnrichedTable) -> Vec<impl Iterator<Item = Cell> + '_> {
    (0..table.columns.len())
        .map(|ci| table.column_values(ci))
        .collect()
}

/// Escapes a CSV field (RFC 4180 style).
fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes an enriched table to CSV. Reference cells flatten to
/// `label; label; ...` — the comma-separated-values-within-a-cell
/// spreadsheet idiom the paper's introduction describes.
pub fn to_csv(table: &EnrichedTable) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.columns.iter().map(|c| csv_escape(&c.name)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    let mut columns = columns(table);
    for _ in 0..table.len() {
        let fields: Vec<String> = (columns.iter_mut())
            .filter_map(Iterator::next)
            .map(|cell| match cell {
                Cell::Atomic(v) if v.is_null() => String::new(),
                Cell::Atomic(v) => csv_escape(&v.to_string()),
                Cell::Refs(refs) => {
                    let labels: Vec<_> = refs.ids().map(|r| table.label_text(r)).collect();
                    csv_escape(&labels.join("; "))
                }
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::testutil::academic_tgdb;
    use crate::transform;

    fn table() -> EnrichedTable {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        transform::execute(&tgdb, &q).unwrap()
    }

    #[test]
    fn json_has_expected_structure() {
        let t = table();
        let json = to_json(&t);
        assert!(json.starts_with("{\"primary\":\"Papers\""));
        assert!(json.contains("\"kind\":\"base\""));
        assert!(json.contains("\"kind\":\"neighbor\""));
        assert!(json.contains("\"count\":"));
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn csv_round_shape() {
        let t = table();
        let csv = to_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), t.len() + 1);
        assert!(lines[0].starts_with("id,title,year"));
        // A multi-author paper flattens with semicolons.
        assert!(csv.contains("H. V. Jagadish; Arnab Nandi"), "{csv}");
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
    }

    #[test]
    fn null_cells_export_cleanly() {
        use etable_relational::database::Database;
        use etable_relational::schema::{Column, TableSchema};
        use etable_relational::value::{DataType, Value};
        let mut db = Database::new();
        let schema = TableSchema::new(
            "T",
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("x", DataType::Int),
            ],
        );
        db.create_table(schema.with_primary_key(&["id"])).unwrap();
        db.insert("T", vec![1.into(), Value::Null]).unwrap();
        let tgdb = etable_tgm::translate(&db, &Default::default()).unwrap();
        let (ty, _) = tgdb.schema.node_type_by_name("T").unwrap();
        let t = transform::execute(&tgdb, &ops::initiate(&tgdb, ty).unwrap()).unwrap();
        assert!(to_json(&t).contains("null"));
        assert_eq!(to_csv(&t).lines().nth(1), Some("1,"));
    }
}
