//! Loading external data from CSV text (RFC-4180-style quoting) into
//! tables, with values coerced to the column types. This is how a
//! downstream user brings their own database into the engine before
//! translating it to a typed graph.

use crate::database::Database;
use crate::table::Row;
use crate::value::{DataType, Value};
use crate::{Error, Result};

/// Parses one CSV record (no trailing newline), honoring double-quoted
/// fields with `""` escapes.
pub fn parse_record(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    cur.push('"');
                    chars.next();
                }
                '"' => in_quotes = false,
                c => cur.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Parse("unterminated quoted CSV field".into()));
    }
    fields.push(cur);
    Ok(fields)
}

/// Coerces a CSV field into a typed value. Empty fields become NULL.
pub fn coerce(field: &str, ty: DataType) -> Result<Value> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| Error::Parse(format!("`{field}` is not an integer"))),
        DataType::Float => field
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::Parse(format!("`{field}` is not a number"))),
        DataType::Bool => match field.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" | "yes" => Ok(Value::Bool(true)),
            "false" | "f" | "0" | "no" => Ok(Value::Bool(false)),
            other => Err(Error::Parse(format!("`{other}` is not a boolean"))),
        },
        DataType::Text => Ok(Value::text(field)),
    }
}

/// Loads CSV text into an existing table. The first record must be a header
/// naming a subset (or reordering) of the table's columns; columns absent
/// from the header are filled with NULL. Returns the number of inserted
/// rows. Foreign keys are enforced per row.
pub fn load_csv(db: &mut Database, table: &str, csv: &str) -> Result<usize> {
    let schema = db.table(table)?.schema().clone();
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| Error::Parse("empty CSV input".into()))?;
    let header_fields = parse_record(header)?;
    let mapping: Vec<usize> = header_fields
        .iter()
        .map(|name| {
            schema
                .column_index(name.trim())
                .ok_or_else(|| Error::UnknownColumn(name.trim().to_string()))
        })
        .collect::<Result<_>>()?;

    let mut inserted = 0usize;
    for (lineno, line) in lines.enumerate() {
        let fields = parse_record(line)?;
        if fields.len() != mapping.len() {
            return Err(Error::Parse(format!(
                "record {} has {} fields, header has {}",
                lineno + 2,
                fields.len(),
                mapping.len()
            )));
        }
        let mut row: Row = vec![Value::Null; schema.arity()];
        for (field, &col) in fields.iter().zip(&mapping) {
            row[col] = coerce(field, schema.columns[col].data_type)?;
        }
        db.insert(table, row)?;
        inserted += 1;
    }
    Ok(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ForeignKey, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "Conferences",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("acronym", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "Papers",
                vec![
                    Column::new("id", DataType::Int),
                    Column::nullable("conference_id", DataType::Int),
                    Column::new("title", DataType::Text),
                    Column::nullable("year", DataType::Int),
                ],
            )
            .with_primary_key(&["id"])
            .with_foreign_key(ForeignKey::single("conference_id", "Conferences", "id")),
        )
        .unwrap();
        db
    }

    #[test]
    fn record_parsing_with_quotes() {
        assert_eq!(parse_record("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(
            parse_record("1,\"a, b\",\"he said \"\"hi\"\"\"").unwrap(),
            vec!["1", "a, b", "he said \"hi\""]
        );
        assert_eq!(parse_record("x,,z").unwrap(), vec!["x", "", "z"]);
        assert!(parse_record("\"open").is_err());
    }

    #[test]
    fn loads_with_header_mapping_and_nulls() {
        let mut d = db();
        load_csv(&mut d, "Conferences", "id,acronym\n1,SIGMOD\n2,KDD\n").unwrap();
        // Reordered + partial header: year omitted -> NULL.
        let n = load_csv(
            &mut d,
            "Papers",
            "title,id,conference_id\n\"Usable, very\",10,1\nPlain title,11,2\n",
        )
        .unwrap();
        assert_eq!(n, 2);
        let papers = d.table("Papers").unwrap();
        let first = papers.row(0).unwrap();
        assert_eq!(first[2], "Usable, very".into());
        assert_eq!(first[3], Value::Null);
    }

    #[test]
    fn type_and_fk_errors_surface() {
        let mut d = db();
        load_csv(&mut d, "Conferences", "id,acronym\n1,SIGMOD\n").unwrap();
        // Bad int.
        assert!(load_csv(&mut d, "Papers", "id,title\nxyz,T\n").is_err());
        // Dangling FK.
        assert!(load_csv(&mut d, "Papers", "id,conference_id,title\n10,99,T\n").is_err());
        // Unknown header column.
        assert!(load_csv(&mut d, "Papers", "id,nope\n1,2\n").is_err());
        // Arity mismatch.
        assert!(load_csv(&mut d, "Papers", "id,title\n1\n").is_err());
    }

    #[test]
    fn empty_field_nullability_enforced() {
        let mut d = db();
        load_csv(&mut d, "Conferences", "id,acronym\n1,SIGMOD\n").unwrap();
        // title is NOT NULL; an empty field must be rejected.
        assert!(load_csv(&mut d, "Papers", "id,title\n1,\n").is_err());
    }

    #[test]
    fn bool_coercion() {
        assert_eq!(coerce("yes", DataType::Bool).unwrap(), Value::Bool(true));
        assert_eq!(coerce("F", DataType::Bool).unwrap(), Value::Bool(false));
        assert!(coerce("maybe", DataType::Bool).is_err());
    }

    #[test]
    fn loads_into_a_reopened_database() {
        // CSV ingest composes with disk snapshots: loading into a
        // reopened database behaves exactly like loading into the
        // original, and FK enforcement still sees the reopened rows.
        let mut resident = db();
        load_csv(
            &mut resident,
            "Conferences",
            "id,acronym\n1,SIGMOD\n2,KDD\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("etable-csv-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        resident.save(&dir).unwrap();
        let mut reopened = Database::open(&dir).unwrap();
        let csv = "title,id,conference_id\n\"Usable, very\",10,1\nPlain title,11,2\n";
        assert_eq!(load_csv(&mut reopened, "Papers", csv).unwrap(), 2);
        // FK enforcement consults the reopened Conferences rows.
        assert!(load_csv(&mut reopened, "Papers", "id,conference_id,title\n12,99,T\n").is_err());
        load_csv(&mut resident, "Papers", csv).unwrap();
        assert_eq!(
            reopened.table("Papers").unwrap().row(1).unwrap(),
            resident.table("Papers").unwrap().row(1).unwrap()
        );
        reopened.check_integrity().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loaded_csv_translates_to_tgm() {
        // The promised end-to-end: CSV -> relational -> typed graph.
        let mut d = db();
        load_csv(&mut d, "Conferences", "id,acronym\n1,SIGMOD\n").unwrap();
        load_csv(
            &mut d,
            "Papers",
            "id,conference_id,title,year\n10,1,Usable DBs,2007\n",
        )
        .unwrap();
        // (Translation itself is exercised in etable-tgm tests; here we just
        // confirm the loaded data satisfies its preconditions.)
        d.check_integrity().unwrap();
    }
}
