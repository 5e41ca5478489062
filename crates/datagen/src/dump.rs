//! SQL dump of a generated database: serializes schema + rows as
//! `CREATE TABLE` / `INSERT` statements that the `etable-relational` SQL
//! dialect can replay. Round-tripping a generated database through its own
//! dump exercises the whole SQL surface at scale and lets users persist a
//! world or load it into another engine.

use etable_relational::database::Database;
use etable_relational::sql::{execute, SqlExpr};
use etable_relational::table::Table;
use etable_relational::value::DataType;
use std::fmt::Write;

fn sql_type(ty: DataType) -> &'static str {
    match ty {
        DataType::Int => "INT",
        DataType::Float => "FLOAT",
        DataType::Text => "TEXT",
        DataType::Bool => "BOOL",
    }
}

/// Serializes the whole database as executable SQL.
///
/// Tables are emitted in FK-dependency order so the dump replays with
/// integrity checking enabled; INSERTs are batched. Every cell prints as
/// the SQL printer prints a literal, which the lexer reads back to the
/// same value (a float keeps its exact bits).
pub fn dump_sql(db: &Database) -> String {
    // Topologically order tables by FK dependencies.
    let mut ordered: Vec<&Table> = Vec::new();
    let mut remaining: Vec<&Table> = db.tables().collect();
    while !remaining.is_empty() {
        let before = ordered.len();
        remaining.retain(|t| {
            let schema = t.schema();
            let ready = schema.foreign_keys.iter().all(|fk| {
                fk.referenced_table == schema.name
                    || ordered
                        .iter()
                        .any(|o| o.schema().name == fk.referenced_table)
            });
            if ready {
                ordered.push(t);
            }
            !ready
        });
        assert!(
            ordered.len() > before,
            "cyclic FK dependencies between tables {:?}",
            remaining
                .iter()
                .map(|t| &t.schema().name)
                .collect::<Vec<_>>()
        );
    }

    let mut out = String::new();
    for table in &ordered {
        let schema = table.schema();
        let _ = write!(out, "CREATE TABLE {} (", schema.name);
        for (i, c) in schema.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{} {}", c.name, sql_type(c.data_type));
            if !c.nullable && !schema.is_pk_column(&c.name) {
                out.push_str(" NOT NULL");
            }
        }
        if !schema.primary_key.is_empty() {
            let _ = write!(out, ", PRIMARY KEY ({})", schema.primary_key.join(", "));
        }
        for fk in &schema.foreign_keys {
            let _ = write!(
                out,
                ", FOREIGN KEY ({}) REFERENCES {} ({})",
                fk.columns.join(", "),
                fk.referenced_table,
                fk.referenced_columns.join(", ")
            );
        }
        out.push_str(");\n");
    }
    for table in &ordered {
        const BATCH: usize = 200;
        let rows = table.to_rows();
        for chunk in rows.chunks(BATCH) {
            let _ = write!(out, "INSERT INTO {} VALUES ", table.schema().name);
            for (i, row) in chunk.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let fields: Vec<String> = row
                    .iter()
                    .map(|&v| SqlExpr::Literal(v).to_string())
                    .collect();
                let _ = write!(out, "({})", fields.join(", "));
            }
            out.push_str(";\n");
        }
    }
    out
}

/// Replays a dump into a fresh database.
pub fn load_sql(dump: &str) -> Result<Database, etable_relational::Error> {
    let mut db = Database::new();
    for stmt in dump.split(";\n") {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        execute(&mut db, stmt)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};
    use etable_relational::value::Value;

    #[test]
    fn round_trip_preserves_everything() {
        let original = generate(&GenConfig::small());
        let dump = dump_sql(&original);
        let restored = load_sql(&dump).expect("dump replays");
        assert_eq!(original.table_names(), restored.table_names());
        for name in original.table_names() {
            let a = original.table(name).unwrap();
            let b = restored.table(name).unwrap();
            assert_eq!(a.schema(), b.schema(), "{name} schema");
            assert_eq!(a.to_rows(), b.to_rows(), "{name} rows");
        }
        restored.check_integrity().unwrap();
    }

    #[test]
    fn dump_orders_tables_by_dependency() {
        let db = generate(&GenConfig::small());
        let dump = dump_sql(&db);
        let pos = |t: &str| dump.find(&format!("CREATE TABLE {t} ")).unwrap();
        assert!(pos("Institutions") < pos("Authors"));
        assert!(pos("Conferences") < pos("Papers"));
        assert!(pos("Papers") < pos("Paper_Authors"));
        assert!(pos("Authors") < pos("Paper_Authors"));
    }

    #[test]
    fn dump_escapes_quotes() {
        use etable_relational::schema::{Column, TableSchema};
        use etable_relational::value::DataType;
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "T",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("s", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.insert("T", vec![1.into(), "it's".into()]).unwrap();
        let dump = dump_sql(&db);
        assert!(dump.contains("'it''s'"), "{dump}");
        let restored = load_sql(&dump).unwrap();
        assert_eq!(
            restored.table("T").unwrap().row(0).unwrap()[1],
            Value::text("it's")
        );
    }

    /// Every float reloads with its exact bits: a magnitude `Display`
    /// prints without a decimal point, a negative zero, the smallest
    /// subnormal and the largest finite value.
    #[test]
    fn dump_round_trips_floats_bit_for_bit() {
        use etable_relational::schema::{Column, TableSchema};
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "F",
                vec![
                    Column::new("id", DataType::Int),
                    Column::nullable("x", DataType::Float),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        let floats = [1e20, -0.0, 2.0, 5e-324, f64::MAX];
        for (i, &x) in floats.iter().enumerate() {
            db.insert("F", vec![Value::Int(i as i64), Value::Float(x)])
                .unwrap();
        }
        let restored = load_sql(&dump_sql(&db)).expect("dump replays");
        let t = restored.table("F").unwrap();
        for (i, &x) in floats.iter().enumerate() {
            match t.row(i).unwrap()[1] {
                Value::Float(y) => assert_eq!(y.to_bits(), x.to_bits(), "{x:?} reloaded as {y:?}"),
                other => panic!("{x:?} reloaded as {other:?}"),
            }
        }
    }

    #[test]
    fn translated_dump_equals_translated_original() {
        // The TGM built from a restored dump is identical in shape.
        use etable_tgm::{translate, TranslateOptions};
        let original = generate(&GenConfig::small());
        let restored = load_sql(&dump_sql(&original)).unwrap();
        let t1 = translate(&original, &TranslateOptions::default()).unwrap();
        let t2 = translate(&restored, &TranslateOptions::default()).unwrap();
        assert_eq!(t1.schema.node_type_count(), t2.schema.node_type_count());
        assert_eq!(t1.instances.node_count(), t2.instances.node_count());
        assert_eq!(t1.instances.edge_count(), t2.instances.edge_count());
    }
}
