//! Property tests pinning the columnar `Table` to the semantics of the old
//! row-oriented storage: inserting rows and reading them back — through the
//! row facade, the cell accessor, and the bulk APIs — must reproduce the
//! inserted `Value`s exactly, including NULLs and interned text.

use etable_relational::schema::{Column, TableSchema};
use etable_relational::table::{Row, Table};
use etable_relational::value::{DataType, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A schema exercising every column type, with nullable columns of each.
fn wide_schema() -> TableSchema {
    TableSchema::new(
        "W",
        vec![
            Column::new("id", DataType::Int),
            Column::nullable("i", DataType::Int),
            Column::nullable("f", DataType::Float),
            Column::nullable("t", DataType::Text),
            Column::nullable("b", DataType::Bool),
        ],
    )
    .with_primary_key(&["id"])
}

fn random_cell(rng: &mut StdRng, ty: DataType) -> Value {
    if rng.gen_range(0..5) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(rng.gen_range(-1000..1000)),
        // Ints are sometimes written into the FLOAT column to exercise
        // widening; the read-back must still compare equal.
        DataType::Float => {
            if rng.gen_range(0..3) == 0 {
                Value::Int(rng.gen_range(-50..50))
            } else {
                Value::Float(rng.gen_range(-10.0..10.0))
            }
        }
        DataType::Text => {
            let len = rng.gen_range(0..8);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.gen_range(0..6u8)) as char)
                .collect();
            Value::text(s)
        }
        DataType::Bool => Value::Bool(rng.gen_range(0..2) == 1),
    }
}

fn random_rows(seed: u64, n: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = wide_schema();
    (0..n)
        .map(|id| {
            let mut row: Row = vec![Value::Int(id as i64)];
            row.extend(
                schema.columns[1..]
                    .iter()
                    .map(|c| random_cell(&mut rng, c.data_type)),
            );
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// insert rows -> read cells: the columnar store must hand back values
    /// equal to what went in, row-wise and cell-wise.
    #[test]
    fn insert_then_read_round_trips(seed in 0u64..10_000, n in 1usize..60) {
        let rows = random_rows(seed, n);
        let mut table = Table::new(wide_schema()).unwrap();
        for r in &rows {
            table.insert(r.clone()).unwrap();
        }
        prop_assert_eq!(table.len(), rows.len());
        // Whole-table materialization.
        prop_assert_eq!(&table.to_rows(), &rows);
        // Row facade and cell accessor agree with the shadow copy.
        for (i, expected) in rows.iter().enumerate() {
            let got = table.row(i).unwrap();
            prop_assert_eq!(&got, expected, "row {}", i);
            for (c, cell) in expected.iter().enumerate() {
                prop_assert_eq!(&table.value(i, c), cell, "cell ({}, {})", i, c);
                prop_assert_eq!(table.column(c).is_null(i), cell.is_null());
            }
        }
        // Interned text reads back the identical string, not just an equal
        // symbol.
        for (i, expected) in rows.iter().enumerate() {
            if let Some(s) = expected[3].as_text() {
                prop_assert_eq!(table.value(i, 3).as_text(), Some(s));
            }
        }
    }

    /// Bulk columnar append is observationally identical to row-at-a-time
    /// insert.
    #[test]
    fn bulk_append_equals_row_inserts(seed in 0u64..10_000, n in 1usize..60) {
        let rows = random_rows(seed, n);
        let mut one_by_one = Table::new(wide_schema()).unwrap();
        for r in &rows {
            one_by_one.insert(r.clone()).unwrap();
        }
        let mut bulk = Table::new(wide_schema()).unwrap();
        bulk.append_rows(rows.clone()).unwrap();
        prop_assert_eq!(one_by_one.to_rows(), bulk.to_rows());
        // PK index agrees too.
        for r in &rows {
            prop_assert_eq!(
                one_by_one.pk_row_index(&[r[0]]),
                bulk.pk_row_index(&[r[0]])
            );
        }
    }

    /// distinct_values over the columnar store equals a shadow computation
    /// over the inserted rows (sorted by the total order, NULL first).
    #[test]
    fn distinct_values_match_shadow(seed in 0u64..10_000, n in 1usize..60) {
        let rows = random_rows(seed, n);
        let mut table = Table::new(wide_schema()).unwrap();
        table.append_rows(rows.clone()).unwrap();
        for c in 0..wide_schema().arity() {
            let mut shadow: Vec<Value> = rows.iter().map(|r| r[c]).collect();
            shadow.sort();
            shadow.dedup();
            prop_assert_eq!(table.distinct_values(c), shadow, "column {}", c);
        }
    }
}

/// ORDER BY over interned text must be lexicographic even when symbols were
/// interned in an adversarial (reverse) order.
#[test]
fn sql_order_by_ignores_intern_order() {
    use etable_relational::database::Database;
    use etable_relational::sql::execute;

    // Intern the names in reverse lexicographic order first, so symbol ids
    // descend where the strings ascend.
    for s in ["zz-order", "mm-order", "aa-order"] {
        let _ = Value::text(s);
    }
    let mut db = Database::new();
    execute(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)").unwrap();
    execute(
        &mut db,
        "INSERT INTO t VALUES (1, 'mm-order'), (2, 'zz-order'), (3, 'aa-order'), (4, NULL)",
    )
    .unwrap();
    let r = execute(&mut db, "SELECT name FROM t ORDER BY name").unwrap();
    let got: Vec<Value> = r.rows.iter().map(|row| row[0]).collect();
    assert_eq!(
        got,
        vec![
            Value::Null,
            Value::text("aa-order"),
            Value::text("mm-order"),
            Value::text("zz-order"),
        ]
    );
    // And text GROUP BY keys group by content, producing one group per
    // distinct string.
    execute(&mut db, "INSERT INTO t VALUES (5, 'aa-order')").unwrap();
    let g = execute(
        &mut db,
        "SELECT name, COUNT(*) AS n FROM t GROUP BY name ORDER BY n DESC, name",
    )
    .unwrap();
    assert_eq!(g.get(0, 0), Value::text("aa-order"));
    assert_eq!(g.get(0, 1), Value::Int(2));
}
