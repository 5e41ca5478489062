//! Round-trip property tests for the binary table format
//! ([`etable_relational::storage`]): every column type, NULL bitmaps at
//! bitmap-word boundaries (0/1/2048/4097 rows), empty tables and empty
//! databases, adversarial intern order, independence of an opened
//! database from its files, and save→open→save byte idempotence.

use etable_relational::database::Database;
use etable_relational::intern::Sym;
use etable_relational::schema::{Column, ForeignKey, TableSchema};
use etable_relational::sql::analyze::{analyze_delete, analyze_update};
use etable_relational::sql::{parse_statement, Statement};
use etable_relational::table::Row;
use etable_relational::value::{DataType, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp dir, unique per call.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "etable-storage-rt-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A schema exercising every column type, with nullable columns of each.
fn wide_schema(name: &str) -> TableSchema {
    TableSchema::new(
        name,
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
        DataType::Float => Value::Float(rng.gen_range(-10.0..10.0)),
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

fn random_db(seed: u64, rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table(wide_schema("W")).unwrap();
    let schema = wide_schema("W");
    let batch: Vec<Row> = (0..rows)
        .map(|id| {
            let mut row: Row = vec![Value::Int(id as i64)];
            row.extend(
                schema.columns[1..]
                    .iter()
                    .map(|c| random_cell(&mut rng, c.data_type)),
            );
            row
        })
        .collect();
    db.append_rows("W", batch).unwrap();
    db
}

/// Full logical equality: same catalog, same schemas, same rows.
fn assert_db_eq(a: &Database, b: &Database) {
    assert_eq!(a.table_names(), b.table_names());
    for name in a.table_names() {
        let (ta, tb) = (a.table(name).unwrap(), b.table(name).unwrap());
        assert_eq!(ta.schema(), tb.schema(), "schema of `{name}`");
        assert_eq!(ta.len(), tb.len(), "row count of `{name}`");
        assert_eq!(ta.to_rows(), tb.to_rows(), "rows of `{name}`");
    }
}

/// Byte-level equality of two saved snapshot directories.
fn assert_dirs_byte_identical(a: &PathBuf, b: &PathBuf) {
    let list = |d: &PathBuf| {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(list(a), list(b), "file sets differ");
    for name in list(a) {
        let ba = std::fs::read(a.join(&name)).unwrap();
        let bb = std::fs::read(b.join(&name)).unwrap();
        assert_eq!(ba, bb, "bytes of {name} differ");
    }
}

/// NULL bitmaps at word boundaries: row counts 0, 1, 2048 (a whole
/// number of 64-row words), 4097 (one row into a new word), with NULLs
/// planted at every 64-row word edge and at the final row.
#[test]
fn boundary_row_counts_round_trip() {
    for rows in [0usize, 1, 2048, 4097] {
        let mut db = Database::new();
        db.create_table(wide_schema("B")).unwrap();
        let schema = wide_schema("B");
        let batch: Vec<Row> = (0..rows)
            .map(|id| {
                let edge = id % 64 == 0 || id % 64 == 63 || id == rows - 1;
                let mut row: Row = vec![Value::Int(id as i64)];
                row.extend(schema.columns[1..].iter().map(|c| {
                    if edge {
                        Value::Null
                    } else {
                        match c.data_type {
                            DataType::Int => Value::Int(id as i64 * 3),
                            DataType::Float => Value::Float(id as f64 / 2.0),
                            DataType::Text => Value::text(format!("r{id}")),
                            DataType::Bool => Value::Bool(id % 2 == 0),
                        }
                    }
                }));
                row
            })
            .collect();
        db.append_rows("B", batch).unwrap();
        let dir = scratch_dir("boundary");
        db.save(&dir).unwrap();
        let reopened = Database::open(&dir).unwrap();
        assert_db_eq(&db, &reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An empty catalog and a table with zero rows both survive the trip.
#[test]
fn empty_database_and_empty_table_round_trip() {
    let empty = Database::new();
    let dir = scratch_dir("empty-db");
    empty.save(&dir).unwrap();
    let back = Database::open(&dir).unwrap();
    assert!(back.table_names().is_empty());
    let _ = std::fs::remove_dir_all(&dir);

    let mut db = Database::new();
    db.create_table(wide_schema("E")).unwrap();
    let dir = scratch_dir("empty-table");
    db.save(&dir).unwrap();
    let back = Database::open(&dir).unwrap();
    assert_db_eq(&db, &back);
    assert_eq!(back.table("E").unwrap().len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Foreign keys, composite PKs and multiple tables rehydrate exactly.
#[test]
fn multi_table_schema_with_keys_round_trips() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "Conf",
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
            "Pap",
            vec![
                Column::new("id", DataType::Int),
                Column::new("conf_id", DataType::Int),
                Column::new("rev", DataType::Int),
            ],
        )
        .with_primary_key(&["id", "rev"])
        .with_foreign_key(ForeignKey::single("conf_id", "Conf", "id")),
    )
    .unwrap();
    db.insert("Conf", vec![1.into(), "SIGMOD".into()]).unwrap();
    db.insert("Pap", vec![10.into(), 1.into(), 2.into()])
        .unwrap();
    let dir = scratch_dir("keys");
    db.save(&dir).unwrap();
    let back = Database::open(&dir).unwrap();
    assert_db_eq(&db, &back);
    // The PK index was rebuilt: composite lookup works on the reopened db.
    assert!(back
        .table("Pap")
        .unwrap()
        .get_by_pk(&[10.into(), 2.into()])
        .is_some());
    back.check_integrity().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Interning strings in an order hostile to the file's first-use layout
/// (reverse lexicographic, interleaved across columns) must not perturb
/// rehydration: symbols resolve to the same strings and sort identically.
#[test]
fn adversarial_intern_order_rehydrates_deterministically() {
    // Force arena ids whose numeric order disagrees with string order.
    for s in ["zzz-adv", "yyy-adv", "mmm-adv", "aaa-adv"] {
        Sym::intern(s);
    }
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "A",
            vec![
                Column::new("id", DataType::Int),
                Column::new("s", DataType::Text),
                Column::nullable("t", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    let rows: Vec<Row> = vec![
        vec![0.into(), "mmm-adv".into(), Value::Null],
        vec![1.into(), "aaa-adv".into(), "zzz-adv".into()],
        vec![2.into(), "zzz-adv".into(), "aaa-adv".into()],
        vec![3.into(), "aaa-adv".into(), Value::text("")],
    ];
    db.append_rows("A", rows).unwrap();
    let dir = scratch_dir("intern");
    db.save(&dir).unwrap();
    let back = Database::open(&dir).unwrap();
    assert_db_eq(&db, &back);
    // Ordering goes through the string contents, not arena ids.
    assert_eq!(
        back.table("A").unwrap().distinct_values(1),
        vec![
            Value::from("aaa-adv"),
            Value::from("mmm-adv"),
            Value::from("zzz-adv")
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// save → open → save must write byte-identical files, regardless of the
/// first database's mutation history (deletions fragment bitmaps and
/// buffers; the canonical encoding must erase that history).
#[test]
fn save_open_save_is_byte_idempotent() {
    let mut db = random_db(7, 300);
    // Mutation history: delete a band of rows, then re-insert some.
    assert_eq!(dml(&mut db, "DELETE FROM W WHERE id < 40"), Ok(40));
    db.insert(
        "W",
        vec![
            5000.into(),
            Value::Null,
            Value::Float(1.5),
            "tail".into(),
            Value::Bool(true),
        ],
    )
    .unwrap();
    let d1 = scratch_dir("idem1");
    let d2 = scratch_dir("idem2");
    db.save(&d1).unwrap();
    let reopened = Database::open(&d1).unwrap();
    reopened.save(&d2).unwrap();
    assert_dirs_byte_identical(&d1, &d2);
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

/// `open` reads every file once and keeps nothing on disk: truncating and
/// then deleting the table files of an opened database changes nothing
/// about what it reads or answers.
#[test]
fn opened_database_never_looks_at_its_files_again() {
    let mut db = random_db(11, 100);
    db.create_table(
        TableSchema::new(
            "R",
            vec![
                Column::new("w_id", DataType::Int),
                Column::nullable("tag", DataType::Text),
            ],
        )
        .with_foreign_key(ForeignKey::single("w_id", "W", "id")),
    )
    .unwrap();
    let refs: Vec<Row> = (0..150)
        .map(|i| vec![Value::Int(i % 100), Value::text(format!("tag{}", i % 7))])
        .collect();
    db.append_rows("R", refs).unwrap();
    let dir = scratch_dir("independent");
    db.save(&dir).unwrap();
    let mut back = Database::open(&dir).unwrap();
    for i in 0..db.table_names().len() {
        let file = dir.join(format!("t{i}.etb"));
        std::fs::write(&file, b"ETBL").unwrap();
        std::fs::remove_file(&file).unwrap();
    }
    assert_db_eq(&db, &back);
    let join = "SELECT R.tag, W.t, W.f FROM R, W WHERE R.w_id = W.id ORDER BY R.tag, W.id";
    let expected = etable_relational::sql::execute(&mut db, join).unwrap();
    assert_eq!(expected.rows.len(), 150);
    assert_eq!(
        etable_relational::sql::execute(&mut back, join)
            .unwrap()
            .rows,
        expected.rows
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopened database accepts mutation and keeps constraint semantics.
#[test]
fn reopened_database_is_mutable() {
    let db = random_db(13, 50);
    let dir = scratch_dir("mutate");
    db.save(&dir).unwrap();
    let mut back = Database::open(&dir).unwrap();
    back.insert(
        "W",
        vec![
            9999.into(),
            1.into(),
            Value::Float(0.5),
            "new".into(),
            Value::Bool(false),
        ],
    )
    .unwrap();
    assert_eq!(
        back.table("W").unwrap().len(),
        db.table("W").unwrap().len() + 1
    );
    // Duplicate PK still rejected (the rebuilt index is live).
    assert!(back
        .insert(
            "W",
            vec![0.into(), Value::Null, Value::Null, Value::Null, Value::Null]
        )
        .is_err());
    // The disk snapshot is untouched by the in-memory mutation.
    let again = Database::open(&dir).unwrap();
    assert_db_eq(&db, &again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `D(a INT, b FLOAT, v, t)` keyed on `(a, b)` and `C` referencing that
/// key: a composite primary key with a float in it, so `-0.0`/`0.0` and
/// `INT`-typed lookups both matter.
fn keyed_schemas() -> [TableSchema; 2] {
    let d = TableSchema::new(
        "D",
        vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float),
            Column::nullable("v", DataType::Int),
            Column::nullable("t", DataType::Text),
        ],
    )
    .with_primary_key(&["a", "b"]);
    let c = TableSchema::new(
        "C",
        vec![
            Column::new("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float),
        ],
    )
    .with_primary_key(&["id"])
    .with_foreign_key(ForeignKey {
        columns: vec!["a".into(), "b".into()],
        referenced_table: "D".into(),
        referenced_columns: vec!["a".into(), "b".into()],
    });
    [d, c]
}

/// The `b` half of a key, from a domain small enough to collide: `-0.0`
/// and `0.0` are distinct bit patterns of one key.
fn random_b(rng: &mut StdRng) -> f64 {
    [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0][rng.gen_range(0..6)]
}

/// Runs an UPDATE or DELETE through the analyzer and the database's DML
/// entry points, answering how many rows it changed or why it refused.
fn dml(db: &mut Database, sql: &str) -> Result<usize, String> {
    let changed = match parse_statement(sql).map_err(|e| e.to_string())? {
        Statement::Update {
            table,
            sets,
            where_clause,
        } => analyze_update(db, &table, &sets, where_clause.as_ref())
            .and_then(|pred| db.update_where(&table, &pred, &sets)),
        Statement::Delete {
            table,
            where_clause,
        } => analyze_delete(db, &table, where_clause.as_ref())
            .and_then(|pred| db.delete_where(&table, &pred)),
        other => panic!("not an UPDATE or DELETE: {other:?}"),
    };
    changed.map_err(|e| e.to_string())
}

/// One random DML statement against `D`, as a closure so the same
/// statement can be applied to several databases.
fn random_dml(rng: &mut StdRng) -> impl Fn(&mut Database) -> Result<usize, String> {
    let (a, b) = (rng.gen_range(0..6i64), random_b(rng));
    let (a2, b2) = (rng.gen_range(0..6i64), random_b(rng));
    let v = rng.gen_range(0..10i64);
    let kind = rng.gen_range(0..6);
    let at_key = format!("a = {a} AND b = {b:?}");
    move |db: &mut Database| match kind {
        // INSERT, often of a key that is already there.
        0 | 1 => db
            .insert("D", vec![a.into(), b.into(), v.into(), Value::Null])
            .map(|_| 1)
            .map_err(|e| e.to_string()),
        // UPDATE of a non-key column, by key and by value.
        2 => dml(db, &format!("UPDATE D SET v = {v} WHERE {at_key}")),
        3 => dml(db, &format!("UPDATE D SET t = 't{v}' WHERE v < {v}")),
        // UPDATE of key columns: may collide, may strand a `C` row.
        4 => dml(
            db,
            &format!("UPDATE D SET a = {a2}, b = {b2:?} WHERE {at_key}"),
        ),
        // DELETE by half a key: may be refused by RESTRICT.
        _ => dml(db, &format!("DELETE FROM D WHERE a = {a}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However a table came to be — row-at-a-time inserts, one bulk
    /// append, or `open` of a snapshot — it is the same table: the same
    /// DML sequence gets the same answers (refusals included), leaves the
    /// same rows in the same places behind the same primary-key index,
    /// and saves to the same bytes.
    #[test]
    fn opened_built_and_bulk_loaded_tables_are_one_under_writes(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Distinct keys in an order that is not the key order.
        let mut keys: Vec<(i64, f64)> = Vec::new();
        for _ in 0..rng.gen_range(0..24) {
            let (a, b) = (rng.gen_range(0..6i64), random_b(&mut rng));
            if !keys.iter().any(|&(x, y)| x == a && y == b) {
                keys.push((a, b));
            }
        }
        let d_rows: Vec<Row> = keys
            .iter()
            .map(|&(a, b)| vec![a.into(), b.into(), random_cell(&mut rng, DataType::Int), random_cell(&mut rng, DataType::Text)])
            .collect();
        let c_rows: Vec<Row> = keys
            .iter()
            .step_by(3)
            .enumerate()
            .map(|(id, &(a, b))| vec![(id as i64).into(), a.into(), b.into()])
            .collect();

        let empty = || {
            let mut db = Database::new();
            for schema in keyed_schemas() {
                db.create_table(schema).unwrap();
            }
            db
        };
        let mut one_by_one = empty();
        for (table, rows) in [("D", &d_rows), ("C", &c_rows)] {
            for row in rows {
                one_by_one.insert(table, row.clone()).unwrap();
            }
        }
        let mut bulk = empty();
        bulk.append_rows("D", d_rows).unwrap();
        bulk.append_rows("C", c_rows).unwrap();
        let dir = scratch_dir("diff-open");
        bulk.save(&dir).unwrap();
        let opened = Database::open(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let mut dbs = [one_by_one, bulk, opened];

        let assert_same = |dbs: &[Database; 3]| {
            for other in &dbs[1..] {
                assert_db_eq(&dbs[0], other);
                let (t0, t) = (dbs[0].table("D").unwrap(), other.table("D").unwrap());
                for a in -1..7i64 {
                    // Float spellings of every key, an INT spelling of the
                    // integral ones, and a value no row holds.
                    for b in [Value::Float(-1.0), Value::Float(-0.0), Value::Float(0.0), Value::Float(0.5), Value::Int(1), Value::Int(2), Value::Float(7.5)] {
                        let key = [Value::Int(a), b];
                        let at = t0.pk_row_index(&key);
                        assert_eq!(at, t.pk_row_index(&key), "lookup of {key:?}");
                        if let Some(row) = at {
                            assert_eq!(&t0.row(row).unwrap()[..2], &key);
                        }
                    }
                }
            }
        };
        assert_same(&dbs);
        for _ in 0..rng.gen_range(8..40) {
            let dml = random_dml(&mut rng);
            let [r0, r1, r2] = dbs.each_mut().map(&dml);
            assert_eq!(r0, r1);
            assert_eq!(r0, r2);
            assert_same(&dbs);
        }
        let dirs = ["diff-a", "diff-b", "diff-c"].map(scratch_dir);
        for (db, dir) in dbs.iter().zip(&dirs) {
            db.check_integrity().unwrap();
            db.save(dir).unwrap();
        }
        assert_dirs_byte_identical(&dirs[0], &dirs[1]);
        assert_dirs_byte_identical(&dirs[0], &dirs[2]);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Randomized round-trip: any generated database survives save + open
    /// with logical equality, and a second save is byte-identical.
    #[test]
    fn random_databases_round_trip(seed in 0u64..100_000, rows in 0usize..400) {
        let db = random_db(seed, rows);
        let d1 = scratch_dir("prop1");
        let d2 = scratch_dir("prop2");
        db.save(&d1).unwrap();
        let back = Database::open(&d1).unwrap();
        assert_db_eq(&db, &back);
        back.save(&d2).unwrap();
        assert_dirs_byte_identical(&d1, &d2);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }
}
