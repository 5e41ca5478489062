//! DELETE / UPDATE behaviour: predicate evaluation, index maintenance,
//! RESTRICT semantics and rollback on integrity violations.

use etable_relational::database::Database;
use etable_relational::sql::execute;
use etable_relational::value::Value;

fn db() -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE parent (id INT PRIMARY KEY, name TEXT NOT NULL)",
        "CREATE TABLE child (id INT PRIMARY KEY, parent_id INT REFERENCES parent(id), v INT)",
        "INSERT INTO parent VALUES (1, 'a'), (2, 'b'), (3, 'c')",
        "INSERT INTO child VALUES (10, 1, 5), (11, 1, 6), (12, 2, NULL)",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    db
}

fn count(db: &mut Database, sql: &str) -> i64 {
    execute(db, sql).unwrap().get(0, 0).as_int().unwrap()
}

#[test]
fn delete_with_predicate() {
    let mut d = db();
    execute(&mut d, "DELETE FROM child WHERE v >= 6").unwrap();
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM child"), 2);
    // NULL v row survives (predicate UNKNOWN).
    let r = execute(&mut d, "SELECT id FROM child ORDER BY id").unwrap();
    assert_eq!(r.get(0, 0), Value::Int(10));
    assert_eq!(r.get(1, 0), Value::Int(12));
}

#[test]
fn delete_without_where_empties_table() {
    let mut d = db();
    execute(&mut d, "DELETE FROM child").unwrap();
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM child"), 0);
}

#[test]
fn delete_restricts_on_referenced_rows() {
    let mut d = db();
    let err = execute(&mut d, "DELETE FROM parent WHERE id = 1");
    assert!(err.is_err(), "parent 1 is referenced by two children");
    // Unreferenced parent can go.
    execute(&mut d, "DELETE FROM parent WHERE id = 3").unwrap();
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM parent"), 2);
}

#[test]
fn delete_cascade_order_works() {
    let mut d = db();
    execute(&mut d, "DELETE FROM child WHERE parent_id = 1").unwrap();
    execute(&mut d, "DELETE FROM parent WHERE id = 1").unwrap();
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM parent"), 2);
    d.check_integrity().unwrap();
}

#[test]
fn pk_index_rebuilt_after_delete() {
    let mut d = db();
    execute(&mut d, "DELETE FROM child WHERE id = 10").unwrap();
    let child = d.table("child").unwrap();
    assert!(child.get_by_pk(&[Value::Int(10)]).is_none());
    assert!(child.get_by_pk(&[Value::Int(11)]).is_some());
    // Insert with the deleted key works again.
    execute(&mut d, "INSERT INTO child VALUES (10, 2, 9)").unwrap();
}

#[test]
fn update_values_and_where() {
    let mut d = db();
    execute(&mut d, "UPDATE child SET v = 100 WHERE parent_id = 1").unwrap();
    let r = execute(&mut d, "SELECT v FROM child WHERE id = 10").unwrap();
    assert_eq!(r.get(0, 0), Value::Int(100));
    let r = execute(&mut d, "SELECT v FROM child WHERE id = 12").unwrap();
    assert_eq!(r.get(0, 0), Value::Null);
}

#[test]
fn update_to_null_respects_nullability() {
    let mut d = db();
    assert!(execute(&mut d, "UPDATE parent SET name = NULL WHERE id = 1").is_err());
    execute(&mut d, "UPDATE child SET v = NULL WHERE id = 10").unwrap();
}

#[test]
fn update_fk_is_validated_and_rolled_back() {
    let mut d = db();
    let err = execute(&mut d, "UPDATE child SET parent_id = 99 WHERE id = 10");
    assert!(err.is_err());
    // Rolled back: still points at parent 1.
    let r = execute(&mut d, "SELECT parent_id FROM child WHERE id = 10").unwrap();
    assert_eq!(r.get(0, 0), Value::Int(1));
    d.check_integrity().unwrap();
}

#[test]
fn update_pk_collision_rolls_back() {
    let mut d = db();
    let err = execute(&mut d, "UPDATE child SET id = 11 WHERE id = 10");
    assert!(err.is_err());
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM child"), 3);
    d.check_integrity().unwrap();
}

#[test]
fn update_referenced_pk_is_rejected_when_children_exist() {
    let mut d = db();
    let err = execute(&mut d, "UPDATE parent SET id = 9 WHERE id = 1");
    assert!(err.is_err(), "children still reference parent 1");
    // But renaming an unreferenced parent key is fine.
    execute(&mut d, "UPDATE parent SET id = 9 WHERE id = 3").unwrap();
    d.check_integrity().unwrap();
}

#[test]
fn update_type_mismatch_rejected() {
    let mut d = db();
    assert!(execute(&mut d, "UPDATE child SET v = 'text' WHERE id = 10").is_err());
}

#[test]
fn mutations_then_queries_stay_consistent() {
    let mut d = db();
    execute(&mut d, "UPDATE child SET v = 1 WHERE v IS NULL").unwrap();
    execute(&mut d, "DELETE FROM child WHERE v = 1").unwrap();
    let r = execute(
        &mut d,
        "SELECT p.name, COUNT(*) AS n FROM parent p, child c \
         WHERE c.parent_id = p.id GROUP BY p.name ORDER BY p.name",
    )
    .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.get(0, 0), "a".into());
    assert_eq!(r.get(0, 1), Value::Int(2));
}

/// An UPDATE that sets no key column cannot change what any foreign key
/// sees, so it runs neither the whole-database integrity check nor the
/// backup copy. Observable: a dangling key elsewhere (bulk loads skip FK
/// checks) fails the global check, yet the non-key update goes through —
/// while an update of a key column still runs the check, fails on it and
/// rolls back.
#[test]
fn update_of_a_non_key_column_skips_the_global_check() {
    let mut d = db();
    d.append_rows("child", vec![vec![13.into(), 77.into(), Value::Null]])
        .unwrap();
    assert!(d.check_integrity().is_err(), "child 13 dangles");
    execute(&mut d, "UPDATE child SET v = 7 WHERE id = 10").unwrap();
    execute(&mut d, "UPDATE parent SET name = 'z' WHERE id = 3").unwrap();
    let r = execute(&mut d, "SELECT v FROM child WHERE id = 10").unwrap();
    assert_eq!(r.get(0, 0), Value::Int(7));
    let r = execute(&mut d, "SELECT name FROM parent WHERE id = 3").unwrap();
    assert_eq!(r.get(0, 0), "z".into());

    assert!(execute(&mut d, "UPDATE child SET parent_id = 2 WHERE id = 10").is_err());
    let r = execute(&mut d, "SELECT parent_id FROM child WHERE id = 10").unwrap();
    assert_eq!(r.get(0, 0), Value::Int(1), "rolled back");
}

/// A column that is in neither its table's primary key nor its foreign
/// keys is still a key column when another table's foreign key references
/// it: moving it away from under a referencing row rolls back.
#[test]
fn update_of_a_referenced_non_pk_column_rolls_back() {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE tag (id INT PRIMARY KEY, code INT NOT NULL, label TEXT)",
        "CREATE TABLE item (id INT PRIMARY KEY, code INT, \
         FOREIGN KEY (code) REFERENCES tag (code))",
        "INSERT INTO tag VALUES (1, 100, 'a'), (2, 200, 'b')",
        "INSERT INTO item VALUES (10, 100)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    assert!(execute(&mut d, "UPDATE tag SET code = 999 WHERE id = 1").is_err());
    let r = execute(&mut d, "SELECT code FROM tag WHERE id = 1").unwrap();
    assert_eq!(r.get(0, 0), Value::Int(100), "rolled back");
    // The unreferenced code may move, and so may any non-key column.
    execute(&mut d, "UPDATE tag SET code = 300 WHERE id = 2").unwrap();
    execute(&mut d, "UPDATE tag SET label = 'c' WHERE id = 1").unwrap();
    d.check_integrity().unwrap();
}

/// `parent(id PK, code)` referenced through the non-key column `code`:
/// rows (1, 50) and (2, 1), one child with `pcode = 1`, one with NULL.
fn non_pk_fk_db() -> Database {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE parent (id INT PRIMARY KEY, code INT NOT NULL)",
        "CREATE TABLE child (id INT PRIMARY KEY, pcode INT REFERENCES parent(code))",
        "INSERT INTO parent VALUES (1, 50), (2, 1)",
        "INSERT INTO child VALUES (10, 1), (11, NULL)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    d
}

/// INSERT and UPDATE ask the same question of a non-key reference: does
/// some parent hold the value in `code` — 50 does, though it is no primary
/// key; 2 does not, though it is one.
#[test]
fn insert_and_update_through_a_non_pk_fk_look_at_the_referenced_column() {
    let mut d = non_pk_fk_db();
    execute(&mut d, "INSERT INTO child VALUES (12, 50)").unwrap();
    let err = execute(&mut d, "INSERT INTO child VALUES (13, 2)").unwrap_err();
    assert!(err.to_string().contains("FK violation"), "{err}");
    let err = execute(&mut d, "UPDATE child SET pcode = 2 WHERE id = 12").unwrap_err();
    assert!(err.to_string().contains("dangling key"), "{err}");
    execute(&mut d, "UPDATE child SET pcode = 1 WHERE id = 12").unwrap();
    assert_eq!(
        count(&mut d, "SELECT COUNT(*) FROM child WHERE pcode = 1"),
        2
    );
    d.check_integrity().unwrap();
}

/// RESTRICT compares a foreign key's values with the deleted rows' values
/// in the columns *that key references*, not with their primary keys:
/// parent 1 holds code 50, which nothing references, although its primary
/// key equals the child's `pcode`.
#[test]
fn delete_of_a_row_whose_pk_collides_with_a_non_pk_fk_value_goes_through() {
    let mut d = non_pk_fk_db();
    execute(&mut d, "DELETE FROM parent WHERE id = 1").unwrap();
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM parent"), 1);
    d.check_integrity().unwrap();
}

/// The other direction: parent 2 holds the referenced code 1, and its
/// primary key 2 occurs in no child — the delete must still be refused.
#[test]
fn delete_of_a_row_referenced_through_a_non_pk_column_is_refused() {
    let mut d = non_pk_fk_db();
    let err = execute(&mut d, "DELETE FROM parent WHERE id = 2").unwrap_err();
    assert!(err.to_string().contains("referenced by `child`"), "{err}");
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM parent"), 2);
    d.check_integrity().unwrap();
    // Once the reference is gone, so may the row; the NULL `pcode` of
    // child 11 never held anything back.
    execute(&mut d, "DELETE FROM child WHERE id = 10").unwrap();
    execute(&mut d, "DELETE FROM parent").unwrap();
    d.check_integrity().unwrap();
}

/// A non-key column may repeat a value: deleting one of two holders of a
/// referenced code leaves the reference satisfied, deleting both does not.
#[test]
fn delete_keeps_a_non_pk_reference_while_another_holder_survives() {
    let mut d = non_pk_fk_db();
    execute(&mut d, "INSERT INTO parent VALUES (3, 1)").unwrap();
    execute(&mut d, "DELETE FROM parent WHERE id = 2").unwrap();
    d.check_integrity().unwrap();
    assert!(execute(&mut d, "DELETE FROM parent WHERE id = 3").is_err());
    assert!(execute(&mut d, "DELETE FROM parent WHERE code = 1").is_err());
    d.check_integrity().unwrap();
}

/// The primary-key-target case beside a NULL foreign-key value: the NULL
/// references nothing, whichever parent goes.
#[test]
fn delete_ignores_null_fk_values() {
    let mut d = db();
    execute(&mut d, "INSERT INTO child VALUES (13, NULL, 1)").unwrap();
    assert!(execute(&mut d, "DELETE FROM parent WHERE id = 2").is_err());
    execute(&mut d, "DELETE FROM parent WHERE id = 3").unwrap();
    execute(&mut d, "DELETE FROM child WHERE parent_id = 2").unwrap();
    execute(&mut d, "DELETE FROM parent WHERE id = 2").unwrap();
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM child"), 3);
    d.check_integrity().unwrap();
}

/// A key UPDATE checks only the foreign keys its columns take part in: an
/// unrelated table's dangling row (bulk loads skip FK checks) does not
/// hold back a key change that strands nothing, while a key change that
/// strands a referencing row is still rolled back.
#[test]
fn key_update_checks_only_the_foreign_keys_it_touches() {
    let mut d = db();
    for stmt in [
        "CREATE TABLE tag (id INT PRIMARY KEY)",
        "CREATE TABLE item (id INT PRIMARY KEY, tag_id INT REFERENCES tag(id))",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    d.append_rows("item", vec![vec![1.into(), 77.into()]])
        .unwrap();
    assert!(d.check_integrity().is_err(), "item 1 dangles");
    execute(&mut d, "UPDATE parent SET id = 9 WHERE id = 3").unwrap();
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM parent WHERE id = 9"), 1);
    let err = execute(&mut d, "UPDATE parent SET id = 8 WHERE id = 2").unwrap_err();
    assert!(err.to_string().contains("dangling key [Int(2)]"), "{err}");
    assert_eq!(count(&mut d, "SELECT COUNT(*) FROM parent WHERE id = 2"), 1);
}

/// A composite key with a NULL in any column references nothing: it is
/// never checked, never matched, and never holds a parent back — even
/// when its first column equals a parent's.
#[test]
fn composite_fk_with_a_null_in_its_second_column_is_skipped() {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE p (a INT, b INT, PRIMARY KEY (a, b))",
        "CREATE TABLE c (id INT PRIMARY KEY, a INT, b INT, FOREIGN KEY (a, b) REFERENCES p (a, b))",
        "INSERT INTO p VALUES (1, 5), (2, 6)",
        "INSERT INTO c VALUES (10, 1, NULL), (11, 3, NULL), (12, 2, 6)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    let err = execute(&mut d, "INSERT INTO c VALUES (13, 1, 6)").unwrap_err();
    assert!(err.to_string().contains("FK violation"), "{err}");
    d.check_integrity().unwrap();
    let fk = d.table("c").unwrap().schema().foreign_keys[0].clone();
    assert_eq!(d.fk_pairs("c", &fk).unwrap(), Ok(vec![(2, 1)]));
    execute(&mut d, "DELETE FROM p WHERE a = 1").unwrap();
    let err = execute(&mut d, "DELETE FROM p WHERE a = 2").unwrap_err();
    assert!(err.to_string().contains("key [Int(2), Int(6)]"), "{err}");
}

/// Foreign-key equality is `Value` equality: an INT finds the FLOAT that
/// equals it, through a primary key and through a plain column alike.
#[test]
fn int_fk_finds_a_float_key() {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE p (k FLOAT PRIMARY KEY, f FLOAT NOT NULL)",
        "CREATE TABLE c (id INT PRIMARY KEY, pk INT REFERENCES p(k), pf INT REFERENCES p(f))",
        "INSERT INTO p VALUES (2.0, 3.0), (2.5, 4.5)",
        "INSERT INTO c VALUES (10, 2, 3)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    for bad in ["(11, 3, 3)", "(11, 2, 4)"] {
        let err = execute(&mut d, &format!("INSERT INTO c VALUES {bad}")).unwrap_err();
        assert!(err.to_string().contains("FK violation"), "{bad}: {err}");
    }
    d.check_integrity().unwrap();
    for fk in d.table("c").unwrap().schema().foreign_keys.clone() {
        assert_eq!(d.fk_pairs("c", &fk).unwrap(), Ok(vec![(0, 0)]));
    }
    let err = execute(&mut d, "DELETE FROM p WHERE k = 2.0").unwrap_err();
    assert!(err.to_string().contains("key [Int(2)]"), "{err}");
    execute(&mut d, "DELETE FROM p WHERE k = 2.5").unwrap();
}

/// `-0.0` and `0.0` are one key, and a NaN is a key that finds itself:
/// INSERT, the integrity check and RESTRICT agree on both.
#[test]
fn signed_zeros_are_one_key_and_nan_is_a_key() {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE p (id INT PRIMARY KEY, f FLOAT NOT NULL)",
        "CREATE TABLE c (id INT PRIMARY KEY, pf FLOAT REFERENCES p(f))",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    d.insert("p", vec![1.into(), Value::Float(-0.0)]).unwrap();
    d.insert("p", vec![2.into(), Value::Float(f64::NAN)])
        .unwrap();
    d.insert("p", vec![3.into(), Value::Float(1.5)]).unwrap();
    d.insert("c", vec![10.into(), Value::Float(0.0)]).unwrap();
    d.insert("c", vec![11.into(), Value::Float(f64::NAN)])
        .unwrap();
    let err = d
        .insert("c", vec![12.into(), Value::Float(2.5)])
        .unwrap_err();
    assert!(err.to_string().contains("FK violation"), "{err}");
    d.check_integrity().unwrap();
    let fk = d.table("c").unwrap().schema().foreign_keys[0].clone();
    assert_eq!(d.fk_pairs("c", &fk).unwrap(), Ok(vec![(0, 0), (1, 1)]));
    for (id, key) in [(1, "[Float(0.0)]"), (2, "[Float(NaN)]")] {
        let err = execute(&mut d, &format!("DELETE FROM p WHERE id = {id}")).unwrap_err();
        assert!(err.to_string().contains(key), "{id}: {err}");
    }
    execute(&mut d, "DELETE FROM p WHERE id = 3").unwrap();
}

/// With two offending rows, the integrity check and RESTRICT each name
/// the first in referencing-row order — not the smaller key, and not the
/// first deleted row.
#[test]
fn errors_name_the_first_offending_referencing_row() {
    let mut d = db();
    d.append_rows(
        "child",
        vec![
            vec![20.into(), 99.into(), Value::Null],
            vec![21.into(), 1.into(), Value::Null],
            vec![22.into(), 8.into(), Value::Null],
        ],
    )
    .unwrap();
    let err = d.check_integrity().unwrap_err();
    assert!(err.to_string().contains("dangling key [Int(99)]"), "{err}");

    let mut d = db();
    execute(&mut d, "DELETE FROM child").unwrap();
    execute(
        &mut d,
        "INSERT INTO child VALUES (10, 3, NULL), (11, 1, NULL)",
    )
    .unwrap();
    let err = execute(&mut d, "DELETE FROM parent").unwrap_err();
    assert!(err.to_string().contains("key [Int(3)]"), "{err}");
}

#[test]
fn a_refused_multi_row_insert_leaves_no_row_behind() {
    let mut d = Database::new();
    for stmt in [
        "CREATE TABLE p (id INT PRIMARY KEY)",
        "CREATE TABLE c (id INT PRIMARY KEY, pid INT REFERENCES p(id))",
        "INSERT INTO p VALUES (1)",
        "INSERT INTO c VALUES (1, 1)",
    ] {
        execute(&mut d, stmt).unwrap();
    }
    let rows = |d: &mut Database| {
        execute(d, "SELECT id, pid FROM c ORDER BY id")
            .unwrap()
            .rows
    };
    let before = rows(&mut d);
    for (stmt, why) in [
        // The second row's key dangles.
        ("INSERT INTO c VALUES (10, 1), (11, 2)", "fk violation"),
        // The second row repeats the first row's key.
        ("INSERT INTO c VALUES (20, 1), (20, 1)", "duplicate"),
        // The second row repeats a key already stored.
        ("INSERT INTO c VALUES (30, 1), (1, 1)", "duplicate"),
    ] {
        let err = execute(&mut d, stmt).unwrap_err().to_string();
        assert!(err.to_lowercase().contains(why), "{stmt}: {err}");
        assert_eq!(rows(&mut d), before, "{stmt} left rows behind");
    }
    // The statement that is refused as a whole still applies as a whole
    // once its rows are good.
    execute(&mut d, "INSERT INTO c VALUES (10, 1), (11, 1)").unwrap();
    assert_eq!(rows(&mut d).len(), 3);
}
