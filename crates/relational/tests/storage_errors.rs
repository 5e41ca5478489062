//! Corrupt-input hardening for the binary table format: truncated files,
//! bad magic, wrong version and checksum mismatches must surface from
//! `Database::open` as typed `Error::Storage` values naming the offending
//! path/segment — never as a panic, and never as silently-wrong data.

use etable_relational::database::Database;
use etable_relational::schema::{Column, TableSchema};
use etable_relational::storage::codec::crc32;
use etable_relational::storage::FORMAT_VERSION;
use etable_relational::value::{DataType, Value};
use etable_relational::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "etable-storage-err-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small saved database to corrupt: two tables, all column types, NULLs.
fn saved_db(tag: &str) -> PathBuf {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "T",
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("f", DataType::Float),
                Column::nullable("s", DataType::Text),
                Column::nullable("b", DataType::Bool),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    for i in 0..200i64 {
        db.insert(
            "T",
            vec![
                i.into(),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float(i as f64)
                },
                Value::text(format!("s{}", i % 13)),
                Value::Bool(i % 2 == 0),
            ],
        )
        .unwrap();
    }
    db.create_table(TableSchema::new("U", vec![Column::new("x", DataType::Int)]))
        .unwrap();
    db.insert("U", vec![1.into()]).unwrap();
    let dir = scratch_dir(tag);
    db.save(&dir).unwrap();
    dir
}

/// Asserts `open` fails with a Storage error whose message contains every
/// expected fragment (path/segment naming contract).
fn assert_open_storage_err(dir: &Path, fragments: &[&str]) -> String {
    match Database::open(dir) {
        Ok(_) => panic!("open of corrupted {} must fail", dir.display()),
        Err(Error::Storage(msg)) => {
            for f in fragments {
                assert!(msg.contains(f), "error message must name `{f}`, got: {msg}");
            }
            msg
        }
        Err(other) => panic!("expected Error::Storage, got {other:?}"),
    }
}

#[test]
fn missing_manifest_is_a_typed_error() {
    let dir = scratch_dir("missing");
    fs::create_dir_all(&dir).unwrap();
    assert_open_storage_err(&dir, &["MANIFEST.etb", "cannot open"]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_table_file_is_a_typed_error() {
    let dir = saved_db("lost-table");
    fs::remove_file(dir.join("t0.etb")).unwrap();
    assert_open_storage_err(&dir, &["t0.etb", "cannot open"]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_names_the_file() {
    for victim in ["MANIFEST.etb", "t0.etb"] {
        let dir = saved_db("magic");
        let path = dir.join(victim);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_open_storage_err(&dir, &[victim, "bad magic"]);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn wrong_version_is_rejected_with_both_versions_named() {
    let dir = saved_db("version");
    let path = dir.join("t0.etb");
    let mut bytes = fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let msg = assert_open_storage_err(&dir, &["t0.etb", "unsupported format version"]);
    assert!(msg.contains(&format!("{}", FORMAT_VERSION + 1)), "{msg}");
    assert!(msg.contains(&format!("reads {FORMAT_VERSION}")), "{msg}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    // Sweep truncation points across the whole structure: inside the
    // header, the length prefix, the schema payload, and deep in a column
    // segment. Every one must produce Error::Storage, never a panic.
    let full = {
        let dir = saved_db("trunc-probe");
        let bytes = fs::read(dir.join("t0.etb")).unwrap();
        let _ = fs::remove_dir_all(&dir);
        bytes
    };
    let cuts = [
        0usize,
        3,
        7,
        9,
        15,
        40,
        full.len() / 2,
        full.len() - 5,
        full.len() - 1,
    ];
    for cut in cuts {
        let dir = saved_db("trunc");
        let path = dir.join("t0.etb");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();
        let msg = assert_open_storage_err(&dir, &["t0.etb"]);
        assert!(
            msg.contains("truncated") || msg.contains("overruns") || msg.contains("bad magic"),
            "cut at {cut}: {msg}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn bit_flips_fail_the_checksum_naming_the_segment() {
    // Flip one byte inside each segment's payload region. The up-front
    // CRC sweep at open must catch every flip and say which segment.
    let dir = saved_db("flip-probe");
    let len = fs::read(dir.join("t0.etb")).unwrap().len();
    let _ = fs::remove_dir_all(&dir);
    // Sample positions across the file body, past the 8-byte header.
    for pos in [20usize, len / 4, len / 2, len - 10] {
        let dir = saved_db("flip");
        let path = dir.join("t0.etb");
        let mut bytes = fs::read(&path).unwrap();
        bytes[pos] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let msg = assert_open_storage_err(&dir, &["t0.etb"]);
        assert!(
            msg.contains("checksum mismatch")
                || msg.contains("segment")
                || msg.contains("overruns"),
            "flip at {pos}: {msg}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Edits the payload of segment `index` of a table file in place and
/// re-seals it with a valid CRC, so the checksum cannot notice — only
/// decoding the payload against the schema can.
fn forge_segment(path: &Path, index: usize, forge: impl FnOnce(&mut [u8])) {
    let mut bytes = fs::read(path).unwrap();
    let len_at = |bytes: &[u8], pos: usize| {
        u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize
    };
    let mut pos = 8;
    for _ in 0..index {
        pos += 8 + len_at(&bytes, pos) + 4;
    }
    let end = pos + 8 + len_at(&bytes, pos);
    forge(&mut bytes[pos + 8..end]);
    let crc = crc32(&bytes[pos + 8..end]);
    bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
    fs::write(path, bytes).unwrap();
}

#[test]
fn checksummed_column_that_disagrees_with_the_schema_fails_at_open() {
    // Table `T` is t0.etb: segments 0 and 1 are schema and arena, then
    // one per column — `s` TEXT is segment 4, `b` BOOL segment 5. A column
    // payload is type code u8, row count u64, null-word count u32, the
    // bitmap words (200 rows = 4 words), then the body.
    const BODY: usize = 1 + 8 + 4 + 4 * 8;
    type Forgery = (usize, fn(&mut [u8]), &'static str);
    let forgeries: [Forgery; 3] = [
        (5, |p| p[0] = 0, "disagrees with the schema"),
        (5, |p| p[1] ^= 1, "row count"),
        (
            4,
            |p| p[BODY..BODY + 4].copy_from_slice(&1000u32.to_le_bytes()),
            "arena id 1000",
        ),
    ];
    for (segment, forge, what) in forgeries {
        let dir = saved_db("forged");
        forge_segment(&dir.join("t0.etb"), segment, forge);
        let name = format!("column segment {}", segment - 2);
        assert_open_storage_err(&dir, &["t0.etb", &name, what]);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A NULL bit in a column the schema declares NOT NULL would let the
/// analyzer type the column non-nullable while its cells read NULL, so a
/// snapshot that holds one is refused at open, naming the first such row.
#[test]
fn null_bit_in_a_not_null_column_fails_at_open() {
    // `T.id` (INT NOT NULL) is segment 2; its first null word follows the
    // type code, row count and null-word count. Flip row 70's bit, which
    // lives in the second word.
    const WORDS: usize = 1 + 8 + 4;
    let dir = saved_db("not-null");
    forge_segment(&dir.join("t0.etb"), 2, |p| {
        let at = WORDS + 8;
        let word = u64::from_le_bytes(p[at..at + 8].try_into().unwrap()) | 1 << (70 - 64);
        p[at..at + 8].copy_from_slice(&word.to_le_bytes());
    });
    assert_open_storage_err(
        &dir,
        &[
            "t0.etb",
            "column segment 0",
            "`T.id`",
            "row 70 is NULL in a column declared NOT NULL",
        ],
    );
    let _ = fs::remove_dir_all(&dir);
    // The same bit in a nullable column is an ordinary NULL.
    let dir = saved_db("nullable");
    forge_segment(&dir.join("t0.etb"), 3, |p| p[WORDS + 8] |= 1 << (70 - 64));
    let db = Database::open(&dir).unwrap();
    assert!(db.table("T").unwrap().value(70, 1).is_null());
    let _ = fs::remove_dir_all(&dir);
}

/// `Z(k FLOAT PRIMARY KEY, v INT)` holding the given keys, saved.
fn saved_float_keyed(tag: &str, keys: &[f64]) -> PathBuf {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "Z",
            vec![
                Column::new("k", DataType::Float),
                Column::new("v", DataType::Int),
            ],
        )
        .with_primary_key(&["k"]),
    )
    .unwrap();
    for (i, &k) in keys.iter().enumerate() {
        db.insert("Z", vec![Value::Float(k), (i as i64).into()])
            .unwrap();
    }
    let dir = scratch_dir(tag);
    db.save(&dir).unwrap();
    dir
}

/// `-0.0` and `0.0` are one primary key in memory (`INSERT` refuses the
/// second), so a snapshot holding both holds a duplicate: `open` must
/// order keys the way the table does, not by `f64::total_cmp`.
#[test]
fn forged_negative_zero_beside_zero_is_a_duplicate_primary_key() {
    let dir = saved_float_keyed("negzero", &[-1.0, 0.0]);
    // Column `k` is segment 2; its body follows the type code, row count,
    // null-word count and one bitmap word. Row 0 becomes -0.0: ascending
    // for `f64::total_cmp`, equal to row 1 for the table.
    const BODY: usize = 1 + 8 + 4 + 8;
    forge_segment(&dir.join("t0.etb"), 2, |p| {
        p[BODY..BODY + 8].copy_from_slice(&(-0.0f64).to_le_bytes())
    });
    assert_open_storage_err(
        &dir,
        &[
            "t0.etb",
            "schema segment",
            "duplicate or misordered primary key",
        ],
    );
    let _ = fs::remove_dir_all(&dir);
}

/// On its own `-0.0` is a key like any other: it keeps its sign bit
/// through save and open, and answers to either spelling of zero.
#[test]
fn negative_zero_alone_round_trips_as_a_key() {
    let dir = saved_float_keyed("negzero-alone", &[-0.0, 1.0, -1.0]);
    let mut db = Database::open(&dir).unwrap();
    let z = db.table("Z").unwrap();
    assert!(matches!(z.value(0, 0), Value::Float(k) if k == 0.0 && k.is_sign_negative()));
    assert_eq!(z.pk_row_index(&[Value::Float(0.0)]), Some(0));
    assert_eq!(z.pk_row_index(&[Value::Float(-0.0)]), Some(0));
    assert_eq!(z.pk_row_index(&[Value::Int(0)]), Some(0));
    let err = db
        .insert("Z", vec![Value::Float(0.0), 9.into()])
        .unwrap_err();
    assert!(err.to_string().contains("duplicate primary key"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_checksum_flip_names_the_manifest_segment() {
    let dir = saved_db("mflip");
    let path = dir.join("MANIFEST.etb");
    let mut bytes = fs::read(&path).unwrap();
    let mid = 8 + 8 + 2; // into the single segment's payload
    bytes[mid] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    assert_open_storage_err(
        &dir,
        &["MANIFEST.etb", "manifest segment", "checksum mismatch"],
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_pointing_at_wrong_table_is_rejected() {
    let dir = saved_db("swap");
    // Swap the two table files: each now holds a table whose name
    // disagrees with the manifest mapping.
    let a = fs::read(dir.join("t0.etb")).unwrap();
    let b = fs::read(dir.join("t1.etb")).unwrap();
    fs::write(dir.join("t0.etb"), &b).unwrap();
    fs::write(dir.join("t1.etb"), &a).unwrap();
    assert_open_storage_err(&dir, &["manifest"]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trailing_garbage_is_rejected() {
    let dir = saved_db("tail");
    let path = dir.join("t0.etb");
    let mut bytes = fs::read(&path).unwrap();
    bytes.extend_from_slice(&[1, 2, 3]);
    fs::write(&path, &bytes).unwrap();
    let msg = assert_open_storage_err(&dir, &["t0.etb"]);
    assert!(
        msg.contains("truncated length prefix") || msg.contains("overruns"),
        "{msg}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_never_return_wrong_data() {
    // End to end: a snapshot with any of the corruption classes applied
    // either opens to exactly the original data (impossible here) or
    // errors — `open` must never hand back a database that differs.
    let dir = saved_db("never-wrong");
    let path = dir.join("t0.etb");
    let original = fs::read(&path).unwrap();
    for pos in (8..original.len()).step_by(101) {
        let mut bytes = original.clone();
        bytes[pos] = bytes[pos].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(
            Database::open(&dir).is_err(),
            "byte {pos} corrupted but open succeeded"
        );
    }
    // Restoring the original bytes restores a clean open.
    fs::write(&path, &original).unwrap();
    assert!(Database::open(&dir).is_ok());
    let _ = fs::remove_dir_all(&dir);
}
