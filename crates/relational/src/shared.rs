//! Shared-ownership database handle with epoch snapshots: the concurrency
//! contract underneath the `etable-server` serving layer and the CLI's
//! `Connection` facade.
//!
//! A [`SharedDatabase`] holds the current [`Database`] behind an
//! `Arc` plus a monotonically increasing **epoch**. Concurrency follows
//! from what the storage layer already guarantees:
//!
//! * **Readers never block on each other or on writers.** A read pins a
//!   [`Snapshot`] — an `Arc<Database>` clone taken under a lock held only
//!   for the pointer copy, never across query execution. `Database` is
//!   cheap to clone (every column body is `Arc`-backed, see
//!   [`crate::table::ColumnData`], and so is every primary-key index:
//!   ≈ 0.02 ms for the seven tables of the 38 000-paper corpus, whatever
//!   their sizes) and immutable through `&Database`, so
//!   any number of threads can execute queries against their snapshots
//!   while a writer prepares the next epoch.
//! * **Writers serialize on a separate mutex** and follow
//!   clone-modify-publish: clone the current `Database` (pointer copies),
//!   run the statement through the existing analyzed-DML path on the
//!   clone, and only if it succeeds publish the result as epoch `N+1`.
//!   A failed write publishes nothing — readers can never observe a
//!   half-applied statement, and rollback is just dropping the clone.
//! * **Snapshots are immortal.** A reader holding epoch `N` keeps its
//!   view alive (and byte-stable) arbitrarily long after later epochs
//!   publish; the storage drops when the last snapshot does.
//!
//! Statement routing reuses the SQL front end once: parse, then
//! [`crate::sql::is_read_only`] decides snapshot read vs. serialized
//! write — no double tokenization, no statement re-analysis.

use crate::database::Database;
use crate::relation::Relation;
use crate::sql;
use crate::{unpoison, Result};
use std::ops::Deref;
use std::sync::{Arc, Mutex, RwLock};

/// A pinned, immutable point-in-time view of a [`SharedDatabase`]:
/// an `Arc` to the database published at one epoch. Derefs to
/// [`Database`], so anything that reads `&Database` reads a snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    db: Arc<Database>,
    epoch: u64,
}

impl Snapshot {
    /// The epoch this view was published at (0 for the initial state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared database value itself: one epoch's `Arc`, which a
    /// holder can keep, or compare with another epoch's by pointer.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

/// A cloneable, `Send + Sync` handle on one logical database shared by
/// any number of threads. See the module docs for the snapshot/epoch
/// contract. Cloning the handle shares state; cloning a [`Snapshot`]
/// shares one epoch's view.
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    inner: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    /// The latest published view. The lock is held only to copy or swap
    /// the `Arc`, never across parsing or execution — a swap is either
    /// fully before or fully after a panic, so a poisoned guard is
    /// recovered ([`unpoison`]) rather than propagated.
    current: RwLock<Snapshot>,
    /// Serializes writers across the whole clone-modify-publish cycle so
    /// two writes can never branch from the same epoch.
    write: Mutex<()>,
}

impl SharedDatabase {
    /// Wraps `db` as epoch 0 of a new shared handle. An `Arc` is taken
    /// as is: epoch 0 is then that very value.
    pub fn new(db: impl Into<Arc<Database>>) -> SharedDatabase {
        SharedDatabase {
            inner: Arc::new(Shared {
                current: RwLock::new(Snapshot {
                    db: db.into(),
                    epoch: 0,
                }),
                write: Mutex::new(()),
            }),
        }
    }

    /// Pins the latest published view. Costs one short read-lock and two
    /// atomic increments; execute queries against the result for as long
    /// as needed without blocking anyone.
    pub fn snapshot(&self) -> Snapshot {
        unpoison(self.inner.current.read()).clone()
    }

    /// The current epoch (how many writes have published).
    pub fn epoch(&self) -> u64 {
        unpoison(self.inner.current.read()).epoch
    }

    /// Executes one SQL statement: `SELECT`/`EXPLAIN` run on a fresh
    /// snapshot (never blocking other readers or writers), everything
    /// else goes through the serialized write path and, on success,
    /// publishes a new epoch.
    pub fn execute(&self, sql_text: &str) -> Result<Relation> {
        Ok(self.execute_with_epoch(sql_text)?.1)
    }

    /// [`execute`](Self::execute), but also reporting the epoch the
    /// statement actually observed: the pinned snapshot's epoch for a
    /// read, the newly published epoch for a write. The serving layer
    /// stamps this on `Result` frames — re-reading the live epoch after
    /// execution would race concurrent writers and could name an epoch
    /// the statement never saw.
    pub fn execute_with_epoch(&self, sql_text: &str) -> Result<(u64, Relation)> {
        let stmt = sql::parse_statement(sql_text)?;
        if sql::is_read_only(&stmt) {
            let snap = self.snapshot();
            let rel = sql::execute_read(&snap, &stmt)?;
            return Ok((snap.epoch, rel));
        }
        self.write_with_epoch(|db| sql::execute_statement(db, stmt))
    }

    /// The serialized write path: clones the current database, applies
    /// `f`, and publishes the clone as the next epoch **only if `f`
    /// succeeds**. On error nothing is published and concurrent readers
    /// never see a partial effect.
    pub fn write<T>(&self, f: impl FnOnce(&mut Database) -> Result<T>) -> Result<T> {
        Ok(self.write_with_epoch(f)?.1)
    }

    /// [`write`](Self::write), but also reporting the epoch the
    /// successful write published.
    pub fn write_with_epoch<T>(
        &self,
        f: impl FnOnce(&mut Database) -> Result<T>,
    ) -> Result<(u64, T)> {
        let _writer = unpoison(self.inner.write.lock());
        // Read the base state *after* taking the writer mutex so the
        // clone always branches from the latest epoch.
        let base = self.snapshot();
        let mut db = (*base.db).clone();
        let out = f(&mut db)?;
        let epoch = base.epoch + 1;
        let mut cur = unpoison(self.inner.current.write());
        *cur = Snapshot {
            db: Arc::new(db),
            epoch,
        };
        Ok((epoch, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> SharedDatabase {
        let mut db = Database::new();
        sql::execute(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)").unwrap();
        sql::execute(&mut db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn reads_do_not_bump_epoch() {
        let shared = seeded();
        assert_eq!(shared.epoch(), 0);
        let r = shared.execute("SELECT name FROM t ORDER BY id").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(shared.epoch(), 0);
    }

    #[test]
    fn writes_publish_new_epochs() {
        let shared = seeded();
        shared.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        assert_eq!(shared.epoch(), 1);
        shared.execute("DELETE FROM t WHERE id = 1").unwrap();
        assert_eq!(shared.epoch(), 2);
        let r = shared.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.get(0, 0), crate::value::Value::Int(2));
    }

    #[test]
    fn failed_write_publishes_nothing() {
        let shared = seeded();
        // Duplicate PK: rejected, epoch unchanged, data unchanged.
        assert!(shared.execute("INSERT INTO t VALUES (1, 'dup')").is_err());
        assert_eq!(shared.epoch(), 0);
        let r = shared.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.get(0, 0), crate::value::Value::Int(2));
    }

    #[test]
    fn execute_with_epoch_reports_the_observed_epoch() {
        let shared = seeded();
        // A read reports the epoch of the snapshot it ran on...
        let (e, _) = shared.execute_with_epoch("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(e, 0);
        // ...a write reports the epoch it published...
        let (e, _) = shared
            .execute_with_epoch("INSERT INTO t VALUES (3, 'c')")
            .unwrap();
        assert_eq!(e, 1);
        // ...and a failed write reports nothing (no epoch consumed).
        assert!(shared
            .execute_with_epoch("INSERT INTO t VALUES (1, 'dup')")
            .is_err());
        let (e, r) = shared.execute_with_epoch("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(e, 1);
        assert_eq!(r.get(0, 0), crate::value::Value::Int(3));
    }

    #[test]
    fn snapshot_survives_later_epochs() {
        let shared = seeded();
        let pinned = shared.snapshot();
        shared.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        shared.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
        // The pinned epoch-0 view still sees exactly two rows...
        let q = sql::parse_statement("SELECT COUNT(*) FROM t").unwrap();
        let r = sql::execute_read(&pinned, &q).unwrap();
        assert_eq!(r.get(0, 0), crate::value::Value::Int(2));
        assert_eq!(pinned.epoch(), 0);
        // ...while a fresh snapshot sees four.
        let r = sql::execute_read(&shared.snapshot(), &q).unwrap();
        assert_eq!(r.get(0, 0), crate::value::Value::Int(4));
        assert_eq!(shared.epoch(), 2);
    }

    /// "Clone is pointer copies", as pointers: a one-row write copies the
    /// buffers of the table it touches and nothing else — every other
    /// table's columns and primary-key index are the previous epoch's.
    #[test]
    fn a_write_shares_every_untouched_buffer_with_the_previous_epoch() {
        use crate::table::{ColumnData, Table};
        fn shares_buffers(a: &Table, b: &Table) -> bool {
            let same_body = |c: usize| match (a.column(c).data(), b.column(c).data()) {
                (ColumnData::Int(x), ColumnData::Int(y)) => Arc::ptr_eq(x, y),
                (ColumnData::Float(x), ColumnData::Float(y)) => Arc::ptr_eq(x, y),
                (ColumnData::Sym(x), ColumnData::Sym(y)) => Arc::ptr_eq(x, y),
                (ColumnData::Bool(x), ColumnData::Bool(y)) => Arc::ptr_eq(x, y),
                _ => false,
            };
            (0..a.schema().arity()).all(same_body) && std::ptr::eq(a.pk_order(), b.pk_order())
        }

        let shared = seeded();
        shared
            .execute("CREATE TABLE u (id INT PRIMARY KEY, t_id INT REFERENCES t(id), w FLOAT)")
            .unwrap();
        shared
            .execute("INSERT INTO u VALUES (7, 2, 0.5), (3, 1, 1.5)")
            .unwrap();
        let before = shared.snapshot();
        shared.execute("INSERT INTO u VALUES (5, 2, 2.5)").unwrap();
        let after = shared.snapshot();
        assert!(shares_buffers(
            before.table("t").unwrap(),
            after.table("t").unwrap()
        ));
        assert!(!shares_buffers(
            before.table("u").unwrap(),
            after.table("u").unwrap()
        ));
        // The pinned epoch still answers with its own rows and index.
        assert_eq!(before.table("u").unwrap().len(), 2);
        assert_eq!(before.table("u").unwrap().pk_row_index(&[5.into()]), None);
        assert_eq!(after.table("u").unwrap().pk_row_index(&[5.into()]), Some(2));
        assert_eq!(after.table("u").unwrap().pk_order(), [1, 2, 0]);

        // The write-heavy workload's cycle on a table that references one
        // table and is referenced by another (INSERT, UPDATE of a non-key
        // column, DELETE of the inserted row) carries every foreign-key
        // index: none is rebuilt, the untouched ones stay the previous
        // epoch's buffers, and joins along them never reach the hashing
        // kernel.
        shared
            .execute("CREATE TABLE v (id INT PRIMARY KEY, u_id INT REFERENCES u(id))")
            .unwrap();
        shared
            .execute("INSERT INTO v VALUES (1, 7), (2, 3), (3, NULL)")
            .unwrap();
        let join = "SELECT v.id, t.name FROM v, u, t WHERE v.u_id = u.id AND u.t_id = t.id";
        let expected = shared.execute(join).unwrap();
        let fk = |db: &Database, table: &str| {
            let fk = &db.table(table).unwrap().schema().foreign_keys[0];
            db.fk_index(table, fk).unwrap().unwrap().clone()
        };
        let (builds, calls) = (
            crate::fk_index::builds(),
            crate::exec::join::key_pairs_calls(),
        );
        let mut epochs = vec![shared.snapshot()];
        for stmt in [
            "INSERT INTO u VALUES (9, 1, 0.25)",
            "UPDATE u SET w = 4.5 WHERE id = 9",
            "DELETE FROM u WHERE id = 9",
        ] {
            shared.execute(stmt).unwrap();
            epochs.push(shared.snapshot());
            assert_eq!(
                shared.execute(join).unwrap().rows,
                expected.rows,
                "after {stmt}"
            );
        }
        assert_eq!(crate::fk_index::builds(), builds);
        assert_eq!(crate::exec::join::key_pairs_calls(), calls);
        // v -> u: u only gained and lost its last row.
        assert!(epochs
            .windows(2)
            .all(|w| fk(&w[0], "v").shares(&fk(&w[1], "v"))));
        // u -> t: the INSERT pushed an entry, the UPDATE shared it, the
        // DELETE compacted it away again.
        let ut: Vec<_> = epochs.iter().map(|e| fk(e, "u")).collect();
        assert!(!ut[0].shares(&ut[1]) && ut[1].shares(&ut[2]));
        assert_eq!(ut[1].fwd()[..], [1, 0, 1, 0]);
        assert_eq!(ut[3].fwd(), ut[0].fwd());
    }

    #[test]
    fn handle_is_send_sync_and_concurrent_reads_agree() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedDatabase>();
        assert_send_sync::<Snapshot>();

        let shared = seeded();
        let expected = format!(
            "{:?}",
            shared
                .execute("SELECT id, name FROM t ORDER BY id")
                .unwrap()
                .rows
        );
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        let r = shared
                            .execute("SELECT id, name FROM t ORDER BY id")
                            .unwrap();
                        assert_eq!(format!("{:?}", r.rows), expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
