//! The owned connection handle: one client's view of a shared ETable
//! deployment.
//!
//! A [`Connection`] bundles the three things every client needs — a
//! [`SharedDatabase`] handle for SQL (snapshot reads, serialized epoch
//! writes), the shared [`Tgdb`] graph view, and a private, owned
//! [`Session`] for interactive pattern browsing. It is a `Send` value:
//! the CLI owns exactly one, `etable-server` hands one to every
//! accepted socket, and tests can move them freely across threads.
//! Cloning-by-construction is cheap — [`Connection::connect`] copies two
//! `Arc` handles and starts a fresh session; no data is duplicated.
//!
//! This replaces the old borrow-based `Engine::new(&Database, &Tgdb)`
//! facade, which pinned every consumer to the thread that owned the
//! database.

use crate::session::Session;
use etable_relational::relation::Relation;
use etable_relational::shared::{SharedDatabase, Snapshot};
use etable_tgm::Tgdb;
use std::sync::Arc;

/// One client's handle on a shared deployment: SQL over the shared
/// database plus a private browsing session. See the module docs.
pub struct Connection {
    db: SharedDatabase,
    tgdb: Arc<Tgdb>,
    session: Session,
}

impl Connection {
    /// Opens a new connection over existing shared handles (what the
    /// server does per accepted client). Cheap: two `Arc` clones.
    pub fn connect(db: &SharedDatabase, tgdb: &Arc<Tgdb>) -> Connection {
        Connection {
            db: db.clone(),
            tgdb: Arc::clone(tgdb),
            session: Session::new(Arc::clone(tgdb)),
        }
    }

    /// Wraps owned single-process state (what the CLI and tests do):
    /// `db` becomes epoch 0 of a fresh [`SharedDatabase`], `tgdb` is
    /// shared from here on. Further connections can be opened over
    /// [`Connection::shared`]/[`Connection::tgdb_arc`].
    pub fn single(db: etable_relational::database::Database, tgdb: Tgdb) -> Connection {
        let tgdb = Arc::new(tgdb);
        Connection {
            db: SharedDatabase::new(db),
            tgdb: Arc::clone(&tgdb),
            session: Session::new(tgdb),
        }
    }

    /// Executes one SQL statement: reads run on a fresh snapshot, writes
    /// go through the serialized epoch-publishing path.
    pub fn sql(&self, sql: &str) -> etable_relational::Result<Relation> {
        self.db.execute(sql)
    }

    /// [`sql`](Self::sql), but also reporting the epoch the statement
    /// observed (reads: the snapshot it ran on; writes: the epoch it
    /// published) — what the server stamps on `Result` frames.
    pub fn sql_with_epoch(&self, sql: &str) -> etable_relational::Result<(u64, Relation)> {
        self.db.execute_with_epoch(sql)
    }

    /// Pins the current database epoch for read-your-own consistency
    /// across several statements (e.g. translating a pattern to SQL and
    /// executing it against one stable view).
    pub fn snapshot(&self) -> Snapshot {
        self.db.snapshot()
    }

    /// The shared database handle (for opening further connections or
    /// driving the write path directly).
    pub fn shared(&self) -> &SharedDatabase {
        &self.db
    }

    /// The connection's private browsing session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The connection's private browsing session, mutably.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The shared typed graph database.
    pub fn tgdb(&self) -> &Tgdb {
        &self.tgdb
    }

    /// The shared graph handle itself.
    pub fn tgdb_arc(&self) -> &Arc<Tgdb> {
        &self.tgdb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::NodeFilter;
    use crate::testutil::{academic_db, academic_tgdb};
    use etable_relational::expr::CmpOp;
    use etable_relational::value::Value;

    fn conn() -> Connection {
        Connection::single(academic_db(), academic_tgdb())
    }

    #[test]
    fn connections_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Connection>();
        assert_send::<Session>();
    }

    #[test]
    fn sql_and_session_share_one_deployment() {
        let mut c = conn();
        let r = c.sql("SELECT COUNT(*) FROM Papers").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
        c.session_mut().open_by_name("Papers").unwrap();
        assert_eq!(c.session_mut().etable().unwrap().len(), 4);
    }

    #[test]
    fn second_connection_sees_first_ones_writes() {
        let a = conn();
        let b = Connection::connect(a.shared(), a.tgdb_arc());
        a.sql("CREATE TABLE scratch (id INT PRIMARY KEY)").unwrap();
        a.sql("INSERT INTO scratch VALUES (1), (2)").unwrap();
        let r = b.sql("SELECT COUNT(*) FROM scratch").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        // ...but sessions stay private.
        assert!(b.session().current_pattern().is_none());
    }

    #[test]
    fn connection_moves_across_threads_mid_session() {
        let mut c = conn();
        c.session_mut().open_by_name("Papers").unwrap();
        let handle = std::thread::spawn(move || {
            c.session_mut()
                .filter(NodeFilter::cmp("year", CmpOp::Gt, 2010))
                .unwrap();
            c.session_mut().etable().unwrap().len()
        });
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn pinned_snapshot_is_stable_across_writes() {
        let c = conn();
        let snap = c.snapshot();
        c.sql("CREATE TABLE scratch (id INT PRIMARY KEY)").unwrap();
        assert!(snap.table("scratch").is_err());
        assert!(c.snapshot().table("scratch").is_ok());
    }
}
