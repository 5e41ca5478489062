//! The owned connection handle: one client's view of a shared ETable
//! deployment — a [`SharedDatabase`] handle for SQL (snapshot reads,
//! serialized epoch writes) and a private, owned [`Session`] for
//! browsing. It is a `Send` value: the CLI owns one, `etable-server`
//! hands one to every accepted socket.
//!
//! The session browses one epoch: its graph owns the database it was
//! loaded from ([`Tgdb::database`]). [`Connection::etable`] re-pins the
//! session to the latest snapshot ([`Tgdb::at`]) before it builds a
//! table. Actions never re-pin, so the node ids of the table a user is
//! looking at stay valid for the action applied to them; the action
//! names the entity by its key, which holds at every epoch.

use crate::etable::EnrichedTable;
use crate::session::Session;
use crate::{Error, Result};
use etable_relational::relation::Relation;
use etable_relational::shared::SharedDatabase;
use etable_tgm::Tgdb;
use std::sync::Arc;

/// One client's handle on a shared deployment: SQL over the shared
/// database plus a private browsing session. See the module docs.
pub struct Connection {
    db: SharedDatabase,
    session: Session,
}

impl Connection {
    /// Opens a new connection over existing shared handles (what the
    /// server does per accepted client). Cheap: two `Arc` clones. `tgdb`
    /// may be of an older epoch than `db`'s latest: the first table built
    /// re-pins the session.
    pub fn connect(db: &SharedDatabase, tgdb: &Arc<Tgdb>) -> Connection {
        Connection {
            db: db.clone(),
            session: Session::new(Arc::clone(tgdb)),
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

    /// The current pattern's table at the latest epoch: the session is
    /// re-pinned first when a write has published an epoch its graph was
    /// not loaded from.
    pub fn etable(&mut self) -> Result<EnrichedTable> {
        let snap = self.db.snapshot();
        if !Arc::ptr_eq(self.session.tgdb().database(), snap.database()) {
            let at = self.session.tgdb().at(Arc::clone(snap.database()));
            let tgdb = at.map_err(|e| match e {
                etable_tgm::Error::Relational(e) => Error::Relational(e),
                e => Error::InvalidAction(format!("epoch {}: {e}", snap.epoch())),
            })?;
            self.session.repin(Arc::new(tgdb));
        }
        self.session.etable()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::NodeFilter;
    use crate::testutil::academic_tgdb;
    use crate::to_sql::to_primary_sql;
    use etable_relational::expr::CmpOp;
    use etable_relational::value::Value;
    use etable_tgm::NodeId;

    /// A connection whose epoch 0 is its graph's own database.
    fn conn() -> Connection {
        let tgdb = Arc::new(academic_tgdb());
        Connection::connect(&SharedDatabase::new(Arc::clone(tgdb.database())), &tgdb)
    }

    fn ints(keys: &[i64]) -> Vec<Value> {
        keys.iter().map(|&k| Value::from(k)).collect()
    }

    /// The sorted keys of the table [`Connection::etable`] shows, checked
    /// against the pattern's SQL on the session graph's own database,
    /// which must be the latest epoch.
    fn shown_keys(c: &mut Connection) -> Vec<Value> {
        let t = c.etable().unwrap();
        let tgdb = c.session().tgdb();
        assert!(Arc::ptr_eq(
            tgdb.database(),
            c.shared().snapshot().database()
        ));
        let mut keys: Vec<Value> = t.nodes().map(|n| tgdb.key_of(n)).collect();
        keys.sort();
        let sql = to_primary_sql(tgdb, c.session().current_pattern().unwrap()).unwrap();
        let mut want: Vec<Value> = c.sql(&sql).unwrap().rows.iter().map(|r| r[0]).collect();
        want.sort();
        assert_eq!(keys, want, "{sql}");
        keys
    }

    /// The node keyed `key` in the table `c` shows.
    fn shown_node(c: &mut Connection, key: i64) -> NodeId {
        let t = c.etable().unwrap();
        let tgdb = c.session().tgdb();
        let node = t.nodes().find(|&n| tgdb.key_of(n) == key.into());
        node.unwrap()
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
        assert_eq!(r.get(0, 0), Value::Int(4));
        c.session_mut().open_by_name("Papers").unwrap();
        assert_eq!(c.etable().unwrap().len(), 4);
    }

    #[test]
    fn second_connection_sees_first_ones_writes() {
        let a = conn();
        let b = Connection::connect(a.shared(), a.session().tgdb());
        a.sql("CREATE TABLE scratch (id INT PRIMARY KEY)").unwrap();
        a.sql("INSERT INTO scratch VALUES (1), (2)").unwrap();
        let r = b.sql("SELECT COUNT(*) FROM scratch").unwrap();
        assert_eq!(r.get(0, 0), Value::Int(2));
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
            c.etable().unwrap().len()
        });
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn an_inserted_paper_shows_in_the_next_table() {
        let mut c = conn();
        c.session_mut().open_by_name("Papers").unwrap();
        let start = Arc::clone(c.session().tgdb());
        assert_eq!(shown_keys(&mut c), ints(&[10, 11, 12, 13]));
        // Epoch 0 is the graph's own database: nothing to rebuild.
        assert!(Arc::ptr_eq(&start, c.session().tgdb()));
        c.sql("INSERT INTO Papers VALUES (14, 1, 'Fresh', 2015)")
            .unwrap();
        assert_eq!(shown_keys(&mut c), ints(&[10, 11, 12, 13, 14]));
        c.session()
            .tgdb()
            .instances
            .check_consistency(&c.session().tgdb().schema)
            .unwrap();
    }

    #[test]
    fn a_single_paper_survives_an_insert_below_its_ids() {
        let mut c = conn();
        c.session_mut().open_by_name("Papers").unwrap();
        let skewtune = shown_node(&mut c, 11);
        c.session_mut().single(skewtune).unwrap();
        assert_eq!(shown_keys(&mut c), ints(&[11]));
        // Authors' nodes come before Papers': one more author moves every
        // paper to the next id.
        c.sql("INSERT INTO Authors VALUES (104, 'New Author', 1)")
            .unwrap();
        assert_eq!(shown_keys(&mut c), ints(&[11]));
        let moved = c.etable().unwrap().node_at(0).unwrap();
        assert_ne!(moved, skewtune);
        assert_eq!(
            c.session().tgdb().instances.label(moved).to_string(),
            "SkewTune"
        );
    }

    #[test]
    fn a_write_between_table_and_click_selects_the_shown_entity() {
        let mut c = conn();
        c.session_mut().open_by_name("Papers").unwrap();
        let guided = shown_node(&mut c, 12);
        c.sql("INSERT INTO Authors VALUES (104, 'New Author', 1)")
            .unwrap();
        // The click names a node of the table shown, at the epoch it was
        // built at; the action does not re-pin.
        c.session_mut().single(guided).unwrap();
        assert_eq!(
            c.session().history().last().unwrap().description,
            "See 'Guided interaction'"
        );
        assert_eq!(shown_keys(&mut c), ints(&[12]));
    }

    #[test]
    fn deleting_the_shown_paper_empties_the_table() {
        let mut c = conn();
        c.sql("INSERT INTO Papers VALUES (14, 1, 'Fresh', 2015)")
            .unwrap();
        c.session_mut().open_by_name("Papers").unwrap();
        let fresh = shown_node(&mut c, 14);
        c.session_mut().single(fresh).unwrap();
        assert_eq!(shown_keys(&mut c), ints(&[14]));
        c.sql("DELETE FROM Papers WHERE id = 14").unwrap();
        assert!(shown_keys(&mut c).is_empty());
        // A key the epoch does not hold shows as itself.
        let session = c.session();
        let diagram = session.current_pattern().unwrap().diagram(session.tgdb());
        assert_eq!(diagram, "Papers * {node = '14'}\n");
    }
}
