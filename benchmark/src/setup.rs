//! Set-up: what a deployment pays at every start, timed from outside.
//!
//! The snapshot is published once in an untimed prepare step; after that
//! a start is `load_or_generate` on a snapshot hit (a `Database::open`),
//! `tgm::translate`, and for the wire workloads `SharedDatabase::new`,
//! `Server::start` and the client connects. One start takes ~0.2 s, too
//! short to compare, so a run starts [`REPEATS`] times and reports the
//! median; the last start's deployment is the one the workload runs on.

use crate::stats::median;
use etable_datagen::snapshot::load_or_generate_in;
use etable_datagen::GenConfig;
use etable_relational::database::Database;
use etable_relational::shared::SharedDatabase;
use etable_server::{Client, Server};
use etable_tgm::{translate, Tgdb, TranslateOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Starts per run.
pub const REPEATS: usize = 5;

/// The in-process server of a wire workload with its open connections.
pub struct WireDeployment {
    /// Handle on the database the server serves.
    pub shared: SharedDatabase,
    /// The running server.
    pub server: Server,
    /// One handshaken client per connection asked for.
    pub clients: Vec<Client>,
}

impl WireDeployment {
    /// Says goodbye on every connection, then stops the server and waits
    /// for its threads.
    pub fn shutdown(self) -> Result<(), String> {
        for c in self.clients {
            c.quit().map_err(|e| format!("client quit: {e}"))?;
        }
        self.server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))
    }
}

/// A started deployment.
pub struct Deployment {
    /// The relational database, as opened from the snapshot.
    pub db: Database,
    /// Its typed graph view.
    pub tgdb: Arc<Tgdb>,
    /// The server side, on wire workloads.
    pub wire: Option<WireDeployment>,
}

/// Medians over the run's starts.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// The whole start.
    pub setup_s: f64,
    /// `load_or_generate` on the published snapshot.
    pub load_s: f64,
    /// `tgm::translate`.
    pub translate_s: f64,
    /// `SharedDatabase::new` + `Server::start` + the connects (0 on
    /// browse workloads).
    pub server_start_s: f64,
}

/// Publishes the snapshot when this checkout does not have it yet.
pub fn prepare(cfg: &GenConfig, snapshots: &Path) -> Result<(), String> {
    std::fs::create_dir_all(snapshots).map_err(|e| format!("{}: {e}", snapshots.display()))?;
    drop(load_or_generate_in(cfg, snapshots));
    Ok(())
}

fn start(
    cfg: &GenConfig,
    snapshots: &Path,
    connections: usize,
) -> Result<(Deployment, [f64; 4]), String> {
    let t0 = Instant::now();
    let db = load_or_generate_in(cfg, snapshots);
    let t1 = Instant::now();
    let tgdb = translate(&db, &TranslateOptions::default()).map_err(|e| e.to_string())?;
    let tgdb = Arc::new(tgdb);
    let t2 = Instant::now();
    let wire = if connections == 0 {
        None
    } else {
        let shared = SharedDatabase::new(db.clone());
        let server = Server::start("127.0.0.1:0", shared.clone(), Arc::clone(&tgdb))
            .map_err(|e| e.to_string())?;
        let clients = (0..connections)
            .map(|_| Client::connect(server.addr()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Some(WireDeployment {
            shared,
            server,
            clients,
        })
    };
    // A browse start ends with the translation.
    let t3 = if wire.is_some() { Instant::now() } else { t2 };
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        Deployment { db, tgdb, wire },
        [s(t0, t3), s(t0, t1), s(t1, t2), s(t2, t3)],
    ))
}

/// Starts [`REPEATS`] times, tearing each start down (untimed) before the
/// next, and keeps the last.
pub fn run(
    cfg: &GenConfig,
    snapshots: &Path,
    connections: usize,
) -> Result<(Deployment, SetupTimes), String> {
    let mut samples: [Vec<f64>; 4] = Default::default();
    let mut kept = None;
    for _ in 0..REPEATS {
        if let Some(Deployment {
            wire: Some(wire), ..
        }) = kept.take()
        {
            wire.shutdown()?;
        }
        let (deployment, times) = start(cfg, snapshots, connections)?;
        for (s, t) in samples.iter_mut().zip(times) {
            s.push(t);
        }
        kept = Some(deployment);
    }
    let m = |i: usize| median(&samples[i]).unwrap_or(0.0);
    let times = SetupTimes {
        setup_s: m(0),
        load_s: m(1),
        translate_s: m(2),
        server_start_s: m(3),
    };
    kept.map(|d| (d, times))
        .ok_or_else(|| "no set-up ran".to_string())
}
