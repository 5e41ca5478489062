//! `serve_load` — the serving-layer acceptance gate.
//!
//! Builds the synthetic academic corpus, starts an in-process server,
//! and hammers it with `SERVE_CLIENTS` concurrent clients issuing
//! `SERVE_QUERIES` queries each (defaults 8 × 1000; CI smoke mode sets
//! both low). Every response is compared byte-for-byte against the
//! sequentially computed baseline. Exits nonzero unless:
//!
//! - zero wrong results and zero transport errors,
//! - the server shuts down cleanly (all threads joined, none panicked),
//! - no spill directories are left behind by this process.
//!
//! Prints one report line with p50/p99 latency and aggregate qps. No
//! criterion family tracks them; `benchmark/`'s `wire_read` and
//! `wire_mixed` workloads measure the serving path end to end.

use etable_datagen::{load_or_generate, GenConfig};
use etable_relational::shared::SharedDatabase;
use etable_server::{baselines, run_load, Server, ACADEMIC_QUERIES};
use etable_tgm::{translate, TranslateOptions};
use std::sync::Arc;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: {name} must be a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// Spill directories created by this process that still exist — the
/// engine names them `<pid>-<seq>` under `$TMPDIR/etable-spill`, and a
/// clean run removes every one of them on query completion.
fn leftover_spill_dirs() -> Vec<std::path::PathBuf> {
    let root = std::env::temp_dir().join("etable-spill");
    let prefix = format!("{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect()
}

fn main() {
    let clients = env_usize("SERVE_CLIENTS", 8);
    let per_client = env_usize("SERVE_QUERIES", 1000);

    let db = load_or_generate(&GenConfig::medium());
    let tgdb = translate(&db, &TranslateOptions::default()).expect("translation succeeds");
    let shared = SharedDatabase::new(db);

    let workload = match baselines(&shared, &ACADEMIC_QUERIES) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: baseline query failed: {e}");
            std::process::exit(1);
        }
    };

    let server = match Server::start("127.0.0.1:0", shared, Arc::new(tgdb)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr().to_string();

    let report = run_load(&addr, clients, per_client, &workload);

    let mut failed = false;
    match &report {
        Ok(r) => {
            println!("{}", r.render());
            if !r.clean() {
                eprintln!("error: load run returned wrong or failed responses");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("error: load run aborted: {e}");
            failed = true;
        }
    }

    if let Err(e) = server.shutdown() {
        eprintln!("error: unclean shutdown: {e}");
        failed = true;
    }

    let leftovers = leftover_spill_dirs();
    if !leftovers.is_empty() {
        eprintln!("error: leftover spill directories: {leftovers:?}");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
}
