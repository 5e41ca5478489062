//! `etable` — an interactive command-line front-end for browsing a
//! relational database through the ETable presentation data model.
//!
//! ```text
//! $ cargo run -p etable-cli --bin etable
//! etable> open Papers
//! etable> filter year >= 2014
//! etable> pivot Authors
//! etable> sort Papers desc
//! etable> sql
//! ```
//!
//! By default it loads the synthetic academic database (use
//! `ETABLE_SCALE=<papers>` to change the size, `ETABLE_SEED=<n>` for a
//! different world) and browses it embedded. Commands also stream from
//! stdin, so the binary works in pipes:
//! `echo -e "open Papers\nshow-table 3" | etable`.
//!
//! Two more modes expose the same database over the wire (in-memory
//! only: wire writes last for the server's lifetime, nothing persists
//! across restarts):
//!
//! ```text
//! $ etable serve [addr]          # default 127.0.0.1:7878
//! $ etable client [addr]         # SQL prompt against a running server
//! ```

#![forbid(unsafe_code)]

use etable_cli::engine::Engine;
use etable_core::connection::Connection;
use etable_datagen::{load_or_generate, GenConfig};
use etable_relational::relation::Relation;
use etable_relational::shared::SharedDatabase;
use etable_server::{Client, Server};
use etable_tgm::{translate, Tgdb, TranslateOptions};
use std::io::{BufRead, IsTerminal, Write};
use std::sync::Arc;

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => repl(),
        Some("serve") => serve(args.get(1).map_or(DEFAULT_ADDR, String::as_str)),
        Some("client") => client(args.get(1).map_or(DEFAULT_ADDR, String::as_str)),
        Some(other) => {
            eprintln!("error: unknown mode `{other}` (expected `serve` or `client`)");
            std::process::exit(2);
        }
    }
}

/// Loads (or generates) the synthetic academic corpus per the
/// environment and translates it.
fn load_environment() -> (SharedDatabase, Arc<Tgdb>) {
    let mut cfg = match GenConfig::medium().with_scale_from_env() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    if let Some(seed) = std::env::var("ETABLE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        cfg.seed = seed;
    }
    eprintln!(
        "loading synthetic academic database ({} papers)...",
        cfg.papers
    );
    // Cold starts hit the content-addressed snapshot cache when one
    // exists for this exact configuration.
    let db = load_or_generate(&cfg);
    let tgdb = Arc::new(translate(&db, &TranslateOptions::default()).expect("translation"));
    eprintln!(
        "ready: {} nodes, {} edges.",
        tgdb.instances.node_count(),
        tgdb.instances.edge_count()
    );
    // Epoch 0 is the graph's own database: nothing to rebuild until a write.
    (SharedDatabase::new(Arc::clone(tgdb.database())), tgdb)
}

/// The embedded browsing REPL (the default mode).
fn repl() {
    let (db, tgdb) = load_environment();
    eprintln!("Type `help` for commands.");
    let mut engine = Engine::new(Connection::connect(&db, &tgdb));
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    let mut out = std::io::stdout();
    loop {
        if interactive {
            print!("etable> ");
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match engine.eval_line(&line) {
            Ok(text) if text.is_empty() => {}
            Ok(text) => println!("{text}"),
            Err(msg) => eprintln!("error: {msg}"),
        }
        if engine.done {
            break;
        }
    }
}

/// `etable serve [addr]`: the multi-threaded server over the corpus.
/// Runs until stdin closes (or `quit`/EOF on a pipe), then shuts down
/// cleanly, joining every connection thread.
///
/// The deployment is **in-memory only**: wire DML publishes new epochs
/// for the server's lifetime but nothing is written back to disk, so
/// every restart reloads the generated corpus. The startup banner says
/// so, because clients cannot tell from the protocol alone.
fn serve(addr: &str) {
    let (db, tgdb) = load_environment();
    let server = match Server::start(addr, db, tgdb) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "serving on {} — connect with `etable client {}`.\n\
         note: this deployment is in-memory only; writes are visible to \
         all clients but are NOT persisted across restarts.\n\
         press Enter or close stdin to stop",
        server.addr(),
        server.addr()
    );
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    eprintln!("shutting down...");
    if let Err(e) = server.shutdown() {
        eprintln!("error: unclean shutdown: {e}");
        std::process::exit(1);
    }
}

/// `etable client [addr]`: a SQL line prompt speaking the wire protocol.
fn client(addr: &str) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "connected to {addr} (epoch {}); one SQL statement per line",
        client.epoch()
    );
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    let mut out = std::io::stdout();
    loop {
        if interactive {
            print!("sql> ");
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let sql = line.trim();
        if sql.is_empty() {
            continue;
        }
        if sql.eq_ignore_ascii_case("quit") {
            break;
        }
        match client.query(sql) {
            Ok(rel) => print!("{}", render_relation(&rel)),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if let Err(e) = client.quit() {
        eprintln!("error: {e}");
    }
}

/// Plain column-aligned rendering for wire results.
fn render_relation(rel: &Relation) -> String {
    let headers: Vec<String> = rel.columns.iter().map(|c| c.qualified_name()).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    let rows: Vec<Vec<String>> = (0..rel.len())
        .map(|r| {
            (0..headers.len())
                .map(|c| rel.get(r, c).to_string())
                .collect()
        })
        .collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("{}\n", padded.join("  ").trim_end())
    };
    let mut text = line(&headers);
    for row in &rows {
        text.push_str(&line(row));
    }
    text.push_str(&format!(
        "({} row{})\n",
        rel.len(),
        if rel.len() == 1 { "" } else { "s" }
    ));
    text
}
