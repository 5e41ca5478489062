//! The multi-threaded TCP server: one accept loop, one handler thread
//! and one [`Connection`] per client, all over one [`SharedDatabase`].
//! Each session starts on the `Arc<Tgdb>` given to [`Server::start`],
//! of any epoch: a connection re-pins its session when it builds a table.
//!
//! Concurrency model: reads execute on per-statement epoch snapshots
//! (never blocking each other), writes serialize inside the shared
//! handle (see `etable_relational::shared`). Shutdown is cooperative and
//! **complete**: [`Server::shutdown`] flips a flag, wakes the accept
//! loop with a loopback connect, force-disconnects every live client
//! socket, and joins the accept thread and every handler thread — when
//! it returns, no server thread is left running (the CI smoke gate
//! asserts exactly this). Handler reads use a poll timeout so an idle
//! client's thread notices the flag promptly; the force-disconnect
//! covers clients stalled mid-frame or mid-write, where the flag is
//! deliberately not polled (frames are atomic).

use crate::proto::{
    decode, encode, error_message, read_frame_event, write_frame, Encoder, FrameEvent, Message,
    WIRE_MAGIC, WIRE_VERSION,
};
use etable_core::connection::Connection;
use etable_relational::shared::SharedDatabase;
use etable_relational::{Error, Result};
use etable_tgm::Tgdb;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked handler read waits before re-checking the shutdown
/// flag. Bounds shutdown latency without busy-waiting.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long the accept loop sleeps after `accept` itself fails (e.g.
/// EMFILE). Without this a persistent error would spin the thread at
/// 100% CPU.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Counters the load harness and smoke gate read after a run.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Query messages answered with a result.
    pub queries_ok: AtomicU64,
    /// Query messages answered with an error frame.
    pub queries_err: AtomicU64,
}

/// A running server: owns the accept thread and all handler threads.
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<ClientThread>>>,
    stats: Arc<ServerStats>,
}

/// One live client: its handler thread plus a second handle on its
/// socket, kept so [`Server::shutdown`] can force-disconnect a client
/// that is stalled mid-frame (frame reads deliberately ride out
/// timeouts once a frame started, and writes have none) instead of
/// joining forever.
struct ClientThread {
    handle: JoinHandle<()>,
    stream: TcpStream,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting clients over the shared handles. `tgdb` starts every
    /// client's session, at whatever epoch it was loaded from.
    pub fn start(addr: &str, db: SharedDatabase, tgdb: Arc<Tgdb>) -> Result<Server> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| Error::Protocol(format!("{addr}: cannot bind: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::Protocol(format!("{addr}: no local addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<ClientThread>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(ServerStats::default());

        let accept = {
            let stop = Arc::clone(&stop);
            let handlers = Arc::clone(&handlers);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                let mut accept_failing = false;
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let stream = match stream {
                        Ok(s) => {
                            accept_failing = false;
                            s
                        }
                        Err(e) => {
                            // Log once per error streak, then back off:
                            // a persistent failure like EMFILE must not
                            // spin the loop or flood stderr.
                            if !accept_failing {
                                accept_failing = true;
                                eprintln!("etable-server: accept failed: {e} (backing off)");
                            }
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        }
                    };
                    // The second socket handle lets shutdown() unblock a
                    // handler stalled mid-read/mid-write; a client we
                    // could not register that way is refused outright.
                    let Ok(peer) = stream.try_clone() else {
                        continue;
                    };
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    let conn = Connection::connect(&db, &tgdb);
                    let stop = Arc::clone(&stop);
                    let stats = Arc::clone(&stats);
                    let handle =
                        std::thread::spawn(move || handle_client(stream, conn, &stop, &stats));
                    let mut hs = lock(&handlers);
                    // Reap finished handlers so a long-lived server does
                    // not accumulate join handles or sockets.
                    let mut live: Vec<ClientThread> =
                        hs.drain(..).filter(|c| !c.handle.is_finished()).collect();
                    live.push(ClientThread {
                        handle,
                        stream: peer,
                    });
                    *hs = live;
                }
            })
        };

        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
            handlers,
            stats,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stops accepting, wakes and joins every thread. When this returns
    /// no server thread remains; all clients — idle, stalled mid-frame,
    /// or mid-write — are disconnected.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway loopback connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            h.join()
                .map_err(|_| Error::Protocol("accept thread panicked".into()))?;
        }
        // The accept thread is gone, so the registry is now complete.
        let clients: Vec<ClientThread> = {
            let mut hs = lock(&self.handlers);
            hs.drain(..).collect()
        };
        // Force-disconnect every socket *before* joining: the stop flag
        // is only polled at frame boundaries, so a client that sent a
        // partial frame (or stopped reading while the server writes)
        // would otherwise pin its handler — and this join — forever.
        for c in &clients {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        for c in clients {
            c.handle
                .join()
                .map_err(|_| Error::Protocol("a connection handler panicked".into()))?;
        }
        Ok(())
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One client's lifetime: handshake, then a query/answer loop until
/// `Quit`, disconnect, protocol violation, or server shutdown.
fn handle_client(stream: TcpStream, conn: Connection, stop: &AtomicBool, stats: &ServerStats) {
    // Best-effort service: any I/O failure just ends this connection.
    let _ = serve_one(&stream, &conn, stop, stats);
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_one(
    stream: &TcpStream,
    conn: &Connection,
    stop: &AtomicBool,
    stats: &ServerStats,
) -> Result<()> {
    stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .map_err(|e| Error::Protocol(format!("set_read_timeout: {e}")))?;
    // A frame is one write, but a large one spans many segments: without
    // this, Nagle holds back its last partial segment until an ACK that
    // the client's delayed ACK postpones, ~40ms on every such round-trip.
    stream
        .set_nodelay(true)
        .map_err(|e| Error::Protocol(format!("set_nodelay: {e}")))?;
    let mut reader = std::io::BufReader::new(stream);
    let mut writer = stream;
    // This connection's string dictionary: a Result sends only the strings
    // the client has not been sent yet.
    let mut results = Encoder::new();

    // Handshake: the first frame must be a well-formed, version-matched
    // Hello; anything else gets one error frame and a close.
    match next_frame(&mut reader, stop) {
        Err(e) => {
            // Unreadable framing (bad checksum, oversize length): report
            // the typed protocol error once, then close.
            write_frame(&mut writer, &encode(&error_message(&e)))?;
            return Ok(());
        }
        Ok(None) => return Ok(()),
        Ok(Some(payload)) => match client_message(&payload) {
            Ok(Message::Hello {
                magic: WIRE_MAGIC,
                version: WIRE_VERSION,
            }) => {
                let hello_ok = Message::HelloOk {
                    magic: WIRE_MAGIC,
                    version: WIRE_VERSION,
                    epoch: conn.shared().epoch(),
                };
                write_frame(&mut writer, &encode(&hello_ok))?;
            }
            Ok(Message::Hello { magic, version }) => {
                let e = Error::Protocol(format!(
                    "handshake mismatch: magic {magic:#010x} version {version} \
                     (want {WIRE_MAGIC:#010x} version {WIRE_VERSION})"
                ));
                write_frame(&mut writer, &encode(&error_message(&e)))?;
                return Ok(());
            }
            Ok(other) => {
                let e = Error::Protocol(format!("expected Hello, got {other:?}"));
                write_frame(&mut writer, &encode(&error_message(&e)))?;
                return Ok(());
            }
            Err(e) => {
                write_frame(&mut writer, &encode(&error_message(&e)))?;
                return Ok(());
            }
        },
    }

    loop {
        let payload = match next_frame(&mut reader, stop) {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(e) => {
                // Framing is no longer trustworthy: one typed error
                // frame, then close.
                write_frame(&mut writer, &encode(&error_message(&e)))?;
                break;
            }
        };
        match client_message(&payload) {
            Ok(Message::Query { sql }) => {
                // The epoch comes from the statement itself (the
                // snapshot a read ran on, the epoch a write published)
                // — re-reading the live epoch here would race
                // concurrent writers and mislabel the result. A result
                // too large for a frame is refused by the encoder with
                // both dictionaries unchanged, so it is answered like a
                // failed statement and the connection stays usable.
                let answer = conn.sql_with_epoch(&sql).and_then(|(epoch, relation)| {
                    results.encode(&Message::Result { epoch, relation })
                });
                match answer {
                    Ok(payload) => {
                        stats.queries_ok.fetch_add(1, Ordering::Relaxed);
                        write_frame(&mut writer, &payload)?;
                    }
                    Err(e) => {
                        stats.queries_err.fetch_add(1, Ordering::Relaxed);
                        write_frame(&mut writer, &encode(&error_message(&e)))?;
                    }
                }
            }
            Ok(Message::Quit) => break,
            Ok(other) => {
                let e = Error::Protocol(format!("unexpected message {other:?}"));
                write_frame(&mut writer, &encode(&error_message(&e)))?;
                break;
            }
            Err(e) => {
                // Corrupt payload: report once, then close — framing is
                // no longer trustworthy.
                write_frame(&mut writer, &encode(&error_message(&e)))?;
                break;
            }
        }
    }
    Ok(())
}

/// Decodes a frame from a client, refusing server-to-client message
/// types (high tag bit) on the tag byte alone — a hostile `Result` body
/// full of forged counts is never even parsed.
fn client_message(payload: &[u8]) -> Result<Message> {
    if let Some(t) = payload.first().filter(|t| *t & 0x80 != 0) {
        return Err(Error::Protocol(format!(
            "client sent server-to-client message type {t:#04x}"
        )));
    }
    decode(payload)
}

/// Frame reads under the poll timeout: idle-timeout ticks loop back to
/// check the shutdown flag; a set flag reads as end-of-stream.
fn next_frame(r: &mut impl std::io::Read, stop: &AtomicBool) -> Result<Option<Vec<u8>>> {
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        match read_frame_event(r)? {
            FrameEvent::Frame(p) => return Ok(Some(p)),
            FrameEvent::Eof => return Ok(None),
            FrameEvent::IdleTimeout => continue,
        }
    }
}
