//! End-to-end tests for the serving layer: results over the wire must be
//! byte-identical to direct execution, engine errors must keep their
//! class across the wire, malformed clients must get one typed error
//! frame and a close, and shutdown must leave no thread running.

use etable_core::testutil::{academic_db, academic_tgdb};
use etable_relational::shared::SharedDatabase;
use etable_relational::storage::codec::PayloadReader;
use etable_relational::Error;
use etable_server::proto::{
    encode, read_frame, write_frame, Decoder, Message, WIRE_MAGIC, WIRE_VERSION,
};
use etable_server::{baselines, canon, run_load, Client, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// The mini academic corpus behind a freshly started server.
fn start() -> (Server, SharedDatabase) {
    let db = SharedDatabase::new(academic_db());
    let server = Server::start("127.0.0.1:0", db.clone(), Arc::new(academic_tgdb()))
        .expect("ephemeral bind");
    (server, db)
}

const QUERIES: [&str; 6] = [
    "SELECT acronym FROM Conferences ORDER BY id",
    "SELECT COUNT(*) FROM Papers",
    "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a \
     WHERE p.id = pa.paper_id AND pa.author_id = a.id ORDER BY p.title, a.name",
    "SELECT year, COUNT(*) AS n FROM Papers GROUP BY year ORDER BY year",
    "SELECT DISTINCT country FROM Institutions ORDER BY country",
    "EXPLAIN SELECT title FROM Papers WHERE year > 2010 ORDER BY title",
];

#[test]
fn wire_results_are_byte_identical_to_direct_execution() {
    let (server, db) = start();
    let mut client = Client::connect(server.addr().to_string().as_str()).unwrap();
    for q in QUERIES {
        let direct = canon(&db.execute(q).unwrap());
        let wired = canon(&client.query(q).unwrap());
        assert_eq!(wired, direct, "diverged over the wire on: {q}");
    }
    client.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn writes_publish_epochs_visible_to_other_clients() {
    let (server, _db) = start();
    let addr = server.addr().to_string();
    let mut a = Client::connect(addr.as_str()).unwrap();
    let mut b = Client::connect(addr.as_str()).unwrap();

    let before = a.epoch();
    a.query("CREATE TABLE scratch (id INT PRIMARY KEY)")
        .unwrap();
    a.query("INSERT INTO scratch VALUES (1), (2), (3)").unwrap();
    assert!(a.epoch() >= before + 2, "each write publishes an epoch");

    let r = b.query("SELECT COUNT(*) FROM scratch").unwrap();
    assert_eq!(format!("{:?}", r.rows), "[[Int(3)]]");
    assert_eq!(b.epoch(), a.epoch(), "reader observed the writer's epoch");

    a.quit().unwrap();
    b.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn engine_errors_keep_their_class_over_the_wire() {
    let (server, db) = start();
    let mut client = Client::connect(server.addr().to_string().as_str()).unwrap();
    for bad in [
        "SELEC nonsense",                // parse
        "SELECT id FROM no_such_table",  // unknown table
        "SELECT nope FROM Papers",       // unknown column
        "INSERT INTO Papers VALUES (1)", // schema arity
    ] {
        let direct = db.execute(bad).unwrap_err();
        let wired = client.query(bad).unwrap_err();
        assert_eq!(
            wired.code(),
            direct.code(),
            "class drifted over the wire for: {bad}"
        );
        assert_eq!(wired.to_string(), direct.to_string());
    }
    // The connection survives engine errors: it still answers queries.
    assert!(client.query("SELECT COUNT(*) FROM Papers").is_ok());
    client.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn handshake_rejects_version_mismatch_with_one_error_frame() {
    let (server, _db) = start();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let bad_hello = Message::Hello {
        magic: WIRE_MAGIC,
        version: WIRE_VERSION + 1,
    };
    write_frame(&mut writer, &encode(&bad_hello)).unwrap();
    let payload = read_frame(&mut reader).unwrap().expect("one error frame");
    match etable_server::proto::decode(&payload).unwrap() {
        Message::Error { code, message } => {
            assert_eq!(code, Error::Protocol(String::new()).code().as_u16());
            assert!(message.contains("version"), "unhelpful message: {message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert!(read_frame(&mut reader).unwrap().is_none(), "then EOF");
    server.shutdown().unwrap();
}

#[test]
fn a_version_1_client_is_refused_at_the_handshake() {
    let (server, _db) = start();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let v1 = Message::Hello {
        magic: WIRE_MAGIC,
        version: 1,
    };
    write_frame(&mut writer, &encode(&v1)).unwrap();
    let payload = read_frame(&mut reader).unwrap().expect("one error frame");
    match etable_server::proto::decode(&payload).unwrap() {
        Message::Error { code, message } => {
            assert_eq!(code, 500);
            assert!(
                message.contains("version 1"),
                "unhelpful message: {message}"
            );
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert!(read_frame(&mut reader).unwrap().is_none(), "then EOF");
    server.shutdown().unwrap();
}

/// `(reset, delta_len)` of a raw `Result` payload.
fn dictionary_header(payload: &[u8]) -> (u8, u32) {
    let mut r = PayloadReader::new(payload, "test");
    assert_eq!(r.u8("tag").unwrap(), 0x82, "a Result");
    r.u64("epoch").unwrap();
    for _ in 0..r.u32("ncols").unwrap() {
        r.str("name").unwrap();
        r.u8("type").unwrap();
    }
    r.u64("nrows").unwrap();
    (r.u8("reset").unwrap(), r.u32("delta_len").unwrap())
}

#[test]
fn a_repeated_result_sends_no_string_twice_on_one_connection() {
    let (server, db) = start();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let hello = Message::Hello {
        magic: WIRE_MAGIC,
        version: WIRE_VERSION,
    };
    write_frame(&mut writer, &encode(&hello)).unwrap();
    read_frame(&mut reader).unwrap().expect("HelloOk");

    // This connection's side of the dictionary.
    let mut results = Decoder::new();
    let mut first_round = Vec::new();
    for round in 0..2 {
        for (i, q) in QUERIES.iter().enumerate() {
            let query = Message::Query { sql: q.to_string() };
            write_frame(&mut writer, &encode(&query)).unwrap();
            let payload = read_frame(&mut reader).unwrap().expect("a Result");
            let (reset, delta) = dictionary_header(&payload);
            let Message::Result { relation, .. } = results.decode(&payload).unwrap() else {
                panic!("expected a Result for {q}");
            };
            assert_eq!(canon(&relation), canon(&db.execute(q).unwrap()), "{q}");
            assert_eq!(reset, 0, "{q}");
            if round == 0 {
                first_round.push((delta, payload.len()));
                continue;
            }
            let (first_delta, first_len) = first_round[i];
            assert_eq!(delta, 0, "round 2 resent strings for {q}");
            if first_delta > 0 {
                assert!(payload.len() < first_len, "{q}: {} bytes", payload.len());
            } else {
                assert_eq!(payload.len(), first_len, "{q}");
            }
        }
    }
    assert!(
        first_round.iter().any(|&(delta, _)| delta > 0),
        "the queries return text"
    );
    server.shutdown().unwrap();
}

#[test]
fn corrupt_frames_get_a_typed_error_then_close() {
    let (server, _db) = start();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Valid handshake first.
    let hello = Message::Hello {
        magic: WIRE_MAGIC,
        version: WIRE_VERSION,
    };
    write_frame(&mut writer, &encode(&hello)).unwrap();
    let ok = read_frame(&mut reader).unwrap().expect("HelloOk");
    assert!(matches!(
        etable_server::proto::decode(&ok).unwrap(),
        Message::HelloOk { .. }
    ));

    // Then a query frame with one payload bit flipped after checksumming.
    let mut raw = Vec::new();
    write_frame(
        &mut raw,
        &encode(&Message::Query {
            sql: "SELECT 1 FROM Papers".into(),
        }),
    )
    .unwrap();
    raw[10] ^= 0x40; // inside the payload, past the 8-byte length prefix
    writer.write_all(&raw).unwrap();
    writer.flush().unwrap();

    let payload = read_frame(&mut reader).unwrap().expect("one error frame");
    match etable_server::proto::decode(&payload).unwrap() {
        Message::Error { code, .. } => {
            assert_eq!(code, Error::Protocol(String::new()).code().as_u16());
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert!(read_frame(&mut reader).unwrap().is_none(), "then EOF");
    server.shutdown().unwrap();
}

#[test]
fn shutdown_joins_every_thread_and_disconnects_idle_clients() {
    let (server, _db) = start();
    let addr = server.addr().to_string();
    // Two clients handshake and then sit idle (no Quit).
    let mut a = Client::connect(addr.as_str()).unwrap();
    let mut b = Client::connect(addr.as_str()).unwrap();
    assert!(a.query("SELECT COUNT(*) FROM Papers").is_ok());

    assert_eq!(
        server
            .stats()
            .connections
            .load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    // Returns only after the accept thread and both handler threads have
    // been joined — a leak or panic turns into an Err here.
    server.shutdown().unwrap();

    assert!(a.query("SELECT 1 FROM Papers").is_err(), "server is gone");
    assert!(b.query("SELECT 1 FROM Papers").is_err(), "server is gone");
}

#[test]
fn shutdown_force_disconnects_a_mid_frame_stalled_client() {
    let (server, _db) = start();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // A frame header promising 100 payload bytes, then only 3 and a
    // stall with the socket held open. The handler deliberately rides
    // out read timeouts mid-frame (frames are atomic), so without the
    // force-disconnect in shutdown() this join would hang forever.
    writer.write_all(&100u64.to_le_bytes()).unwrap();
    writer.write_all(&[1, 2, 3]).unwrap();
    writer.flush().unwrap();
    // Give the handler time to enter the mid-frame body read.
    std::thread::sleep(std::time::Duration::from_millis(120));
    server.shutdown().unwrap();
    drop(stream);
}

#[test]
fn server_rejects_server_to_client_tags_with_one_error_frame() {
    let (server, _db) = start();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Valid handshake first.
    let hello = Message::Hello {
        magic: WIRE_MAGIC,
        version: WIRE_VERSION,
    };
    write_frame(&mut writer, &encode(&hello)).unwrap();
    let ok = read_frame(&mut reader).unwrap().expect("HelloOk");
    assert!(matches!(
        etable_server::proto::decode(&ok).unwrap(),
        Message::HelloOk { .. }
    ));

    // A client has no business sending a Result; the server must refuse
    // it on the tag byte (its body is never parsed) and close.
    let forged = Message::Result {
        epoch: 0,
        relation: etable_relational::relation::Relation::from_rows(Vec::new(), Vec::new()),
    };
    write_frame(&mut writer, &encode(&forged)).unwrap();
    let payload = read_frame(&mut reader).unwrap().expect("one error frame");
    match etable_server::proto::decode(&payload).unwrap() {
        Message::Error { code, message } => {
            assert_eq!(code, Error::Protocol(String::new()).code().as_u16());
            assert!(
                message.contains("server-to-client"),
                "unhelpful message: {message}"
            );
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert!(read_frame(&mut reader).unwrap().is_none(), "then EOF");
    server.shutdown().unwrap();
}

#[test]
fn result_epochs_name_the_snapshot_the_statement_observed() {
    let (server, db) = start();
    let mut client = Client::connect(server.addr().to_string().as_str()).unwrap();
    // Reads at epoch 0 report epoch 0.
    client.query("SELECT COUNT(*) FROM Papers").unwrap();
    assert_eq!(client.epoch(), 0);
    // A write reports the epoch it published...
    client
        .query("CREATE TABLE scratch (id INT PRIMARY KEY)")
        .unwrap();
    assert_eq!(client.epoch(), 1);
    // ...and a server-side write moves what later reads observe.
    db.execute("INSERT INTO scratch VALUES (1)").unwrap();
    client.query("SELECT COUNT(*) FROM scratch").unwrap();
    assert_eq!(client.epoch(), 2);
    client.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn load_harness_agrees_with_sequential_baseline() {
    let (server, db) = start();
    let workload = baselines(&db, &QUERIES).unwrap();
    let report = run_load(&server.addr().to_string(), 4, 60, &workload).unwrap();
    assert!(
        report.clean(),
        "wrong {} errors {}",
        report.wrong,
        report.errors
    );
    assert_eq!(report.clients, 4);
    assert!(report.qps > 0.0);
    server.shutdown().unwrap();
    assert_eq!(
        server_queries_floor(&report),
        240,
        "every query got an answer"
    );
}

fn server_queries_floor(report: &etable_server::LoadReport) -> usize {
    report.clients * report.per_client - report.wrong - report.errors
}
