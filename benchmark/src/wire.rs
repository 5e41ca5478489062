//! The wire workloads: SQL statements over TCP to an in-process server.
//!
//! Closed loop, one thread per connection, at most `nproc` of them: a
//! client sends its next statement when the reply to the last one has
//! arrived and been checked. An *operation* is one read statement's
//! round trip (`Client::query`); a *pass* is one reader's round of the
//! 16-statement mix, the sum of its round trips.

use crate::report::Report;
use crate::setup::{Deployment, WireDeployment};
use crate::stats::{median, percentile_or_supported};
use crate::trace::Trace;
use crate::workload::{self, Class, Pools, Wire};
use crate::{ms, overhead_pct, per, us, Budget, Options, Summary, Tally, CONNECTIONS};
use etable_relational::database::Database;
use etable_relational::shared::SharedDatabase;
use etable_relational::sql::{self, Statement};
use etable_server::proto::{decode, encode, read_frame, write_frame, Message};
use etable_server::{canon, Client};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// What every read statement must return in each of the three states
/// the write cycle moves the database through (`epoch % 3`).
struct Oracle {
    expected: [Vec<String>; 3],
}

/// Computes the in-process baseline: the mix on the base state, after
/// the insert, and after the update; the delete must restore the base.
fn oracle(db: &Database, w: &Wire) -> Result<Oracle, String> {
    let shared = SharedDatabase::new(db.clone());
    let state = |shared: &SharedDatabase| -> Result<Vec<String>, String> {
        w.mix
            .iter()
            .map(|s| {
                shared
                    .execute(&s.sql)
                    .map(|r| canon(&r))
                    .map_err(|e| format!("{}: {e}", s.sql))
            })
            .collect()
    };
    let write = |i: usize| {
        shared
            .execute(&w.write_cycle[i])
            .map_err(|e| format!("{}: {e}", w.write_cycle[i]))
    };
    let base = state(&shared)?;
    write(0)?;
    let inserted = state(&shared)?;
    write(1)?;
    let updated = state(&shared)?;
    write(2)?;
    if state(&shared)? != base {
        return Err("the write cycle does not restore the base state".into());
    }
    if inserted == base || updated == inserted || updated == base {
        return Err("the write cycle's states are not distinguishable by the read mix".into());
    }
    Ok(Oracle {
        expected: [base, inserted, updated],
    })
}

/// What one phase of a wire workload produced.
#[derive(Debug, Default)]
struct Measured {
    /// Per reader round: the sum of its statements' round trips, in ms.
    round_ms: Vec<f64>,
    /// Per read statement: its class and round trip in ms.
    reads: Vec<(Class, f64)>,
    /// Per write statement: its round trip in ms.
    writes: Vec<f64>,
    /// Statements sent (reads and writes), and which of them failed,
    /// were refused, or answered wrongly.
    tally: Tally,
    /// From the first thread's start to the last thread's end, seconds.
    wall_s: f64,
    /// The threads' spans, on traced phases.
    trace: Option<Trace>,
}

impl Measured {
    fn absorb(&mut self, other: Measured) {
        self.round_ms.extend(other.round_ms);
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.tally.absorb(other.tally);
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }
}

/// What a traced thread shadows with.
#[derive(Clone)]
struct Shadow {
    /// Clock origin shared by the run's threads.
    origin: Instant,
    /// A second copy of the database for the writer's shadow writes, so
    /// the served one sees every statement exactly once.
    write_copy: SharedDatabase,
}

struct Reader<'a> {
    id: usize,
    client: &'a mut Client,
    order: &'a [usize],
}

/// Shadows one read: the layers' public functions on the statement text.
fn shadow_read(tr: &mut Trace, op: u64, root: usize, shared: &SharedDatabase, sql_text: &str) {
    let parent = Some(root);
    let mut buf = Vec::new();
    tr.time(op, "proto.encode_query", parent, || {
        let msg = Message::Query {
            sql: sql_text.into(),
        };
        write_frame(&mut buf, &encode(&msg)).is_ok()
    });
    let (snap, _) = tr.time(op, "shared.snapshot", parent, || shared.snapshot());
    let (stmt, _) = tr.time(op, "sql.parse", parent, || sql::parse_statement(sql_text));
    let Ok(Statement::Select(query)) = stmt else {
        return;
    };
    let start = Instant::now();
    let plan = std::hint::black_box(sql::analyze(&snap, &query));
    let analyzed = Instant::now();
    drop(plan);
    let (rel, exec) = tr.time(op, "sql.execute_query", parent, || {
        sql::executor::execute_query(&snap, &query)
    });
    // `execute_query` analyzes again inside; the stand-alone call is
    // recorded as its child so its self time is execution alone.
    tr.record(op, "sql.analyze", Some(exec), start, analyzed);
    let Ok(relation) = rel else {
        return;
    };
    tr.count("sql.rows_out", relation.len() as u64);
    let msg = Message::Result {
        epoch: snap.epoch(),
        relation,
    };
    let mut frame = Vec::new();
    tr.time(op, "proto.encode_result", parent, || {
        write_frame(&mut frame, &encode(&msg)).is_ok()
    });
    tr.count("proto.result_bytes", frame.len() as u64);
    tr.time(
        op,
        "proto.decode_result",
        parent,
        || matches!(read_frame(&mut frame.as_slice()), Ok(Some(p)) if decode(&p).is_ok()),
    );
}

fn read_round(
    r: &mut Reader<'_>,
    w: &Wire,
    oracle: &Oracle,
    shared: &SharedDatabase,
    out: &mut Measured,
    next_op: &mut u64,
) {
    let mut round = 0.0;
    for &i in r.order {
        let stmt = &w.mix[i];
        let start = Instant::now();
        let reply = r.client.query(&stmt.sql);
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        out.tally.attempted += 1;
        match reply {
            Ok(rel) => {
                round += ms;
                out.reads.push((stmt.class, ms));
                let state = (r.client.epoch() % 3) as usize;
                if canon(&rel) != oracle.expected[state][i] {
                    out.tally.fail(format!(
                        "reader {}: wrong answer at epoch {} to {}",
                        r.id,
                        r.client.epoch(),
                        stmt.sql
                    ));
                }
            }
            Err(e) => out
                .tally
                .fail(format!("reader {}: {}: {e}", r.id, stmt.sql)),
        }
        if let Some(tr) = &mut out.trace {
            let op = *next_op;
            *next_op += 1;
            let root = tr.record(op, "server.round_trip", None, start, end);
            shadow_read(tr, op, root, shared, &stmt.sql);
        }
    }
    out.round_ms.push(round);
}

/// One write-cycle statement: it must be acknowledged, and publish
/// exactly the next epoch (there is one writer).
fn write_one(
    client: &mut Client,
    sql_text: &str,
    shadow: Option<&Shadow>,
    out: &mut Measured,
    next_op: &mut u64,
) {
    let before = client.epoch();
    let start = Instant::now();
    let reply = client.query(sql_text);
    let end = Instant::now();
    out.tally.attempted += 1;
    match reply {
        Ok(_) if client.epoch() == before + 1 => out.writes.push((end - start).as_secs_f64() * 1e3),
        Ok(_) => out.tally.fail(format!(
            "write acknowledged at epoch {} after {before}: {sql_text}",
            client.epoch()
        )),
        Err(e) => out.tally.fail(format!("write refused: {sql_text}: {e}")),
    }
    if let (Some(tr), Some(shadow)) = (&mut out.trace, shadow) {
        let op = *next_op;
        *next_op += 1;
        let root = tr.record(op, "server.write_round_trip", None, start, end);
        let (stmt, _) = tr.time(op, "sql.parse", Some(root), || {
            sql::parse_statement(sql_text)
        });
        if let Ok(stmt) = stmt {
            tr.time(op, "shared.write", Some(root), || {
                shadow
                    .write_copy
                    .write_with_epoch(|db| sql::execute_statement(db, stmt))
                    .is_ok()
            });
        }
    }
}

/// Runs one phase: every connection on its own thread, released
/// together. With `writer`, the last connection writes whole cycles
/// until the budget is spent and the readers stop with it; without,
/// every connection reads until the budget is spent.
fn run_phase(
    dep: &mut WireDeployment,
    w: &Wire,
    oracle: &Oracle,
    writer: bool,
    budget: Budget,
    shadow: Option<&Shadow>,
) -> Measured {
    let shared = dep.shared.clone();
    let n = dep.clients.len();
    let barrier = Barrier::new(n);
    let writer_done = AtomicBool::new(false);
    let new_out = || Measured {
        trace: shadow.map(|s| Trace::new(s.origin)),
        ..Measured::default()
    };

    let results: Vec<(Measured, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .clients
            .iter_mut()
            .enumerate()
            .map(|(id, client)| {
                let (barrier, writer_done, shared) = (&barrier, &writer_done, &shared);
                let mut out = new_out();
                // Operation ids: each thread counts from its own base.
                let mut next_op = (id as u64) << 32;
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    if writer && id == n - 1 {
                        let mut cycles = 0;
                        loop {
                            for sql_text in &w.write_cycle {
                                write_one(client, sql_text, shadow, &mut out, &mut next_op);
                            }
                            cycles += 1;
                            if budget.spent(started, cycles) {
                                break;
                            }
                        }
                        writer_done.store(true, Ordering::SeqCst);
                    } else {
                        let mut reader = Reader {
                            id,
                            client,
                            order: &w.orders[id],
                        };
                        loop {
                            read_round(&mut reader, w, oracle, shared, &mut out, &mut next_op);
                            let stop = if writer {
                                writer_done.load(Ordering::SeqCst)
                            } else {
                                budget.spent(started, out.round_ms.len())
                            };
                            if stop {
                                break;
                            }
                        }
                    }
                    (out, started, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });

    let first = results.iter().map(|r| r.1).min();
    let last = results.iter().map(|r| r.2).max();
    let mut all = Measured::default();
    for (m, _, _) in results {
        all.absorb(m);
    }
    if let (Some(a), Some(b)) = (first, last) {
        all.wall_s = (b - a).as_secs_f64();
    }
    all
}

/// The per-layer metrics of a traced wire phase.
fn layers(r: &mut Report, tr: &Trace, m: &Measured, reference: &[f64]) {
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let count = |name: &str| tr.counts.get(name).copied().unwrap_or(0) as f64;
    let root = total("server.round_trip");
    let reads = root.calls;
    r.set("trace.ops", reads as f64);
    for (metric, span) in [
        ("proto.encode_query_us_per_op", "proto.encode_query"),
        ("proto.encode_result_us_per_op", "proto.encode_result"),
        ("proto.decode_result_us_per_op", "proto.decode_result"),
        ("sql.analyze_us_per_op", "sql.analyze"),
        ("shared.snapshot_us_per_op", "shared.snapshot"),
    ] {
        r.set(metric, per(us(total(span).total_ns), reads));
    }
    // Parsed for reads and writes alike; written by the writer only.
    let (parse, write) = (total("sql.parse"), total("shared.write"));
    r.set("sql.parse_us_per_op", per(us(parse.total_ns), parse.calls));
    r.set(
        "shared.write_ms_per_op",
        per(ms(write.total_ns), write.calls),
    );
    r.set(
        "sql.execute_ms_per_op",
        per(ms(total("sql.execute_query").self_ns), reads),
    );
    r.set("server.transport_us_per_op", per(us(root.self_ns), reads));
    r.set("sql.rows_out_per_op", per(count("sql.rows_out"), reads));
    r.set(
        "proto.result_bytes_per_op",
        per(count("proto.result_bytes"), reads),
    );
    for (class, metric) in [
        (Class::Point, "server.point_ms_p50"),
        (Class::Analytic, "server.analytic_ms_p50"),
        (Class::Bulk, "server.bulk_ms_p50"),
    ] {
        let of: Vec<f64> = m
            .reads
            .iter()
            .filter(|o| o.0 == class)
            .map(|o| o.1)
            .collect();
        r.set(metric, median(&of).unwrap_or(0.0));
    }
    r.set("write.count", m.writes.len() as f64);
    r.set("write.ms_p50", median(&m.writes).unwrap_or(0.0));
    r.set(
        "write.ms_p90",
        percentile_or_supported(&m.writes, 90).unwrap_or(0.0),
    );
    r.set("trace.overhead_pct", overhead_pct(reference, &m.round_ms));
}

/// Runs a wire workload on a started deployment: oracle, warm-up, then
/// the measured phase — on a traced run a quarter of it untraced as the
/// reference, the rest shadowed — and stops the server.
pub(crate) fn run(
    r: &mut Report,
    mut dep: Deployment,
    pools: &Pools,
    opts: &Options,
    budget: Budget,
) -> Result<(Summary, Option<Trace>), String> {
    let mut server = dep.wire.take().ok_or("no server was started")?;
    let writer = opts.workload == "wire_mixed";
    let w = workload::wire(pools, opts.seed, CONNECTIONS);
    let oracle = oracle(&dep.db, &w)?;
    run_phase(&mut server, &w, &oracle, writer, Budget::one_pass(), None)
        .tally
        .clean_warm_up()?;
    let m = if opts.trace {
        let (first, rest) = budget.split();
        let reference = run_phase(&mut server, &w, &oracle, writer, first, None);
        let shadow = Shadow {
            origin: Instant::now(),
            write_copy: SharedDatabase::new(dep.db.clone()),
        };
        let mut m = run_phase(&mut server, &w, &oracle, writer, rest, Some(&shadow));
        if let Some(tr) = &m.trace {
            layers(r, tr, &m, &reference.round_ms);
        }
        m.tally.absorb(reference.tally);
        m
    } else {
        run_phase(&mut server, &w, &oracle, writer, budget, None)
    };
    let stats = server.server.stats();
    r.set(
        "server.queries_ok",
        stats.queries_ok.load(Ordering::Relaxed) as f64,
    );
    r.set(
        "server.queries_err",
        stats.queries_err.load(Ordering::Relaxed) as f64,
    );
    server.shutdown()?;
    r.note(format!("samples: {} writes", m.writes.len()));
    if writer && m.writes.is_empty() {
        return Err("the writer completed no write".into());
    }
    let summary = Summary {
        op_ms: m.reads.iter().map(|o| o.1).collect(),
        pass_ms: m.round_ms,
        wall_s: m.wall_s,
        tally: m.tally,
    };
    Ok((summary, m.trace))
}
