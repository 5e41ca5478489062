//! The load-test harness: N client threads × M queries each against a
//! running server, with every response checked byte-for-byte against the
//! sequentially computed expectation, and p50/p99/throughput reported.
//!
//! Used two ways: the `serve_load` binary (CI smoke gate and the nightly
//! high-concurrency leg) and the server integration tests.

use crate::client::Client;
use etable_relational::relation::Relation;
use etable_relational::shared::SharedDatabase;
use etable_relational::{Error, Result};
use std::fmt::Write;
use std::time::{Duration, Instant};

/// The mixed read workload over the synthetic academic corpus: scans,
/// LIKE, multi-way joins, grouping, aggregates, DISTINCT, pagination.
pub const ACADEMIC_QUERIES: [&str; 10] = [
    "SELECT acronym FROM Conferences ORDER BY id",
    "SELECT COUNT(*) FROM Papers",
    "SELECT year, COUNT(*) AS n FROM Papers GROUP BY year ORDER BY n DESC, year",
    "SELECT title FROM Papers WHERE title LIKE '%data%' ORDER BY title LIMIT 40",
    "SELECT a.name, COUNT(*) AS n FROM Authors a, Paper_Authors pa \
     WHERE a.id = pa.author_id GROUP BY a.name ORDER BY n DESC, a.name LIMIT 30",
    "SELECT p.title FROM Papers p JOIN Conferences c ON p.conference_id = c.id \
     WHERE c.acronym = 'SIGMOD' ORDER BY p.year DESC, p.title LIMIT 25",
    "SELECT DISTINCT country FROM Institutions ORDER BY country",
    "SELECT MIN(year), MAX(year), COUNT(*) FROM Papers",
    "SELECT i.name, COUNT(*) AS n FROM Institutions i, Authors a \
     WHERE a.institution_id = i.id GROUP BY i.name HAVING COUNT(*) > 3 \
     ORDER BY n DESC, i.name LIMIT 20",
    "SELECT id, title FROM Papers ORDER BY year, id LIMIT 15 OFFSET 100",
];

/// Canonical byte form of a result relation: the column shape line plus
/// every row, exactly as the stress suite renders them (the rows as a
/// `Vec<Vec<Value>>` prints, each cell read where it lies). Two relations
/// with equal canon are byte-identical for the protocol's purposes.
pub fn canon(r: &Relation) -> String {
    let cols: Vec<String> = r
        .columns
        .iter()
        .map(|c| format!("{}:{:?}", c.qualified_name(), c.data_type))
        .collect();
    let mut out = format!("{cols:?}\n[");
    for row in 0..r.len() {
        out.push_str(if row == 0 { "[" } else { ", [" });
        for c in 0..r.columns.len() {
            let sep = if c == 0 { "" } else { ", " };
            // Writing into a String cannot fail.
            let _ = write!(out, "{sep}{:?}", r.get(row, c));
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Computes the sequential baseline for a workload: each query executed
/// once, in order, against the shared database directly (no wire).
pub fn baselines(db: &SharedDatabase, queries: &[&str]) -> Result<Vec<(String, String)>> {
    queries
        .iter()
        .map(|q| Ok((q.to_string(), canon(&db.execute(q)?))))
        .collect()
}

/// The harness verdict: latency distribution, throughput, and
/// correctness counters. `wrong == 0 && errors == 0` is the gate.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Client threads run.
    pub clients: usize,
    /// Queries issued per client.
    pub per_client: usize,
    /// Responses that did not match the sequential baseline.
    pub wrong: usize,
    /// Transport or server errors.
    pub errors: usize,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Median per-query round-trip latency.
    pub p50: Duration,
    /// 99th-percentile per-query round-trip latency.
    pub p99: Duration,
    /// Aggregate queries per second across all clients.
    pub qps: f64,
}

impl LoadReport {
    /// True when every response matched the baseline and nothing failed.
    pub fn clean(&self) -> bool {
        self.wrong == 0 && self.errors == 0
    }

    /// One-line human rendering (what `serve_load` prints per run).
    pub fn render(&self) -> String {
        format!(
            "{} clients x {} queries: {} total in {:.2?} | p50 {:.1?} p99 {:.1?} | {:.0} qps | wrong {} errors {}",
            self.clients,
            self.per_client,
            self.clients * self.per_client,
            self.elapsed,
            self.p50,
            self.p99,
            self.qps,
            self.wrong,
            self.errors,
        )
    }
}

/// Runs `clients` threads × `per_client` queries each against `addr`.
/// Every client cycles through the workload starting at a different
/// offset, so at any instant different queries are in flight. Each
/// response is compared byte-for-byte against its baseline.
pub fn run_load(
    addr: &str,
    clients: usize,
    per_client: usize,
    workload: &[(String, String)],
) -> Result<LoadReport> {
    if workload.is_empty() || clients == 0 || per_client == 0 {
        return Err(Error::Protocol("empty load configuration".into()));
    }
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|id| {
            let addr = addr.to_string();
            let workload = workload.to_vec();
            std::thread::spawn(move || -> (Vec<Duration>, usize, usize) {
                let mut lat = Vec::with_capacity(per_client);
                let (mut wrong, mut errors) = (0usize, 0usize);
                let mut client = match Client::connect(addr.as_str()) {
                    Ok(c) => c,
                    Err(_) => return (lat, wrong, per_client),
                };
                for i in 0..per_client {
                    let (sql, expected) = &workload[(i + id) % workload.len()];
                    let t0 = Instant::now();
                    match client.query(sql) {
                        Ok(rel) => {
                            lat.push(t0.elapsed());
                            if canon(&rel) != *expected {
                                wrong += 1;
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
                let _ = client.quit();
                (lat, wrong, errors)
            })
        })
        .collect();

    let mut lat: Vec<Duration> = Vec::with_capacity(clients * per_client);
    let (mut wrong, mut errors) = (0usize, 0usize);
    for t in threads {
        let (l, w, e) = t
            .join()
            .map_err(|_| Error::Protocol("a load client thread panicked".into()))?;
        lat.extend(l);
        wrong += w;
        errors += e;
    }
    let elapsed = started.elapsed();
    lat.sort_unstable();
    let pct = |p: usize| -> Duration {
        if lat.is_empty() {
            Duration::ZERO
        } else {
            lat[(lat.len() - 1) * p / 100]
        }
    };
    Ok(LoadReport {
        clients,
        per_client,
        wrong,
        errors,
        elapsed,
        p50: pct(50),
        p99: pct(99),
        qps: lat.len() as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etable_relational::relation::RelColumn;
    use etable_relational::value::{DataType, Value};

    #[test]
    fn canon_prints_the_rows_as_a_vec_of_rows_prints() {
        let cols = vec![
            RelColumn::qualified("t", "a", DataType::Text),
            RelColumn::bare("n", DataType::Float),
        ];
        let rows = vec![
            vec![Value::from("x"), Value::Null],
            vec![Value::Null, Value::Float(2.5)],
        ];
        for rows in [rows, Vec::new()] {
            let rel = Relation::from_rows(cols.clone(), rows.clone());
            let shape = "[\"t.a:Text\", \"n:Float\"]";
            assert_eq!(canon(&rel), format!("{shape}\n{rows:?}"));
        }
    }
}
