//! Multi-core scan evidence (non-gating): prints the host's available
//! parallelism and times representative scans and join probes at pool
//! size 1 versus larger pools, so CI logs on multi-core runners show the
//! morsel-driven path actually winning — the 1-CPU dev container can only
//! ever show the inline fallback. The grouped queries ride along as the
//! control: grouping itself is sequential (DESIGN.md, "Vectorized
//! grouping"), so `grouped_sum` must read the same at every pool size and
//! `filter_group` can only win what its scan wins.
//!
//! Pool sizes are swept in-process via `exec::pool::with_pool`, never by
//! mutating the environment: the global pool reads `ETABLE_SCAN_THREADS`
//! only once, and `set_var` is a data race under threads anyway.
//!
//! This binary is informational by design: it always exits 0, and nothing
//! parses its output. Regression gating is the bench suite's job
//! (`BENCH_baseline.json` + CI's same-runner A/B); this exists because
//! those gates run wherever they run, while the parallel-win evidence is
//! only visible on hosts with >1 core.

use etable_datagen::{generate, GenConfig};
use etable_relational::exec::pool::{with_pool, Pool, PoolConfig};
use etable_relational::sql::executor::execute_query;
use etable_relational::sql::{parse_statement, Statement};
use std::time::Instant;

/// Median wall time of `runs` executions of `sql`, in microseconds.
fn median_us(db: &etable_relational::database::Database, sql: &str, runs: usize) -> f64 {
    let q = match parse_statement(sql).expect("evidence SQL parses") {
        Statement::Select(q) => q,
        other => panic!("evidence SQL must be a SELECT, got {other:?}"),
    };
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let n = execute_query(db, &q)
                .expect("evidence query executes")
                .len();
            let us = start.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(n);
            us
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism = {cores}");
    let db = generate(&GenConfig::medium());
    let queries = [
        (
            "like_scan",
            "SELECT id FROM Papers WHERE title LIKE '%data%'",
        ),
        (
            "filter_group",
            "SELECT year, COUNT(*) AS n FROM Papers WHERE year >= 2005 GROUP BY year",
        ),
        (
            "grouped_sum",
            "SELECT year, SUM(id) AS s, COUNT(*) AS n FROM Papers GROUP BY year",
        ),
        (
            "join_probe",
            "SELECT pa.paper_id FROM Papers p, Paper_Authors pa WHERE p.id = pa.paper_id",
        ),
        (
            "filtered_join",
            "SELECT p.title, a.name FROM Papers p, Paper_Authors pa, Authors a \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.year >= 2005",
        ),
    ];
    // Pool 1 first, then pools up to the host's cores. Each sweep installs
    // its pool for this thread only via the TLS override stack.
    let pools: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&p| p == 1 || p <= cores)
        .collect();
    println!("{:<14} {}", "query", {
        let mut h = String::new();
        for p in &pools {
            h.push_str(&format!("{:>14}", format!("pool={p} (µs)")));
        }
        h
    });
    for (name, sql) in queries {
        let mut line = format!("{name:<14}");
        for &p in &pools {
            let pool = Pool::new(PoolConfig::fixed(p));
            line.push_str(&with_pool(&pool, || {
                format!("{:>14.0}", median_us(&db, sql, 15))
            }));
        }
        println!("{line}");
    }
    println!("(informational only; pool-size deltas are expected to be ~0 on 1-core hosts)");
}
