//! # etable-benchmark
//!
//! The end-to-end benchmark of the ETable reproduction. Four workloads
//! at paper scale (38 000 papers), each run in a process of its own:
//!
//! | workload | what runs |
//! |---|---|
//! | `browse_tasks` | the six Table 2 scripts over four parameter sets, each on a fresh `Session` — the cold path |
//! | `browse_revisit` | laps of sort / hide / revert over one long-lived `Session` — the cached path |
//! | `wire_read` | two connections cycling a 16-statement read mix against an in-process server |
//! | `wire_mixed` | one such reader beside one connection that inserts, updates and deletes a row |
//!
//! Every layer is measured from outside, through its public functions;
//! nothing in the program is instrumented. `README.md` is the glossary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod browse;
mod report;
mod setup;
mod stats;
mod trace;
mod wire;
mod workload;

pub use report::Report;
use stats::{median, percentile_or_supported, tail_mean, tail_mean_or_supported};
use std::path::PathBuf;
use std::time::Instant;
use workload::Pools;

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 4] = ["browse_tasks", "browse_revisit", "wire_read", "wire_mixed"];

/// Paper scale (§7.1).
pub const PAPERS: usize = 38_000;

/// Scale of `--smoke` runs.
pub const SMOKE_PAPERS: usize = 300;

/// Client connections of the wire workloads; never more than `nproc` of
/// the two-core machine the bounds were measured on.
pub const CONNECTIONS: usize = 2;

/// The end-to-end tail metric is the mean latency beyond this
/// percentile. A 20 s run of `browse_tasks` measures ~300 actions, which
/// support p96 by the ten-samples-beyond rule; p99 would need 1001.
pub const TAIL: u32 = 95;

/// How long a phase measures: for a time, or for a number of passes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    /// Whole passes are run until this many seconds have gone by.
    pub seconds: f64,
    /// When set, exactly this many passes are run instead.
    pub passes: Option<usize>,
}

impl Budget {
    /// True when a phase that began at `started` and has completed
    /// `passes_done` passes should stop.
    pub fn spent(&self, started: Instant, passes_done: usize) -> bool {
        match self.passes {
            Some(n) => passes_done >= n,
            None => started.elapsed().as_secs_f64() >= self.seconds,
        }
    }

    fn one_pass() -> Budget {
        Budget {
            seconds: 0.0,
            passes: Some(1),
        }
    }

    /// The traced run times its first quarter untraced, as the reference
    /// `trace.overhead_pct` compares against.
    fn split(self) -> (Budget, Budget) {
        let part = |share: f64| Budget {
            seconds: self.seconds * share,
            ..self
        };
        (part(0.25), part(0.75))
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Papers in the generated database.
    pub papers: usize,
    /// One pass per phase, whatever `seconds` says.
    pub smoke: bool,
    /// Where snapshots and trace files go.
    pub out: PathBuf,
    /// Commit the checkout is at, for the record.
    pub commit: String,
}

/// The `ETABLE_*` variables set in this process's environment that would
/// change what is measured. The benchmark measures the defaults a user
/// gets; `ETABLE_SNAPSHOT_DIR` only names a directory, and the harness
/// uses its own in any case.
pub fn forbidden_env(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut knobs: Vec<String> = vars
        .filter(|k| k.starts_with("ETABLE_") && k != "ETABLE_SNAPSHOT_DIR")
        .collect();
    knobs.sort();
    knobs
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// Operations counted while a phase runs.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Operations begun.
    pub attempted: u64,
    /// Of those: failed, refused, or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }

    /// The warm-up pass is not measured, but it must be right.
    fn clean_warm_up(&self) -> Result<(), String> {
        if self.failed == 0 {
            Ok(())
        } else {
            Err(format!("warm-up pass failed: {}", self.failures.join("; ")))
        }
    }
}

/// What a workload's measured phase comes down to.
struct Summary {
    /// Per pass: the sum of its operations' latencies, ms.
    pass_ms: Vec<f64>,
    /// Per operation: its latency, ms.
    op_ms: Vec<f64>,
    /// Wall time of the phase, harness work included, seconds.
    wall_s: f64,
    tally: Tally,
}

/// `enforce`: the run's result line carries these numbers, so the tail
/// must have its ten samples beyond it (not so on traced or smoke runs).
fn end_to_end(r: &mut Report, s: Summary, enforce: bool) -> Result<(), String> {
    let tail = if enforce {
        tail_mean(&s.op_ms, TAIL)?
    } else {
        tail_mean_or_supported(&s.op_ms, TAIL).ok_or("no operation was measured")?
    };
    r.set(
        "pass_ms_p50",
        median(&s.pass_ms).ok_or("no pass was measured")?,
    );
    r.set("op_ms_tail5pct", tail);
    r.set("ops_per_s", s.op_ms.len() as f64 / s.wall_s);
    r.note(format!(
        "samples: {} passes, {} operations in {:.2} s; highest supported percentile p{} = {:.3} ms",
        s.pass_ms.len(),
        s.op_ms.len(),
        s.wall_s,
        stats::highest_supported(s.op_ms.len()).unwrap_or(0),
        percentile_or_supported(&s.op_ms, 99).unwrap_or(0.0),
    ));
    let shown: Vec<String> = s
        .pass_ms
        .iter()
        .take(12)
        .map(|p| format!("{p:.1}"))
        .collect();
    r.note(format!("first passes, ms: {}", shown.join(" ")));
    r.attempted = s.tally.attempted;
    r.failed = s.tally.failed;
    for f in &s.tally.failures {
        r.note(format!("FAILED: {f}"));
    }
    Ok(())
}

/// Traced against untraced median pass time, as a percentage.
fn overhead_pct(reference: &[f64], traced: &[f64]) -> f64 {
    match (median(reference), median(traced)) {
        (Some(a), Some(b)) if a > 0.0 => (b - a) / a * 100.0,
        _ => 0.0,
    }
}

/// Runs one workload once and returns what it measured.
pub fn run(opts: &Options) -> Result<Report, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (one of {})",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    let cfg = etable_datagen::GenConfig::medium()
        .try_with_papers(opts.papers)
        .map_err(|e| format!("--papers: {e}"))?;
    let snapshots = opts.out.join("snapshots");
    setup::prepare(&cfg, &snapshots)?;
    let on_wire = opts.workload.starts_with("wire_");
    let (dep, times) = setup::run(&cfg, &snapshots, if on_wire { CONNECTIONS } else { 0 })?;
    let pools = Pools::read(&dep.db)?;

    let mut r = Report::default();
    let pool_threads = etable_relational::exec::pool::global().threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.note(format!(
        "workload {} seed {} papers {} seconds {} trace {} commit {} nproc {nproc} exec.pool_threads {pool_threads}",
        opts.workload, opts.seed, opts.papers, opts.seconds, opts.trace as u8, opts.commit
    ));
    r.note(format!("samples: {} set-ups", setup::REPEATS));
    r.set("setup_s", times.setup_s);
    r.set("datagen.load_s", times.load_s);
    r.set("tgm.translate_s", times.translate_s);
    r.set("server.start_ms", times.server_start_s * 1e3);
    r.set("tgm.nodes", dep.tgdb.instances.node_count() as f64);
    r.set("tgm.edges", dep.tgdb.instances.edge_count() as f64);
    r.set("exec.pool_threads", pool_threads as f64);

    let budget = Budget {
        seconds: opts.seconds,
        passes: opts.smoke.then_some(1),
    };
    let (summary, trace) = if on_wire {
        wire::run(&mut r, dep, &pools, opts, budget)?
    } else {
        browse::run(&mut r, &dep, &pools, opts, budget)?
    };
    end_to_end(&mut r, summary, !opts.smoke && !opts.trace)?;
    r.set("peak_rss_mb", peak_rss_mb()?);
    if let Some(tr) = &trace {
        let path = opts.out.join(format!("trace-{}.jsonl", opts.workload));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        r.note(format!(
            "trace: {} spans in {}",
            tr.spans.len(),
            path.display()
        ));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_snapshot_directory_knob_is_tolerated() {
        let env = [
            "PATH",
            "ETABLE_SCALE",
            "ETABLE_SNAPSHOT_DIR",
            "ETABLE_MEM_BUDGET",
        ];
        assert_eq!(
            forbidden_env(env.iter().map(|s| s.to_string())),
            ["ETABLE_MEM_BUDGET", "ETABLE_SCALE"]
        );
    }

    #[test]
    fn a_pass_budget_ignores_the_clock() {
        let started = Instant::now();
        assert!(!Budget::one_pass().spent(started, 0));
        assert!(Budget::one_pass().spent(started, 1));
        let timed = Budget {
            seconds: 3600.0,
            passes: None,
        };
        assert!(!timed.spent(started, 1000));
        let (first, rest) = timed.split();
        assert_eq!((first.seconds, rest.seconds), (900.0, 2700.0));
    }
}
