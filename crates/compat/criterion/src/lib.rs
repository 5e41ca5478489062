//! Offline stand-in for the subset of crates.io `criterion` 0.5 this
//! workspace uses. It genuinely measures wall-clock time (warm-up plus
//! sampled statistics), prints one line per benchmark, and — unlike real
//! criterion — writes a machine-readable summary so the perf trajectory can
//! be tracked across PRs. There is no HTML reporting or baseline
//! comparison. See `crates/compat/README.md` for the replacement policy.
//!
//! ## Statistics
//!
//! Each benchmark reports the **median**, **mean** and **standard
//! deviation** of its samples after simple IQR outlier rejection (samples
//! outside `[Q1 - 1.5·IQR, Q3 + 1.5·IQR]` are dropped and counted), plus
//! the raw minimum. The median/IQR combination makes the printed numbers
//! citable on a noisy machine; the rejected-outlier count shows when they
//! are not.
//!
//! ## Machine-readable results
//!
//! `criterion_main!` writes every recorded benchmark to a JSON file when
//! the process ends: `BENCH_results.json` in the working directory, or the
//! path in the `BENCH_RESULTS_PATH` environment variable. The file is a
//! JSON array of objects with `name`, `samples`, `outliers_rejected`, and
//! nanosecond-valued `median_ns`/`mean_ns`/`stddev_ns`/`min_ns`/`max_ns`.
//! Each bench target runs as its own process, so the writer **merges** into
//! an existing results file: entries whose name was re-recorded are
//! replaced, all others are kept — `cargo bench -p <pkg>` therefore
//! accumulates one cumulative file across all bench targets (delete the
//! file to drop entries for renamed/removed benchmarks).
//!
//! ## Baseline regression gate
//!
//! After writing results, `criterion_main!` compares the medians recorded
//! by *this process* against a committed baseline file
//! (`BENCH_baseline.json` in the working directory, overridable with
//! `BENCH_BASELINE_PATH`). When the baseline exists, a delta table is
//! printed and the process exits non-zero if any benchmark's median
//! regressed by more than `BENCH_REGRESSION_PCT` percent (default 25).
//! Benchmarks absent from the baseline pass with a `(new)` marker; a
//! missing baseline file disables the gate. Refresh the baseline by
//! copying a fresh results file over it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Prevents the compiler from optimising away a benchmarked value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifies one benchmark within a group, mirroring
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            name: name.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { name }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Calls `routine` repeatedly, recording one wall-clock sample per
    /// call after a single warm-up call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        std::hint::black_box(routine()); // warm-up, also defeats DCE
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

/// Summary statistics for one benchmark after IQR outlier rejection.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Samples kept after rejection.
    pub samples: usize,
    /// Samples dropped by the IQR fence.
    pub outliers_rejected: usize,
    /// Median of the kept samples, in nanoseconds.
    pub median_ns: f64,
    /// Mean of the kept samples, in nanoseconds.
    pub mean_ns: f64,
    /// Population standard deviation of the kept samples, in nanoseconds.
    pub stddev_ns: f64,
    /// Minimum over *all* samples (outliers only ever slow a benchmark
    /// down, so the raw minimum stays meaningful), in nanoseconds.
    pub min_ns: f64,
    /// Maximum over the kept samples, in nanoseconds.
    pub max_ns: f64,
}

/// Median of a sorted slice.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Type-7 (linear interpolation) quantile of a sorted slice, as used by
/// most statistics packages.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Computes [`Stats`] from raw samples: sorts, drops samples outside
/// `[Q1 - 1.5·IQR, Q3 + 1.5·IQR]`, then summarizes what is left.
pub fn compute_stats(samples: &[Duration]) -> Option<Stats> {
    if samples.is_empty() {
        return None;
    }
    let mut ns: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
    ns.sort_by(f64::total_cmp);
    let raw_min = ns[0];
    let q1 = quantile_sorted(&ns, 0.25);
    let q3 = quantile_sorted(&ns, 0.75);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let kept: Vec<f64> = ns.iter().copied().filter(|&x| x >= lo && x <= hi).collect();
    // The fences always contain the quartiles, so `kept` is never empty.
    let n = kept.len() as f64;
    let mean = kept.iter().sum::<f64>() / n;
    let var = kept.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Some(Stats {
        samples: kept.len(),
        outliers_rejected: ns.len() - kept.len(),
        median_ns: median_sorted(&kept),
        mean_ns: mean,
        stddev_ns: var.sqrt(),
        min_ns: raw_min,
        max_ns: *kept.last().expect("non-empty"),
    })
}

/// One recorded benchmark, kept for the JSON report.
#[derive(Debug, Clone)]
struct Record {
    name: String,
    stats: Stats,
}

static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn report(group: &str, id: &str, samples: &[Duration]) {
    let full = format!("{group}/{id}");
    let Some(stats) = compute_stats(samples) else {
        println!("{full:<48} (no samples)");
        return;
    };
    println!(
        "{full:<48} median {:>12}   mean {:>12} ± {:<12} min {:>12}   ({} samples{})",
        fmt_ns(stats.median_ns),
        fmt_ns(stats.mean_ns),
        fmt_ns(stats.stddev_ns),
        fmt_ns(stats.min_ns),
        stats.samples,
        if stats.outliers_rejected > 0 {
            format!(", {} outliers rejected", stats.outliers_rejected)
        } else {
            String::new()
        },
    );
    RECORDS
        .lock()
        .expect("bench records poisoned")
        .push(Record { name: full, stats });
}

fn record_object(r: &Record) -> String {
    let name = r
        .name
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace(|c: char| (c as u32) < 0x20, " ");
    format!(
        "{{\"name\": \"{name}\", \"samples\": {}, \"outliers_rejected\": {}, \
         \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"stddev_ns\": {:.1}, \
         \"min_ns\": {:.1}, \"max_ns\": {:.1}}}",
        r.stats.samples,
        r.stats.outliers_rejected,
        r.stats.median_ns,
        r.stats.mean_ns,
        r.stats.stddev_ns,
        r.stats.min_ns,
        r.stats.max_ns,
    )
}

/// Serializes every recorded benchmark as a JSON array (sorted by name).
pub fn results_json() -> String {
    let records = RECORDS.lock().expect("bench records poisoned").clone();
    let objects: Vec<(String, String)> = records
        .iter()
        .map(|r| (r.name.clone(), record_object(r)))
        .collect();
    render_array(objects)
}

fn render_array(mut objects: Vec<(String, String)>) -> String {
    objects.sort_by(|a, b| a.0.cmp(&b.0));
    objects.dedup_by(|a, b| a.0 == b.0);
    let mut out = String::from("[\n");
    for (i, (_, obj)) in objects.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(obj);
    }
    out.push_str("\n]\n");
    out
}

/// Splits a results/baseline file written by this shim into
/// `(name, raw object text)` pairs. Only the exact shape [`results_json`]
/// emits is supported (one object per line); unparseable lines are
/// skipped.
fn parse_objects(json: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let obj = line.trim().trim_end_matches(',');
        if !obj.starts_with('{') || !obj.ends_with('}') {
            continue;
        }
        if let Some(name) = extract_string(obj, "name") {
            out.push((name, obj.to_string()));
        }
    }
    out
}

fn extract_string(obj: &str, field: &str) -> Option<String> {
    let marker = format!("\"{field}\": \"");
    let start = obj.find(&marker)? + marker.len();
    let mut name = String::new();
    let mut chars = obj[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(name),
            '\\' => name.push(chars.next()?),
            other => name.push(other),
        }
    }
    None
}

fn extract_number(obj: &str, field: &str) -> Option<f64> {
    let marker = format!("\"{field}\": ");
    let start = obj.find(&marker)? + marker.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses `(name, median_ns)` pairs out of a results/baseline file written
/// by this shim.
pub fn parse_results(json: &str) -> Vec<(String, f64)> {
    parse_objects(json)
        .into_iter()
        .filter_map(|(name, obj)| extract_number(&obj, "median_ns").map(|m| (name, m)))
        .collect()
}

/// Writes the JSON report to `BENCH_RESULTS_PATH` (default
/// `BENCH_results.json`), **merging** with any existing file: entries this
/// process re-recorded are replaced, entries recorded by other bench
/// targets are kept. Called by `criterion_main!` after all groups run; a
/// write failure is reported but never fails the bench run.
pub fn write_results() {
    let path = std::env::var("BENCH_RESULTS_PATH").unwrap_or_else(|_| "BENCH_results.json".into());
    write_results_to(&path);
}

/// [`write_results`] with an explicit destination, so tests exercise the
/// write/merge logic without mutating the process environment (concurrent
/// setenv/getenv in a multi-threaded test binary is undefined behavior on
/// glibc).
pub fn write_results_to(path: &str) {
    let records = RECORDS.lock().expect("bench records poisoned").clone();
    if records.is_empty() {
        return;
    }
    let mut objects: Vec<(String, String)> = std::fs::read_to_string(path)
        .map(|old| parse_objects(&old))
        .unwrap_or_default();
    objects.retain(|(name, _)| !records.iter().any(|r| r.name == *name));
    objects.extend(records.iter().map(|r| (r.name.clone(), record_object(r))));
    match std::fs::write(path, render_array(objects)) {
        Ok(()) => println!("\nbench results written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// The outcome of comparing one run against a baseline.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Human-readable delta table, one line per compared benchmark.
    pub lines: Vec<String>,
    /// Names whose median regressed past the threshold.
    pub regressions: Vec<String>,
}

/// Compares current medians against baseline medians. A benchmark fails
/// when its median exceeds the baseline median by more than
/// `threshold_pct` percent; benchmarks missing from the baseline are
/// reported as `(new)` and always pass.
pub fn compare_to_baseline(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    threshold_pct: f64,
) -> GateOutcome {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (name, median) in current {
        match baseline.iter().find(|(b, _)| b == name) {
            Some((_, base)) if *base > 0.0 => {
                let delta_pct = (median - base) / base * 100.0;
                let verdict = if delta_pct > threshold_pct {
                    regressions.push(name.clone());
                    "FAIL"
                } else {
                    "ok"
                };
                lines.push(format!(
                    "{name:<48} baseline {:>12}   now {:>12}   {delta_pct:>+8.1}%  {verdict}",
                    fmt_ns(*base),
                    fmt_ns(*median),
                ));
            }
            _ => lines.push(format!(
                "{name:<48} baseline {:>12}   now {:>12}   (new)",
                "-",
                fmt_ns(*median),
            )),
        }
    }
    GateOutcome { lines, regressions }
}

/// Runs the baseline regression gate for the benchmarks recorded by this
/// process. Returns `true` when the gate passes (or no baseline file
/// exists). Called by `criterion_main!`; a `false` return makes the bench
/// process exit non-zero.
pub fn check_baseline() -> bool {
    let path =
        std::env::var("BENCH_BASELINE_PATH").unwrap_or_else(|_| "BENCH_baseline.json".into());
    let threshold: f64 = std::env::var("BENCH_REGRESSION_PCT")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(25.0);
    check_baseline_at(&path, threshold)
}

/// [`check_baseline`] with the baseline path and threshold passed
/// explicitly, so tests exercise the gate without mutating the process
/// environment.
pub fn check_baseline_at(path: &str, threshold: f64) -> bool {
    let Ok(contents) = std::fs::read_to_string(path) else {
        println!("no baseline at {path}; regression gate skipped");
        return true;
    };
    let baseline = parse_results(&contents);
    let current: Vec<(String, f64)> = RECORDS
        .lock()
        .expect("bench records poisoned")
        .iter()
        .map(|r| (r.name.clone(), r.stats.median_ns))
        .collect();
    if current.is_empty() {
        return true;
    }
    // A baseline that exists but yields no records is a broken file (e.g.
    // reformatted away from the one-object-per-line shape this shim
    // writes), not an opted-out gate — passing silently here would leave
    // the gate green forever.
    if baseline.is_empty() {
        eprintln!(
            "error: baseline at {path} exists but contains no parseable benchmark \
             records; regenerate it from a results file written by this shim, or \
             delete it to disable the gate"
        );
        return false;
    }
    let outcome = compare_to_baseline(&current, &baseline, threshold);
    println!("\nbaseline comparison ({path}, threshold +{threshold}%):");
    for line in &outcome.lines {
        println!("{line}");
    }
    if outcome.regressions.is_empty() {
        true
    } else {
        eprintln!(
            "error: {} benchmark(s) regressed past +{threshold}%: {}",
            outcome.regressions.len(),
            outcome.regressions.join(", ")
        );
        false
    }
}

/// A named collection of related benchmarks, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark records.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `routine` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        routine(&mut b);
        report(&self.name, &id.name, &b.samples);
        self
    }

    /// Benchmarks `routine` under `id`, passing it `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        routine(&mut b, input);
        report(&self.name, &id.name, &b.samples);
        self
    }

    /// Ends the group (kept for API parity; reporting is incremental).
    pub fn finish(&mut self) {}
}

/// The benchmark driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep sample counts modest: the shim runs benches inline (also
        // under `cargo test --benches` smoke runs), not in a tuned rig.
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            _criterion: self,
        }
    }
}

/// Declares a benchmark group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring `criterion::criterion_main!`.
/// After all groups run, the machine-readable results file is written
/// (see [`write_results`]) and the baseline regression gate runs (see
/// [`check_baseline`]); a regression past the threshold makes the process
/// exit non-zero, failing `cargo bench` in CI.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_results();
            if !$crate::check_baseline() {
                ::std::process::exit(1);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records one trivial benchmark named `shim/{id}`.
    fn record(id: &str) {
        let mut c = Criterion::default();
        c.benchmark_group("shim")
            .bench_function(id, |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn group_runs_and_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut calls = 0usize;
        group.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(
            BenchmarkId::new("translate", 300).to_string(),
            "translate/300"
        );
    }

    #[test]
    fn median_handles_odd_and_even() {
        let odd: Vec<Duration> = [10, 20, 30]
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect();
        assert_eq!(compute_stats(&odd).unwrap().median_ns, 20.0);
        let even: Vec<Duration> = [10, 20, 30, 40]
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect();
        assert_eq!(compute_stats(&even).unwrap().median_ns, 25.0);
    }

    #[test]
    fn stddev_of_constant_samples_is_zero() {
        let s: Vec<Duration> = std::iter::repeat_n(Duration::from_nanos(100), 8).collect();
        let stats = compute_stats(&s).unwrap();
        assert_eq!(stats.mean_ns, 100.0);
        assert_eq!(stats.stddev_ns, 0.0);
        assert_eq!(stats.outliers_rejected, 0);
    }

    #[test]
    fn iqr_rejects_a_gross_outlier() {
        // Nine tight samples and one 100x spike: the spike must be
        // rejected, leaving median/mean near the cluster.
        let mut ns: Vec<u64> = vec![100, 101, 99, 100, 102, 98, 100, 101, 99];
        ns.push(10_000);
        let s: Vec<Duration> = ns.iter().map(|&n| Duration::from_nanos(n)).collect();
        let stats = compute_stats(&s).unwrap();
        assert_eq!(stats.outliers_rejected, 1);
        assert_eq!(stats.samples, 9);
        assert!(stats.median_ns <= 102.0, "median {}", stats.median_ns);
        assert!(stats.mean_ns <= 102.0, "mean {}", stats.mean_ns);
        // The raw minimum is unaffected by rejection.
        assert_eq!(stats.min_ns, 98.0);
    }

    #[test]
    fn empty_samples_have_no_stats() {
        assert!(compute_stats(&[]).is_none());
    }

    #[test]
    fn results_json_is_well_formed() {
        record("json-shape-test");
        let json = results_json();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(
            json.contains("\"name\": \"shim/json-shape-test\""),
            "{json}"
        );
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"stddev_ns\""));
        assert!(json.contains("\"outliers_rejected\""));
    }

    #[test]
    fn parse_results_round_trips_writer_output() {
        record("parse-round-trip");
        let json = results_json();
        let parsed = parse_results(&json);
        let hit = parsed
            .iter()
            .find(|(n, _)| n == "shim/parse-round-trip")
            .expect("recorded benchmark parses back");
        assert!(hit.1 >= 0.0);
    }

    #[test]
    fn gate_flags_only_regressions_past_threshold() {
        let current = vec![
            ("a".to_string(), 130.0), // +30% -> fail at 25
            ("b".to_string(), 120.0), // +20% -> ok
            ("c".to_string(), 80.0),  // improvement -> ok
            ("d".to_string(), 50.0),  // not in baseline -> (new)
        ];
        let baseline = vec![
            ("a".to_string(), 100.0),
            ("b".to_string(), 100.0),
            ("c".to_string(), 100.0),
        ];
        let out = compare_to_baseline(&current, &baseline, 25.0);
        assert_eq!(out.regressions, vec!["a".to_string()]);
        assert_eq!(out.lines.len(), 4);
        assert!(out.lines[3].contains("(new)"), "{}", out.lines[3]);
        // A looser threshold passes everything.
        assert!(compare_to_baseline(&current, &baseline, 35.0)
            .regressions
            .is_empty());
    }

    // These tests go through the path-parameterized entry points
    // (`write_results_to` / `check_baseline_at`), never `std::env::set_var`:
    // the test binary is multi-threaded and concurrent setenv/getenv is
    // undefined behavior on glibc. The thin env-reading wrappers stay
    // untested here and are exercised by every real bench run.

    #[test]
    fn gate_fails_on_present_but_unparseable_baseline() {
        let dir = std::env::temp_dir().join(format!("criterion-badbase-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_baseline.json");
        // Pretty-printed (multi-line objects): valid JSON, but not the
        // one-object-per-line shape the shim parses — must fail loudly,
        // not silently disable the gate.
        std::fs::write(
            &path,
            "[\n  {\n    \"name\": \"pretty/case\",\n    \"median_ns\": 1.0\n  }\n]\n",
        )
        .unwrap();
        record("bad-baseline-guard");
        let ok = check_baseline_at(path.to_str().unwrap(), 25.0);
        assert!(!ok, "unreadable baseline must fail the gate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_results_merges_with_existing_file() {
        let dir = std::env::temp_dir().join(format!("criterion-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        // Simulate another bench target's results already on disk.
        std::fs::write(
            &path,
            "[\n  {\"name\": \"other-bench/case\", \"samples\": 3, \"outliers_rejected\": 0, \
             \"median_ns\": 42.0, \"mean_ns\": 42.0, \"stddev_ns\": 0.0, \
             \"min_ns\": 42.0, \"max_ns\": 42.0}\n]\n",
        )
        .unwrap();
        record("merge-keeps-others");
        write_results_to(path.to_str().unwrap());
        let merged = std::fs::read_to_string(&path).unwrap();
        assert!(merged.contains("other-bench/case"), "{merged}");
        assert!(merged.contains("merge-keeps-others"), "{merged}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_results_to_explicit_path() {
        let dir = std::env::temp_dir().join(format!("criterion-shim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        record("write-results-test");
        write_results_to(path.to_str().unwrap());
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("write-results-test"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
