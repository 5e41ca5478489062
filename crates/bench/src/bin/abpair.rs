//! `abpair` — the end-to-end benchmark on a parent revision and on the
//! working tree, in alternating pairs:
//!
//! ```text
//! cargo run --release -p etable-bench --bin abpair -- --parent REV \
//!     [--pairs N] [--workload W]... [--seed S]... [--workdir DIR]
//! ```
//!
//! `REV` is checked out into a temporary `git worktree` (under `--workdir`,
//! by default the system temporary directory), which is removed when the
//! runs are done. Each tree runs its own `benchmark/run.sh --workload W
//! --seed S --seconds T`, `T` being `BENCHMARK.json`'s `run_seconds`.
//! Within each pair the two runs go in a random order; the order's seed is
//! printed and recorded. Every run is bracketed by a host
//! fingerprint: CPU model, `nproc`, load average, and the nanoseconds of a
//! fixed calibration loop before and after. A pair whose calibration moved
//! by more than the tightest bound of `BENCHMARK.json` is flagged; each
//! verdict is printed over all pairs and over the unflagged ones.
//!
//! For every workload, seed and end-to-end metric it prints both medians,
//! both interquartile ranges, the pairs the change won and the verdicts
//! (rule in `etable_bench::abpair`), and appends one JSON line to
//! `BENCH_history.jsonl` at the repository root. A claimed gain is a
//! `gain` verdict; the exit status is 1 when any verdict is a `loss` or
//! any operation failed. Defaults: every workload of `BENCHMARK.json`,
//! seed 42, 10 pairs.

#![forbid(unsafe_code)]

use etable_bench::abpair::{drifted, json_str, judge, parent_first, RunResult, Spec, Verdict};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

struct Args {
    parent: String,
    pairs: usize,
    workloads: Vec<String>,
    seeds: Vec<u64>,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        parent: String::new(),
        pairs: 10,
        workloads: Vec::new(),
        seeds: Vec::new(),
        workdir: std::env::temp_dir(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--parent" => args.parent = value()?,
            "--pairs" => args.pairs = number(value()?)? as usize,
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.seeds.push(number(value()?)?),
            "--workdir" => args.workdir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.parent.is_empty() {
        return Err("--parent REV is required".into());
    }
    if args.seeds.is_empty() {
        args.seeds.push(42);
    }
    Ok(args)
}

/// Runs `cmd`, returning its stdout, or an error with its stderr's tail.
fn output(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        return Err(format!("{cmd:?} failed: {}", tail.join(" / ")));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The host a run saw.
struct Host {
    cpu: String,
    nproc: usize,
    load: String,
}

fn host() -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = (cpuinfo.lines())
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Host {
        cpu,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        load: load
            .split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// Nanoseconds of a fixed integer loop, the fastest of five: the host's
/// speed right now, with one-off preemptions filtered out.
fn calibrate() -> f64 {
    let once = || {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box((x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ i);
        }
        std::hint::black_box(x);
        start.elapsed().as_nanos() as f64
    };
    (0..5).map(|_| once()).fold(f64::INFINITY, f64::min)
}

/// One run of one tree's benchmark, with the calibration around it.
struct Run {
    result: RunResult,
    calibration: [f64; 2],
    load: String,
}

fn run(tree: &Path, workload: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let before = calibrate();
    let load = host().load;
    // A run with failed operations exits non-zero but still ends with its
    // result line, which counts them.
    let out = Command::new("bash")
        .arg(tree.join("benchmark/run.sh"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .current_dir(tree)
        .output()
        .map_err(|e| format!("run.sh in {}: {e}", tree.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = (stdout.lines().last())
        .map(RunResult::parse)
        .and_then(Result::ok)
        .ok_or_else(|| {
            let err = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = err.lines().rev().take(5).collect();
            format!(
                "run.sh in {} reported no result: {}",
                tree.display(),
                tail.join(" / ")
            )
        })?;
    Ok(Run {
        result,
        calibration: [before, calibrate()],
        load,
    })
}

/// A worktree of the parent revision, removed when dropped.
struct Worktree {
    repo: PathBuf,
    path: PathBuf,
}

impl Worktree {
    fn add(repo: &Path, rev: &str, under: &Path) -> Result<Worktree, String> {
        let path = under.join(format!("abpair-{}", std::process::id()));
        let path_text = path.to_string_lossy().into_owned();
        output(
            Command::new("git")
                .arg("-C")
                .arg(repo)
                .args(["worktree", "add", "--detach", &path_text, rev]),
        )?;
        Ok(Worktree {
            repo: repo.to_path_buf(),
            path,
        })
    }
}

impl Drop for Worktree {
    fn drop(&mut self) {
        let path = self.path.to_string_lossy().into_owned();
        let removed = Command::new("git")
            .arg("-C")
            .arg(&self.repo)
            .args(["worktree", "remove", "--force", &path])
            .status();
        if !removed.is_ok_and(|s| s.success()) {
            eprintln!("abpair: could not remove the worktree at {path}");
        }
    }
}

/// The samples of one workload and seed.
struct Cell {
    workload: String,
    seed: u64,
    /// Per pair: (parent, change) results and whether the pair drifted.
    pairs: Vec<(RunResult, RunResult, bool)>,
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("abpair: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let root =
        PathBuf::from(output(Command::new("git").args(["rev-parse", "--show-toplevel"]))?.trim());
    let spec = Spec::parse(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?,
    )?;
    let workloads = if args.workloads.is_empty() {
        spec.workloads.clone()
    } else {
        args.workloads.clone()
    };
    let rev = |r: &str| {
        output(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "--short", r]),
        )
    };
    let dirty = !output(
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["status", "--porcelain"]),
    )?
    .is_empty();
    let parent_rev = rev(&args.parent)?.trim().to_string();
    let change_rev = format!(
        "{}{}",
        rev("HEAD")?.trim(),
        if dirty { "-dirty" } else { "" }
    );
    let machine = host();
    let order_seed = (std::time::SystemTime::now())
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    eprintln!(
        "abpair: parent {parent_rev} vs working tree at {change_rev}; {} x {} nproc; order seed {order_seed}",
        machine.cpu, machine.nproc
    );

    let worktree = Worktree::add(&root, &args.parent, &args.workdir)?;
    let trees = [worktree.path.clone(), root.clone()];
    for tree in &trees {
        // Builds outside any timed run; each tree keeps its own target.
        output(
            Command::new("cargo")
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "--locked",
                    "--quiet",
                    "--manifest-path",
                ])
                .arg(tree.join("benchmark/Cargo.toml"))
                .env("CARGO_TARGET_DIR", tree.join("benchmark/target")),
        )?;
    }

    let (mut cells, mut hosts) = (Vec::new(), Vec::new());
    let mut order =
        parent_first(order_seed, args.pairs * workloads.len() * args.seeds.len()).into_iter();
    for workload in &workloads {
        for &seed in &args.seeds {
            let mut cell = Cell {
                workload: workload.clone(),
                seed,
                pairs: Vec::new(),
            };
            for pair in 0..args.pairs {
                let first_parent = order.next().unwrap_or(true);
                let sides = if first_parent { [0, 1] } else { [1, 0] };
                let mut got: [Option<Run>; 2] = [None, None];
                for side in sides {
                    got[side] = Some(run(&trees[side], workload, seed, spec.run_seconds)?);
                }
                let [Some(p), Some(c)] = got else {
                    return Err("a run did not report".into());
                };
                let calibration = [p.calibration, c.calibration].concat();
                let flagged = drifted(&calibration, spec.tightest_bound());
                let first = if first_parent { "parent" } else { "change" };
                let ms: Vec<String> = calibration
                    .iter()
                    .map(|ns| format!("{:.1}", ns / 1e6))
                    .collect();
                eprintln!(
                    "{workload} seed {seed} pair {}: {first} first; load {} / {}; calibration ms [{}]{}",
                    pair + 1,
                    p.load,
                    c.load,
                    ms.join(", "),
                    if flagged { " (flagged)" } else { "" }
                );
                hosts.push(format!(
                    "{{\"workload\": {}, \"seed\": {seed}, \"pair\": {}, \"first\": \"{first}\", \
                     \"load\": [{}, {}], \"calibration_ms\": [{}], \"flagged\": {flagged}}}",
                    json_str(workload),
                    pair + 1,
                    json_str(&p.load),
                    json_str(&c.load),
                    ms.join(", "),
                ));
                cell.pairs.push((p.result, c.result, flagged));
            }
            cells.push(cell);
        }
    }
    drop(worktree);

    let (text, json, ok) = report(&spec, &cells);
    print!("{text}");
    let history = root.join("BENCH_history.jsonl");
    let line = format!(
        "{{\"parent\": {}, \"change\": {}, \"pairs\": {}, \"seconds\": {}, \"order_seed\": {}, \
         \"host\": {{\"cpu\": {}, \"nproc\": {}}}, \"results\": [{}], \"runs\": [{}]}}\n",
        json_str(&parent_rev),
        json_str(&change_rev),
        args.pairs,
        spec.run_seconds,
        order_seed,
        json_str(&machine.cpu),
        machine.nproc,
        json.join(", "),
        hosts.join(", ")
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .map_err(|e| format!("{}: {e}", history.display()))?;
    std::io::Write::write_all(&mut file, line.as_bytes()).map_err(|e| e.to_string())?;
    eprintln!("abpair: appended to {}", history.display());
    if !ok {
        std::process::exit(1);
    }
    Ok(())
}

/// The table, one JSON object per row for the history line, and whether
/// no verdict is a loss and no operation failed.
fn report(spec: &Spec, cells: &[Cell]) -> (String, Vec<String>, bool) {
    let mut text = String::new();
    let mut json = Vec::new();
    let mut ok = true;
    let _ = writeln!(
        text,
        "{:15} {:>4} {:15} {:>11} {:>9} {:>11} {:>9} {:>6} {:>10} unflagged",
        "workload", "seed", "metric", "parent p50", "IQR", "change p50", "IQR", "wins", "verdict",
    );
    for cell in cells {
        let failed: [u64; 2] = [
            cell.pairs
                .iter()
                .map(|p| p.0.failed + u64::from(!p.0.correct))
                .sum(),
            cell.pairs
                .iter()
                .map(|p| p.1.failed + u64::from(!p.1.correct))
                .sum(),
        ];
        ok &= failed == [0, 0];
        for metric in &spec.metrics {
            let value = |r: &RunResult| r.metrics.get(&metric.name).copied();
            let samples = |keep: &dyn Fn(bool) -> bool| -> Vec<(f64, f64)> {
                (cell.pairs.iter())
                    .filter(|p| keep(p.2))
                    .filter_map(|(p, c, _)| Some((value(p)?, value(c)?)))
                    .collect()
            };
            let all = judge(metric, &samples(&|_| true));
            let unflagged = judge(metric, &samples(&|flagged| !flagged));
            ok &= all.verdict != Verdict::Loss;
            let _ = writeln!(
                text,
                "{:15} {:>4} {:15} {:>11.4} {:>9.4} {:>11.4} {:>9.4} {:>3}/{:<2} {:>10} {} ({})",
                cell.workload,
                cell.seed,
                metric.name,
                all.parent.0,
                all.parent.1,
                all.change.0,
                all.change.1,
                all.wins.0,
                all.wins.1,
                all.verdict.to_string(),
                unflagged.verdict,
                unflagged.wins.1,
            );
            json.push(format!(
                "{{\"workload\": {}, \"seed\": {}, \"metric\": {}, \"parent_p50\": {}, \"parent_iqr\": {}, \
                 \"change_p50\": {}, \"change_iqr\": {}, \"wins\": {}, \"pairs\": {}, \"verdict\": \"{}\", \
                 \"unflagged_verdict\": \"{}\", \"unflagged_pairs\": {}}}",
                json_str(&cell.workload),
                cell.seed,
                json_str(&metric.name),
                finite(all.parent.0),
                finite(all.parent.1),
                finite(all.change.0),
                finite(all.change.1),
                all.wins.0,
                all.wins.1,
                all.verdict,
                unflagged.verdict,
                unflagged.wins.1,
            ));
        }
        let _ = writeln!(
            text,
            "{:15} {:>4} failed operations: parent {}, change {}",
            cell.workload, cell.seed, failed[0], failed[1]
        );
    }
    (text, json, ok)
}

/// A number as JSON (`null` when not finite).
fn finite(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".into()
    }
}
