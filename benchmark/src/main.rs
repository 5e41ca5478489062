//! Command line of the benchmark: one workload, one run, one result line.
//!
//! ```text
//! etable-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--papers N] [--out DIR] [--commit ID]
//! etable-benchmark --smoke [--out DIR]
//! ```

use etable_benchmark::{forbidden_env, run, Options, PAPERS, SMOKE_PAPERS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: etable-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--papers N] [--out DIR] [--commit ID] | --smoke [--out DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Prints one run: provenance, every metric by name with its unit, and
/// last the result line. False when the run was not correct.
fn print(opts: &Options) -> Result<bool, String> {
    let report = run(opts)?;
    let line = report.json(opts.trace)?;
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in report.metrics(opts.trace)? {
        println!("{:<14} {name:<32} {value:>14.4} {unit}", opts.workload);
    }
    println!("{line}");
    Ok(report.correct())
}

fn main() -> ExitCode {
    let knobs = forbidden_env(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !knobs.is_empty() {
        eprintln!(
            "error: {} set; the benchmark measures the defaults a user gets — unset and rerun",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }

    let mut opts = Options {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        papers: PAPERS,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        commit: "unknown".into(),
    };
    let mut papers_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| opts.seconds = v)
                .is_ok_and(|()| opts.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    opts.trace = true;
                    true
                }
                _ => false,
            },
            "--papers" => {
                papers_given = true;
                value.parse().map(|v| opts.papers = v).is_ok()
            }
            "--out" => {
                opts.out = PathBuf::from(&value);
                true
            }
            "--commit" => {
                opts.commit = value.clone();
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value `{value}` for {flag}"));
        }
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }

    // `--smoke`: every workload, untraced then traced, small and short.
    let runs: Vec<Options> = if opts.smoke {
        if !papers_given {
            opts.papers = SMOKE_PAPERS;
        }
        WORKLOADS
            .iter()
            .flat_map(|w| [false, true].map(|trace| (w, trace)))
            .map(|(w, trace)| Options {
                workload: w.to_string(),
                trace,
                ..opts.clone()
            })
            .collect()
    } else if opts.workload.is_empty() {
        return usage("--workload is required");
    } else {
        vec![opts]
    };

    let mut correct = true;
    for opts in &runs {
        match print(opts) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("error: {}: {e}", opts.workload);
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: operations failed or answered wrongly; see the FAILED lines");
        ExitCode::from(1)
    }
}
