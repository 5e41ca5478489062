//! Keeps the harness itself from rotting: `--smoke` runs all four
//! workloads, untraced and traced, at 300 papers with one pass each,
//! through the real binary.

use std::process::Command;

#[test]
fn smoke_runs_every_workload_untraced_and_traced() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let run = Command::new(env!("CARGO_BIN_EXE_etable-benchmark"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .env_remove("ETABLE_SCALE")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stdout}\n{stderr}");

    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 8, "{stdout}");
    for (i, line) in results.iter().enumerate() {
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0"), "{line}");
        // Untraced runs carry the end-to-end metrics, traced the layers'.
        assert_eq!(line.contains("\"pass_ms_p50\""), i % 2 == 0, "{line}");
        assert_eq!(line.contains("\"trace.ops\""), i % 2 == 1, "{line}");
    }
    // The predictions the workloads exist for, at any scale: the warm
    // path never matches, the cold path does; wire never enters etable.
    let layer = |line: &str, name: &str| -> f64 {
        let key = format!("\"{name}\": {{\"value\": ");
        let rest = &line[line.find(&key).expect(name) + key.len()..];
        rest[..rest.find(',').unwrap()].parse().unwrap()
    };
    assert!(layer(results[1], "matching.calls") > 0.0);
    assert_eq!(layer(results[3], "matching.calls"), 0.0);
    assert!(layer(results[3], "cache.hit_ratio") >= 0.95);
    assert_eq!(layer(results[5], "transform.ms_per_op"), 0.0);
    assert_eq!(layer(results[5], "shared.write_ms_per_op"), 0.0);
    assert!(layer(results[7], "shared.write_ms_per_op") > 0.0);
    for workload in etable_benchmark::WORKLOADS {
        assert!(out.join(format!("trace-{workload}.jsonl")).exists());
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn refuses_to_run_with_an_etable_knob_set() {
    let run = Command::new(env!("CARGO_BIN_EXE_etable-benchmark"))
        .args(["--smoke"])
        .env("ETABLE_SCAN_THREADS", "1")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("ETABLE_SCAN_THREADS"));
    assert!(run.stdout.is_empty());
}
