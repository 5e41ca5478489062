//! The figure binaries must print byte-identical text across changes of
//! representation: `golden/fig{2,5,7,9}.txt` were captured from the
//! binaries at the default (medium) scale before the enriched table's
//! rows moved behind its accessors, so pivot, see-all, the instance-graph
//! excerpt and the history view are all pinned. Only stdout is compared;
//! stderr carries the datagen snapshot hit/miss line.

use std::process::Command;

/// Runs a figure binary with its own snapshot cache under the temp dir
/// and returns its stdout.
fn run(name: &str, bin: &str) -> String {
    let snapshots =
        std::env::temp_dir().join(format!("etable-figures-{name}-{}", std::process::id()));
    let out = Command::new(bin)
        .env("ETABLE_SNAPSHOT_DIR", &snapshots)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let _ = std::fs::remove_dir_all(&snapshots);
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure output is UTF-8")
}

#[test]
fn figure2_is_byte_identical() {
    let got = run("fig2", env!("CARGO_BIN_EXE_fig2"));
    assert_eq!(got, include_str!("golden/fig2.txt"));
}

#[test]
fn figure5_is_byte_identical() {
    let got = run("fig5", env!("CARGO_BIN_EXE_fig5"));
    assert_eq!(got, include_str!("golden/fig5.txt"));
}

#[test]
fn figure7_is_byte_identical() {
    let got = run("fig7", env!("CARGO_BIN_EXE_fig7"));
    assert_eq!(got, include_str!("golden/fig7.txt"));
}

#[test]
fn figure9_is_byte_identical() {
    let got = run("fig9", env!("CARGO_BIN_EXE_fig9"));
    assert_eq!(got, include_str!("golden/fig9.txt"));
}
