//! Content-addressed snapshot cache for generated databases.
//!
//! Generation is deterministic in `(GenConfig, rand stream, generator
//! logic)`, and the binary table format ([`etable_relational::storage`])
//! is deterministic in the database — so a generated corpus can be saved
//! once under a key derived from those inputs and every later cold start
//! (CLI, benches, tests) can open the snapshot instead of re-running the
//! generator.
//!
//! The key hashes **every** [`GenConfig`] field, the on-disk
//! [`FORMAT_VERSION`], [`GENERATOR_REV`], and — the part that cannot be
//! read off any API — the identity of the rand shim, probed from its
//! actual output stream ([`rng_stream_id`]). Swapping SplitMix64 for a
//! future ChaCha12-backed `StdRng` changes the probe, so a stale snapshot
//! can never be served for a generator that would now produce different
//! data.
//!
//! Cache root resolution: `ETABLE_SNAPSHOT_DIR` names the root; otherwise
//! snapshots live under the system temp directory (`etable-snapshots/`);
//! a caller that wants no cache calls [`generate`]. Every hit
//! or miss prints one line to stderr so harnesses can assert cache
//! behavior. Publication is atomic (write to a process-private directory,
//! then `rename`), so concurrent cold starts race safely; a corrupt
//! snapshot is removed and regenerated, never trusted.

use crate::generator::{generate, GenConfig, GENERATOR_REV};
use etable_relational::database::Database;
use etable_relational::storage::{FORMAT_VERSION, MANIFEST_FILE};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

/// Fingerprints the rand shim by hashing the first words of a
/// fixed-seeded stream. Two builds agree on this value iff their
/// `StdRng` produces the same stream — the property snapshot reuse
/// actually depends on — so the key survives a shim swap (SplitMix64 to
/// ChaCha12, see `crates/compat/README.md`) without either generator
/// needing to declare an identity string.
pub fn rng_stream_id() -> u64 {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE_F00D_D1CE);
    let mut h = FNV_OFFSET;
    for _ in 0..4 {
        h = fnv1a_u64(h, rng.next_u64());
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The content-address of `cfg`'s generated corpus: a directory name
/// embedding the human-legible scale (`p<papers>-s<seed>-`) and a hash of
/// every generation input (all config fields, format version, generator
/// revision, rand-shim stream identity).
pub fn snapshot_key(cfg: &GenConfig) -> String {
    let mut h = FNV_OFFSET;
    for v in [
        cfg.seed,
        cfg.papers as u64,
        cfg.authors as u64,
        cfg.years.0 as u64,
        cfg.years.1 as u64,
        cfg.mean_authors.to_bits(),
        cfg.mean_keywords.to_bits(),
        cfg.mean_refs.to_bits(),
        FORMAT_VERSION as u64,
        GENERATOR_REV as u64,
        rng_stream_id(),
    ] {
        h = fnv1a_u64(h, v);
    }
    format!("p{}-s{}-{h:016x}", cfg.papers, cfg.seed)
}

/// The cache root: `ETABLE_SNAPSHOT_DIR`, or `etable-snapshots/` under the
/// system temp directory.
fn snapshot_root() -> PathBuf {
    match std::env::var_os("ETABLE_SNAPSHOT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join("etable-snapshots"),
    }
}

/// Like [`generate`], but backed by the snapshot cache: a prior save of
/// the same key is opened instead of re-running the generator; a miss
/// generates, publishes the snapshot atomically, and returns the fresh
/// database. Cache failures are never fatal — worst case this degrades to
/// plain generation.
pub fn load_or_generate(cfg: &GenConfig) -> Database {
    load_or_generate_in(cfg, &snapshot_root())
}

/// Best-effort reclamation of orphaned `.tmp-*` publication directories:
/// a crash between `save` and `rename` leaves a `.tmp-<key>-<pid>`
/// directory that no key ever matches, and nothing else would ever delete
/// it. A tmp dir is stale — and removed — when its owning process is dead
/// (the pid parsed from the name no longer exists under `/proc`) or, where
/// liveness cannot be probed, when it has not been touched for an hour
/// (no publication takes anywhere near that long). Live publications from
/// concurrent processes are never touched; neither is anything that does
/// not carry the `.tmp-` prefix. All failures are swallowed: sweeping is
/// an opportunistic cleanup, never a correctness dependency.
fn sweep_stale_tmp_dirs(root: &Path) {
    const STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(3600);
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(".tmp-") {
            continue;
        }
        let stale = match name.rsplit('-').next().and_then(|p| p.parse::<u32>().ok()) {
            Some(pid) if pid == std::process::id() => false,
            Some(pid) if Path::new("/proc").is_dir() => {
                !Path::new("/proc").join(pid.to_string()).exists()
            }
            _ => entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > STALE_AFTER),
        };
        if stale {
            let _ = fs::remove_dir_all(entry.path());
            eprintln!(
                "datagen snapshot: reclaimed orphaned {}",
                entry.path().display()
            );
        }
    }
}

/// [`load_or_generate`] against an explicit cache root (tests and
/// harnesses that must not touch the process environment).
pub fn load_or_generate_in(cfg: &GenConfig, root: &Path) -> Database {
    sweep_stale_tmp_dirs(root);
    let key = snapshot_key(cfg);
    let dir = root.join(&key);
    if dir.join(MANIFEST_FILE).exists() {
        match Database::open(&dir) {
            Ok(db) => {
                eprintln!("datagen snapshot hit: {}", dir.display());
                return db;
            }
            Err(e) => {
                // Partial write from a crashed process, or on-disk rot:
                // drop it and fall through to regeneration.
                eprintln!("datagen snapshot corrupt ({e}); regenerating");
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
    let db = generate(cfg);
    // Publish atomically: save into a process-private directory, then
    // rename. A concurrent cold start either wins the rename or finds the
    // winner's snapshot; a crash leaves only a .tmp- directory that no
    // key ever matches.
    let tmp = root.join(format!(".tmp-{key}-{}", std::process::id()));
    if let Err(e) = db.save(&tmp) {
        eprintln!("datagen snapshot save failed ({e}); continuing uncached");
        let _ = fs::remove_dir_all(&tmp);
        return db;
    }
    match fs::rename(&tmp, &dir) {
        Ok(()) => eprintln!("datagen snapshot miss: saved {}", dir.display()),
        Err(_) if dir.join(MANIFEST_FILE).exists() => {
            // Lost the race; the published snapshot is equivalent.
            let _ = fs::remove_dir_all(&tmp);
            eprintln!("datagen snapshot miss: raced, kept {}", dir.display());
        }
        Err(e) => {
            let _ = fs::remove_dir_all(&tmp);
            eprintln!("datagen snapshot publish failed ({e}); continuing uncached");
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_deterministic_and_scale_sensitive() {
        let small = GenConfig::small();
        assert_eq!(snapshot_key(&small), snapshot_key(&small));
        assert_ne!(snapshot_key(&small), snapshot_key(&GenConfig::medium()));
        let mut reseeded = GenConfig::small();
        reseeded.seed += 1;
        assert_ne!(snapshot_key(&small), snapshot_key(&reseeded));
        assert!(snapshot_key(&small).starts_with("p300-s42-"));
    }

    #[test]
    fn key_depends_on_every_mean_field() {
        let base = GenConfig::small();
        for bump in 0..3 {
            let mut cfg = GenConfig::small();
            match bump {
                0 => cfg.mean_authors += 0.5,
                1 => cfg.mean_keywords += 0.5,
                _ => cfg.mean_refs += 0.5,
            }
            assert_ne!(snapshot_key(&base), snapshot_key(&cfg), "field {bump}");
        }
    }

    #[test]
    fn rng_stream_id_is_stable_within_a_build() {
        assert_eq!(rng_stream_id(), rng_stream_id());
    }

    #[test]
    fn miss_then_hit_round_trips_the_corpus() {
        let root = std::env::temp_dir().join(format!(
            "etable-snapshot-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&root);
        let cfg = GenConfig::small();
        let generated = load_or_generate_in(&cfg, &root);
        let reopened = load_or_generate_in(&cfg, &root);
        assert_eq!(generated.table_names(), reopened.table_names());
        for name in generated.table_names() {
            let a = generated.table(name).unwrap();
            let b = reopened.table(name).unwrap();
            assert_eq!(a.schema(), b.schema(), "{name}");
            assert_eq!(a.to_rows(), b.to_rows(), "{name}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Regression: a crash between `save` and `rename` used to leave its
    /// `.tmp-<key>-<pid>` directory behind forever. The sweep must
    /// reclaim an orphan whose owner is dead, keep a tmp dir owned by a
    /// live process (here: our own pid), and leave the published
    /// snapshot untouched.
    #[test]
    fn orphaned_tmp_dirs_are_reclaimed_without_disturbing_snapshots() {
        let root = std::env::temp_dir().join(format!(
            "etable-snapshot-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&root);
        let cfg = GenConfig::small();
        let generated = load_or_generate_in(&cfg, &root);
        let key = snapshot_key(&cfg);
        // A dead owner: pid u32::MAX is far above any real pid_max.
        let orphan = root.join(format!(".tmp-{key}-{}", u32::MAX));
        fs::create_dir_all(&orphan).unwrap();
        fs::write(orphan.join("t0.etb"), b"partial garbage").unwrap();
        // A live owner (this process) must survive the sweep.
        let live = root.join(format!(".tmp-{key}-{}", std::process::id()));
        fs::create_dir_all(&live).unwrap();
        // Non-tmp entries are never candidates, whatever their name.
        let bystander = root.join("not-a-tmp-dir");
        fs::create_dir_all(&bystander).unwrap();
        let reloaded = load_or_generate_in(&cfg, &root);
        assert!(!orphan.exists(), "dead-pid orphan not reclaimed");
        assert!(live.exists(), "live publication dir must not be touched");
        assert!(bystander.exists(), "non-tmp dir must not be touched");
        assert!(
            root.join(&key).join(MANIFEST_FILE).exists(),
            "published snapshot was disturbed"
        );
        assert_eq!(generated.total_rows(), reloaded.total_rows());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_snapshot_is_dropped_and_regenerated() {
        let root = std::env::temp_dir().join(format!(
            "etable-snapshot-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&root);
        let cfg = GenConfig::small();
        let generated = load_or_generate_in(&cfg, &root);
        let dir = root.join(snapshot_key(&cfg));
        // Truncate one table file; the next load must fall back cleanly.
        let victim = dir.join("t0.etb");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let recovered = load_or_generate_in(&cfg, &root);
        assert_eq!(generated.total_rows(), recovered.total_rows());
        let _ = fs::remove_dir_all(&root);
    }
}
