//! Grace hash-join spilling: disk partitioning for joins whose build side
//! exceeds the memory budget ([`crate::exec::budget`]).
//!
//! When [`crate::colrel`]'s budget check trips, both join inputs are
//! hash-partitioned into [`FANOUT`] spill files under a per-join temp
//! directory, then joined partition by partition through the exact same
//! in-memory build/probe kernel as an unspilled join. An oversized
//! partition is first re-partitioned recursively with a depth-salted hash;
//! past [`MAX_DEPTH`] levels — where re-partitioning can no longer split
//! it (e.g. one all-duplicate key) — it joins resident over budget, so the
//! bound degrades to holding that partition, never to an error.
//!
//! Fan-out × depth stays 16 × 4 rather than being scaled to the input:
//! a level costs one sequential pass over the records of the partitions
//! that still miss the budget, and only those go deeper, so a record is
//! written at most `1 + MAX_DEPTH` times and a spill costs at most five
//! passes over its input at any budget. At a realistic budget a partition
//! still over it after the last level holds (nearly) one key, which no
//! further level can split. Beyond those passes the constants cost files:
//! up to 2 × 16 per re-partitioned partition, created lazily for
//! non-empty partitions only — most of the wall time of a degenerate
//! budget below one hash entry, which sends every non-empty partition
//! down all levels.
//!
//! Results are **byte-identical** to the in-memory join at every budget
//! and fan-out: equal keys always share a partition, each
//! partition preserves input row order, and the concatenated per-partition
//! pairs are stably re-sorted by probe position — exactly the probe-major,
//! chain-minor (descending build position) sequence the resident kernel
//! emits.
//!
//! Spill files reuse the checksummed segment codec ([`super::codec`]):
//! an 8-byte magic, then length-prefixed CRC32-verified segments of
//! `(probe-or-build position, key)` records. Any truncation, bit flip or
//! bad magic surfaces as a typed [`Error::Storage`] naming the file —
//! never a panic. The per-join directory is removed when the join
//! finishes (RAII, panic-safe); record counts ride in memory, not on
//! disk, so a reader never trusts an unverified length beyond the
//! per-segment plausibility check.

use super::codec::{read_segment, write_segment, PayloadReader, PayloadWriter};
use crate::exec::budget;
use crate::exec::hash::KeyHasher;
use crate::intern::Sym;
use crate::value::Value;
use crate::{Error, Result};
use std::fs::{self, File};
use std::hash::{Hash, Hasher};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Partitions per level. 16 divides a build side that just missed the
/// budget comfortably below it in one level while keeping the number of
/// open spill files (2 sides × fan-out) small.
pub const FANOUT: usize = 16;

/// Maximum re-partitioning depth below the first partitioning. 16^5
/// leaves already split any realistic skew; a partition still over budget
/// here (an all-duplicate key, or a budget smaller than one hash entry)
/// joins on the resident kernel rather than erroring.
pub const MAX_DEPTH: u32 = 4;

/// Flush threshold for buffered spill segments: bounds both the writer's
/// resident batch and the reader's per-segment allocation.
const FLUSH_BYTES: usize = 32 * 1024;

/// Spill-file magic: identifies the transient join-spill format (not the
/// durable table format, which has its own magic and version).
const MAGIC: &[u8; 8] = b"ETSPILL1";

/// A key type that can ride through a spill file. Equality and hashing
/// must agree (equal keys must land in the same partition), and the
/// encoding must round-trip within the process.
pub trait SpillKey: Hash + Eq + Clone {
    /// Resident bytes per key, for the budget estimate
    /// ([`budget::join_build_estimate`]).
    const KEY_BYTES: usize;

    /// Appends this key to a spill segment.
    fn encode(&self, w: &mut PayloadWriter);

    /// Reads one key back; `ctx` names the file for error messages.
    fn decode(r: &mut PayloadReader<'_>, ctx: &str) -> Result<Self>;
}

impl SpillKey for i64 {
    const KEY_BYTES: usize = 8;

    fn encode(&self, w: &mut PayloadWriter) {
        w.i64(*self);
    }

    fn decode(r: &mut PayloadReader<'_>, _ctx: &str) -> Result<i64> {
        r.i64("spill key")
    }
}

impl SpillKey for u32 {
    const KEY_BYTES: usize = 4;

    fn encode(&self, w: &mut PayloadWriter) {
        w.u32(*self);
    }

    fn decode(r: &mut PayloadReader<'_>, _ctx: &str) -> Result<u32> {
        r.u32("spill key")
    }
}

impl SpillKey for Value {
    const KEY_BYTES: usize = 16;

    fn encode(&self, w: &mut PayloadWriter) {
        match self {
            Value::Null => w.u8(0),
            Value::Int(i) => {
                w.u8(1);
                w.i64(*i);
            }
            Value::Float(f) => {
                w.u8(2);
                w.f64(*f);
            }
            // Text spills as the string, not the symbol id: re-interning
            // on decode yields the same symbol in-process and keeps the
            // format meaningful even across processes.
            Value::Text(s) => {
                w.u8(3);
                w.str(s.as_str());
            }
            Value::Bool(b) => {
                w.u8(4);
                w.u8(u8::from(*b));
            }
        }
    }

    fn decode(r: &mut PayloadReader<'_>, ctx: &str) -> Result<Value> {
        Ok(match r.u8("spill key tag")? {
            0 => Value::Null,
            1 => Value::Int(r.i64("spill key")?),
            2 => Value::Float(r.f64("spill key")?),
            3 => Value::Text(Sym::intern(&r.str("spill key")?)),
            4 => Value::Bool(r.u8("spill key")? != 0),
            tag => {
                return Err(Error::Storage(format!(
                    "{ctx}: unknown spill key tag {tag}"
                )))
            }
        })
    }
}

/// Which of the [`FANOUT`] partitions `key` lands in at `depth`. The
/// depth salt is folded into the hash state *before* the key, so each
/// recursion level re-distributes a parent partition independently.
fn partition_of<K: Hash>(key: &K, depth: u32) -> usize {
    let mut h = KeyHasher::default();
    h.write_u64(0x5157_11A7_511A_11EDu64 ^ u64::from(depth).wrapping_mul(0x9E37_79B9_97F4_A7C5));
    key.hash(&mut h);
    (h.finish() % FANOUT as u64) as usize
}

/// Monotonic per-process counter naming per-join spill directories.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Default root for spill directories: `$TMPDIR/etable-spill`.
fn default_root() -> PathBuf {
    std::env::temp_dir().join("etable-spill")
}

fn io_err(path: &Path, what: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{}: {what}: {e}", path.display()))
}

/// A per-join spill directory, removed (best-effort, panic-safe) when the
/// join finishes.
struct SpillDir {
    path: PathBuf,
    /// Names spill files uniquely across recursion levels.
    file_seq: AtomicU64,
}

impl SpillDir {
    fn create_in(root: &Path) -> Result<SpillDir> {
        let path = root.join(format!(
            "{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, AtomicOrdering::Relaxed)
        ));
        // Another join's drop may remove the root, empty at that moment,
        // between `create_dir_all` making it and making `path` inside it:
        // that is a NotFound, and making both again succeeds.
        let mut attempts = 0;
        while let Err(e) = fs::create_dir_all(&path) {
            attempts += 1;
            if e.kind() != std::io::ErrorKind::NotFound || attempts == 8 {
                return Err(io_err(&path, "cannot create spill dir", e));
            }
        }
        Ok(SpillDir {
            path,
            file_seq: AtomicU64::new(0),
        })
    }

    fn next_file(&self) -> PathBuf {
        self.path.join(format!(
            "s{}.spill",
            self.file_seq.fetch_add(1, AtomicOrdering::Relaxed)
        ))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Leave no empty root behind; fails (and is ignored) while other
        // joins still have live spill dirs.
        if let Some(root) = self.path.parent() {
            let _ = fs::remove_dir(root);
        }
    }
}

/// Buffered writer for one partition's spill file. The file is created
/// lazily on the first record, so empty partitions cost nothing.
struct PartWriter {
    path: PathBuf,
    file: Option<BufWriter<File>>,
    batch: PayloadWriter,
    count: u64,
}

impl PartWriter {
    fn new(path: PathBuf) -> PartWriter {
        PartWriter {
            path,
            file: None,
            batch: PayloadWriter::new(),
            count: 0,
        }
    }

    fn push<K: SpillKey>(&mut self, pos: u32, key: &K) -> Result<()> {
        self.batch.u32(pos);
        key.encode(&mut self.batch);
        self.count += 1;
        if self.batch.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let payload = std::mem::take(&mut self.batch).into_bytes();
        let file = match self.file.as_mut() {
            Some(f) => f,
            None => {
                let f = File::create(&self.path)
                    .map_err(|e| io_err(&self.path, "cannot create spill file", e))?;
                let mut w = BufWriter::new(f);
                w.write_all(MAGIC)
                    .map_err(|e| io_err(&self.path, "spill write failed", e))?;
                self.file.insert(w)
            }
        };
        let mut segment = Vec::with_capacity(payload.len() + 12);
        write_segment(&mut segment, &payload);
        file.write_all(&segment)
            .map_err(|e| io_err(&self.path, "spill write failed", e))
    }

    /// Flushes and closes; returns the file (with its record count) or
    /// `None` for an empty partition.
    fn finish(mut self) -> Result<Option<PartFile>> {
        self.flush()?;
        match self.file.take() {
            None => Ok(None),
            Some(mut f) => {
                f.flush()
                    .map_err(|e| io_err(&self.path, "spill flush failed", e))?;
                Ok(Some(PartFile {
                    path: self.path,
                    count: self.count,
                }))
            }
        }
    }
}

/// One written (non-empty) partition file and its record count.
struct PartFile {
    path: PathBuf,
    count: u64,
}

/// Streams a spill file segment by segment, handing each decoded record
/// batch to `f`. Verifies the magic and every segment CRC; any mismatch
/// is a typed [`Error::Storage`] naming the file.
fn for_each_segment<K: SpillKey>(
    path: &Path,
    mut f: impl FnMut(Vec<(u32, K)>) -> Result<()>,
) -> Result<()> {
    let total = fs::metadata(path)
        .map_err(|e| io_err(path, "cannot stat spill file", e))?
        .len();
    let mut file = File::open(path).map_err(|e| io_err(path, "cannot open spill file", e))?;
    let ctx = path.display().to_string();
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)
        .map_err(|e| io_err(path, "truncated spill header", e))?;
    if &magic != MAGIC {
        return Err(Error::Storage(format!("{ctx}: bad spill magic")));
    }
    let mut left = total.saturating_sub(MAGIC.len() as u64);
    while let Some(payload) = read_segment(&mut file, &mut left, &ctx)? {
        let mut r = PayloadReader::new(&payload, &ctx);
        let mut records = Vec::new();
        while r.remaining() > 0 {
            let pos = r.u32("spill record position")?;
            let key = K::decode(&mut r, &ctx)?;
            records.push((pos, key));
        }
        f(records)?;
    }
    Ok(())
}

/// Reads a whole partition file into memory, to join it resident.
fn read_records<K: SpillKey>(part: &PartFile) -> Result<Vec<(u32, K)>> {
    let mut out = Vec::with_capacity(usize::try_from(part.count).unwrap_or(0));
    for_each_segment(&part.path, |batch| {
        out.extend(batch);
        Ok(())
    })?;
    Ok(out)
}

/// Partitions one side: scans `0..n`, skipping `None` (NULL) keys, and
/// scatters `(position, key)` records across [`FANOUT`] spill files.
fn partition_side<K: SpillKey>(
    dir: &SpillDir,
    n: usize,
    key_of: impl Fn(usize) -> Option<K>,
    depth: u32,
) -> Result<Vec<Option<PartFile>>> {
    let mut writers: Vec<PartWriter> = (0..FANOUT)
        .map(|_| PartWriter::new(dir.next_file()))
        .collect();
    for i in 0..n {
        if let Some(k) = key_of(i) {
            writers[partition_of(&k, depth)].push(i as u32, &k)?;
        }
    }
    writers.into_iter().map(PartWriter::finish).collect()
}

/// Re-partitions an on-disk partition one level deeper, streaming segment
/// by segment (bounded memory), then drops the parent file.
fn repartition<K: SpillKey>(
    dir: &SpillDir,
    parent: PartFile,
    depth: u32,
) -> Result<Vec<Option<PartFile>>> {
    let mut writers: Vec<PartWriter> = (0..FANOUT)
        .map(|_| PartWriter::new(dir.next_file()))
        .collect();
    for_each_segment::<K>(&parent.path, |batch| {
        for (pos, k) in batch {
            writers[partition_of(&k, depth)].push(pos, &k)?;
        }
        Ok(())
    })?;
    let _ = fs::remove_file(&parent.path);
    writers.into_iter().map(PartWriter::finish).collect()
}

/// Joins one partition pair, appending `(build, probe)` position pairs to
/// `out`. An oversized partition recurses; one that fits the budget, or
/// is still oversized at the depth bound, runs the resident kernel.
fn join_partition<K: SpillKey>(
    dir: &SpillDir,
    bpart: Option<PartFile>,
    ppart: Option<PartFile>,
    depth: u32,
    limit: u64,
    out: &mut Vec<(u32, u32)>,
) -> Result<()> {
    let (Some(bp), Some(pp)) = (bpart, ppart) else {
        // An empty side means no matches; drop whichever file exists.
        return Ok(());
    };
    let build_n = usize::try_from(bp.count).unwrap_or(usize::MAX);
    if budget::join_build_estimate(build_n, K::KEY_BYTES) > limit && depth <= MAX_DEPTH {
        let children_b = repartition::<K>(dir, bp, depth)?;
        let children_p = repartition::<K>(dir, pp, depth)?;
        for (cb, cp) in children_b.into_iter().zip(children_p) {
            join_partition::<K>(dir, cb, cp, depth + 1, limit, out)?;
        }
        return Ok(());
    }
    let brecs = read_records::<K>(&bp)?;
    let precs = read_records::<K>(&pp)?;
    let _ = fs::remove_file(&bp.path);
    let _ = fs::remove_file(&pp.path);
    // The exact resident kernel over partition-local indices; records are
    // in original row order, so local chain order maps to the same
    // descending-position chain order the unspilled join emits.
    let (lb, lp) = crate::exec::join::join_positions_resident(
        brecs.len(),
        |i| Some(brecs[i].1.clone()),
        precs.len(),
        |i| Some(precs[i].1.clone()),
    );
    out.extend(
        lb.into_iter()
            .zip(lp)
            .map(|(b, p)| (brecs[b as usize].0, precs[p as usize].0)),
    );
    Ok(())
}

thread_local! {
    /// Grace joins run on this thread.
    static GRACE_JOINS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many Grace joins this thread has run: how a test proves that a
/// join under a memory budget really spilled.
pub fn grace_joins_on_this_thread() -> u64 {
    GRACE_JOINS.with(std::cell::Cell::get)
}

/// The Grace hash join: both sides partitioned to disk under `limit`
/// bytes of build-side budget, joined partition by partition, pairs
/// re-sorted into the resident kernel's probe-major order. The returned
/// vectors are byte-identical to
/// [`join_positions_resident`](crate::exec::join::join_positions_resident)
/// on the same inputs.
pub(crate) fn grace_join<K, B, P>(
    limit: u64,
    build_n: usize,
    build_key: B,
    probe_n: usize,
    probe_key: P,
) -> Result<(Vec<u32>, Vec<u32>)>
where
    K: SpillKey,
    B: Fn(usize) -> Option<K>,
    P: Fn(usize) -> Option<K>,
{
    GRACE_JOINS.with(|n| n.set(n.get() + 1));
    grace_join_in(
        &default_root(),
        limit,
        build_n,
        build_key,
        probe_n,
        probe_key,
    )
}

/// [`grace_join`] with an explicit spill root (tests use a scratch root
/// so cleanup can be asserted without cross-test interference).
fn grace_join_in<K, B, P>(
    root: &Path,
    limit: u64,
    build_n: usize,
    build_key: B,
    probe_n: usize,
    probe_key: P,
) -> Result<(Vec<u32>, Vec<u32>)>
where
    K: SpillKey,
    B: Fn(usize) -> Option<K>,
    P: Fn(usize) -> Option<K>,
{
    let dir = SpillDir::create_in(root)?;
    let bparts = partition_side(&dir, build_n, build_key, 0)?;
    let pparts = partition_side(&dir, probe_n, probe_key, 0)?;
    let mut pairs = Vec::new();
    for (bp, pp) in bparts.into_iter().zip(pparts) {
        join_partition::<K>(&dir, bp, pp, 1, limit, &mut pairs)?;
    }
    // Equal keys share a partition, so every pair for one probe row sits
    // in exactly one partition, already in chain order; a stable sort by
    // probe position therefore reconstructs the resident kernel's exact
    // emission sequence.
    pairs.sort_by_key(|&(_, p)| p);
    Ok(pairs.into_iter().unzip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::join::join_positions_resident;

    static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_root() -> PathBuf {
        std::env::temp_dir().join(format!(
            "etable-spill-test-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, AtomicOrdering::Relaxed)
        ))
    }

    fn write_part<K: SpillKey>(dir: &SpillDir, records: &[(u32, K)]) -> PartFile {
        let mut w = PartWriter::new(dir.next_file());
        for (pos, key) in records {
            w.push(*pos, key).unwrap();
        }
        w.finish().unwrap().expect("nonempty")
    }

    #[test]
    fn records_round_trip_through_spill_files() {
        let root = scratch_root();
        let dir = SpillDir::create_in(&root).unwrap();
        let vals = vec![
            (0u32, Value::Int(i64::MIN)),
            (1, Value::Float(-0.0)),
            (2, Value::Float(9_223_372_036_854_775_808.0)),
            (3, Value::text("spill-round-trip")),
            (4, Value::Bool(true)),
            (5, Value::Null),
        ];
        let part = write_part(&dir, &vals);
        assert_eq!(part.count, vals.len() as u64);
        let back: Vec<(u32, Value)> = read_records(&part).unwrap();
        assert_eq!(back.len(), vals.len());
        for ((pa, va), (pb, vb)) in vals.iter().zip(&back) {
            assert_eq!(pa, pb);
            // Compare through total order incl. float bits via Display to
            // keep -0.0 distinguishable from 0.0 in the assertion.
            assert_eq!(va.to_string(), vb.to_string());
        }
        drop(dir);
        assert!(!root.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn corrupted_spill_segment_is_a_typed_storage_error() {
        let root = scratch_root();
        let dir = SpillDir::create_in(&root).unwrap();
        let records: Vec<(u32, i64)> = (0..100).map(|i| (i, i as i64 * 3)).collect();
        let part = write_part(&dir, &records);
        // Flip one payload byte past the magic + segment length header.
        let mut bytes = fs::read(&part.path).unwrap();
        bytes[20] ^= 0x40;
        fs::write(&part.path, &bytes).unwrap();
        let err = read_records::<i64>(&part).unwrap_err();
        let Error::Storage(msg) = &err else {
            panic!("wrong error kind: {err:?}");
        };
        assert!(msg.contains("checksum mismatch"), "{msg}");
        assert!(msg.contains("s0.spill"), "{msg}");
    }

    #[test]
    fn truncated_spill_file_is_a_typed_storage_error() {
        let root = scratch_root();
        let dir = SpillDir::create_in(&root).unwrap();
        let records: Vec<(u32, i64)> = (0..50).map(|i| (i, 7)).collect();
        let part = write_part(&dir, &records);
        let bytes = fs::read(&part.path).unwrap();
        fs::write(&part.path, &bytes[..bytes.len() - 3]).unwrap();
        let err = read_records::<i64>(&part).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
    }

    /// Builds the (build, probe) key tables used by the equivalence tests:
    /// duplicate-heavy, NULL-sprinkled, with boundary values in the pool.
    fn keys(n: usize, salt: i64) -> Vec<Option<i64>> {
        (0..n)
            .map(|i| {
                let x = (i as i64).wrapping_mul(2654435761).wrapping_add(salt);
                match x % 7 {
                    0 => None,
                    1 => Some(i64::MAX),
                    2 => Some(i64::MIN),
                    _ => Some(x % 13),
                }
            })
            .collect()
    }

    #[test]
    fn grace_join_is_byte_identical_to_resident_at_every_budget() {
        let build = keys(700, 1);
        let probe = keys(900, 2);
        let expected =
            join_positions_resident(build.len(), |i| build[i], probe.len(), |i| probe[i]);
        // Budget 1 forces recursion to the bound (nothing ever fits) and
        // joins over budget there; larger budgets stop at level 1.
        for budget_bytes in [1u64, 64, 600, 4096] {
            let root = scratch_root();
            let got = grace_join_in(
                &root,
                budget_bytes,
                build.len(),
                |i| build[i],
                probe.len(),
                |i| probe[i],
            )
            .unwrap();
            assert_eq!(
                got, expected,
                "budget {budget_bytes}: spilled join diverged"
            );
            assert!(!root.exists(), "spill scratch not cleaned up");
        }
    }

    #[test]
    fn all_duplicate_keys_join_resident_at_the_depth_bound_and_agree() {
        // One key everywhere: no re-partitioning level can split it, so a
        // tiny budget rides recursion to MAX_DEPTH, where the partition
        // joins on the resident kernel over budget (never an error).
        let n = 300;
        let expected = join_positions_resident(n, |_| Some(42i64), n, |_| Some(42i64));
        let root = scratch_root();
        let got = grace_join_in(&root, 1, n, |_| Some(42i64), n, |_| Some(42i64)).unwrap();
        assert_eq!(got, expected);
        assert!(!root.exists());
    }

    #[test]
    fn value_keys_spill_and_agree_including_boundary_floats() {
        let build: Vec<Option<Value>> = vec![
            Some(Value::Int(i64::MAX)),
            Some(Value::Int(i64::MAX - 1)),
            Some(Value::Int(i64::MIN)),
            Some(Value::Float(9_223_372_036_854_775_808.0)),
            Some(Value::Float(-0.0)),
            Some(Value::Int(0)),
            None,
            Some(Value::text("spill-k")),
        ];
        let probe: Vec<Option<Value>> = vec![
            Some(Value::Float(9_223_372_036_854_775_808.0)),
            Some(Value::Int(i64::MAX)),
            Some(Value::Float(0.0)),
            Some(Value::Float(-9_223_372_036_854_775_808.0)),
            Some(Value::text("spill-k")),
            None,
        ];
        let expected =
            join_positions_resident(build.len(), |i| build[i], probe.len(), |i| probe[i]);
        let root = scratch_root();
        let got = grace_join_in(
            &root,
            1,
            build.len(),
            |i| build[i],
            probe.len(),
            |i| probe[i],
        )
        .unwrap();
        assert_eq!(got, expected);
        // Sanity on the semantics themselves: probe 0 (the 2^63 float)
        // matches only build 3 (the same float) — in particular not
        // Int(i64::MAX) or Int(i64::MAX - 1), which the old widening
        // comparison conflated with it; Float(0.0) matches both -0.0 and
        // Int(0).
        let matches: Vec<(u32, u32)> = got.0.iter().copied().zip(got.1.iter().copied()).collect();
        assert!(matches.contains(&(5, 2)) && matches.contains(&(4, 2)));
        assert!(matches.iter().all(|&(b, p)| p != 0 || b == 3));
        assert!(matches.contains(&(3, 0)));
        assert!(matches.contains(&(0, 1)), "Int(i64::MAX) = Int(i64::MAX)");
        assert!(matches.contains(&(2, 3)), "Int(i64::MIN) = Float(-2^63)");
        assert!(!root.exists());
    }

    #[test]
    fn empty_sides_spill_cleanly() {
        let root = scratch_root();
        let got = grace_join_in::<i64, _, _>(&root, 1, 0, |_| None, 5, |_| Some(1)).unwrap();
        assert_eq!(got, (Vec::new(), Vec::new()));
        assert!(!root.exists());
    }
}
