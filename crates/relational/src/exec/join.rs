//! The join kernel: equal keys of two columns as paired positions. Hash
//! joins ([`crate::colrel::ColRelation::hash_join`]), foreign-key matching
//! ([`crate::database::Database::fk_pairs`]) and the Grace spill path
//! ([`crate::storage::spill`]) all pair keys here.

use crate::exec::budget;
use crate::exec::hash::KeyHashBuilder;
use crate::storage::spill::{self, SpillKey};
use crate::table::{ColumnData, ColumnStore};
use crate::Result;
use std::collections::HashMap;

/// The (build-position, probe-position) pairs of equal non-NULL keys of
/// two columns, each read at the rows of its selection (`None`: at every
/// row), in [`join_positions`]'s order. The one place a key column is
/// keyed, for joins and foreign keys ([`crate::database::Database::fk_pairs`])
/// alike: `INT` = `INT` by the `i64` words, `TEXT` = `TEXT` by the interned
/// symbol ids (equal strings hold equal ids), anything else by [`crate::value::Value`],
/// whose equality is [`crate::value::Value::total_cmp`]'s (`Int(2)` finds `Float(2.0)`,
/// `-0.0` finds `0.0`, a NaN finds itself).
pub(crate) fn key_pairs(
    build: &ColumnStore,
    build_rows: Option<&[u32]>,
    probe: &ColumnStore,
    probe_rows: Option<&[u32]>,
) -> Result<(Vec<u32>, Vec<u32>)> {
    let len = |c: &ColumnStore, rows: Option<&[u32]>| rows.map_or(c.len(), <[u32]>::len);
    let (bn, pn) = (len(build, build_rows), len(probe, probe_rows));
    // Position -> the row it reads, unless that row's key is NULL.
    let at = |c: &ColumnStore, rows: Option<&[u32]>, i: usize| {
        Some(rows.map_or(i, |s| s[i] as usize)).filter(|&r| !c.is_null(r))
    };
    let (b, p) = (|i| at(build, build_rows, i), |i| at(probe, probe_rows, i));
    match (build.data(), probe.data()) {
        (ColumnData::Int(bv), ColumnData::Int(pv)) => {
            join_positions(bn, |i| b(i).map(|r| bv[r]), pn, |i| p(i).map(|r| pv[r]))
        }
        (ColumnData::Sym(bv), ColumnData::Sym(pv)) => join_positions(
            bn,
            |i| b(i).map(|r| bv[r].id()),
            pn,
            |i| p(i).map(|r| pv[r].id()),
        ),
        _ => join_positions(
            bn,
            |i| b(i).map(|r| build.get(r)),
            pn,
            |i| p(i).map(|r| probe.get(r)),
        ),
    }
}

/// Budget dispatch in front of the build/probe kernel: when the current
/// memory budget ([`budget::current`], default unlimited) cannot hold the
/// estimated build-side hash table, the join degrades to the disk-
/// spilling Grace path ([`spill::grace_join`]), which partitions both
/// sides to checksummed spill files and joins partition by partition —
/// emitting the **byte-identical** pair sequence. With no budget set this
/// is a single branch and the resident kernel runs untouched.
fn join_positions<K, B, P>(
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
    if let Some(limit) = budget::current() {
        if budget::join_build_estimate(build_n, K::KEY_BYTES) > limit {
            return spill::grace_join(limit, build_n, build_key, probe_n, probe_key);
        }
    }
    let pairs = join_positions_resident(build_n, build_key, probe_n, probe_key);
    Ok(pairs)
}

/// The build/probe kernel shared by every key type: hashes the build
/// side's keys into a chained index (`head` maps a key to its latest
/// one-based build position; `next` links each build position to the
/// previous one holding the same key, with 0 terminating the chain), then
/// probes the probe side's keys in row order, pushing each match straight
/// into the paired (build-position, probe-position) vectors — probe order
/// major, chain order minor. `None` keys (NULLs) never enter the index and
/// never probe, so NULL join keys match nothing.
///
/// The spill path re-enters this kernel per partition (partition records
/// keep original row order, so chain order — and therefore the emitted
/// pair sequence — is preserved exactly).
pub(crate) fn join_positions_resident<K, B, P>(
    build_n: usize,
    build_key: B,
    probe_n: usize,
    probe_key: P,
) -> (Vec<u32>, Vec<u32>)
where
    K: std::hash::Hash + Eq,
    B: Fn(usize) -> Option<K>,
    P: Fn(usize) -> Option<K>,
{
    let mut head: HashMap<K, u32, KeyHashBuilder> =
        HashMap::with_capacity_and_hasher(build_n, KeyHashBuilder::default());
    let mut next: Vec<u32> = vec![0; build_n];
    for (i, link) in next.iter_mut().enumerate() {
        if let Some(k) = build_key(i) {
            let slot = head.entry(k).or_insert(0);
            *link = *slot;
            *slot = (i + 1) as u32;
        }
    }
    let (mut build_pos, mut probe_pos) = (Vec::new(), Vec::new());
    for p in 0..probe_n {
        let Some(k) = probe_key(p) else { continue };
        let Some(&h) = head.get(&k) else { continue };
        let mut cur = h;
        while cur != 0 {
            build_pos.push(cur - 1);
            probe_pos.push(p as u32);
            cur = next[(cur - 1) as usize];
        }
    }
    (build_pos, probe_pos)
}
