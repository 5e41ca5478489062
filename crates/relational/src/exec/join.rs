//! The join kernels: equal keys of two columns as paired positions.
//!
//! [`key_pairs`] hashes any two key columns. Hash joins
//! ([`crate::colrel::ColRelation::hash_join`]), the build of every stored
//! foreign-key index ([`crate::fk_index`]), the foreign keys that have no
//! such index, and the Grace spill path ([`crate::storage::spill`]) pair
//! keys there. [`fk_key_pairs`] is the join along a stored foreign-key
//! index ([`crate::colrel::ColRelation::fk_join`]): its keys are row ids
//! of the referenced table, so a head array over that table's rows takes
//! the hash table's place. It emits the same pairs in the same order as
//! [`key_pairs`] would, holds nothing the tables do not already bound, and
//! so never consults the memory budget.

use crate::exec::budget;
use crate::exec::hash::KeyHashBuilder;
use crate::fk_index::DANGLING;
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
    #[cfg(test)]
    KEY_PAIRS_CALLS.with(|n| n.set(n.get() + 1));
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

/// [`key_pairs`] of a foreign-key column and the primary-key column it
/// references, from the key's stored index `fwd` (referencing row ->
/// referenced row, sentinels at and above [`DANGLING`]): the key of a
/// primary-key row is its row id, the key of a referencing row its `fwd`
/// entry. `pk_rows` and `fk_rows` are the two sides' selections (`None`:
/// every row) and `pk_len` the referenced table's row count;
/// `fk_builds` says which side is the build side. Same pairs, same order
/// as the hashing kernel: probe positions ascending, each one's build
/// positions latest first.
pub(crate) fn fk_key_pairs(
    pk_len: usize,
    pk_rows: Option<&[u32]>,
    fwd: &[u32],
    fk_rows: Option<&[u32]>,
    fk_builds: bool,
) -> (Vec<u32>, Vec<u32>) {
    let pk_n = pk_rows.map_or(pk_len, <[u32]>::len);
    let fk_n = fk_rows.map_or(fwd.len(), <[u32]>::len);
    let pk = |i: usize| Some(pk_rows.map_or(i as u32, |s| s[i]));
    let fk = |i: usize| Some(fwd[fk_rows.map_or(i, |s| s[i] as usize)]).filter(|&t| t < DANGLING);
    // The keys are row ids of the referenced table: one head per row.
    let head = DenseHeads(vec![0; pk_len]);
    if fk_builds {
        chain_pairs(head, fk_n, fk, pk_n, pk)
    } else {
        chain_pairs(head, pk_n, pk, fk_n, fk)
    }
}

/// Chain heads by key: the latest one-based build position holding each
/// key (0: none).
trait Heads<K> {
    /// The head of `k`'s chain, to be linked to and overwritten.
    fn slot(&mut self, k: K) -> &mut u32;
    /// The head of `k`'s chain, 0 when no build position holds `k`.
    fn head(&self, k: &K) -> u32;
}

impl<K: std::hash::Hash + Eq> Heads<K> for HashMap<K, u32, KeyHashBuilder> {
    fn slot(&mut self, k: K) -> &mut u32 {
        self.entry(k).or_insert(0)
    }
    fn head(&self, k: &K) -> u32 {
        self.get(k).copied().unwrap_or(0)
    }
}

/// Heads of keys that are row ids, one slot per row.
struct DenseHeads(Vec<u32>);

impl Heads<u32> for DenseHeads {
    fn slot(&mut self, k: u32) -> &mut u32 {
        &mut self.0[k as usize]
    }
    fn head(&self, k: &u32) -> u32 {
        self.0[*k as usize]
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
    let head: HashMap<K, u32, KeyHashBuilder> =
        HashMap::with_capacity_and_hasher(build_n, KeyHashBuilder::default());
    chain_pairs(head, build_n, build_key, probe_n, probe_key)
}

/// The build/probe loops of [`join_positions_resident`] over any chain
/// heads.
fn chain_pairs<K, H, B, P>(
    mut head: H,
    build_n: usize,
    build_key: B,
    probe_n: usize,
    probe_key: P,
) -> (Vec<u32>, Vec<u32>)
where
    H: Heads<K>,
    B: Fn(usize) -> Option<K>,
    P: Fn(usize) -> Option<K>,
{
    let mut next: Vec<u32> = vec![0; build_n];
    for (i, link) in next.iter_mut().enumerate() {
        if let Some(k) = build_key(i) {
            let slot = head.slot(k);
            *link = *slot;
            *slot = (i + 1) as u32;
        }
    }
    let (mut build_pos, mut probe_pos) = (Vec::new(), Vec::new());
    for p in 0..probe_n {
        let Some(k) = probe_key(p) else { continue };
        let mut cur = head.head(&k);
        while cur != 0 {
            build_pos.push(cur - 1);
            probe_pos.push(p as u32);
            cur = next[(cur - 1) as usize];
        }
    }
    (build_pos, probe_pos)
}

#[cfg(test)]
thread_local! {
    /// Calls of [`key_pairs`] on this thread (tests pin which joins reach
    /// the hashing kernel with it).
    static KEY_PAIRS_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has called [`key_pairs`].
#[cfg(test)]
pub(crate) fn key_pairs_calls() -> u64 {
    KEY_PAIRS_CALLS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fk_index::FkIndex;
    use crate::value::{DataType, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A selection over `n` rows: every row (`None`), or row ids drawn
    /// with repeats and in any order — what a side holds after an earlier
    /// join of a chain.
    fn selection(rng: &mut StdRng, n: usize) -> Option<Vec<u32>> {
        match rng.gen_range(0..6) {
            0 | 1 => None,
            2 => Some(Vec::new()),
            _ if n == 0 => Some(Vec::new()),
            _ => {
                let len = rng.gen_range(1..=2 * n);
                Some((0..len).map(|_| rng.gen_range(0..n as u32)).collect())
            }
        }
    }

    /// A primary-key column of distinct keys and a foreign-key column
    /// over them, with NULLs and dangling keys, of `ty`.
    fn key_columns(rng: &mut StdRng, ty: DataType) -> (ColumnStore, ColumnStore) {
        let key = |k: i64| match ty {
            DataType::Int => Value::Int(k),
            // Keys 0 and 1 are 0.0 and NaN: -0.0 finds 0.0, NaN itself.
            _ => Value::Float(match k {
                0 => 0.0,
                1 => f64::NAN,
                k => k as f64 * 0.5,
            }),
        };
        let pk_n = rng.gen_range(0..8usize);
        let mut pks: Vec<i64> = (0..12).collect();
        for i in (1..pks.len()).rev() {
            pks.swap(i, rng.gen_range(0..=i));
        }
        let pk = ColumnStore::from_values(ty, pks[..pk_n].iter().map(|&k| key(k))).unwrap();
        let fk_n = rng.gen_range(0..14usize);
        let fk = ColumnStore::from_values(
            ty,
            (0..fk_n).map(|_| match rng.gen_range(0..5) {
                0 => Value::Null,
                // The foreign key holds -0.0 where the primary key holds 0.0.
                _ => match rng.gen_range(0..12) {
                    0 if ty == DataType::Float => Value::Float(-0.0),
                    k => key(k),
                },
            }),
        )
        .unwrap();
        (pk, fk)
    }

    /// The dense kernel's pairs are the hashing kernel's, in the same
    /// order, whichever side builds and whatever the selections hold.
    #[test]
    fn fk_key_pairs_equal_key_pairs() {
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ty = if seed % 3 == 0 {
                DataType::Float
            } else {
                DataType::Int
            };
            let (pk, fk) = key_columns(&mut rng, ty);
            let (pk_pos, fk_pos) = key_pairs(&pk, None, &fk, None).unwrap();
            let pairs: Vec<(u32, u32)> = fk_pos.into_iter().zip(pk_pos).collect();
            let ix = FkIndex::from_pairs(fk.len(), &pairs, |r| fk.is_null(r));
            let (pk_rows, fk_rows) = (selection(&mut rng, pk.len()), selection(&mut rng, fk.len()));
            let (pk_sel, fk_sel) = (pk_rows.as_deref(), fk_rows.as_deref());
            let fk_builds = fk_key_pairs(pk.len(), pk_sel, ix.fwd(), fk_sel, true);
            assert_eq!(
                fk_builds,
                key_pairs(&fk, fk_sel, &pk, pk_sel).unwrap(),
                "seed {seed}"
            );
            let pk_builds = fk_key_pairs(pk.len(), pk_sel, ix.fwd(), fk_sel, false);
            assert_eq!(
                pk_builds,
                key_pairs(&pk, pk_sel, &fk, fk_sel).unwrap(),
                "seed {seed}"
            );
        }
    }
}
