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
//!
//! When its probe side is a whole table, [`fk_key_pairs`] probes only the
//! rows that can match: the referencing rows the held referenced rows'
//! reverse lists name, or the referenced rows the held referencing rows'
//! forward entries name, marked in a bitmap and walked in ascending row
//! order — the order a full probe visits them in. It takes that path
//! when it touches fewer rows than the full probe, as the index itself
//! counts them: a row it visits is touched twice, once to mark it and
//! once to probe it.

use crate::exec::budget;
use crate::exec::hash::KeyHashBuilder;
use crate::fk_index::{FkIndex, DANGLING};
use crate::scan::Bits;
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
/// references, from the key's stored index `ix` (its `fwd` maps a
/// referencing row to its referenced row, sentinels at and above
/// [`DANGLING`]): the key of a primary-key row is its row id, the key of a
/// referencing row its `fwd` entry. `pk_rows` and `fk_rows` are the two
/// sides' selections (`None`: every row) and `pk_len` the referenced
/// table's row count; `fk_builds` says which side is the build side. Same
/// pairs, same order as the hashing kernel: probe positions ascending,
/// each one's build positions latest first. A whole-table probe side is
/// walked from the held rows when that touches fewer rows (module docs).
pub(crate) fn fk_key_pairs(
    pk_len: usize,
    pk_rows: Option<&[u32]>,
    ix: &FkIndex,
    fk_rows: Option<&[u32]>,
    fk_builds: bool,
) -> (Vec<u32>, Vec<u32>) {
    let fwd = &ix.fwd()[..];
    let pk_n = pk_rows.map_or(pk_len, <[u32]>::len);
    let fk_n = fk_rows.map_or(fwd.len(), <[u32]>::len);
    let pk = |i: usize| Some(pk_rows.map_or(i as u32, |s| s[i]));
    let fk = |i: usize| Some(fwd[fk_rows.map_or(i, |s| s[i] as usize)]).filter(|&t| t < DANGLING);
    // The keys are row ids of the referenced table: one head per row.
    let mut head = DenseHeads(vec![0; pk_len]);
    if fk_builds {
        let next = link(&mut head, fk_n, fk);
        // A full probe touches every referenced row; the walk touches the
        // held rows' entries to mark their rows, each marked row again to
        // probe it, and one bitmap word per 64 rows.
        if pk_rows.is_none() && 2 * fk_n + pk_len / 64 < pk_len {
            crate::work::count(|w| w.forward_walks += 1);
            let mut hit = Bits::new(pk_len);
            (0..fk_n).filter_map(fk).for_each(|t| hit.set(t));
            let rows = hit.rows();
            return probe(&head, &next, rows.len(), |i| (rows[i], Some(rows[i])));
        }
        return probe(&head, &next, pk_n, |p| (p as u32, pk(p)));
    }
    let next = link(&mut head, pk_n, pk);
    // At most half the referenced rows, held, name about half the
    // referencing rows or fewer; their reverse lists say exactly how many.
    if let (Some(held), None, true) = (pk_rows, fk_rows, 2 * pk_n < pk_len) {
        // Each held row once: at its latest position, its chain's head.
        let distinct: Vec<u32> = (held.iter().zip(1u32..))
            .filter(|&(&t, i)| head.0[t as usize] == i)
            .map(|(&t, _)| t)
            .collect();
        let rev = ix.rev();
        // Each row a list names is touched twice: marked, then probed.
        let named: usize = distinct.iter().map(|&t| rev.of_row(t).len()).sum();
        if 2 * named + fwd.len() / 64 < fwd.len() {
            crate::work::count(|w| w.reverse_walks += 1);
            let mut hit = Bits::new(fwd.len());
            for &t in &distinct {
                rev.of_row(t).iter().for_each(|&r| hit.set(r));
            }
            let rows = hit.rows();
            return probe(&head, &next, rows.len(), |i| {
                (rows[i], Some(fwd[rows[i] as usize]))
            });
        }
    }
    probe(&head, &next, fk_n, |p| (p as u32, fk(p)))
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
    let next = link(&mut head, build_n, build_key);
    probe(&head, &next, probe_n, |p| (p as u32, probe_key(p)))
}

/// The build loop: links each of the `build_n` positions holding a key to
/// the previous one holding it (0 ends a chain) and makes it its key's
/// head. Returns the links.
fn link<K, H: Heads<K>>(
    head: &mut H,
    build_n: usize,
    build_key: impl Fn(usize) -> Option<K>,
) -> Vec<u32> {
    let mut next: Vec<u32> = vec![0; build_n];
    for (i, link) in next.iter_mut().enumerate() {
        if let Some(k) = build_key(i) {
            let slot = head.slot(k);
            *link = *slot;
            *slot = (i + 1) as u32;
        }
    }
    next
}

/// The probe loop over `n` probe rows: `keys(i)` is the `i`-th row's
/// (probe position, key), and each emits one pair per build position
/// holding its key, latest first. NULL keys (`None`) match nothing.
fn probe<K, H: Heads<K>>(
    head: &H,
    next: &[u32],
    n: usize,
    keys: impl Fn(usize) -> (u32, Option<K>),
) -> (Vec<u32>, Vec<u32>) {
    let (mut build_pos, mut probe_pos) = (Vec::new(), Vec::new());
    let probed = n as u64;
    for i in 0..n {
        let (p, k) = keys(i);
        let Some(k) = k else { continue };
        let mut cur = head.head(&k);
        while cur != 0 {
            build_pos.push(cur - 1);
            probe_pos.push(p);
            cur = next[(cur - 1) as usize];
        }
    }
    crate::work::count(|w| w.rows_probed += probed);
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
    use crate::fk_index::NULL_REF;
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
            let fk_builds = fk_key_pairs(pk.len(), pk_sel, &ix, fk_sel, true);
            assert_eq!(
                fk_builds,
                key_pairs(&fk, fk_sel, &pk, pk_sel).unwrap(),
                "seed {seed}"
            );
            let pk_builds = fk_key_pairs(pk.len(), pk_sel, &ix, fk_sel, false);
            assert_eq!(
                pk_builds,
                key_pairs(&pk, pk_sel, &fk, fk_sel).unwrap(),
                "seed {seed}"
            );
        }
    }

    /// Row ids below `n` drawn with repeats, in any order, about `len` of
    /// them.
    fn held(rng: &mut StdRng, n: usize, len: usize) -> Vec<u32> {
        let len = rng.gen_range(0..=len);
        (0..len)
            .map(|_| rng.gen_range(0..n.max(1) as u32))
            .collect()
    }

    /// The walks from the held rows emit the full probe's pairs in its
    /// order ([`chain_pairs`] over every row of the probe side), whichever
    /// side holds a selection with repeats, over keys that are NULL or
    /// dangle; and both walks are taken.
    #[test]
    fn walks_from_held_rows_equal_the_full_probe() {
        let before = crate::work::on_this_thread();
        for seed in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pk_len = rng.gen_range(1..300usize);
            let fwd: Vec<u32> = (0..rng.gen_range(0..900))
                .map(|_| match rng.gen_range(0..10) {
                    0 => NULL_REF,
                    1 => DANGLING,
                    _ => rng.gen_range(0..pk_len as u32),
                })
                .collect();
            let pairs: Vec<(u32, u32)> = (0u32..).zip(&fwd).map(|(r, &t)| (r, t)).collect();
            let live: Vec<(u32, u32)> = pairs.into_iter().filter(|&(_, t)| t < DANGLING).collect();
            let ix = FkIndex::from_pairs(fwd.len(), &live, |r| fwd[r] == NULL_REF);
            let fk_key = |r: u32| Some(fwd[r as usize]).filter(|&t| t < DANGLING);
            let heads = || DenseHeads(vec![0; pk_len]);

            let pk_held = held(&mut rng, pk_len, pk_len / 2);
            let full = chain_pairs(
                heads(),
                pk_held.len(),
                |i| Some(pk_held[i]),
                fwd.len(),
                |p| fk_key(p as u32),
            );
            let walked = fk_key_pairs(pk_len, Some(&pk_held), &ix, None, false);
            assert_eq!(walked, full, "seed {seed}: the referenced side holds");

            let fk_held = held(&mut rng, fwd.len(), 2 * pk_len);
            let fk_held = if fwd.is_empty() { None } else { Some(fk_held) };
            let fk_sel = fk_held.as_deref();
            let fk_n = fk_sel.map_or(fwd.len(), <[u32]>::len);
            let full = chain_pairs(
                heads(),
                fk_n,
                |i| fk_key(fk_sel.map_or(i as u32, |s| s[i])),
                pk_len,
                |p| Some(p as u32),
            );
            let walked = fk_key_pairs(pk_len, None, &ix, fk_sel, true);
            assert_eq!(walked, full, "seed {seed}: the referencing side holds");
        }
        let w = crate::work::on_this_thread() - before;
        assert!(w.reverse_walks > 100 && w.forward_walks > 100, "{w:?}");
    }
}
