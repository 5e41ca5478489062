//! The stored foreign-key index: for a single-column foreign key onto a
//! single-column primary key, each referencing row's referenced row.
//!
//! The index runs both ways. Forward, it is one `u32` per referencing
//! row (`fwd`), with two sentinels: [`NULL_REF`] for a NULL key and
//! [`DANGLING`] for a key no row holds (only the unchecked loaders,
//! `Database::insert_unchecked` and `Database::append_rows`, can store
//! one). In reverse ([`Rev`]), it is a CSR over the referenced rows: per
//! referenced row an offset, then the rows that reference it, ascending.
//! It holds no key, so the SQL join along the foreign key,
//! `Database::fk_pairs` and the RESTRICT check are array reads, and a join
//! that holds a few rows of either side visits only the rows of the other
//! side that can match them (`exec::join::fk_key_pairs`).
//!
//! The reverse index is built on first use, by one counting sort over
//! `fwd`, and lives exactly as long as the `fwd` buffer it was sorted
//! from: every clone that shares `fwd` shares it too, and a write that
//! changes `fwd` (`push`, `compact`, a `remap` that moves a row) drops it.
//! Nothing builds it at load: the instance graph (`etable_tgm`) holds
//! clones of the indexes its edges are read from, so the first join or
//! graph lookup that walks a foreign key backwards builds the one `Rev`
//! both then read. A value type's rank map (row -> rank of the row's
//! value among the column's distinct values) is an index of the same kind
//! ([`FkIndex::from_ranks`]), with the same lazily built reverse.
//!
//! [`crate::database::Database`] keeps one lazily filled slot per
//! declared foreign key. A slot is filled on first use by the join kernel
//! (`exec::join::key_pairs`, so the build spills under the memory budget
//! like any other key match), and `fwd` is `Arc`-shared, so a clone of the
//! database — a new epoch ([`crate::shared`]) — shares every built index.
//! Writes carry an index forward rather than dropping it: an INSERT
//! pushes the row its foreign-key check found, a DELETE compacts the
//! deleted rows out of the referencing side (`FkIndex::compact`) and
//! shifts the referenced side's row ids (`FkIndex::remap`). A write the
//! index cannot follow cheaply (a key UPDATE, an unchecked load, a raw
//! `Database::table_mut`) empties the slot, and the next use rebuilds it.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// `fwd`'s entry for a referencing row whose key is NULL.
pub const NULL_REF: u32 = u32::MAX;

/// `fwd`'s entry for a referencing row whose NULL-free key no row holds.
pub const DANGLING: u32 = u32::MAX - 1;

/// The index of one foreign key, both ways (see the module docs).
#[derive(Debug, Clone)]
pub struct FkIndex {
    /// Referencing row -> referenced row, or a sentinel.
    fwd: Arc<Vec<u32>>,
    /// The reverse of `fwd`, once some join needed it; shared by every
    /// clone that shares `fwd`.
    rev: Arc<OnceLock<Rev>>,
    /// How many entries of `fwd` are [`DANGLING`].
    dangling: usize,
}

impl FkIndex {
    /// The index of a referencing side of `rows` rows from the matched
    /// (referencing row, referenced row) `pairs`; `is_null(r)` says
    /// whether row `r`'s key is NULL. A row with no pair is [`NULL_REF`]
    /// or [`DANGLING`].
    pub(crate) fn from_pairs(
        rows: usize,
        pairs: &[(u32, u32)],
        is_null: impl Fn(usize) -> bool,
    ) -> Self {
        #[cfg(test)]
        BUILDS.with(|b| b.set(b.get() + 1));
        let mut fwd = vec![DANGLING; rows];
        for &(r, t) in pairs {
            fwd[r as usize] = t;
        }
        let mut dangling = 0;
        for (r, f) in fwd.iter_mut().enumerate() {
            if *f == DANGLING {
                if is_null(r) {
                    *f = NULL_REF;
                } else {
                    dangling += 1;
                }
            }
        }
        FkIndex {
            fwd: Arc::new(fwd),
            rev: Arc::default(),
            dangling,
        }
    }

    /// The map from the rows of a column to the ranks of their values
    /// among the column's distinct non-NULL values ([`NULL_REF`] for a
    /// NULL): a value type's index, as if the column were a foreign key
    /// onto its values.
    pub fn from_ranks(ranks: Vec<u32>) -> Self {
        FkIndex {
            fwd: Arc::new(ranks),
            rev: Arc::default(),
            dangling: 0,
        }
    }

    /// The reverse index, built now if this is its first use.
    #[inline]
    pub fn rev(&self) -> &Rev {
        self.rev.get_or_init(|| Rev::of(&self.fwd))
    }

    /// A write is about to change `fwd`: the reverse index no longer
    /// describes it (clones that keep the old `fwd` keep theirs).
    fn forget_rev(&mut self) {
        self.rev = Arc::default();
    }

    /// Referencing row -> referenced row, or a sentinel; a write copies it.
    #[inline]
    pub fn fwd(&self) -> &Arc<Vec<u32>> {
        &self.fwd
    }

    /// Whether two indexes share one `fwd` buffer.
    pub fn shares(&self, other: &FkIndex) -> bool {
        Arc::ptr_eq(&self.fwd, &other.fwd)
    }

    /// Whether two indexes share one reverse-index slot, so one build of
    /// it serves both.
    pub fn shares_rev(&self, other: &FkIndex) -> bool {
        Arc::ptr_eq(&self.rev, &other.rev)
    }

    /// The first referencing row whose key dangles.
    pub fn first_dangling(&self) -> Option<usize> {
        (self.dangling > 0).then(|| self.fwd.iter().position(|&t| t == DANGLING))?
    }

    /// Whether some key dangles (a new referenced row may now match it).
    pub(crate) fn has_dangling(&self) -> bool {
        self.dangling > 0
    }

    /// The (referencing row, referenced row) pairs, referencing rows
    /// ascending.
    pub(crate) fn pairs(&self) -> Vec<(u32, u32)> {
        (self.fwd.iter().zip(0..))
            .filter(|&(&t, _)| t < DANGLING)
            .map(|(&t, r)| (r, t))
            .collect()
    }

    /// The first referencing row whose referenced row is one of `doomed`
    /// (ascending row ids of a referenced table of `referenced_rows` rows).
    pub(crate) fn first_referencing(
        &self,
        doomed: &[u32],
        referenced_rows: usize,
    ) -> Option<usize> {
        let mut hit = vec![false; referenced_rows];
        doomed.iter().for_each(|&d| hit[d as usize] = true);
        self.fwd
            .iter()
            .position(|&t| t < DANGLING && hit[t as usize])
    }

    /// Appends the entry of a new referencing row: `target`, its
    /// referenced row, or `None` for a NULL key.
    pub(crate) fn push(&mut self, target: Option<usize>) {
        let t = target.map_or(NULL_REF, |t| t as u32);
        self.forget_rev();
        Arc::make_mut(&mut self.fwd).push(t);
    }

    /// Drops the entries of the referencing rows `doomed` (ascending): the
    /// referencing table deleted them.
    pub(crate) fn compact(&mut self, doomed: &[u32]) {
        let mut next = doomed.iter().peekable();
        let mut r = 0u32;
        self.forget_rev();
        Arc::make_mut(&mut self.fwd).retain(|_| {
            let gone = next.next_if_eq(&&r).is_some();
            r += 1;
            !gone
        });
        self.dangling = self.fwd.iter().filter(|&&t| t == DANGLING).count();
    }

    /// Shifts referenced row ids past the rows `doomed` (ascending) of a
    /// referenced table of `referenced_rows` rows, which the table deleted.
    /// No entry names a doomed row (RESTRICT refused those deletes), so
    /// deleting a suffix changes nothing.
    pub(crate) fn remap(&mut self, doomed: &[u32], referenced_rows: usize) {
        let Some(&first) = doomed.first() else { return };
        if first as usize + doomed.len() == referenced_rows {
            return;
        }
        self.forget_rev();
        for t in Arc::make_mut(&mut self.fwd).iter_mut() {
            if *t < DANGLING && *t > first {
                *t -= doomed.partition_point(|&d| d < *t) as u32;
            }
        }
    }
}

/// The reverse of a forward index: `rows[offsets[t]..offsets[t + 1]]`
/// are the referencing rows whose key is referenced row `t`, ascending. A
/// referenced row past the offsets (one added after the build, or past
/// every row any key names) has no references.
#[derive(Debug)]
pub struct Rev {
    /// Both shared, so a reader can keep them beside its own data.
    offsets: Arc<[u32]>,
    rows: Arc<[u32]>,
}

impl Rev {
    /// The reverse of `fwd`: one counting sort, in referencing-row order.
    fn of(fwd: &[u32]) -> Rev {
        crate::work::count(|w| w.reverse_builds += 1);
        let live = || fwd.iter().filter(|&&t| t < DANGLING).map(|&t| t as usize);
        let n = live().max().map_or(0, |t| t + 1);
        let mut offsets = vec![0u32; n + 1];
        live().for_each(|t| offsets[t + 1] += 1);
        for t in 0..n {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets[..n].to_vec();
        let mut rows = vec![0u32; offsets[n] as usize];
        for (r, &t) in (0u32..).zip(fwd) {
            if t < DANGLING {
                let at = &mut next[t as usize];
                rows[*at as usize] = r;
                *at += 1;
            }
        }
        Rev {
            offsets: offsets.into(),
            rows: rows.into(),
        }
    }

    /// Where the referencing rows of referenced row `t` lie in
    /// [`Rev::rows`].
    #[inline]
    pub fn run(&self, t: u32) -> Range<usize> {
        match self.offsets.get(t as usize..t as usize + 2) {
            Some(&[from, to]) => from as usize..to as usize,
            _ => 0..0,
        }
    }

    /// The referencing rows of referenced row `t`, ascending.
    #[inline]
    pub fn of_row(&self, t: u32) -> &[u32] {
        &self.rows[self.run(t)]
    }

    /// Every referencing row that is not NULL or dangling, grouped by the
    /// referenced row, in the order of [`Rev::run`].
    #[inline]
    pub fn rows(&self) -> &Arc<[u32]> {
        &self.rows
    }

    /// Per referenced row `t`, where its run starts in [`Rev::rows`]
    /// (`offsets[t]..offsets[t + 1]`); a row past them has none.
    #[inline]
    pub fn offsets(&self) -> &Arc<[u32]> {
        &self.offsets
    }
}

#[cfg(test)]
thread_local! {
    /// Indexes built on this thread (tests pin carry-forward with it).
    static BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many foreign-key indexes this thread has built.
#[cfg(test)]
pub(crate) fn builds() -> u64 {
    BUILDS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index of `fwd` (sentinels included), as a database would hold it.
    fn index(fwd: &[u32]) -> FkIndex {
        let pairs: Vec<(u32, u32)> = (0u32..).zip(fwd).map(|(r, &t)| (r, t)).collect();
        let live: Vec<(u32, u32)> = pairs.into_iter().filter(|&(_, t)| t < DANGLING).collect();
        FkIndex::from_pairs(fwd.len(), &live, |r| fwd[r] == NULL_REF)
    }

    /// Each referenced row's list holds exactly the rows whose `fwd` entry
    /// names it, ascending; sentinels and rows past the offsets have none.
    #[test]
    fn the_reverse_index_inverts_fwd() {
        let ix = index(&[2, NULL_REF, 0, 2, DANGLING, 5, 2]);
        let rev = ix.rev();
        let lists: Vec<&[u32]> = (0..8).map(|t| rev.of_row(t)).collect();
        let want: [&[u32]; 8] = [&[2], &[], &[0, 3, 6], &[], &[], &[5], &[], &[]];
        assert_eq!(lists, want);
        assert!(index(&[]).rev().of_row(0).is_empty());
        assert!(index(&[NULL_REF, DANGLING])
            .rev()
            .of_row(u32::MAX)
            .is_empty());
    }

    /// A clone shares the reverse index, built or not, and one build
    /// serves both; a write that copies `fwd` drops it on the writer's
    /// side only, and so does a `remap` that moves a row, but not one
    /// that deletes only a suffix.
    #[test]
    fn the_reverse_index_lives_as_long_as_its_fwd() {
        let mut ix = index(&[2, 0, 2]);
        let clone = ix.clone();
        let before = crate::work::on_this_thread().reverse_builds;
        assert_eq!(ix.rev().of_row(2), [0, 2]);
        assert_eq!(clone.rev().of_row(2), [0, 2]);
        assert_eq!(crate::work::on_this_thread().reverse_builds, before + 1);
        assert!(clone.shares_rev(&ix) && clone.shares(&ix));

        ix.push(Some(2));
        assert!(!ix.shares(&clone) && !ix.shares_rev(&clone));
        assert_eq!(ix.rev().of_row(2), [0, 2, 3]);
        assert_eq!(clone.rev().of_row(2), [0, 2]);

        let mut suffix = ix.clone();
        suffix.remap(&[3], 4);
        assert!(suffix.shares_rev(&ix));
        let mut moved = ix.clone();
        moved.remap(&[1], 3);
        assert!(!moved.shares_rev(&ix));
        assert_eq!(moved.rev().of_row(1), [0, 2, 3]);
        let mut compacted = ix.clone();
        compacted.compact(&[0]);
        assert!(!compacted.shares_rev(&ix));
        assert_eq!(compacted.rev().of_row(2), [1, 2]);
        assert_eq!(compacted.rev().of_row(0), [0]);
    }
}
