//! The stored foreign-key index: for a single-column foreign key onto a
//! single-column primary key, each referencing row's referenced row.
//!
//! The index is one `u32` per referencing row (`fwd`), with two
//! sentinels: [`NULL_REF`] for a NULL key and [`DANGLING`] for a key no
//! row holds (only the unchecked loaders, `Database::insert_unchecked`
//! and `Database::append_rows`, can store one). It holds no key, so the
//! SQL join along the foreign key, `Database::fk_pairs` and the RESTRICT
//! check are array reads.
//!
//! [`crate::database::Database`] keeps one lazily filled slot per
//! declared foreign key. A slot is filled on first use by the join kernel
//! (`exec::join::key_pairs`, so the build spills under the memory budget
//! like any other key match), and `fwd` is `Arc`-shared, so a clone of the
//! database — a new epoch ([`crate::shared`]) — shares every built index.
//! Writes carry an index forward rather than dropping it: an INSERT
//! pushes the row its foreign-key check found, a DELETE compacts the
//! deleted rows out of the referencing side ([`FkIndex::compact`]) and
//! shifts the referenced side's row ids ([`FkIndex::remap`]). A write the
//! index cannot follow cheaply (a key UPDATE, an unchecked load, a raw
//! `Database::table_mut`) empties the slot, and the next use rebuilds it.

use std::sync::Arc;

/// `fwd`'s entry for a referencing row whose key is NULL.
pub(crate) const NULL_REF: u32 = u32::MAX;

/// `fwd`'s entry for a referencing row whose NULL-free key no row holds.
pub(crate) const DANGLING: u32 = u32::MAX - 1;

/// The forward index of one foreign key (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FkIndex {
    /// Referencing row -> referenced row, or a sentinel.
    fwd: Arc<Vec<u32>>,
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
            dangling,
        }
    }

    /// Referencing row -> referenced row, or a sentinel.
    pub(crate) fn fwd(&self) -> &[u32] {
        &self.fwd
    }

    /// The first referencing row whose key dangles.
    pub(crate) fn first_dangling(&self) -> Option<usize> {
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
        Arc::make_mut(&mut self.fwd).push(t);
    }

    /// Drops the entries of the referencing rows `doomed` (ascending): the
    /// referencing table deleted them.
    pub(crate) fn compact(&mut self, doomed: &[u32]) {
        let mut next = doomed.iter().peekable();
        let mut r = 0u32;
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
        for t in Arc::make_mut(&mut self.fwd).iter_mut() {
            if *t < DANGLING && *t > first {
                *t -= doomed.partition_point(|&d| d < *t) as u32;
            }
        }
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
impl FkIndex {
    /// Whether two indexes share one `fwd` buffer.
    pub(crate) fn shares(&self, other: &FkIndex) -> bool {
        Arc::ptr_eq(&self.fwd, &other.fwd)
    }
}
