//! What the SQL executor did on this thread, counted: how many rows its
//! joins probed and matched, which row-space paths they took, how many
//! reverse foreign-key indexes were built, how many keys the group-id
//! pass hashed, and how many rows the foreign-key tree pass weighed. The counters are plain `u64`s, always on; a test reads
//! them before and after a statement ([`on_this_thread`]) to hold a join
//! to the rows that can match, which wall time on a shared host cannot
//! show.

use std::cell::Cell;

/// Executor work done on one thread since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Probe-side rows the joins visited.
    pub rows_probed: u64,
    /// (build, probe) pairs the joins emitted.
    pub rows_matched: u64,
    /// Foreign-key joins that probed only the referencing rows the held
    /// referenced rows' reverse lists name.
    pub reverse_walks: u64,
    /// Foreign-key joins that probed only the referenced rows the held
    /// referencing rows' forward entries name.
    pub forward_walks: u64,
    /// Reverse foreign-key indexes built.
    pub reverse_builds: u64,
    /// Keys the group-id pass hashed (a dense pass hashes none).
    pub keys_hashed: u64,
    /// Statements whose joins ran as one foreign-key tree pass
    /// (`exec::tree`) instead of the greedy join loop.
    pub tree_passes: u64,
    /// Rows whose weight the tree pass read or wrote, over every message
    /// it folded.
    pub rows_weighed: u64,
}

impl std::ops::Sub for Work {
    type Output = Work;

    /// The work done between two readings.
    fn sub(self, before: Work) -> Work {
        Work {
            rows_probed: self.rows_probed - before.rows_probed,
            rows_matched: self.rows_matched - before.rows_matched,
            reverse_walks: self.reverse_walks - before.reverse_walks,
            forward_walks: self.forward_walks - before.forward_walks,
            reverse_builds: self.reverse_builds - before.reverse_builds,
            keys_hashed: self.keys_hashed - before.keys_hashed,
            tree_passes: self.tree_passes - before.tree_passes,
            rows_weighed: self.rows_weighed - before.rows_weighed,
        }
    }
}

thread_local! {
    static WORK: Cell<Work> = Cell::new(Work::default());
}

/// The executor work this thread has done so far.
pub fn on_this_thread() -> Work {
    WORK.with(Cell::get)
}

/// Adds to this thread's counts.
pub(crate) fn count(add: impl FnOnce(&mut Work)) {
    WORK.with(|w| {
        let mut now = w.get();
        add(&mut now);
        w.set(now);
    });
}
