//! What the presentation layer did on this thread, counted: how many sort
//! keys it built, how many rows it put in order, and what the column
//! ranker read. The counters are plain `u64`s, always on; a test reads
//! them before and after an action ([`on_this_thread`]) to hold the
//! layer to O(shown) work, which wall time on a shared host cannot show.

use std::cell::Cell;

/// Presentation work done on one thread since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Sort keys built: one per row of every table sorted.
    pub keys_built: u64,
    /// Rows put in order: the growth of every sorted table's ordered
    /// prefix.
    pub rows_ordered: u64,
    /// Column-ranking passes over a table.
    pub rank_passes: u64,
    /// Distinct reference sets the ranker found, over every column.
    pub id_sets: u64,
    /// Labels the ranker read.
    pub labels_read: u64,
}

impl std::ops::Sub for Work {
    type Output = Work;

    /// The work done between two readings.
    fn sub(self, before: Work) -> Work {
        Work {
            keys_built: self.keys_built - before.keys_built,
            rows_ordered: self.rows_ordered - before.rows_ordered,
            rank_passes: self.rank_passes - before.rank_passes,
            id_sets: self.id_sets - before.id_sets,
            labels_read: self.labels_read - before.labels_read,
        }
    }
}

thread_local! {
    static WORK: Cell<Work> = Cell::new(Work::default());
}

/// The presentation work this thread has done so far.
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
