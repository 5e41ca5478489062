//! What the presentation layer did on this thread, counted: how many rows
//! the matcher held, how many sort keys it built, how many rows it put in
//! order, what the column ranker read, what a page read to show, and how
//! much of the graph the matcher's down pass and the row walks read. The
//! counters are plain `u64`s, always on; a test reads them before and
//! after an action ([`on_this_thread`]) to hold the layer to O(shown)
//! work, which wall time on a shared host cannot show.

use std::cell::Cell;

/// Presentation work done on one thread since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Rows the matcher held across pattern nodes after their start: the
    /// rows each node's start listed or marked, none for a node that
    /// starts as its whole type.
    pub rows_held: u64,
    /// Rows the matcher's down pass re-checked against their parent's
    /// final rows.
    pub down_rechecked: u64,
    /// Neighbors visited by the walks that fill participating cells.
    pub walk_visits: u64,
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
    /// Cells built for a page ([`crate::etable::EnrichedTable::read_page`]).
    pub page_cells: u64,
    /// Labels read for a page's reference cells.
    pub page_labels: u64,
}

impl std::ops::Sub for Work {
    type Output = Work;

    /// The work done between two readings.
    fn sub(self, before: Work) -> Work {
        Work {
            rows_held: self.rows_held - before.rows_held,
            down_rechecked: self.down_rechecked - before.down_rechecked,
            walk_visits: self.walk_visits - before.walk_visits,
            keys_built: self.keys_built - before.keys_built,
            rows_ordered: self.rows_ordered - before.rows_ordered,
            rank_passes: self.rank_passes - before.rank_passes,
            id_sets: self.id_sets - before.id_sets,
            labels_read: self.labels_read - before.labels_read,
            page_cells: self.page_cells - before.page_cells,
            page_labels: self.page_labels - before.page_labels,
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

/// Adds to this thread's counts; does nothing once the thread is tearing
/// its locals down, so a `Drop` may count.
pub(crate) fn count(add: impl FnOnce(&mut Work)) {
    let _ = WORK.try_with(|w| {
        let mut now = w.get();
        add(&mut now);
        w.set(now);
    });
}
