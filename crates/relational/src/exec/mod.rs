//! Morsel-driven execution infrastructure shared by the columnar executor.
//!
//! Five pieces live here:
//!
//! * [`agg`] — grouped aggregation: the aggregate vocabulary, per-group
//!   running states, the mergeable group accumulator and the
//!   `ColRelation::group_by` driver over it.
//! * [`pool`] — one lazily-started persistent worker pool that serves every
//!   data-parallel kernel (filtered scans, the hash-join probe loop, grouped
//!   aggregation) via fixed-size per-morsel work items with a deterministic
//!   chunk-order merge, so results are byte-identical at any pool size.
//! * [`pred`] — dictionary-encoded predicate compilation: LIKE/equality/IN
//!   over interned text columns evaluate once per *distinct symbol* against
//!   the interner arena (a membership bitmap) instead of once per row.
//! * [`budget`] — the execution memory budget (`ETABLE_MEM_BUDGET`) that
//!   decides when a hash join degrades to the disk-spilling Grace path
//!   ([`crate::storage::spill`]).
//! * [`hash`] — the join-key hasher shared by the in-memory join and the
//!   spill partitioner.
pub mod agg;
pub mod budget;
pub(crate) mod hash;
pub mod pool;
pub mod pred;
