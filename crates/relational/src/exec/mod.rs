//! Execution infrastructure shared by the columnar executor. Every kernel
//! is a sequential loop on the calling thread; concurrency is per
//! connection (DESIGN.md, "Query execution").
//!
//! Four pieces live here, plus the [`pool`] stub the frozen benchmark
//! harness still names:
//!
//! * [`agg`] — grouped aggregation: the aggregate vocabulary, the
//!   group-id pass over typed key words, the per-aggregate state sweeps
//!   and the `ColRelation::group_by` driver over them.
//! * `pred` — WHERE: a predicate compiled once per statement to a
//!   word-at-a-time kernel over typed column slices (`kernel`), with the
//!   plain `Expr::matches` row loop as the one fallback.
//! * [`budget`] — the execution memory budget (`ETABLE_MEM_BUDGET`) that
//!   decides when a hash join degrades to the disk-spilling Grace path
//!   ([`crate::storage::spill`]).
//! * `hash` — the key hasher shared by the in-memory join, the spill
//!   partitioner and the group-id pass.
pub mod agg;
pub mod budget;
pub(crate) mod hash;
mod kernel;
pub mod pool;
pub(crate) mod pred;
