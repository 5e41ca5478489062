//! Execution infrastructure shared by the columnar executor. Every kernel
//! is a sequential loop on the calling thread; concurrency is per
//! connection (DESIGN.md, "Query execution").
//!
//! Six pieces live here, plus the [`pool`] stub the frozen benchmark
//! harness still names:
//!
//! * [`agg`] — grouped aggregation: the aggregate vocabulary, the
//!   group-id pass over typed key words, the per-aggregate state sweeps
//!   and the `ColRelation::group_by` driver over them.
//! * `pred` — WHERE: a typed predicate compiled once per statement to a
//!   word-at-a-time kernel over typed column slices (`kernel`); compiling
//!   and selecting cannot fail.
//! * [`budget`] — the execution memory budget (`ETABLE_MEM_BUDGET`) that
//!   decides when a hash join degrades to the disk-spilling Grace path
//!   ([`crate::storage::spill`]).
//! * `join` — the join kernel: equal keys of two columns as paired
//!   positions, for hash joins and foreign-key matching alike.
//! * `hash` — the key hasher shared by the in-memory join, the spill
//!   partitioner and the group-id pass.
//! * `tree` — a grouped or DISTINCT query over a tree of foreign keys
//!   without join pairs: one leaves-to-root pass of row weights to the
//!   table the query groups, scatter-adds through each key's `fwd` and
//!   gathers through the parent's, walked from the rows that weigh
//!   anything when they are few. The rule that picks it over the greedy
//!   join loop and the rule that picks each message's walk live there.
pub mod agg;
pub mod budget;
#[cfg(test)]
mod crossover;
pub(crate) mod hash;
pub(crate) mod join;
mod kernel;
pub mod pool;
pub(crate) mod pred;
pub(crate) mod tree;
