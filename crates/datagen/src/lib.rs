//! # etable-datagen
//!
//! Synthetic academic database generator reproducing the data set of the
//! ETable paper's evaluation (§7.1): the Figure 3 relational schema
//! (7 relations, 7 foreign keys), ~38k papers at 19 conferences with skewed
//! authorship/citation distributions, plus the six study tasks of Table 2
//! with computable ground truth.
//!
//! The paper crawled DBLP and the ACM Digital Library; this crate generates
//! a statistically similar database deterministically from a seed — see
//! DESIGN.md for the substitution rationale.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod names;
pub mod schema;
pub mod snapshot;
pub mod tasks;

pub use generator::{generate, planted, GenConfig, GENERATOR_REV, MIN_PAPERS};
pub use schema::academic_schema;
pub use snapshot::{load_or_generate, snapshot_key};
pub use tasks::{ground_truth, params, task_set, Task, TaskCategory, TaskParams, TaskSet};
