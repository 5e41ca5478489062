//! # etable-server
//!
//! The concurrent serving layer: ETable as a multi-threaded TCP server
//! behind the same [`Connection`](etable_core::connection::Connection)
//! API the embedded CLI uses.
//!
//! Three pieces:
//!
//! - [`proto`] — the length-prefixed, checksummed wire protocol (SQL
//!   text in; columnar result batches or typed error codes out, text
//!   sent once per connection through a string dictionary). The
//!   byte-exact layout is documented in DESIGN.md §Wire protocol.
//! - [`server`] — the accept loop plus one handler thread and one
//!   `Connection` per client over a shared
//!   [`SharedDatabase`](etable_relational::shared::SharedDatabase):
//!   reads run on pinned epoch snapshots, writes serialize and publish
//!   new epochs.
//! - [`client`] / [`load`] — the blocking client and the load-test
//!   harness (`serve_load` binary) that gates correctness under
//!   concurrency in CI.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod load;
pub mod proto;
pub mod server;

pub use client::Client;
pub use load::{baselines, canon, run_load, LoadReport, ACADEMIC_QUERIES};
pub use server::{Server, ServerStats};
