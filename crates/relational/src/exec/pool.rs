//! There is no worker pool: every kernel is a sequential loop. This stub exists only because
//! the frozen harness (`benchmark/src/lib.rs`) reports `exec::pool::global().threads()` as its
//! `exec.pool_threads` metric; the next `[benchmark]` PR drops that metric and this module.
/// What the harness's call resolves against; not a pool.
pub struct Pool;
impl Pool {
    /// Always 1: a statement runs on its connection's thread.
    pub fn threads(&self) -> usize {
        1
    }
}
/// The handle `benchmark/` asks for.
pub fn global() -> &'static Pool {
    &Pool
}
