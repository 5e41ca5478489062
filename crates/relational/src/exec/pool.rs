//! A persistent worker pool executing per-morsel work items with a
//! deterministic chunk-order merge.
//!
//! Design (after HyPer's morsel-driven parallelism, Leis et al.): input row
//! ranges are split into fixed [`CHUNK_ROWS`]-sized morsels; workers pull
//! the next unclaimed morsel from a shared counter, so chunk *boundaries*
//! are a pure function of the input length while chunk *assignment* adapts
//! to load. Per-chunk outputs are buffered in claim-order slots and
//! concatenated in chunk order, so the merged result — and the first error,
//! which is always the lowest-numbered failing chunk, every chunk below it
//! having completed successfully — is byte-identical to a sequential run at
//! any pool size. The disk-spilling Grace join
//! ([`crate::storage::spill`]) re-enters this probe kernel once per
//! partition; that per-chunk determinism is what lets a spilled join
//! promise byte-identical output at any pool size too.
//!
//! The pool is lazily started: no thread is spawned until the first
//! parallel run. Worker threads are detached and live for the rest of the
//! process, parked on the job-queue condvar when idle. Closures handed to
//! [`Pool::run_chunks`] must be `'static`: the crate forbids `unsafe`, so
//! persistent workers cannot borrow stack data — column buffers are
//! `Arc`-shared ([`crate::table::ColumnData`]) precisely so kernels can
//! capture owned handles cheaply.
//!
//! Pool *size* is resolved once, at [`PoolConfig`] construction
//! ([`PoolConfig::from_env`] reads `ETABLE_SCAN_THREADS` a single time —
//! never on the per-scan hot path), and tests sweep sizes in-process with
//! [`PoolConfig::fixed`] + [`with_pool`] instead of mutating the process
//! environment.

use crate::{Error, Result};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};

/// Rows per morsel. Fixed (never derived from pool size or input length)
/// so chunk boundaries — and therefore merged results and error
/// attribution — are identical at any pool size.
pub const CHUNK_ROWS: usize = 2048;

/// Upper bound on the default pool size when `ETABLE_SCAN_THREADS` is
/// unset: beyond this, scan memory bandwidth saturates before core count.
pub const MAX_DEFAULT_THREADS: usize = 8;

/// Hard cap on an explicit `ETABLE_SCAN_THREADS` override.
pub const MAX_THREADS: usize = 64;

/// Pool sizing policy, resolved once at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    threads: usize,
}

impl PoolConfig {
    /// An explicit pool size, clamped to `1..=`[`MAX_THREADS`]. This is the
    /// test/bench entry point: sweeping sizes goes through constructors,
    /// never through mutating `ETABLE_SCAN_THREADS` mid-process.
    pub fn fixed(threads: usize) -> PoolConfig {
        PoolConfig {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// Reads `ETABLE_SCAN_THREADS` (once — the result is stored, never
    /// re-read per scan) and falls back to the hardware default.
    pub fn from_env() -> PoolConfig {
        Self::from_override(std::env::var("ETABLE_SCAN_THREADS").ok().as_deref())
    }

    /// The sizing policy, factored out for tests: a parseable override is
    /// clamped to `1..=`[`MAX_THREADS`]; anything else falls back to
    /// `available_parallelism` capped at [`MAX_DEFAULT_THREADS`].
    pub fn from_override(override_var: Option<&str>) -> PoolConfig {
        if let Some(v) = override_var {
            if let Ok(n) = v.trim().parse::<usize>() {
                return Self::fixed(n);
            }
        }
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        PoolConfig {
            threads: cores.min(MAX_DEFAULT_THREADS),
        }
    }

    /// The resolved worker count (caller participation included).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue worker threads block on. One per [`Pool`].
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

/// Mutex poisoning cannot leave our state inconsistent (every job runs
/// under `catch_unwind`, and guarded sections are straight-line stores), so
/// recover the guard instead of propagating a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A handle to a persistent worker pool. Cloning shares the pool; the
/// worker threads themselves are spawned on first use and live for the
/// rest of the process.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<Shared>,
    started: Arc<Once>,
    threads: usize,
}

impl Pool {
    /// Creates a (not yet started) pool sized by `config`.
    pub fn new(config: PoolConfig) -> Pool {
        Pool {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            }),
            started: Arc::new(Once::new()),
            threads: config.threads(),
        }
    }

    /// The pool size this handle was configured with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Spawns the `threads - 1` helper workers (the caller of
    /// [`Pool::run_chunks`] is always the remaining worker) exactly once.
    fn ensure_started(&self) {
        self.started.call_once(|| {
            for _ in 1..self.threads {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = lock(&shared.queue);
                        loop {
                            if let Some(job) = q.pop_front() {
                                break job;
                            }
                            q = shared
                                .ready
                                .wait(q)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                    };
                    job();
                });
            }
        });
    }

    /// Runs `per_chunk` over `0..n_rows` in [`CHUNK_ROWS`]-sized morsels
    /// and returns the per-chunk outputs concatenated **in chunk order**.
    ///
    /// Guarantees, independent of pool size:
    ///
    /// * the merged output equals a sequential `per_chunk(0..n)` sweep
    ///   (chunk boundaries are fixed, assignment is not);
    /// * on failure, the returned error is the lowest-numbered failing
    ///   chunk's error — morsels are claimed in ascending order and no new
    ///   morsel is claimed after a failure, so every chunk below the first
    ///   recorded error completed successfully, exactly as it would have
    ///   sequentially;
    /// * a panicking morsel is caught and surfaces as an `Error::Eval`
    ///   (never a hang or a poisoned pool).
    ///
    /// Single-chunk or single-thread runs execute inline on the caller
    /// with no queueing.
    pub fn run_chunks<T, F>(&self, n_rows: usize, per_chunk: F) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(Range<usize>) -> Result<Vec<T>> + Send + Sync + 'static,
    {
        let n_chunks = n_rows.div_ceil(CHUNK_ROWS).max(1);
        if self.threads <= 1 || n_chunks <= 1 {
            return per_chunk(0..n_rows);
        }
        self.ensure_started();
        let state = Arc::new(RunState::new(n_rows, n_chunks));
        let f = Arc::new(per_chunk);
        let helpers = (self.threads - 1).min(n_chunks - 1);
        {
            let mut q = lock(&self.shared.queue);
            for _ in 0..helpers {
                let state = Arc::clone(&state);
                let f = Arc::clone(&f);
                q.push_back(Box::new(move || state.work(f.as_ref())));
            }
        }
        self.shared.ready.notify_all();
        // The caller is a full worker: it drains morsels alongside the
        // helpers, so a busy pool degrades to inline execution instead of
        // deadlocking or waiting idle.
        state.work(f.as_ref());
        state.collect()
    }
}

/// Per-`run_chunks` shared state: the morsel counter and result slots.
struct RunState<T> {
    n_rows: usize,
    n_chunks: usize,
    core: Mutex<RunCore<T>>,
    idle: Condvar,
}

struct RunCore<T> {
    /// Next unclaimed chunk. Monotonic; claims happen in ascending order.
    next: usize,
    /// Chunks claimed but not yet recorded.
    active: usize,
    /// Sticky failure flag; once set, no further chunk is claimed.
    failed: bool,
    /// Per-chunk results, indexed by chunk number.
    slots: Vec<Option<Result<Vec<T>>>>,
}

impl<T> RunState<T> {
    fn new(n_rows: usize, n_chunks: usize) -> RunState<T> {
        RunState {
            n_rows,
            n_chunks,
            core: Mutex::new(RunCore {
                next: 0,
                active: 0,
                failed: false,
                slots: (0..n_chunks).map(|_| None).collect(),
            }),
            idle: Condvar::new(),
        }
    }

    /// The worker loop: claim the next morsel, evaluate it (panics become
    /// errors), record the result. Returns when no morsel is claimable —
    /// either the input is exhausted or a failure was recorded. Because
    /// `next` only moves forward and `failed` is sticky, once any worker
    /// observes "nothing claimable" no *new* claim can happen anywhere, so
    /// [`RunState::collect`] only needs to drain in-flight morsels.
    fn work<F>(&self, f: &F)
    where
        F: Fn(Range<usize>) -> Result<Vec<T>>,
    {
        loop {
            let chunk = {
                let mut core = lock(&self.core);
                if core.failed || core.next >= self.n_chunks {
                    return;
                }
                let c = core.next;
                core.next += 1;
                core.active += 1;
                c
            };
            let lo = chunk * CHUNK_ROWS;
            let hi = ((chunk + 1) * CHUNK_ROWS).min(self.n_rows);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(lo..hi)))
                .unwrap_or_else(|_| {
                    Err(Error::Eval(format!(
                        "executor worker panicked on rows {lo}..{hi}"
                    )))
                });
            let mut core = lock(&self.core);
            if res.is_err() {
                core.failed = true;
            }
            core.slots[chunk] = Some(res);
            core.active -= 1;
            if core.active == 0 {
                self.idle.notify_all();
            }
        }
    }

    /// Waits for in-flight morsels, then merges slots in chunk order. The
    /// first `Err` slot (if any) is returned; unclaimed slots past it are
    /// `None` and terminate the sweep.
    fn collect(&self) -> Result<Vec<T>> {
        let mut core = lock(&self.core);
        while core.active > 0 {
            core = self
                .idle
                .wait(core)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let mut out = Vec::new();
        for slot in core.slots.iter_mut() {
            match slot.take() {
                Some(Ok(part)) => out.extend(part),
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(out)
    }
}

/// The process-wide pool, sized from the environment exactly once.
static GLOBAL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Stack of [`with_pool`] overrides for the current thread.
    static OVERRIDE: RefCell<Vec<Pool>> = const { RefCell::new(Vec::new()) };
}

/// The global pool serving executor kernels, lazily sized by
/// [`PoolConfig::from_env`] on first use.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(PoolConfig::from_env()))
}

/// Sizes the global pool explicitly, instead of from the environment.
/// Returns `false` (and changes nothing) if the global pool was already
/// constructed. This is the bench-harness entry point: pinning the pool
/// goes through a constructor, never through `std::env::set_var`.
pub fn init_global(config: PoolConfig) -> bool {
    GLOBAL.set(Pool::new(config)).is_ok()
}

/// The pool the current thread's kernels should use: the innermost
/// [`with_pool`] override, else the global pool.
pub fn current() -> Pool {
    OVERRIDE
        .with(|o| o.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// Runs `f` with `pool` as the current thread's pool. Overrides nest, and
/// the previous pool is restored even if `f` panics. This is how tests and
/// benches sweep pool sizes in one process — `ETABLE_SCAN_THREADS` is read
/// once at global-pool construction and never mutated mid-run.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(pool.clone()));
    let _guard = Guard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize, pool: &Pool) -> Result<Vec<u32>> {
        pool.run_chunks(n, |range| Ok(range.map(|i| i as u32).collect()))
    }

    #[test]
    fn pool_size_policy_clamps() {
        assert_eq!(PoolConfig::from_override(Some("3")).threads(), 3);
        assert_eq!(PoolConfig::from_override(Some("0")).threads(), 1);
        assert_eq!(
            PoolConfig::from_override(Some("999")).threads(),
            MAX_THREADS
        );
        assert!(PoolConfig::from_override(Some("bogus")).threads() >= 1);
        assert!(PoolConfig::from_override(None).threads() <= MAX_DEFAULT_THREADS);
        assert_eq!(PoolConfig::fixed(0).threads(), 1);
    }

    #[test]
    fn merge_is_chunk_ordered_at_every_pool_size() {
        let n = 3 * CHUNK_ROWS + 7;
        let expected: Vec<u32> = (0..n as u32).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::new(PoolConfig::fixed(threads));
            assert_eq!(ids(n, &pool).unwrap(), expected, "pool size {threads}");
        }
    }

    #[test]
    fn empty_and_single_chunk_inputs_run_inline() {
        let pool = Pool::new(PoolConfig::fixed(8));
        assert_eq!(ids(0, &pool).unwrap(), Vec::<u32>::new());
        assert_eq!(ids(5, &pool).unwrap(), vec![0, 1, 2, 3, 4]);
        // Exactly one chunk: still inline, still complete.
        assert_eq!(ids(CHUNK_ROWS, &pool).unwrap().len(), CHUNK_ROWS);
    }

    #[test]
    fn first_error_in_chunk_order_wins() {
        // Chunks 2 and 4 fail; the reported error must be chunk 2's, and
        // every chunk below it must have completed (as sequentially).
        let pool = Pool::new(PoolConfig::fixed(8));
        let res: Result<Vec<u32>> = pool.run_chunks(6 * CHUNK_ROWS, |range| {
            let chunk = range.start / CHUNK_ROWS;
            if chunk == 2 || chunk == 4 {
                Err(Error::Eval(format!("boom in chunk {chunk}")))
            } else {
                Ok(vec![chunk as u32])
            }
        });
        assert_eq!(res, Err(Error::Eval("boom in chunk 2".into())));
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        let pool = Pool::new(PoolConfig::fixed(4));
        let res: Result<Vec<u32>> = pool.run_chunks(4 * CHUNK_ROWS, |range| {
            if range.start / CHUNK_ROWS == 1 {
                panic!("poisoned morsel");
            }
            Ok(Vec::new())
        });
        let err = res.expect_err("panic must surface as an error");
        let Error::Eval(msg) = err else {
            panic!("wrong error kind: {err:?}");
        };
        assert!(msg.contains("panicked"), "got: {msg}");
        // The pool must stay usable after a panicking run.
        assert_eq!(
            ids(2 * CHUNK_ROWS, &pool).unwrap().len(),
            2 * CHUNK_ROWS,
            "pool poisoned by a panicking morsel"
        );
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let one = Pool::new(PoolConfig::fixed(1));
        let eight = Pool::new(PoolConfig::fixed(8));
        let baseline = current().threads();
        with_pool(&one, || {
            assert_eq!(current().threads(), 1);
            with_pool(&eight, || assert_eq!(current().threads(), 8));
            assert_eq!(current().threads(), 1);
        });
        assert_eq!(current().threads(), baseline);
    }

    #[test]
    fn with_pool_restores_after_panic() {
        let one = Pool::new(PoolConfig::fixed(1));
        let baseline = current().threads();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_pool(&one, || panic!("inner"))
        }));
        assert!(caught.is_err());
        assert_eq!(current().threads(), baseline);
    }
}
