//! The query-execution memory budget (`ETABLE_MEM_BUDGET`).
//!
//! The budget caps the *resident build-side footprint* of a hash join:
//! when [`crate::colrel`]'s build side is estimated to exceed it, the join
//! degrades to the disk-spilling Grace path ([`crate::storage::spill`])
//! instead of growing an unbounded hash table. Unset (the default) means
//! unlimited — the in-memory fast path is taken unconditionally and is
//! byte-for-byte the pre-budget code path.
//!
//! The environment variable is read **once** per process (never on the
//! per-join hot path), and tests / benches sweep budgets in-process with
//! [`with_budget`] instead of mutating the process environment.

use std::cell::RefCell;
use std::sync::OnceLock;

/// Parses a budget string: a plain byte count, optionally suffixed with
/// `k`/`m`/`g` (binary multiples, case-insensitive). Returns `None` —
/// unlimited — for anything unparseable or overflowing.
pub fn parse_budget(s: &str) -> Option<u64> {
    let t = s.trim();
    let (digits, shift) = match t.as_bytes().last()? {
        b'k' | b'K' => (&t[..t.len() - 1], 10),
        b'm' | b'M' => (&t[..t.len() - 1], 20),
        b'g' | b'G' => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_shl(shift)
}

/// The process-wide budget, read from `ETABLE_MEM_BUDGET` exactly once.
static GLOBAL: OnceLock<Option<u64>> = OnceLock::new();

thread_local! {
    /// Stack of [`with_budget`] overrides for the current thread.
    static OVERRIDE: RefCell<Vec<Option<u64>>> = const { RefCell::new(Vec::new()) };
}

/// The environment-configured budget (`None` = unlimited), resolved on
/// first call and cached for the life of the process.
pub fn env_budget() -> Option<u64> {
    *GLOBAL.get_or_init(|| {
        std::env::var("ETABLE_MEM_BUDGET")
            .ok()
            .as_deref()
            .and_then(parse_budget)
    })
}

/// The budget the current thread's joins should respect: the innermost
/// [`with_budget`] override, else the environment budget. `None` means
/// unlimited (never spill).
pub fn current() -> Option<u64> {
    OVERRIDE
        .with(|o| o.borrow().last().copied())
        .unwrap_or_else(env_budget)
}

/// Runs `f` with `budget` as the current thread's memory budget
/// (`None` = unlimited, overriding even a tiny environment budget).
/// Overrides nest, and the previous budget is restored even if `f`
/// panics. This is how the fuzzer and benches sweep spilled vs. resident
/// joins in one process.
pub fn with_budget<R>(budget: Option<u64>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(budget));
    let _guard = Guard;
    f()
}

/// Estimated resident bytes of a hash-join build side: `build_n` keys of
/// `key_bytes` each. Per entry: the key plus a 4-byte head slot and one
/// control byte, scaled by the hash table's 8/7 maximum load factor, plus
/// the 4-byte chain link every build row carries. The estimate is a
/// deterministic function of the inputs — the spill decision must not
/// depend on allocator state or platform.
pub fn join_build_estimate(build_n: usize, key_bytes: usize) -> u64 {
    let entry = (key_bytes as u64 + 4 + 1) * 8 / 7 + 4;
    build_n as u64 * entry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_plain_and_suffixed_counts() {
        assert_eq!(parse_budget("0"), Some(0));
        assert_eq!(parse_budget("4096"), Some(4096));
        assert_eq!(parse_budget(" 64k "), Some(64 << 10));
        assert_eq!(parse_budget("2M"), Some(2 << 20));
        assert_eq!(parse_budget("1g"), Some(1 << 30));
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("lots"), None);
        assert_eq!(parse_budget("99999999999999999999"), None);
    }

    #[test]
    fn with_budget_overrides_and_restores() {
        with_budget(Some(1), || {
            assert_eq!(current(), Some(1));
            with_budget(None, || assert_eq!(current(), None));
            with_budget(Some(7), || assert_eq!(current(), Some(7)));
            assert_eq!(current(), Some(1));
        });
    }

    #[test]
    fn with_budget_restores_after_panic() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_budget(Some(3), || panic!("inner"))
        }));
        assert!(caught.is_err());
        // The panicked override must be popped: pushing a fresh one sees
        // only itself.
        with_budget(Some(9), || assert_eq!(current(), Some(9)));
    }

    #[test]
    fn estimate_grows_with_rows_and_key_width() {
        assert_eq!(join_build_estimate(0, 16), 0);
        assert!(join_build_estimate(10, 16) > join_build_estimate(10, 8));
        assert!(join_build_estimate(11, 8) > join_build_estimate(10, 8));
        // One Value-keyed row must already exceed a byte-sized budget, so
        // a budget of 1 forces every nonempty join to spill.
        assert!(join_build_estimate(1, 16) > 1);
    }
}
