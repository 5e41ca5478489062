//! A process-wide string interner backing [`crate::value::Value::Text`].
//!
//! Every distinct text value in the engine is stored exactly once in a
//! leaked arena and referred to by a compact [`Sym`] (a `u32`). This is what
//! makes [`crate::value::Value`] `Copy`: rows are plain memcpys, hash-join
//! and GROUP BY keys on text hash a machine word instead of a heap string,
//! and the relational, TGM and presentation layers all share one arena, so
//! translating a database re-uses the exact symbols the tables hold.
//!
//! Interned strings live for the rest of the process (`Box::leak`), which is
//! the right trade-off for this workload: the corpus vocabulary (titles,
//! names, keywords) is bounded and read many orders of magnitude more often
//! than it is created.
//!
//! Ordering caveat: symbol ids are assigned in *first-intern* order, which
//! has no relation to lexicographic order. [`Sym`] therefore deliberately
//! does not implement `Ord`; ordered comparisons go through
//! [`Sym::cmp_str`] (used by `Value::total_cmp`/`sql_cmp`), so ORDER BY and
//! grouping results are identical to the pre-interning engine. Equality and
//! hashing, by contrast, are safe on the id alone because the arena holds
//! each string exactly once.

use crate::exec::hash::KeyHashBuilder;
use crate::unpoison;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, RwLock};

/// A map keyed by symbols, hashed with the join kernel's word hasher: a
/// symbol's id is assigned by this process, never chosen by a client, so
/// SipHash's collision resistance buys nothing here.
pub type SymMap<V> = HashMap<Sym, V, KeyHashBuilder>;

/// An interned string: a dense `u32` handle into the global arena.
///
/// `Sym` is `Copy`; equality and hashing compare ids (equal strings always
/// receive equal ids). Resolve with [`Sym::as_str`]; display renders the
/// underlying text.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Arena {
    /// id -> string. Entries are never removed or mutated.
    strings: Vec<&'static str>,
    /// string -> id, for intern lookups.
    ids: HashMap<&'static str, u32>,
}

impl Arena {
    /// The id of `s`, appending it on first sight. The one place the arena
    /// is written: the id is computed first (the capacity check is the only
    /// point that can panic, and nothing has changed yet), then the string
    /// is pushed, then mapped — so a thread that unwinds under the write
    /// guard leaves `strings` and `ids` describing the same set, and the
    /// poisoned guard is recovered ([`unpoison`]) rather than propagated.
    fn id_of(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("interner capacity exceeded");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.strings.push(leaked);
        self.ids.insert(leaked, id);
        id
    }
}

/// The process-global arena, shared by every connection: its guards are
/// always taken through [`unpoison`] (see [`Arena::id_of`] for why that is
/// sound), so one client's panic cannot disable text for all the others.
static ARENA: LazyLock<RwLock<Arena>> = LazyLock::new(|| {
    RwLock::new(Arena {
        strings: Vec::new(),
        ids: HashMap::new(),
    })
});

impl Sym {
    /// Interns `s`, returning its symbol. Equal strings always return equal
    /// symbols; a string is copied into the arena only on first sight.
    pub fn intern(s: &str) -> Sym {
        if let Some(&id) = unpoison(ARENA.read()).ids.get(s) {
            return Sym(id);
        }
        // `id_of` looks again: another thread may have interned between
        // the two locks.
        Sym(unpoison(ARENA.write()).id_of(s))
    }

    /// The interned text. `'static` because arena entries are never freed.
    ///
    /// Lock-free in steady state: resolution goes through a thread-local
    /// clone of the string snapshot (see [`strings_snapshot`]), so parallel
    /// scan workers evaluating text predicates (`LIKE`, rendering) never
    /// contend on the arena lock per row. A thread only touches the lock
    /// when it meets a symbol newer than its snapshot, which re-syncs it to
    /// the current arena.
    pub fn as_str(self) -> &'static str {
        let id = self.0 as usize;
        TLS_STRINGS.with(|tls| {
            if let Some(&s) = tls.borrow().get(id) {
                return s;
            }
            // `self` exists, so the arena holds it and the snapshot built
            // now must cover it.
            let snap = strings_snapshot();
            let s = snap[id];
            *tls.borrow_mut() = snap;
            s
        })
    }

    /// The raw arena id (stable for the life of the process).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Lexicographic comparison of the *strings* behind two symbols, with a
    /// fast path for identical ids; resolution is lock-free via
    /// [`Sym::as_str`]'s thread-local snapshot.
    pub fn cmp_str(a: Sym, b: Sym) -> std::cmp::Ordering {
        if a.0 == b.0 {
            return std::cmp::Ordering::Equal;
        }
        a.as_str().cmp(b.as_str())
    }
}

/// Cached immutable snapshot of the arena's `id -> string` table, rebuilt
/// (a plain `O(n)` copy of the slice of leaked `&'static str`s) whenever the
/// arena has grown — the same length-as-version-stamp invalidation rule as
/// the rank table. Lock order is always `STRINGS` before `ARENA`, and
/// [`Sym::intern`] never touches `STRINGS`, so the two can never deadlock.
/// The only write is one assignment of a fully built `Arc` (as for
/// [`RANKS`]): a panic while building leaves the previous snapshot in
/// place, so a poisoned guard is recovered, not propagated.
static STRINGS: LazyLock<RwLock<Arc<Vec<&'static str>>>> =
    LazyLock::new(|| RwLock::new(Arc::new(Vec::new())));

thread_local! {
    /// Per-thread clone of the latest string snapshot this thread has
    /// needed; lets [`Sym::as_str`] resolve without any atomics or locks.
    static TLS_STRINGS: RefCell<Arc<Vec<&'static str>>> = RefCell::new(Arc::new(Vec::new()));
}

/// Returns a snapshot covering every string interned so far, indexed by
/// symbol id.
///
/// Arena entries are append-only, so a snapshot's length is its complete
/// version stamp: ids `< snapshot.len()` resolve through it forever, and a
/// longer arena only ever *extends* a previous snapshot. Dictionary-encoded
/// predicate evaluation ([`crate::exec::pred`]) leans on exactly that to
/// build (and incrementally extend) per-pattern membership bitmaps over the
/// whole vocabulary instead of re-matching text per row.
pub fn strings_snapshot() -> Arc<Vec<&'static str>> {
    let arena_len = interned_count();
    {
        let cached = unpoison(STRINGS.read());
        if cached.len() == arena_len {
            return Arc::clone(&cached);
        }
    }
    let mut slot = unpoison(STRINGS.write());
    let arena = unpoison(ARENA.read());
    // Double-checked: another thread may have rebuilt between locks (and
    // the arena may have grown past `arena_len`; copy what it holds now).
    if slot.len() != arena.strings.len() {
        *slot = Arc::new(arena.strings.clone());
    }
    Arc::clone(&slot)
}

/// Number of distinct strings interned so far (diagnostics/tests).
pub fn interned_count() -> usize {
    unpoison(ARENA.read()).strings.len()
}

/// Interns a batch of strings, returning the symbols in input order. The
/// arena's read guard is taken once, for the run of strings it already
/// holds; the write guard once more, only if a new string ends that run,
/// for the rest of the batch.
///
/// This is the path for every batch that arrives from outside: reopening a
/// saved database re-interns each table's arena segment ([`crate::storage`]),
/// and a wire client interns each result's new strings. A per-string
/// [`Sym::intern`] would take a guard (two for a new string) per string.
/// Semantics are identical to interning each string in order.
pub fn intern_all<S: AsRef<str>>(strings: &[S]) -> Vec<Sym> {
    let mut syms = Vec::with_capacity(strings.len());
    {
        let arena = unpoison(ARENA.read());
        for s in strings {
            match arena.ids.get(s.as_ref()) {
                Some(&id) => syms.push(Sym(id)),
                None => break,
            }
        }
    }
    let known = syms.len();
    if known < strings.len() {
        // `id_of` looks again, so a string interned by another thread
        // between the two guards keeps its id.
        let mut arena = unpoison(ARENA.write());
        syms.extend(
            strings[known..]
                .iter()
                .map(|s| Sym(arena.id_of(s.as_ref()))),
        );
    }
    syms
}

/// The lazily-maintained dictionary-rank table: `ranks[id]` is the position
/// of symbol `id` in the lexicographic order of every string interned when
/// the snapshot was built. Guarded separately from [`ARENA`]; the lock order
/// is always `RANKS` before `ARENA` (and [`Sym::intern`] never touches
/// `RANKS`), so the two can never deadlock.
static RANKS: LazyLock<RwLock<Arc<Vec<u32>>>> = LazyLock::new(|| RwLock::new(Arc::new(Vec::new())));

/// An immutable snapshot of the dictionary-order rank table.
///
/// For any two symbols `a`, `b` covered by the same snapshot,
/// `snapshot.rank(a) < snapshot.rank(b)` iff `a.as_str() < b.as_str()` —
/// so ORDER BY, MIN/MAX and dedup over interned text can compare two `u32`s
/// instead of taking the arena lock and walking both strings per
/// comparison. Interning more strings after a snapshot is taken changes the
/// *absolute* ranks a fresh snapshot would assign, but never the relative
/// order of the symbols this snapshot covers, so a held snapshot stays
/// valid for the symbols that existed when it was built.
#[derive(Debug, Clone)]
pub struct RankMap(Arc<Vec<u32>>);

impl RankMap {
    /// Dictionary rank of `s` within this snapshot.
    ///
    /// # Panics
    /// If `s` was interned after the snapshot was built. Callers obtain the
    /// snapshot *after* the values they compare exist (the SQL executor
    /// takes it per sort/aggregation over already-stored data), so this is
    /// an internal ordering bug, never a data-dependent condition.
    pub fn rank(&self, s: Sym) -> u32 {
        match self.0.get(s.0 as usize) {
            Some(&r) => r,
            None => panic!(
                "symbol id {} interned after the rank snapshot ({} entries)",
                s.0,
                self.0.len()
            ),
        }
    }

    /// Whether `s` existed when this snapshot was built.
    pub fn covers(&self, s: Sym) -> bool {
        (s.0 as usize) < self.0.len()
    }

    /// Number of symbols covered by the snapshot.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the snapshot covers no symbols.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Returns a rank snapshot covering every symbol interned so far.
///
/// Invalidation rule: the cached table is rebuilt (an `O(n log n)` argsort
/// of the arena) whenever the arena has **grown** since the last build —
/// entries are never removed or mutated, so arena length is the complete
/// version stamp. With the bounded vocabulary of this workload the rebuild
/// amortizes to one sort after each load phase; steady-state queries take
/// the read-lock fast path and clone an `Arc`.
pub fn rank_map() -> RankMap {
    let arena_len = interned_count();
    {
        let cached = unpoison(RANKS.read());
        if cached.len() == arena_len {
            return RankMap(Arc::clone(&cached));
        }
    }
    let mut slot = unpoison(RANKS.write());
    let arena = unpoison(ARENA.read());
    // Double-checked: another thread may have rebuilt between locks (and
    // the arena may have grown past `arena_len`; build for what it holds
    // now).
    if slot.len() != arena.strings.len() {
        let mut order: Vec<u32> = (0..arena.strings.len() as u32).collect();
        order.sort_unstable_by_key(|&id| arena.strings[id as usize]);
        let mut ranks = vec![0u32; order.len()];
        for (rank, &id) in order.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        *slot = Arc::new(ranks);
    }
    RankMap(Arc::clone(&slot))
}

impl std::fmt::Debug for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render the text, not the id: ids vary with intern order and would
        // make test failure output unreadable.
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_get_equal_symbols() {
        let a = Sym::intern("interner-test-alpha");
        let b = Sym::intern("interner-test-alpha");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "interner-test-alpha");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Sym::intern("interner-test-one");
        let b = Sym::intern("interner-test-two");
        assert_ne!(a, b);
    }

    #[test]
    fn cmp_str_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order so id order and string
        // order disagree; cmp_str must follow the strings.
        let z = Sym::intern("interner-test-zzz");
        let a = Sym::intern("interner-test-aaa");
        assert_eq!(Sym::cmp_str(a, z), std::cmp::Ordering::Less);
        assert_eq!(Sym::cmp_str(z, a), std::cmp::Ordering::Greater);
        assert_eq!(Sym::cmp_str(a, a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn interning_is_idempotent_for_count() {
        let s = Sym::intern("interner-test-count");
        let after_first = interned_count();
        let t = Sym::intern("interner-test-count");
        assert_eq!(s, t);
        assert_eq!(interned_count(), after_first);
    }

    #[test]
    fn intern_all_matches_interning_one_at_a_time() {
        let known = Sym::intern("batch-test-known");
        let batch = intern_all(&[
            "batch-test-new-a",
            "batch-test-known",
            "batch-test-new-b",
            "batch-test-new-a",
        ]);
        assert_eq!(batch[1], known);
        assert_eq!(batch[0], batch[3]);
        assert_ne!(batch[0], batch[2]);
        assert!(batch[0].id() < batch[2].id(), "new ids in input order");
        for (s, sym) in ["batch-test-new-a", "batch-test-new-b"]
            .iter()
            .zip([batch[0], batch[2]])
        {
            assert_eq!(Sym::intern(s), sym);
            assert_eq!(sym.as_str(), *s);
        }
        assert!(intern_all::<&str>(&[]).is_empty());
    }

    #[test]
    fn debug_and_display_show_text() {
        let s = Sym::intern("interner-test-show");
        assert_eq!(format!("{s}"), "interner-test-show");
        assert_eq!(format!("{s:?}"), "Sym(\"interner-test-show\")");
    }

    #[test]
    fn rank_map_orders_like_strings_despite_intern_order() {
        // Reverse lexicographic intern order: id order and rank order must
        // disagree, and ranks must follow the strings.
        let z = Sym::intern("rank-test-zz");
        let m = Sym::intern("rank-test-mm");
        let a = Sym::intern("rank-test-aa");
        let ranks = rank_map();
        assert!(ranks.covers(z) && ranks.covers(m) && ranks.covers(a));
        assert!(ranks.rank(a) < ranks.rank(m));
        assert!(ranks.rank(m) < ranks.rank(z));
        // Rank comparisons agree with cmp_str on every pair.
        for &(x, y) in &[(a, m), (m, z), (a, z), (a, a)] {
            assert_eq!(ranks.rank(x).cmp(&ranks.rank(y)), Sym::cmp_str(x, y));
        }
    }

    #[test]
    fn rank_map_rebuilds_after_arena_growth() {
        let first = Sym::intern("rank-grow-bb");
        let before = rank_map();
        assert!(before.covers(first));
        // Interning a lexicographically-smaller string invalidates the
        // cached table; a fresh snapshot must cover it and re-rank.
        let smaller = Sym::intern("rank-grow-aa");
        let after = rank_map();
        assert!(after.covers(smaller));
        assert!(after.rank(smaller) < after.rank(first));
        // The old snapshot still orders the symbols it covers correctly.
        assert!(before.covers(first));
    }

    #[test]
    fn snapshots_are_consistent_across_threads() {
        let syms: Vec<Sym> = (0..16)
            .map(|i| Sym::intern(&format!("rank-thread-{i:02}")))
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let syms = syms.clone();
                std::thread::spawn(move || {
                    let ranks = rank_map();
                    for w in syms.windows(2) {
                        assert!(ranks.rank(w[0]) < ranks.rank(w[1]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn as_str_resolves_symbols_newer_than_the_thread_snapshot() {
        // Warm this thread's snapshot, then intern more strings (growing
        // the arena past it); resolution must transparently re-sync.
        let old = Sym::intern("strs-snap-old");
        assert_eq!(old.as_str(), "strs-snap-old");
        let fresh: Vec<Sym> = (0..32)
            .map(|i| Sym::intern(&format!("strs-snap-new-{i:02}")))
            .collect();
        for (i, s) in fresh.iter().enumerate() {
            assert_eq!(s.as_str(), format!("strs-snap-new-{i:02}"));
        }
        // A different thread starts cold and must also resolve everything.
        let handle = std::thread::spawn(move || {
            assert_eq!(old.as_str(), "strs-snap-old");
            fresh.iter().map(|s| s.as_str().len()).sum::<usize>()
        });
        assert_eq!(handle.join().unwrap(), 32 * "strs-snap-new-00".len());
    }

    #[test]
    fn threads_agree_on_symbols() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let shared = Sym::intern("interner-test-shared");
                    let own = Sym::intern(&format!("interner-test-thread-{i}"));
                    (shared, own)
                })
            })
            .collect();
        let results: Vec<(Sym, Sym)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first = results[0].0;
        assert!(results.iter().all(|(s, _)| *s == first));
        let mut own: Vec<u32> = results.iter().map(|(_, o)| o.id()).collect();
        own.sort_unstable();
        own.dedup();
        assert_eq!(own.len(), 8, "per-thread strings must stay distinct");
    }

    /// One connection's thread dying with every interner guard in hand
    /// must not take text away from the others: the guards' state is
    /// consistent wherever a panic can occur (see [`Arena::id_of`]), so
    /// they are recovered, not propagated.
    #[test]
    fn a_panic_under_the_write_guards_stops_nobody() {
        let before = Sym::intern("poison-test-before");
        let dying = std::thread::spawn(|| {
            let _ranks = RANKS.write();
            let _strings = STRINGS.write();
            let _arena = ARENA.write();
            panic!("a client's thread dies holding every interner guard");
        });
        assert!(dying.join().is_err());
        assert!(ARENA.is_poisoned() && STRINGS.is_poisoned() && RANKS.is_poisoned());
        let survivor = std::thread::spawn(move || {
            let again = Sym::intern("poison-test-before");
            let after = Sym::intern("poison-test-after");
            let batch = intern_all(&["poison-test-batch", "poison-test-after"]);
            let strings = strings_snapshot();
            let ranks = rank_map();
            assert_eq!(again, before);
            assert_eq!(batch[1], after);
            assert_eq!(strings[after.id() as usize], "poison-test-after");
            assert_eq!(after.as_str(), "poison-test-after");
            assert!(ranks.rank(after) < ranks.rank(batch[0]));
            assert!(ranks.rank(batch[0]) < ranks.rank(before));
        });
        survivor
            .join()
            .expect("the interner outlives a poisoned guard");
    }
}
