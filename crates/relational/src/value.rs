//! Typed scalar values stored in relational cells.
//!
//! The paper's academic database (Figure 3) only needs integers and text, but
//! the engine supports the usual scalar types so that arbitrary schemas can be
//! translated into the typed graph model.
//!
//! Text values are interned ([`crate::intern`]): `Value::Text` holds a
//! compact [`Sym`], which makes `Value` a 16-byte `Copy` type. All ordering
//! over text resolves through the arena, so sort/group results are byte-wise
//! identical to a `String`-backed engine; only equality and hashing take the
//! symbol-id fast path.

use crate::intern::Sym;
use std::cmp::Ordering;
use std::fmt;

/// 2^63 as an `f64` (exactly representable). Note `i64::MAX as f64` rounds
/// *up* to this value, so int/float boundary checks must compare against
/// 2^63 with a strict `<`, never against `i64::MAX as f64` with `<=`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Compares an `i64` against an `f64` exactly, never widening the int to
/// `f64`: `a as f64` rounds for |a| > 2^53, which made distinct keys such
/// as `i64::MAX - 1` and `9223372036854775808.0` compare equal while
/// hashing differently. Floats at or beyond ±2^63 are strictly outside the
/// `i64` range; below that, `b.trunc()` converts to `i64` without loss and
/// any fractional remainder breaks the tie in `b`'s favor. `None` iff `b`
/// is NaN. The predicate kernels ([`crate::exec::kernel`]) compare mixed
/// INT/FLOAT cells through this same function.
pub(crate) fn int_float_cmp(a: i64, b: f64) -> Option<Ordering> {
    if b.is_nan() {
        return None;
    }
    if b >= TWO_POW_63 {
        return Some(Ordering::Less);
    }
    if b < -TWO_POW_63 {
        return Some(Ordering::Greater);
    }
    let t = b.trunc();
    let ti = t as i64; // exact: t is integral and in [-2^63, 2^63)
    Some(match a.cmp(&ti) {
        Ordering::Equal if b == t => Ordering::Equal,
        // a == trunc(b) but b has a fractional part: trunc moves toward
        // zero, so b sits strictly above t when positive, below when
        // negative.
        Ordering::Equal => {
            if b > t {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        o => o,
    })
}

/// [`int_float_cmp`] extended to a total order for sort/group keys: NaN
/// sorts the way `f64::total_cmp` places it relative to every finite
/// value — negative NaNs below all ints, positive NaNs above.
fn int_float_total_cmp(a: i64, b: f64) -> Ordering {
    match int_float_cmp(a, b) {
        Some(o) => o,
        None if b.is_sign_negative() => Ordering::Greater,
        None => Ordering::Less,
    }
}

/// The total order of two `FLOAT` cells, shared by [`Value::total_cmp`] and
/// the primary-key index's typed comparator ([`crate::pk_index`]).
///
/// `-0.0` and `0.0` are one key: both equal `Int(0)` under the exact
/// cross-type comparison, so keeping `f64::total_cmp`'s `-0.0 < 0.0`
/// split would break Eq transitivity (and diverge from `sql_eq`, which
/// the naive oracle uses for join edges).
pub(crate) fn float_total_cmp(a: f64, b: f64) -> Ordering {
    if a == b {
        Ordering::Equal
    } else {
        a.total_cmp(&b)
    }
}

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A single scalar value in a cell.
///
/// `Null` is a member of every domain, as in SQL. Comparison semantics follow
/// SQL three-valued logic at the expression layer ([`crate::expr`]); `Value`
/// itself provides a *total* order (with `Null` first) so values can be used
/// as sort and grouping keys.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Interned text value.
    Text(Sym),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Builds a text value, interning the string.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Sym::intern(s.as_ref()))
    }

    /// Returns the type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value can be stored in a column of type `ty`.
    ///
    /// `Null` fits everywhere; an `Int` may be widened into a `Float` column.
    pub fn fits(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int | DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Bool)
        )
    }

    /// Interprets the value as an integer when possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interprets the value as a float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interprets the value as text.
    pub fn as_text(&self) -> Option<&'static str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// SQL comparison: returns `None` when either side is `Null` or the
    /// types are incomparable, mirroring `UNKNOWN` in three-valued logic.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).map(Ordering::reverse),
            (Value::Text(a), Value::Text(b)) => Some(Sym::cmp_str(*a, *b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality: `None` (UNKNOWN) when either side is `Null`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        // Text fast path: interned symbols are equal iff the strings are.
        if let (Value::Text(a), Value::Text(b)) = (self, other) {
            return Some(a == b);
        }
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Total ordering used for ORDER BY and grouping keys.
    ///
    /// `Null` sorts before everything; values of different types sort by a
    /// fixed type rank (numbers < text < bool) so the order is total. Text
    /// compares by string content (never by symbol id).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Text(_) => 2,
                Value::Bool(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => float_total_cmp(*a, *b),
            (Value::Int(a), Value::Float(b)) => int_float_total_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_total_cmp(*b, *a).reverse(),
            (Value::Text(a), Value::Text(b)) => Sym::cmp_str(*a, *b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// A [`Value`] decorated with its dictionary rank, for sort/dedup/min-max
/// loops.
///
/// Comparing interned text through [`Value::total_cmp`] takes a read lock
/// on the global arena and walks both strings per comparison; an
/// `O(n log n)` sort over a text column would re-enter the lock on every
/// probe. `SortCell` looks the rank up once per cell from a
/// [`RankMap`](crate::intern::RankMap) snapshot, so the comparator compares
/// two `u32`s and never touches the interner (there is no string-resolving
/// fallback path). The order is exactly [`Value::total_cmp`].
#[derive(Debug, Clone, Copy)]
pub struct SortCell {
    value: Value,
    /// Dictionary rank for text cells; 0 (unused) for every other type.
    rank: u32,
}

impl SortCell {
    /// Decorates a value with its dictionary rank from `ranks`.
    ///
    /// # Panics
    /// If the value is text interned after `ranks` was snapshotted (see
    /// [`RankMap::rank`](crate::intern::RankMap::rank)).
    pub fn new(value: Value, ranks: &crate::intern::RankMap) -> Self {
        let rank = match value {
            Value::Text(s) => ranks.rank(s),
            _ => 0,
        };
        SortCell { value, rank }
    }

    /// The undecorated value.
    pub fn value(self) -> Value {
        self.value
    }

    /// [`Value::total_cmp`] without arena reads: two text cells compare
    /// their precomputed ranks; every other pairing never reaches the
    /// arena inside `total_cmp` anyway.
    pub fn total_cmp(a: SortCell, b: SortCell) -> Ordering {
        match (a.value, b.value) {
            (Value::Text(_), Value::Text(_)) => a.rank.cmp(&b.rank),
            _ => a.value.total_cmp(&b.value),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Text fast path on symbol ids; everything else through the total
        // order (which makes Int(2) == Float(2.0), as before interning).
        if let (Value::Text(a), Value::Text(b)) = (self, other) {
            return a == b;
        }
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(std::cmp::Ord::cmp(self, other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash ints and floats identically when they compare equal:
            // an integral float hashes as its integer value.
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                // Integral floats in the exact i64 range hash as their
                // integer value (this also folds -0.0 onto Int(0)'s hash).
                // The upper bound is a strict `< 2^63`: `i64::MAX as f64`
                // rounds up to 2^63, so a `<=` guard let Float(2^63) hash
                // as i64::MAX (saturating cast) while not comparing equal
                // to Int(i64::MAX) — a hash/eq inconsistency.
                if f.fract() == 0.0 && *f >= -TWO_POW_63 && *f < TWO_POW_63 {
                    1u8.hash(state);
                    (*f as i64).hash(state);
                } else {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            // Symbol ids are in bijection with strings, so hashing the id
            // is consistent with string equality — and turns text join /
            // group keys into word-sized hashes.
            Value::Text(s) => {
                3u8.hash(state);
                s.id().hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::text(&v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_sorts_nulls_first() {
        let mut v = vec![Value::Int(3), Value::Null, Value::Int(1)];
        v.sort();
        assert_eq!(v, vec![Value::Null, Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn eq_and_hash_agree_across_int_float() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn eq_and_hash_agree_for_interned_text() {
        let a = Value::text("value-test-same");
        let b = Value::text("value-test-same");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(
            Value::text("value-test-same"),
            Value::text("value-test-other")
        );
    }

    /// Regression: `i64::MAX as f64` rounds up to 2^63, so the old hash
    /// guard (`<= i64::MAX as f64`) admitted Float(2^63), which then
    /// hashed as i64::MAX via the saturating cast. Combined with the old
    /// widening comparison (`a as f64`), Float(2^63) compared *equal* to
    /// Int(i64::MAX - 1) while hashing differently — a hash/eq
    /// inconsistency that corrupts hash-join and group-by keying.
    #[test]
    fn boundary_floats_do_not_collide_with_extreme_ints() {
        let two63 = Value::Float(9_223_372_036_854_775_808.0);
        // 2^63 is strictly greater than every i64.
        assert_ne!(two63, Value::Int(i64::MAX));
        assert_ne!(two63, Value::Int(i64::MAX - 1));
        assert_eq!(
            two63.sql_cmp(&Value::Int(i64::MAX)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(i64::MAX).total_cmp(&two63), Ordering::Less);
        // 2^63 must take the raw-bits hash path, not the integral path.
        assert_ne!(hash_of(&two63), hash_of(&Value::Int(i64::MAX)));
        // -2^63 is exactly i64::MIN: equal, and hashed identically.
        let neg_two63 = Value::Float(-9_223_372_036_854_775_808.0);
        assert_eq!(neg_two63, Value::Int(i64::MIN));
        assert_eq!(hash_of(&neg_two63), hash_of(&Value::Int(i64::MIN)));
        // The largest integral float below 2^63 still matches its int.
        let below = 9_223_372_036_854_774_784i64; // 2^63 - 1024
        assert_eq!(Value::Float(below as f64), Value::Int(below));
        assert_eq!(
            hash_of(&Value::Float(below as f64)),
            hash_of(&Value::Int(below))
        );
        assert_ne!(Value::Float(below as f64), Value::Int(i64::MAX));
    }

    /// Int/float comparison is exact: the int side is never rounded
    /// through `f64`. Under the old widening rule both assertions below
    /// reported `Equal`.
    #[test]
    fn int_float_comparison_is_exact_near_two_pow_63() {
        let two63 = Value::Float(9_223_372_036_854_775_808.0);
        assert_eq!(
            Value::Int(i64::MAX - 1).sql_cmp(&two63),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(i64::MAX).sql_cmp(&two63), Some(Ordering::Less));
        // Fractional tie-break around an exact integer.
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(-3).sql_cmp(&Value::Float(-3.5)),
            Some(Ordering::Greater)
        );
        // Infinities sit outside every int.
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(f64::INFINITY)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::Float(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
    }

    /// `-0.0`, `0.0` and `Int(0)` are one equivalence class (keeps Eq
    /// transitive given the exact int/float comparison) with one hash.
    #[test]
    fn negative_zero_is_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        assert_eq!(
            Value::Float(-0.0).total_cmp(&Value::Float(0.0)),
            Ordering::Equal
        );
        assert_eq!(Value::Float(-0.0).sql_eq(&Value::Float(0.0)), Some(true));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
    }

    /// NaN keeps its `f64::total_cmp` placement against ints: negative
    /// NaN below every int, positive NaN above — and stays UNKNOWN under
    /// SQL comparison.
    #[test]
    fn nan_total_order_against_ints() {
        let pnan = Value::Float(f64::NAN);
        let nnan = Value::Float(-f64::NAN);
        assert_eq!(Value::Int(i64::MAX).total_cmp(&pnan), Ordering::Less);
        assert_eq!(Value::Int(i64::MIN).total_cmp(&nnan), Ordering::Greater);
        assert_eq!(pnan.total_cmp(&Value::Int(0)), Ordering::Greater);
        assert_eq!(pnan.sql_cmp(&Value::Int(0)), None);
    }

    #[test]
    fn fits_allows_widening_and_null() {
        assert!(Value::Int(1).fits(DataType::Float));
        assert!(Value::Null.fits(DataType::Text));
        assert!(!Value::text("x").fits(DataType::Int));
    }

    #[test]
    fn display_round_trips_simply() {
        assert_eq!(Value::from("abc").to_string(), "abc");
        assert_eq!(Value::from(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::text("a").as_text(), Some("a"));
        assert_eq!(Value::Null.as_int(), None);
    }

    /// Pin: text ordering follows the *strings*, never the intern order.
    /// Symbols are deliberately created in reverse lexicographic order so
    /// an id-based comparison would invert every assertion below.
    #[test]
    fn text_total_order_is_lexicographic_despite_intern_order() {
        let later = Value::text("value-order-zz");
        let middle = Value::text("value-order-mm");
        let first = Value::text("value-order-aa");
        // Intern order was zz, mm, aa — ids ascend in that order.
        assert_eq!(first.total_cmp(&later), Ordering::Less);
        assert_eq!(middle.total_cmp(&later), Ordering::Less);
        assert_eq!(first.sql_cmp(&middle), Some(Ordering::Less));
        let mut v = vec![later, first, Value::Null, middle];
        v.sort();
        assert_eq!(
            v,
            vec![
                Value::Null,
                Value::text("value-order-aa"),
                Value::text("value-order-mm"),
                Value::text("value-order-zz"),
            ]
        );
    }

    /// Pin: ORDER BY / GROUP BY keys built from mixed types keep the
    /// `Null < numbers < text < bool` rank order with interned text.
    #[test]
    fn mixed_type_sort_keys_keep_rank_order() {
        let mut v = vec![
            Value::Bool(false),
            Value::text("value-rank-b"),
            Value::Float(2.5),
            Value::Null,
            Value::text("value-rank-a"),
            Value::Int(9),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Value::Null,
                Value::Float(2.5),
                Value::Int(9),
                Value::text("value-rank-a"),
                Value::text("value-rank-b"),
                Value::Bool(false),
            ]
        );
    }

    /// Pin: a rank-decorated sort is byte-for-byte the `total_cmp` order,
    /// including text interned in adversarial (reverse) order, mixed types
    /// and NULLs — and never consults the arena inside the comparator.
    #[test]
    fn sort_cell_order_equals_total_cmp() {
        let values = vec![
            Value::text("cell-order-zz"),
            Value::Bool(true),
            Value::text("cell-order-mm"),
            Value::Null,
            Value::Float(1.5),
            Value::text("cell-order-aa"),
            Value::Int(2),
            Value::text("cell-order-mm"),
        ];
        let ranks = crate::intern::rank_map();
        let mut by_cell: Vec<SortCell> = values.iter().map(|&v| SortCell::new(v, &ranks)).collect();
        by_cell.sort_by(|&a, &b| SortCell::total_cmp(a, b));
        let mut by_value = values.clone();
        by_value.sort();
        assert_eq!(
            by_cell.into_iter().map(SortCell::value).collect::<Vec<_>>(),
            by_value
        );
    }

    #[test]
    fn value_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Value>();
        assert!(std::mem::size_of::<Value>() <= 16);
    }
}
