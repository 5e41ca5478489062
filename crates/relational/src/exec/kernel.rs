//! Word-at-a-time evaluation of a compiled predicate ([`super::pred`]).
//!
//! A [`Node`] tree is evaluated over 64 logical rows at a time. Every
//! column it reads is first loaded into a typed [`Lane`]: its cells for
//! those rows (a window of the column slice for an unfiltered scan, one
//! gather through the selection vector otherwise) and its null word. Each
//! node then
//! yields a [`Mask`] pair — the rows where it is TRUE and the rows where
//! it is UNKNOWN; every other live row is FALSE. A leaf's UNKNOWN rows are
//! the null words of the columns it reads (plus NaN cells under a float
//! comparison), so the null bitmap is the only source of NULLs: a
//! column's declared nullability is never consulted. Kleene AND / OR / NOT
//! combine mask pairs with a few word operations, never a branch per row.

use super::pred::DictBits;
use crate::expr::{in_list, CmpOp, LikePattern, Truth};
use crate::intern::{RankMap, Sym};
use crate::table::{ColumnData, ColumnStore, NullBitmap};
use crate::value::{int_float_cmp, Value};
use std::cmp::Ordering;

/// Rows per word.
pub(super) const WORD: usize = 64;

/// The rows of one word where a predicate is TRUE (`t`) and where it is
/// UNKNOWN (`u`). The two are disjoint, and no bit past the word's live
/// rows is ever set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Mask {
    pub(super) t: u64,
    pub(super) u: u64,
}

impl Mask {
    /// A leaf: rows matching `hit`, except the `unknown` ones.
    fn leaf(hit: u64, unknown: u64) -> Mask {
        Mask {
            t: hit & !unknown,
            u: unknown,
        }
    }

    fn constant(v: Truth, live: u64) -> Mask {
        match v {
            Truth::True => Mask { t: live, u: 0 },
            Truth::False => Mask { t: 0, u: 0 },
            Truth::Unknown => Mask { t: 0, u: live },
        }
    }

    /// Kleene AND: FALSE wins, then UNKNOWN.
    fn and(self, o: Mask) -> Mask {
        let t = self.t & o.t;
        Mask {
            t,
            u: (self.t | self.u) & (o.t | o.u) & !t,
        }
    }

    /// Kleene OR: TRUE wins, then UNKNOWN.
    fn or(self, o: Mask) -> Mask {
        let t = self.t | o.t;
        Mask {
            t,
            u: (self.u | o.u) & !t,
        }
    }

    /// Kleene NOT: TRUE and FALSE swap, UNKNOWN stays.
    fn not(self, live: u64) -> Mask {
        Mask {
            t: live & !(self.t | self.u),
            u: self.u,
        }
    }
}

/// The live rows of a word of `n` rows.
fn live(n: usize) -> u64 {
    if n >= WORD {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Bit `i` set iff `f(xs[i])`.
fn bits<T: Copy>(xs: &[T], f: impl Fn(T) -> bool) -> u64 {
    xs.iter()
        .enumerate()
        .fold(0, |m, (i, &x)| m | u64::from(f(x)) << i)
}

/// Bit `i` set iff `f(xs[i], ys[i])`.
fn bits2<T: Copy>(xs: &[T], ys: &[T], f: impl Fn(T, T) -> bool) -> u64 {
    xs.iter()
        .zip(ys)
        .enumerate()
        .fold(0, |m, (i, (&x, &y))| m | u64::from(f(x, y)) << i)
}

/// `key(x) op k` per cell; the operator is matched once per word, so each
/// arm is a plain compare loop.
fn cmp_lit<T: Copy, K: PartialOrd>(op: CmpOp, xs: &[T], key: impl Fn(T) -> K, k: K) -> u64 {
    match op {
        CmpOp::Eq => bits(xs, |x| key(x) == k),
        CmpOp::Ne => bits(xs, |x| key(x) != k),
        CmpOp::Lt => bits(xs, |x| key(x) < k),
        CmpOp::Le => bits(xs, |x| key(x) <= k),
        CmpOp::Gt => bits(xs, |x| key(x) > k),
        CmpOp::Ge => bits(xs, |x| key(x) >= k),
    }
}

/// `key(x) op key(y)` per pair of cells.
fn cmp_cols<T: Copy, K: PartialOrd>(op: CmpOp, xs: &[T], ys: &[T], key: impl Fn(T) -> K) -> u64 {
    match op {
        CmpOp::Eq => bits2(xs, ys, |x, y| key(x) == key(y)),
        CmpOp::Ne => bits2(xs, ys, |x, y| key(x) != key(y)),
        CmpOp::Lt => bits2(xs, ys, |x, y| key(x) < key(y)),
        CmpOp::Le => bits2(xs, ys, |x, y| key(x) <= key(y)),
        CmpOp::Gt => bits2(xs, ys, |x, y| key(x) > key(y)),
        CmpOp::Ge => bits2(xs, ys, |x, y| key(x) >= key(y)),
    }
}

/// A leaf decided row by row (`None` = UNKNOWN), for the shapes whose
/// per-cell answer is not a plain compare.
fn by_row(n: usize, nulls: u64, f: impl Fn(usize) -> Option<bool>) -> Mask {
    let (mut t, mut u) = (0u64, 0u64);
    for i in 0..n {
        match f(i) {
            Some(true) => t |= 1 << i,
            Some(false) => {}
            None => u |= 1 << i,
        }
    }
    Mask::leaf(t, u | nulls)
}

/// BOOL `x op y` over whole words (`false < true`).
fn bool_cmp(op: CmpOp, x: u64, y: u64) -> u64 {
    match op {
        CmpOp::Eq => !(x ^ y),
        CmpOp::Ne => x ^ y,
        CmpOp::Lt => !x & y,
        CmpOp::Le => !x | y,
        CmpOp::Gt => x & !y,
        CmpOp::Ge => x | !y,
    }
}

/// One referenced column's cells for the current word: a window of the
/// column itself for an unfiltered input, a gather through the selection
/// vector otherwise.
#[derive(Debug)]
pub(super) struct Lane<'a, T> {
    src: &'a [T],
    ids: Option<&'a [u32]>,
    /// Index of the column's null word in [`Lanes::cols`].
    col: usize,
    window: std::ops::Range<usize>,
    gathered: Vec<T>,
}

impl<'a, T: Copy> Lane<'a, T> {
    fn new(src: &'a [T], ids: Option<&'a [u32]>, col: usize) -> Self {
        Lane {
            src,
            ids,
            col,
            window: 0..0,
            gathered: Vec::new(),
        }
    }

    fn load(&mut self, base: usize, n: usize) {
        match self.ids {
            None => self.window = base..base + n,
            Some(ids) => {
                let src = self.src;
                self.gathered.clear();
                self.gathered
                    .extend(ids[base..base + n].iter().map(|&r| src[r as usize]));
            }
        }
    }

    fn cells(&self) -> &[T] {
        match self.ids {
            None => &self.src[self.window.clone()],
            Some(_) => &self.gathered,
        }
    }
}

/// Which typed lane list a column landed in, and its index there.
#[derive(Debug, Clone, Copy)]
pub(super) enum LaneRef {
    Int(usize),
    Float(usize),
    Sym(usize),
    Bool(usize),
}

/// One referenced column: its position in the input, its typed lane and
/// its null word for the current word.
#[derive(Debug)]
struct ColWord<'a> {
    pos: usize,
    lane: LaneRef,
    nulls_src: &'a NullBitmap,
    ids: Option<&'a [u32]>,
    nulls: u64,
}

impl ColWord<'_> {
    fn load(&mut self, base: usize, n: usize) {
        let words = self.nulls_src.words();
        self.nulls = if words.is_empty() {
            0
        } else {
            match self.ids {
                // `base` is a multiple of 64: the bitmap's own word.
                None => words.get(base / WORD).copied().unwrap_or(0) & live(n),
                Some(ids) => bits(&ids[base..base + n], |r| self.nulls_src.get(r as usize)),
            }
        };
    }
}

/// Every column a predicate reads, loaded one word at a time.
#[derive(Debug, Default)]
pub(super) struct Lanes<'a> {
    cols: Vec<ColWord<'a>>,
    ints: Vec<Lane<'a, i64>>,
    floats: Vec<Lane<'a, f64>>,
    syms: Vec<Lane<'a, Sym>>,
    bools: Vec<Lane<'a, bool>>,
    n: usize,
    live: u64,
}

impl<'a> Lanes<'a> {
    /// The null-word index and typed lane of input column `pos`, if it
    /// has one already.
    pub(super) fn get(&self, pos: usize) -> Option<(usize, LaneRef)> {
        let i = self.cols.iter().position(|c| c.pos == pos)?;
        Some((i, self.cols[i].lane))
    }

    /// Registers input column `pos`, read from `store` through `ids`
    /// (`None` = row `r` is stored row `r`).
    pub(super) fn add(
        &mut self,
        pos: usize,
        store: &'a ColumnStore,
        ids: Option<&'a [u32]>,
    ) -> (usize, LaneRef) {
        let col = self.cols.len();
        let lane = match store.data() {
            ColumnData::Int(v) => {
                self.ints.push(Lane::new(v, ids, col));
                LaneRef::Int(self.ints.len() - 1)
            }
            ColumnData::Float(v) => {
                self.floats.push(Lane::new(v, ids, col));
                LaneRef::Float(self.floats.len() - 1)
            }
            ColumnData::Sym(v) => {
                self.syms.push(Lane::new(v, ids, col));
                LaneRef::Sym(self.syms.len() - 1)
            }
            ColumnData::Bool(v) => {
                self.bools.push(Lane::new(v, ids, col));
                LaneRef::Bool(self.bools.len() - 1)
            }
        };
        self.cols.push(ColWord {
            pos,
            lane,
            nulls_src: store.nulls(),
            ids,
            nulls: 0,
        });
        (col, lane)
    }

    /// Loads rows `base..base + n` (`n <= 64`, `base` a multiple of 64).
    pub(super) fn load(&mut self, base: usize, n: usize) {
        self.n = n;
        self.live = live(n);
        self.cols.iter_mut().for_each(|c| c.load(base, n));
        self.ints.iter_mut().for_each(|l| l.load(base, n));
        self.floats.iter_mut().for_each(|l| l.load(base, n));
        self.syms.iter_mut().for_each(|l| l.load(base, n));
        self.bools.iter_mut().for_each(|l| l.load(base, n));
    }

    fn int(&self, i: usize) -> (&[i64], u64) {
        let l = &self.ints[i];
        (l.cells(), self.cols[l.col].nulls)
    }

    fn float(&self, i: usize) -> (&[f64], u64) {
        let l = &self.floats[i];
        (l.cells(), self.cols[l.col].nulls)
    }

    fn sym(&self, i: usize) -> (&[Sym], u64) {
        let l = &self.syms[i];
        (l.cells(), self.cols[l.col].nulls)
    }

    fn bool(&self, i: usize) -> (&[bool], u64) {
        let l = &self.bools[i];
        (l.cells(), self.cols[l.col].nulls)
    }
}

/// A numeric comparison, literal on the right; mixed INT/FLOAT pairs
/// compare exactly ([`int_float_cmp`]), and a FLOAT column pair or a FLOAT
/// against a literal is UNKNOWN where a cell is NaN.
#[derive(Debug)]
pub(super) enum Num {
    IntLit(usize, i64),
    FloatLit(usize, f64),
    IntFloatLit(usize, f64),
    FloatIntLit(usize, i64),
    IntInt(usize, usize),
    FloatFloat(usize, usize),
    IntFloat(usize, usize),
}

impl Num {
    fn eval(&self, op: CmpOp, l: &Lanes) -> Mask {
        let nan = |x: &[f64]| bits(x, f64::is_nan);
        match *self {
            Num::IntLit(a, k) => {
                let (x, nx) = l.int(a);
                Mask::leaf(cmp_lit(op, x, |v| v, k), nx)
            }
            Num::FloatLit(a, k) => {
                let (x, nx) = l.float(a);
                Mask::leaf(cmp_lit(op, x, |v| v, k), nx | nan(x))
            }
            Num::IntFloatLit(a, k) => {
                let (x, nx) = l.int(a);
                by_row(x.len(), nx, |i| op.holds(int_float_cmp(x[i], k)))
            }
            Num::FloatIntLit(a, k) => {
                let (x, nx) = l.float(a);
                by_row(x.len(), nx, |i| {
                    op.holds(int_float_cmp(k, x[i]).map(Ordering::reverse))
                })
            }
            Num::IntInt(a, b) => {
                let ((x, nx), (y, ny)) = (l.int(a), l.int(b));
                Mask::leaf(cmp_cols(op, x, y, |v| v), nx | ny)
            }
            Num::FloatFloat(a, b) => {
                let ((x, nx), (y, ny)) = (l.float(a), l.float(b));
                Mask::leaf(cmp_cols(op, x, y, |v| v), nx | ny | nan(x) | nan(y))
            }
            Num::IntFloat(a, b) => {
                let ((x, nx), (y, ny)) = (l.int(a), l.float(b));
                by_row(x.len(), nx | ny, |i| op.holds(int_float_cmp(x[i], y[i])))
            }
        }
    }
}

/// A TEXT comparison: `=` / `<>` compare symbol ids (equal strings hold
/// equal ids), the ordered operators compare dictionary ranks from one
/// [`RankMap`] snapshot taken when the predicate was compiled.
#[derive(Debug)]
pub(super) enum Text {
    EqLit(usize, Sym),
    EqCol(usize, usize),
    RankLit(usize, u32, RankMap),
    RankCol(usize, usize, RankMap),
}

impl Text {
    fn eval(&self, op: CmpOp, l: &Lanes) -> Mask {
        match self {
            Text::EqLit(a, k) => {
                let (x, nx) = l.sym(*a);
                Mask::leaf(cmp_lit(op, x, Sym::id, k.id()), nx)
            }
            Text::EqCol(a, b) => {
                let ((x, nx), (y, ny)) = (l.sym(*a), l.sym(*b));
                Mask::leaf(cmp_cols(op, x, y, Sym::id), nx | ny)
            }
            Text::RankLit(a, k, ranks) => {
                let (x, nx) = l.sym(*a);
                Mask::leaf(cmp_lit(op, x, |s| ranks.rank(s), *k), nx)
            }
            Text::RankCol(a, b, ranks) => {
                let ((x, nx), (y, ny)) = (l.sym(*a), l.sym(*b));
                Mask::leaf(cmp_cols(op, x, y, |s| ranks.rank(s)), nx | ny)
            }
        }
    }
}

/// A BOOL-valued operand: a BOOL column, a literal, or a nested predicate
/// (whose UNKNOWN rows read as NULL).
#[derive(Debug)]
pub(super) enum BoolArg {
    Col(usize),
    Lit(bool),
    Pred(Box<Node>),
}

impl BoolArg {
    /// The operand's TRUE bits and NULL bits for the current word.
    fn word(&self, l: &Lanes) -> (u64, u64) {
        match self {
            BoolArg::Col(b) => {
                let (x, nx) = l.bool(*b);
                (bits(x, |v| v), nx)
            }
            BoolArg::Lit(v) => (if *v { l.live } else { 0 }, 0),
            BoolArg::Pred(p) => {
                let m = p.eval(l);
                (m.t, m.u)
            }
        }
    }
}

/// A compiled predicate: Kleene connectives over leaves that cannot
/// raise. Built by [`super::pred`]'s compiler, which also decides which
/// predicates get one.
#[derive(Debug)]
pub(super) enum Node {
    /// A column-free subtree, evaluated once at compile time.
    Const(Truth),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    /// `p IS NULL` over a predicate: its UNKNOWN rows.
    IsUnknown(Box<Node>),
    /// `col IS NULL`, by null-word index.
    IsNull(usize),
    Num(CmpOp, Num),
    Text(CmpOp, Text),
    /// BOOL comparison; a bare BOOL column is `col = TRUE`.
    Bool(CmpOp, BoolArg, BoolArg),
    /// `col LIKE pattern` over TEXT: one bit probe per cell, direct
    /// matching for symbols interned after the bitmap was built.
    Like(usize, DictBits, LikePattern),
    /// TEXT `IN`: sorted symbol ids; `true` when a miss is UNKNOWN (the
    /// list holds a NULL or a non-TEXT item).
    InText(usize, Vec<u32>, bool),
    /// INT `IN`: sorted integer keys (the exact integral FLOAT items
    /// included); `true` when a miss is UNKNOWN.
    InInt(usize, Vec<i64>, bool),
    /// FLOAT `IN`, item by item.
    InFloat(usize, Vec<Value>),
    /// BOOL `IN`, item by item.
    InBool(BoolArg, Vec<Value>),
}

impl Node {
    /// This predicate's masks over the word `l` holds.
    pub(super) fn eval(&self, l: &Lanes) -> Mask {
        match self {
            Node::Const(v) => Mask::constant(*v, l.live),
            Node::And(a, b) => a.eval(l).and(b.eval(l)),
            Node::Or(a, b) => a.eval(l).or(b.eval(l)),
            Node::Not(a) => a.eval(l).not(l.live),
            Node::IsUnknown(a) => Mask {
                t: a.eval(l).u,
                u: 0,
            },
            Node::IsNull(c) => Mask {
                t: l.cols[*c].nulls,
                u: 0,
            },
            Node::Num(op, num) => num.eval(*op, l),
            Node::Text(op, text) => text.eval(*op, l),
            Node::Bool(op, a, b) => {
                let ((x, nx), (y, ny)) = (a.word(l), b.word(l));
                Mask::leaf(bool_cmp(*op, x, y) & l.live, nx | ny)
            }
            Node::Like(a, dict, pattern) => {
                let (x, nx) = l.sym(*a);
                let hit = |s: Sym| {
                    dict.contains(s.id())
                        .unwrap_or_else(|| pattern.matches(s.as_str()))
                };
                Mask::leaf(bits(x, hit), nx)
            }
            Node::InText(a, ids, miss_unknown) => {
                let (x, nx) = l.sym(*a);
                let hit = bits(x, |s| ids.binary_search(&s.id()).is_ok());
                let miss = if *miss_unknown { l.live & !hit } else { 0 };
                Mask::leaf(hit, nx | miss)
            }
            Node::InInt(a, keys, miss_unknown) => {
                let (x, nx) = l.int(*a);
                let hit = bits(x, |v| keys.binary_search(&v).is_ok());
                let miss = if *miss_unknown { l.live & !hit } else { 0 };
                Mask::leaf(hit, nx | miss)
            }
            Node::InFloat(a, items) => {
                let (x, nx) = l.float(*a);
                by_row(x.len(), nx, |i| in_list(Value::Float(x[i]), items))
            }
            Node::InBool(a, items) => {
                let (x, nx) = a.word(l);
                by_row(l.n, nx, |i| in_list(Value::Bool(x >> i & 1 == 1), items))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRUTHS: [Truth; 3] = [Truth::True, Truth::False, Truth::Unknown];

    fn mask_of(v: Truth) -> Mask {
        Mask::constant(v, 1)
    }

    fn truth_of(m: Mask) -> Truth {
        match (m.t, m.u) {
            (1, 0) => Truth::True,
            (0, 0) => Truth::False,
            (0, 1) => Truth::Unknown,
            other => panic!("malformed mask {other:?}"),
        }
    }

    #[test]
    fn mask_algebra_is_kleene_logic() {
        for a in TRUTHS {
            assert_eq!(truth_of(mask_of(a).not(1)), a.not(), "NOT {a:?}");
            for b in TRUTHS {
                assert_eq!(truth_of(mask_of(a).and(mask_of(b))), a.and(b));
                assert_eq!(truth_of(mask_of(a).or(mask_of(b))), a.or(b));
            }
        }
    }

    #[test]
    fn bool_word_compare_orders_false_before_true() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
                let want = op.holds(Some(x.cmp(&y))) == Some(true);
                let got = bool_cmp(op, u64::from(x), u64::from(y)) & 1 == 1;
                assert_eq!(got, want, "{x} {op} {y}");
            }
        }
    }

    #[test]
    fn live_masks_cover_exactly_the_word() {
        assert_eq!(live(0), 0);
        assert_eq!(live(1), 1);
        assert_eq!(live(63), u64::MAX >> 1);
        assert_eq!(live(64), u64::MAX);
    }
}
