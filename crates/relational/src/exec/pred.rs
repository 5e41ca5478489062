//! WHERE on typed column slices: the one predicate entry point for
//! pushdown scans, residual selects and DML scans ([`select_rows`]).
//!
//! Once per statement the predicate is compiled against the column stores
//! it reads into a kernel ([`super::kernel`]). It takes only a
//! [`TypedPred`], so every leaf is one of these, none of which can raise:
//!
//! * column ⋄ literal and column ⋄ column over INT, FLOAT and mixed
//!   INT/FLOAT (mixed pairs compare exactly through
//!   `value::int_float_cmp`; NaN is UNKNOWN);
//! * TEXT `=` / `<>` by symbol id, and `<` `<=` `>` `>=` through one
//!   [`intern::rank_map`] snapshot;
//! * TEXT `LIKE` through a cached membership bitmap over the interner
//!   arena ([`DictBits`]), with direct matching for symbols interned after
//!   the bitmap was built;
//! * `IN` lists with or without NULL, `IS NULL`, a bare BOOL column, and
//!   BOOL comparisons;
//! * any column-free subtree (it is folded to a constant);
//! * `AND` / `OR` / `NOT` over any of the above.
//!
//! Compiling is therefore total, and so is a selection: it returns the
//! rows, never an error. The naive oracle never compiles anything: it
//! evaluates [`Expr`]s row by row through [`Expr::matches`], whose error
//! arms stay with it, so the fuzzers compare two independent evaluators.

use super::kernel::{BoolArg, LaneRef, Lanes, Node, Num, Text, WORD};
use crate::expr::{CmpOp, Expr, LikePattern, Truth};
use crate::intern;
use crate::sql::analyze::TypedPred;
use crate::table::ColumnStore;
use crate::value::{int_float_cmp, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

/// A per-pattern membership bitmap over the interner arena: bit `id` is
/// set iff symbol `id` matches the pattern. `covered` is the arena length
/// the bitmap was built against; ids at or past it (interned after the
/// build) fall back to direct matching.
#[derive(Debug, Clone)]
pub(super) struct DictBits {
    covered: usize,
    words: Arc<Vec<u64>>,
}

impl DictBits {
    /// Membership of symbol `id`, or `None` past the covered prefix.
    pub(super) fn contains(&self, id: u32) -> Option<bool> {
        let id = id as usize;
        if id >= self.covered {
            return None;
        }
        Some(self.words[id / 64] >> (id % 64) & 1 == 1)
    }
}

/// Cache of LIKE bitmaps keyed by pattern text. Bounded; a full cache is
/// cleared wholesale (patterns are few and rebuilding is one arena sweep).
static LIKE_CACHE: LazyLock<Mutex<HashMap<String, DictBits>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

const LIKE_CACHE_CAP: usize = 128;

/// Builds (or incrementally extends) the membership bitmap for `pattern`.
///
/// The arena is append-only, so a cached bitmap's prefix never changes:
/// only ids in `cached.covered..arena_len` need matching. Arena length is
/// the complete version stamp.
fn like_bitmap(pattern: &LikePattern) -> DictBits {
    let snap = intern::strings_snapshot();
    let n = snap.len();
    let mut cache = LIKE_CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(hit) = cache.get(pattern.as_str()) {
        if hit.covered >= n {
            return hit.clone();
        }
    }
    let (mut words, start) = match cache.remove(pattern.as_str()) {
        Some(stale) => ((*stale.words).clone(), stale.covered),
        None => (Vec::new(), 0),
    };
    words.resize(n.div_ceil(64), 0);
    for (id, s) in snap.iter().enumerate().skip(start) {
        if pattern.matches(s) {
            words[id / 64] |= 1u64 << (id % 64);
        }
    }
    let built = DictBits {
        covered: n,
        words: Arc::new(words),
    };
    if cache.len() >= LIKE_CACHE_CAP {
        cache.clear();
    }
    cache.insert(pattern.as_str().to_owned(), built.clone());
    built
}

/// Positions `0..n_rows` of a column-major input satisfying `pred`,
/// ascending. `column(c)` is the store behind input column `c` and the
/// row ids its logical rows read (`None`: row `r` is stored row `r`).
///
/// Serves [`crate::scan::filter_indices`] (pushdown scans, DELETE and
/// UPDATE) and [`crate::colrel::ColRelation::select`] (residual and cycle
/// filters after joins, and HAVING).
pub(crate) fn select_rows<'s>(
    pred: &TypedPred,
    n_rows: usize,
    column: impl Fn(usize) -> (&'s ColumnStore, Option<&'s [u32]>),
) -> Vec<u32> {
    Kernel::compile(pred.expr(), &column).select(n_rows)
}

/// A predicate compiled against the stores it reads.
#[derive(Debug)]
struct Kernel<'s> {
    root: Node,
    lanes: Lanes<'s>,
}

impl<'s> Kernel<'s> {
    /// The kernel for `pred`, which typing accepted (see the module docs).
    fn compile(
        pred: &Expr,
        column: &impl Fn(usize) -> (&'s ColumnStore, Option<&'s [u32]>),
    ) -> Kernel<'s> {
        let mut c = Compiler {
            column,
            lanes: Lanes::default(),
        };
        let root = c.node(pred);
        Kernel {
            root,
            lanes: c.lanes,
        }
    }

    /// Evaluates rows `0..n_rows` a word at a time, handing each word's
    /// first row and masks to `emit`.
    fn words(mut self, n_rows: usize, mut emit: impl FnMut(usize, super::kernel::Mask)) {
        for base in (0..n_rows).step_by(WORD) {
            self.lanes.load(base, (n_rows - base).min(WORD));
            emit(base, self.root.eval(&self.lanes));
        }
    }

    /// The ascending positions where the predicate is TRUE.
    fn select(self, n_rows: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.words(n_rows, |base, m| {
            let mut t = m.t;
            out.reserve(t.count_ones() as usize);
            while t != 0 {
                out.push((base + t.trailing_zeros() as usize) as u32);
                t &= t - 1;
            }
        });
        out
    }
}

/// One side of a comparison, resolved to its typed lane.
enum Operand {
    Int(usize),
    Float(usize),
    Sym(usize),
    Bool(BoolArg),
    Lit(Value),
}

struct Compiler<'c, 's, F> {
    column: &'c F,
    lanes: Lanes<'s>,
}

impl<'s, F: Fn(usize) -> (&'s ColumnStore, Option<&'s [u32]>)> Compiler<'_, 's, F> {
    /// The null-word index and typed lane of input column `c`.
    fn lane(&mut self, c: usize) -> (usize, LaneRef) {
        if let Some(found) = self.lanes.get(c) {
            return found;
        }
        let (store, ids) = (self.column)(c);
        self.lanes.add(c, store, ids)
    }

    fn node(&mut self, e: &Expr) -> Node {
        if e.referenced_columns().is_empty() {
            // Typing admits no column-free predicate that raises.
            return Node::Const(e.eval_truth(&|_| None).unwrap_or(Truth::Unknown));
        }
        match e {
            Expr::And(a, b) => Node::And(Box::new(self.node(a)), Box::new(self.node(b))),
            Expr::Or(a, b) => Node::Or(Box::new(self.node(a)), Box::new(self.node(b))),
            Expr::Not(a) => Node::Not(Box::new(self.node(a))),
            Expr::IsNull(a) => match **a {
                Expr::Column(c) => Node::IsNull(self.lane(c).0),
                _ => Node::IsUnknown(Box::new(self.node(a))),
            },
            // A bare column — BOOL, by typing — is `c = TRUE`. (A literal
            // has no column, so was folded above.)
            Expr::Column(_) | Expr::Literal(_) => {
                self.compare(CmpOp::Eq, e, &Expr::Literal(Value::Bool(true)))
            }
            Expr::Cmp(op, a, b) => self.compare(*op, a, b),
            Expr::Like(a, pattern) => match self.operand(a) {
                Operand::Sym(s) => Node::Like(s, like_bitmap(pattern), pattern.clone()),
                // Typing admits LIKE over TEXT only.
                _ => Node::Const(Truth::Unknown),
            },
            Expr::InList(a, items) => self.in_list(a, items),
        }
    }

    fn operand(&mut self, e: &Expr) -> Operand {
        match e {
            Expr::Literal(v) => Operand::Lit(*v),
            Expr::Column(c) => match self.lane(*c).1 {
                LaneRef::Int(i) => Operand::Int(i),
                LaneRef::Float(i) => Operand::Float(i),
                LaneRef::Sym(i) => Operand::Sym(i),
                LaneRef::Bool(i) => Operand::Bool(BoolArg::Col(i)),
            },
            pred => Operand::Bool(BoolArg::Pred(Box::new(self.node(pred)))),
        }
    }

    fn compare(&mut self, op: CmpOp, a: &Expr, b: &Expr) -> Node {
        // The literal, if any, goes on the right.
        let (op, a, b) = match a {
            Expr::Literal(_) => (op.flipped(), b, a),
            _ => (op, a, b),
        };
        use Operand as O;
        match (self.operand(a), self.operand(b)) {
            (O::Int(x), O::Lit(Value::Int(k))) => Node::Num(op, Num::IntLit(x, k)),
            (O::Int(x), O::Lit(Value::Float(k))) if !k.is_nan() => {
                Node::Num(op, Num::IntFloatLit(x, k))
            }
            (O::Float(x), O::Lit(Value::Int(k))) => Node::Num(op, Num::FloatIntLit(x, k)),
            (O::Float(x), O::Lit(Value::Float(k))) if !k.is_nan() => {
                Node::Num(op, Num::FloatLit(x, k))
            }
            (O::Int(x), O::Int(y)) => Node::Num(op, Num::IntInt(x, y)),
            (O::Int(x), O::Float(y)) => Node::Num(op, Num::IntFloat(x, y)),
            (O::Float(x), O::Int(y)) => Node::Num(op.flipped(), Num::IntFloat(y, x)),
            (O::Float(x), O::Float(y)) => Node::Num(op, Num::FloatFloat(x, y)),
            // TEXT: `=` / `<>` by symbol id, the ordered operators by rank.
            (O::Sym(x), O::Lit(Value::Text(k))) => Node::Text(
                op,
                match op {
                    CmpOp::Eq | CmpOp::Ne => Text::EqLit(x, k),
                    _ => {
                        let ranks = intern::rank_map();
                        Text::RankLit(x, ranks.rank(k), ranks)
                    }
                },
            ),
            (O::Sym(x), O::Sym(y)) => Node::Text(
                op,
                match op {
                    CmpOp::Eq | CmpOp::Ne => Text::EqCol(x, y),
                    _ => Text::RankCol(x, y, intern::rank_map()),
                },
            ),
            (O::Bool(x), O::Lit(Value::Bool(k))) => Node::Bool(op, x, BoolArg::Lit(k)),
            (O::Bool(x), O::Bool(y)) => Node::Bool(op, x, y),
            // NULL or a NaN literal: UNKNOWN everywhere. (Incomparable
            // types are refused by typing; two literals are column-free,
            // so folded by `node`.)
            _ => Node::Const(Truth::Unknown),
        }
    }

    fn in_list(&mut self, a: &Expr, items: &[Value]) -> Node {
        match self.operand(a) {
            Operand::Sym(x) => {
                let mut ids: Vec<u32> = items
                    .iter()
                    .filter_map(|v| match v {
                        Value::Text(s) => Some(s.id()),
                        _ => None,
                    })
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                // NULL and non-TEXT items compare UNKNOWN against text.
                let miss_unknown = items.iter().any(|v| !matches!(v, Value::Text(_)));
                Node::InText(x, ids, miss_unknown)
            }
            Operand::Int(x) => {
                let (mut keys, mut miss_unknown) = (Vec::new(), false);
                for v in items {
                    match *v {
                        Value::Int(k) => keys.push(k),
                        // Only an exactly integral float can equal an INT;
                        // NaN compares UNKNOWN.
                        Value::Float(f) => match int_float_cmp(f as i64, f) {
                            Some(Ordering::Equal) => keys.push(f as i64),
                            Some(_) => {}
                            None => miss_unknown = true,
                        },
                        _ => miss_unknown = true,
                    }
                }
                keys.sort_unstable();
                keys.dedup();
                Node::InInt(x, keys, miss_unknown)
            }
            Operand::Float(x) => Node::InFloat(x, items.to_vec()),
            Operand::Bool(x) => Node::InBool(x, items.to_vec()),
            // Column-free, so folded by `node`.
            Operand::Lit(_) => Node::Const(Truth::Unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Sym;
    use crate::relation::Relation;
    use crate::schema::{Column, TableSchema};
    use crate::sql::analyze::tests::where_pred;
    use crate::table::Table;
    use crate::value::DataType;
    use crate::Error;

    /// A table of one column per entry of `types`, holding `rows`.
    fn table(types: &[DataType], rows: Vec<Vec<Value>>) -> Table {
        let cols = types
            .iter()
            .enumerate()
            .map(|(i, &ty)| Column::nullable(format!("c{i}"), ty))
            .collect();
        let mut t = Table::new(TableSchema::new("K", cols)).unwrap();
        t.append_rows(rows).unwrap();
        t
    }

    fn kernel<'t>(pred: &Expr, t: &'t Table) -> Kernel<'t> {
        Kernel::compile(pred, &|c| (t.column(c), None))
    }

    /// The kernel's truth value per row.
    fn truths(pred: &Expr, t: &Table) -> Vec<Truth> {
        let mut out = Vec::new();
        kernel(pred, t).words(t.len(), |base, m| {
            for i in 0..(t.len() - base).min(WORD) {
                out.push(match (m.t >> i & 1, m.u >> i & 1) {
                    (1, _) => Truth::True,
                    (_, 1) => Truth::Unknown,
                    _ => Truth::False,
                });
            }
        });
        out
    }

    /// Kernel and row-by-row interpreter agree on every row of `t`.
    fn assert_agrees(pred: &Expr, t: &Table) {
        let want: Vec<Truth> = t
            .iter_rows()
            .map(|r| pred.eval_truth(&|c| r.get(c).copied()).unwrap())
            .collect();
        assert_eq!(truths(pred, t), want, "{pred}");
    }

    #[test]
    fn like_bitmap_agrees_with_direct_matching() {
        let rows = ["alpha-dict", "beta-dict", "alphabet-dict", "gamma-dict"]
            .iter()
            .map(|s| vec![Value::text(s)])
            .chain([vec![Value::Null]])
            .collect();
        let t = table(&[DataType::Text], rows);
        assert_agrees(&Expr::col(0).like("%alpha%"), &t);
    }

    #[test]
    fn bitmap_extends_across_arena_growth() {
        let pred = Expr::col(0).like("%growth-probe%");
        let old = table(&[DataType::Text], vec![vec![Value::text("x")]]);
        let probe = LikePattern::new("%growth-probe%");
        let stale = like_bitmap(&probe);
        // Interned *after* the bitmap above was built.
        let fresh = Sym::intern("dict-growth-probe-xyzzy");
        assert_eq!(stale.contains(fresh.id()), None);
        let t = table(&[DataType::Text], vec![vec![Value::Text(fresh)]]);
        // A kernel holding a bitmap that predates a symbol still answers
        // by direct matching...
        let mut kernel = kernel(&pred, &t);
        match &mut kernel.root {
            Node::Like(_, bits, _) => *bits = stale,
            other => panic!("LIKE compiled to {other:?}"),
        }
        let mut hits = Vec::new();
        kernel.words(1, |_, m| hits.push(m.t));
        assert_eq!(hits, [1]);
        // ...and a recompile extends the cached bitmap over the new ids.
        assert_eq!(like_bitmap(&probe).contains(fresh.id()), Some(true));
        assert_agrees(&pred, &old);
    }

    #[test]
    fn eq_ne_and_in_match_symbol_ids() {
        let a = Sym::intern("eqsym-a");
        let b = Sym::intern("eqsym-b");
        let t = table(
            &[DataType::Text],
            vec![
                vec![Value::Text(a)],
                vec![Value::Text(b)],
                vec![Value::Null],
            ],
        );
        let eq = Expr::col(0).eq(Expr::lit(Value::Text(a)));
        let ne = Expr::lit(Value::Text(a)).ne(Expr::col(0));
        let inlist = Expr::InList(Box::new(Expr::col(0)), vec![Value::Text(a), Value::Text(b)]);
        for pred in [&eq, &ne, &inlist] {
            assert_agrees(pred, &t);
        }
    }

    #[test]
    fn null_in_list_stays_unknown() {
        let a = Sym::intern("insym-null-a");
        let miss = Sym::intern("insym-null-miss");
        let t = table(
            &[DataType::Text, DataType::Int],
            vec![
                vec![Value::Text(miss), 3.into()],
                vec![Value::Text(a), 4.into()],
            ],
        );
        let pred = Expr::InList(Box::new(Expr::col(0)), vec![Value::Text(a), Value::Null]);
        assert_eq!(truths(&pred, &t), [Truth::Unknown, Truth::True]);
        let ints = Expr::InList(Box::new(Expr::col(1)), vec![Value::Float(4.0), Value::Null]);
        assert_eq!(truths(&ints, &t), [Truth::Unknown, Truth::True]);
        assert_agrees(&ints, &t);
    }

    /// Every shape that could raise on a row — LIKE over INT, a non-BOOL
    /// column as a predicate, incomparable operands, an unknown column —
    /// is refused by typing, before any row is read. What typing accepts,
    /// the kernel runs.
    #[test]
    fn raising_leaves_are_refused_at_typing() {
        let t = table(
            &[DataType::Int, DataType::Bool],
            vec![vec![5.into(), true.into()], vec![Value::Null, Value::Null]],
        );
        let typed = |w: &str| where_pred(&Relation::table_columns(&t, "K"), w);
        for w in ["c0 LIKE '5'", "c0", "c1 AND c0", "3 OR c1", "c0 = 'x'"] {
            let err = typed(w).unwrap_err();
            assert!(matches!(err, Error::Analyze(_)), "{w}: {err}");
        }
        let err = typed("c2 = 1").unwrap_err();
        assert_eq!(err, Error::UnknownColumn("c2".into()));
        for w in ["c1", "NOT c1 OR c0 > 1", "c0 IN (5, NULL)", "c1 = TRUE"] {
            assert_agrees(typed(w).unwrap().expr(), &t);
        }
    }

    #[test]
    fn boolean_composition_compiles_through() {
        let a = Sym::intern("comp-a");
        let rows = [Value::Text(a), Value::text("comp-b"), Value::Null]
            .iter()
            .flat_map(|&v0| {
                [Value::Int(2), Value::Int(4), Value::Null]
                    .map(|v1| vec![v0, v1, Value::Float(f64::NAN)])
            })
            .collect();
        let t = table(&[DataType::Text, DataType::Int, DataType::Float], rows);
        let pred = Expr::col(0)
            .like("%comp%")
            .and(Expr::col(1).ge(Expr::lit(3)))
            .or(Expr::col(0).eq(Expr::lit(Value::Text(a))).not())
            .or(Expr::col(2).eq(Expr::col(1)));
        assert_agrees(&pred, &t);
        assert_agrees(&pred.clone().not(), &t);
    }

    #[test]
    fn text_order_follows_strings_not_intern_order() {
        // Interned in reverse order: ids and string order disagree.
        let rows = ["kord-zz", "kord-mm", "kord-aa"]
            .iter()
            .map(|s| vec![Value::text(s), Value::text("kord-mm")])
            .collect();
        let t = table(&[DataType::Text, DataType::Text], rows);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let lit = Expr::Cmp(op, Box::new(Expr::col(0)), Box::new(Expr::lit("kord-mm")));
            let cols = Expr::Cmp(op, Box::new(Expr::col(0)), Box::new(Expr::col(1)));
            assert_agrees(&lit, &t);
            assert_agrees(&cols, &t);
        }
    }
}
