//! Dictionary-encoded predicate evaluation over interned text columns.
//!
//! Text cells are interned symbols ([`crate::intern::Sym`]), so a text
//! predicate over a column visits the same small vocabulary over and over.
//! Instead of re-running `LIKE` matching (which lowercases the text per
//! row) or string equality per row, [`CompiledPred`] rewrites the predicate
//! tree once per statement (after the dictionary-encoding strategy of
//! column stores, Abadi et al.):
//!
//! * `col LIKE 'pat'` over a TEXT column becomes a **membership bitmap**:
//!   the pattern is evaluated once per distinct symbol against the interner
//!   arena snapshot, and the per-row kernel tests one bit. Bitmaps are
//!   cached per pattern; the arena is append-only, so a cached bitmap is
//!   *extended* over the new-id suffix when the arena has grown — arena
//!   length is the complete version stamp (the same invalidation rule the
//!   rank table uses).
//! * `col = 'lit'` / `col <> 'lit'` becomes a symbol-id compare (equal
//!   strings always hold equal ids).
//! * `col IN ('a', 'b', ...)` becomes binary search over a sorted id list.
//!
//! Every rewrite preserves SQL three-valued-logic semantics exactly — NULL
//! input stays UNKNOWN, type errors keep their message — and every node
//! the compiler does not understand falls back to the raw
//! [`Expr::eval_truth`] on the same row buffer, so compiled and
//! uncompiled evaluation are interchangeable (the differential fuzzer's
//! oracle always runs uncompiled).

use crate::expr::{CmpOp, Expr, LikePattern, Truth};
use crate::intern::{self, Sym};
use crate::value::{DataType, Value};
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

/// A per-pattern membership bitmap over the interner arena: bit `id` is
/// set iff symbol `id` matches the pattern. `covered` is the arena length
/// the bitmap was built against; ids at or past it (interned after the
/// build) fall back to direct matching.
#[derive(Debug, Clone)]
struct DictBits {
    covered: usize,
    words: Arc<Vec<u64>>,
}

impl DictBits {
    fn contains(&self, id: u32) -> Option<bool> {
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
fn like_bitmap(pattern: &str) -> DictBits {
    let snap = intern::strings_snapshot();
    let n = snap.len();
    let mut cache = LIKE_CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(hit) = cache.get(pattern) {
        if hit.covered >= n {
            return hit.clone();
        }
    }
    let (mut words, start) = match cache.remove(pattern) {
        Some(stale) => ((*stale.words).clone(), stale.covered),
        None => (Vec::new(), 0),
    };
    words.resize(n.div_ceil(64), 0);
    let matcher = LikePattern::new(pattern);
    for (id, s) in snap.iter().enumerate().skip(start) {
        if matcher.matches(s) {
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
    cache.insert(pattern.to_owned(), built.clone());
    built
}

fn truth_of(v: Option<bool>) -> Truth {
    match v {
        Some(true) => Truth::True,
        Some(false) => Truth::False,
        None => Truth::Unknown,
    }
}

/// One node of a compiled predicate: either a dictionary-encoded kernel or
/// a plain sub-expression evaluated via [`Expr::eval_truth`].
#[derive(Debug, Clone)]
enum CNode {
    /// Uncompiled subtree (the exhaustive fallback).
    Plain(Expr),
    And(Box<CNode>, Box<CNode>),
    Or(Box<CNode>, Box<CNode>),
    Not(Box<CNode>),
    /// `column LIKE pattern` over a TEXT column: bitmap membership per
    /// symbol id, with the raw pattern kept for post-snapshot symbols.
    LikeDict {
        col: usize,
        pattern: String,
        bits: DictBits,
    },
    /// `column = 'lit'` (`negate` = false) / `column <> 'lit'` over a TEXT
    /// column: symbol-id compare.
    EqSym {
        col: usize,
        lit: Sym,
        negate: bool,
    },
    /// `column IN (...)` over a TEXT column with all-literal text items:
    /// sorted-id membership. `items` keeps the original list for the
    /// generic fallback on non-text inputs.
    InSym {
        col: usize,
        ids: Arc<[u32]>,
        saw_null: bool,
        items: Arc<[Value]>,
    },
}

impl CNode {
    fn is_plain(&self) -> bool {
        matches!(self, CNode::Plain(_))
    }
}

/// A predicate compiled for repeated evaluation over a row buffer:
/// dictionary-encoded kernels where the input is a TEXT column, raw
/// [`Expr`] evaluation everywhere else. Cheap to clone (shared bitmaps).
#[derive(Debug, Clone)]
pub struct CompiledPred {
    root: CNode,
}

impl CompiledPred {
    /// Compiles `pred`, consulting `col_type` for the declared type of each
    /// column position (dictionary rewrites apply only where the input is
    /// statically TEXT — the rewrite relies on cells being interned
    /// symbols); every other node evaluates as the plain [`Expr`].
    pub fn compile(pred: &Expr, col_type: impl Fn(usize) -> Option<DataType>) -> CompiledPred {
        CompiledPred {
            root: compile_node(pred, &col_type),
        }
    }

    /// Whether any dictionary rewrite applied (diagnostics/tests).
    pub fn uses_dictionary(&self) -> bool {
        fn any_dict(n: &CNode) -> bool {
            match n {
                CNode::Plain(_) => false,
                CNode::And(a, b) | CNode::Or(a, b) => any_dict(a) || any_dict(b),
                CNode::Not(e) => any_dict(e),
                CNode::LikeDict { .. } | CNode::EqSym { .. } | CNode::InSym { .. } => true,
            }
        }
        any_dict(&self.root)
    }

    /// Three-valued evaluation over `row`; identical semantics (including
    /// error messages and error order) to `pred.eval_truth(row)`.
    pub fn eval_truth(&self, row: &[Value]) -> Result<Truth> {
        self.root.eval(row)
    }

    /// WHERE-clause semantics: true iff the row definitely satisfies.
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        Ok(self.root.eval(row)?.is_true())
    }
}

/// Is `e` a reference to a statically-TEXT column?
fn text_col(e: &Expr, col_type: &impl Fn(usize) -> Option<DataType>) -> Option<usize> {
    if let Expr::Column(c) = e {
        if col_type(*c) == Some(DataType::Text) {
            return Some(*c);
        }
    }
    None
}

fn compile_node(pred: &Expr, col_type: &impl Fn(usize) -> Option<DataType>) -> CNode {
    // Helper: compile both children; collapse to Plain when neither child
    // compiled to a dictionary kernel, so plain predicates keep the exact
    // single-call `Expr::eval_truth` path.
    fn binary(
        pred: &Expr,
        a: &Expr,
        b: &Expr,
        col_type: &impl Fn(usize) -> Option<DataType>,
        build: impl FnOnce(Box<CNode>, Box<CNode>) -> CNode,
    ) -> CNode {
        let ca = compile_node(a, col_type);
        let cb = compile_node(b, col_type);
        if ca.is_plain() && cb.is_plain() {
            CNode::Plain(pred.clone())
        } else {
            build(Box::new(ca), Box::new(cb))
        }
    }
    match pred {
        Expr::And(a, b) => binary(pred, a, b, col_type, CNode::And),
        Expr::Or(a, b) => binary(pred, a, b, col_type, CNode::Or),
        Expr::Not(e) => {
            let ce = compile_node(e, col_type);
            if ce.is_plain() {
                CNode::Plain(pred.clone())
            } else {
                CNode::Not(Box::new(ce))
            }
        }
        Expr::Like(e, pattern) => match text_col(e, col_type) {
            Some(col) => CNode::LikeDict {
                col,
                pattern: pattern.clone(),
                bits: like_bitmap(pattern),
            },
            None => CNode::Plain(pred.clone()),
        },
        Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), a, b) => {
            let pair = match (text_col(a, col_type), b.as_ref()) {
                (Some(col), Expr::Literal(Value::Text(s))) => Some((col, *s)),
                _ => match (a.as_ref(), text_col(b, col_type)) {
                    (Expr::Literal(Value::Text(s)), Some(col)) => Some((col, *s)),
                    _ => None,
                },
            };
            match pair {
                Some((col, lit)) => CNode::EqSym {
                    col,
                    lit,
                    negate: *op == CmpOp::Ne,
                },
                None => CNode::Plain(pred.clone()),
            }
        }
        Expr::InList(e, items) => match text_col(e, col_type) {
            Some(col)
                if items
                    .iter()
                    .all(|v| matches!(v, Value::Text(_) | Value::Null)) =>
            {
                let mut ids: Vec<u32> = items
                    .iter()
                    .filter_map(|v| match v {
                        Value::Text(s) => Some(s.id()),
                        _ => None,
                    })
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                CNode::InSym {
                    col,
                    ids: ids.into(),
                    saw_null: items.iter().any(Value::is_null),
                    items: items.clone().into(),
                }
            }
            _ => CNode::Plain(pred.clone()),
        },
        other => CNode::Plain(other.clone()),
    }
}

impl CNode {
    fn eval(&self, row: &[Value]) -> Result<Truth> {
        match self {
            CNode::Plain(e) => e.eval_truth(row),
            CNode::And(a, b) => Ok(a.eval(row)?.and(b.eval(row)?)),
            CNode::Or(a, b) => Ok(a.eval(row)?.or(b.eval(row)?)),
            CNode::Not(e) => Ok(e.eval(row)?.not()),
            CNode::LikeDict { col, pattern, bits } => {
                match cell(row, *col)? {
                    Value::Null => Ok(Truth::Unknown),
                    Value::Text(s) => {
                        let hit = match bits.contains(s.id()) {
                            Some(hit) => hit,
                            // Interned after the bitmap was built: match
                            // the one string directly.
                            None => crate::expr::like_match(s.as_str(), pattern),
                        };
                        Ok(truth_of(Some(hit)))
                    }
                    other => Err(Error::Eval(format!("LIKE on non-text value {other}"))),
                }
            }
            CNode::EqSym { col, lit, negate } => match cell(row, *col)? {
                Value::Null => Ok(Truth::Unknown),
                Value::Text(s) => Ok(truth_of(Some((s == *lit) != *negate))),
                other => {
                    // Type-sloppy input (never produced by a TEXT column):
                    // fall back to the generic comparison semantics.
                    let ord = other.sql_cmp(&Value::Text(*lit));
                    Ok(truth_of(
                        ord.map(|o| (o == std::cmp::Ordering::Equal) != *negate),
                    ))
                }
            },
            CNode::InSym {
                col,
                ids,
                saw_null,
                items,
            } => {
                let v = cell(row, *col)?;
                match v {
                    Value::Null => Ok(Truth::Unknown),
                    Value::Text(s) => Ok(if ids.binary_search(&s.id()).is_ok() {
                        Truth::True
                    } else if *saw_null {
                        Truth::Unknown
                    } else {
                        Truth::False
                    }),
                    other => {
                        // Generic IN semantics for type-sloppy input.
                        let mut unknown = false;
                        for item in items.iter() {
                            match other.sql_eq(item) {
                                Some(true) => return Ok(Truth::True),
                                Some(false) => {}
                                None => unknown = true,
                            }
                        }
                        Ok(if unknown {
                            Truth::Unknown
                        } else {
                            Truth::False
                        })
                    }
                }
            }
        }
    }
}

/// Row access mirroring [`Expr::eval_value`]'s column semantics (same
/// error message on out-of-range positions).
fn cell(row: &[Value], col: usize) -> Result<Value> {
    row.get(col)
        .copied()
        .ok_or_else(|| Error::Eval(format!("column index {col} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_schema(_c: usize) -> Option<DataType> {
        Some(DataType::Text)
    }

    fn row(vals: &[Value]) -> Vec<Value> {
        vals.to_vec()
    }

    #[test]
    fn like_bitmap_agrees_with_direct_matching() {
        let syms: Vec<Sym> = ["alpha-dict", "beta-dict", "alphabet-dict", "gamma-dict"]
            .iter()
            .map(|s| Sym::intern(s))
            .collect();
        let pred = Expr::col(0).like("%alpha%");
        let cp = CompiledPred::compile(&pred, text_schema);
        assert!(cp.uses_dictionary());
        for s in &syms {
            let r = row(&[Value::Text(*s)]);
            assert_eq!(
                cp.matches(&r).unwrap(),
                pred.matches(&r).unwrap(),
                "sym {s}"
            );
        }
    }

    #[test]
    fn bitmap_extends_across_arena_growth() {
        let pred = Expr::col(0).like("%growth-probe%");
        let first = CompiledPred::compile(&pred, text_schema);
        // Interned *after* the bitmap above was built.
        let fresh = Sym::intern("dict-growth-probe-xyzzy");
        let r = row(&[Value::Text(fresh)]);
        // The stale compiled predicate still answers correctly (direct
        // fallback for post-snapshot ids)...
        assert!(first.matches(&r).unwrap());
        // ...and a recompile extends the cached bitmap over the new ids.
        let second = CompiledPred::compile(&pred, text_schema);
        assert!(second.matches(&r).unwrap());
    }

    #[test]
    fn eq_ne_and_in_match_symbol_ids() {
        let a = Sym::intern("eqsym-a");
        let b = Sym::intern("eqsym-b");
        let eq = Expr::col(0).eq(Expr::lit(Value::Text(a)));
        let ne = Expr::col(0).ne(Expr::lit(Value::Text(a)));
        let inlist = Expr::InList(Box::new(Expr::col(0)), vec![Value::Text(a), Value::Text(b)]);
        for pred in [&eq, &ne, &inlist] {
            let cp = CompiledPred::compile(pred, text_schema);
            assert!(cp.uses_dictionary(), "{pred}");
            for v in [Value::Text(a), Value::Text(b), Value::Null] {
                let r = row(&[v]);
                assert_eq!(
                    cp.eval_truth(&r).unwrap(),
                    pred.eval_truth(&r).unwrap(),
                    "{pred} over {v:?}"
                );
            }
        }
    }

    #[test]
    fn null_in_list_stays_unknown() {
        let a = Sym::intern("insym-null-a");
        let miss = Sym::intern("insym-null-miss");
        let pred = Expr::InList(Box::new(Expr::col(0)), vec![Value::Text(a), Value::Null]);
        let cp = CompiledPred::compile(&pred, text_schema);
        assert!(cp.uses_dictionary());
        assert_eq!(
            cp.eval_truth(&row(&[Value::Text(miss)])).unwrap(),
            Truth::Unknown
        );
        assert_eq!(cp.eval_truth(&row(&[Value::Text(a)])).unwrap(), Truth::True);
    }

    #[test]
    fn type_error_messages_match_raw_eval() {
        let pred = Expr::col(0).like("x%");
        let cp = CompiledPred::compile(&pred, text_schema);
        let r = row(&[Value::Int(7)]);
        assert_eq!(cp.eval_truth(&r), pred.eval_truth(&r));
    }

    #[test]
    fn non_text_columns_stay_plain() {
        let pred = Expr::col(0).eq(Expr::lit(5));
        let cp = CompiledPred::compile(&pred, |_| Some(DataType::Int));
        assert!(!cp.uses_dictionary());
    }

    #[test]
    fn boolean_composition_compiles_through() {
        let a = Sym::intern("comp-a");
        let pred = Expr::col(0)
            .like("%comp%")
            .and(Expr::col(1).ge(Expr::lit(3)))
            .or(Expr::col(0).eq(Expr::lit(Value::Text(a))).not());
        let ty = |c: usize| {
            Some(if c == 0 {
                DataType::Text
            } else {
                DataType::Int
            })
        };
        let cp = CompiledPred::compile(&pred, ty);
        assert!(cp.uses_dictionary());
        for v0 in [Value::Text(a), Value::Null] {
            for v1 in [Value::Int(2), Value::Int(4), Value::Null] {
                let r = row(&[v0, v1]);
                assert_eq!(cp.eval_truth(&r), pred.eval_truth(&r), "{v0:?},{v1:?}");
            }
        }
    }
}
