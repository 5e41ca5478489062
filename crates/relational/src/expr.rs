//! Scalar expressions and their evaluation over rows.
//!
//! Expressions power both the relational engine's WHERE clauses and the
//! ETable selection conditions `C` of a query pattern (paper Definition 3).
//! Evaluation follows SQL three-valued logic: comparisons involving NULL are
//! UNKNOWN, and a WHERE clause keeps a row only when it evaluates to TRUE.

use crate::value::Value;
use crate::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether the operator accepts operands ordered `o`; an incomparable
    /// pair (`None`: a NULL, or a NaN) is UNKNOWN.
    #[inline]
    pub fn holds(self, o: Option<Ordering>) -> Option<bool> {
        o.map(|o| match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        })
    }

    /// The operator with its operands swapped: `a op b` == `b op' a`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            eq_or_ne => eq_or_ne,
        }
    }
}

/// `v IN (items)`: UNKNOWN for a NULL `v`, else TRUE on a match, else
/// UNKNOWN if some item compared UNKNOWN, else FALSE.
pub fn in_list(v: Value, items: &[Value]) -> Option<bool> {
    if v.is_null() {
        return None;
    }
    let mut unknown = false;
    for item in items {
        match v.sql_eq(item) {
            Some(true) => return Some(true),
            Some(false) => {}
            None => unknown = true,
        }
    }
    (!unknown).then_some(false)
}

/// [`Expr::eval_value`] with a leaf read in place. The graph evaluates a
/// node filter once per node, where a call per operand costs more than
/// the comparison.
#[inline(always)]
fn operand(e: &Expr, col: &impl Fn(usize) -> Option<Value>) -> Result<Value> {
    match e {
        Expr::Column(i) => col(*i).ok_or_else(|| no_column(*i)),
        Expr::Literal(v) => Ok(*v),
        e => e.eval_value(col),
    }
}

#[cold]
fn no_column(i: usize) -> Error {
    Error::Eval(format!("column index {i} out of range"))
}

#[cold]
fn eval_error(what: &str, v: Value) -> Error {
    Error::Eval(format!("{what} {v}"))
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Three-valued logic truth value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// NULL was involved.
    Unknown,
}

impl Truth {
    /// SQL AND.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// SQL OR.
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// SQL NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// WHERE-clause semantics: only TRUE keeps the row.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Truth::True
    }

    #[inline]
    fn from_option(v: Option<bool>) -> Truth {
        match v {
            Some(true) => Truth::True,
            Some(false) => Truth::False,
            None => Truth::Unknown,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by position in the input row.
    Column(usize),
    /// Literal value.
    Literal(Value),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// SQL `LIKE` with `%` and `_` wildcards; matching is case-insensitive
    /// (the paper's examples, e.g. `acronym = 'sigmod'`, rely on
    /// case-insensitive text handling, matching PostgreSQL's `ILIKE` which
    /// the original system used for user-facing filters). The pattern is
    /// compiled once, when the expression is built.
    Like(Box<Expr>, LikePattern),
    /// Membership in a literal list.
    InList(Box<Expr>, Vec<Value>),
    /// `IS NULL`.
    IsNull(Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self LIKE pattern`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like(Box::new(self), LikePattern::new(pattern))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Evaluates to a scalar value, reading input column `c` as `col(c)`
    /// (`None`: no such column).
    pub fn eval_value(&self, col: &impl Fn(usize) -> Option<Value>) -> Result<Value> {
        match self {
            Expr::Column(i) => col(*i).ok_or_else(|| no_column(*i)),
            Expr::Literal(v) => Ok(*v),
            other => {
                // Predicates evaluate to a boolean value (NULL for UNKNOWN).
                Ok(match other.eval_truth(col)? {
                    Truth::True => Value::Bool(true),
                    Truth::False => Value::Bool(false),
                    Truth::Unknown => Value::Null,
                })
            }
        }
    }

    /// Evaluates to a three-valued truth, reading columns as
    /// [`Expr::eval_value`] does.
    #[inline]
    pub fn eval_truth(&self, col: &impl Fn(usize) -> Option<Value>) -> Result<Truth> {
        match self {
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (operand(a, col)?, operand(b, col)?);
                // Interned texts are equal iff their symbols are, as in
                // `Value::sql_eq`: no string compare for `=` and `<>`.
                if let (CmpOp::Eq | CmpOp::Ne, Value::Text(x), Value::Text(y)) = (op, va, vb) {
                    return Ok(Truth::from_option(Some((x == y) == (*op == CmpOp::Eq))));
                }
                Ok(Truth::from_option(op.holds(va.sql_cmp(&vb))))
            }
            Expr::Like(e, pattern) => match operand(e, col)? {
                Value::Null => Ok(Truth::Unknown),
                Value::Text(s) => Ok(Truth::from_option(Some(pattern.matches(s.as_str())))),
                other => Err(eval_error("LIKE on non-text value", other)),
            },
            Expr::InList(e, list) => Ok(Truth::from_option(in_list(operand(e, col)?, list))),
            Expr::IsNull(e) => Ok(Truth::from_option(Some(operand(e, col)?.is_null()))),
            Expr::And(a, b) => Ok(a.eval_truth(col)?.and(b.eval_truth(col)?)),
            Expr::Or(a, b) => Ok(a.eval_truth(col)?.or(b.eval_truth(col)?)),
            Expr::Not(e) => Ok(e.eval_truth(col)?.not()),
            Expr::Column(_) | Expr::Literal(_) => match operand(self, col)? {
                Value::Null => Ok(Truth::Unknown),
                Value::Bool(b) => Ok(Truth::from_option(Some(b))),
                other => Err(eval_error("non-boolean predicate value", other)),
            },
        }
    }

    /// WHERE-clause convenience: true iff the row definitely satisfies.
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        Ok(self.eval_truth(&|c| row.get(c).copied())?.is_true())
    }

    /// The expression over another row layout, in which the columns it
    /// reads start at position `to` instead of `from`: column `c` becomes
    /// `c - from + to`. A scan predicate moves this way between its own
    /// table's columns and a row holding several tables side by side.
    pub fn rebased(&self, from: usize, to: usize) -> Expr {
        let re = |e: &Expr| Box::new(e.rebased(from, to));
        match self {
            Expr::Column(c) => Expr::Column(c - from + to),
            Expr::Literal(v) => Expr::Literal(*v),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, re(a), re(b)),
            Expr::Like(e, p) => Expr::Like(re(e), p.clone()),
            Expr::InList(e, l) => Expr::InList(re(e), l.clone()),
            Expr::IsNull(e) => Expr::IsNull(re(e)),
            Expr::And(a, b) => Expr::And(re(a), re(b)),
            Expr::Or(a, b) => Expr::Or(re(a), re(b)),
            Expr::Not(e) => Expr::Not(re(e)),
        }
    }

    /// Column positions referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Like(e, _) | Expr::InList(e, _) | Expr::IsNull(e) | Expr::Not(e) => {
                e.collect_columns(out)
            }
        }
    }
}

/// A SQL LIKE pattern compiled once (lowercased into a char buffer) so one
/// pattern can be matched against many texts without re-processing the
/// pattern per call — [`Expr::Like`] carries one, and the
/// dictionary-predicate bitmap builder (`crate::exec::pred`) runs it over
/// the whole interner arena. Two patterns are equal when their source
/// texts are.
#[derive(Debug, Clone)]
pub struct LikePattern {
    text: String,
    p: Vec<char>,
}

impl PartialEq for LikePattern {
    fn eq(&self, other: &LikePattern) -> bool {
        self.text == other.text
    }
}

impl LikePattern {
    /// Compiles `pattern` (`%` = any sequence, `_` = any single char).
    pub fn new(pattern: impl Into<String>) -> LikePattern {
        let text = pattern.into();
        let p = text.chars().flat_map(|c| c.to_lowercase()).collect();
        LikePattern { text, p }
    }

    /// The pattern's source text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Case-insensitive match of `text` against this pattern.
    ///
    /// Implemented with the classic two-pointer backtracking algorithm,
    /// O(n·m) worst case but linear on patterns without `%`.
    pub fn matches(&self, text: &str) -> bool {
        let t: Vec<char> = text.chars().flat_map(|c| c.to_lowercase()).collect();
        let p = &self.p;
        let (mut ti, mut pi) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None; // (pattern pos after %, text pos)
        while ti < t.len() {
            if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
                ti += 1;
                pi += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star = Some((pi + 1, ti));
                pi += 1;
            } else if let Some((sp, st)) = star {
                pi = sp;
                ti = st + 1;
                star = Some((sp, st + 1));
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '%' {
            pi += 1;
        }
        pi == p.len()
    }
}

/// SQL LIKE matcher with `%` (any sequence) and `_` (any single char),
/// case-insensitive. One-shot form of [`LikePattern`].
pub fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Expr::Like(e, p) => write!(f, "{e} LIKE '{}'", p.as_str()),
            Expr::InList(e, l) => {
                write!(f, "{e} IN (")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Text(s) => write!(f, "'{s}'")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, ")")
            }
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(e: &Expr, row: &[Value]) -> Truth {
        e.eval_truth(&|c| row.get(c).copied()).unwrap()
    }

    #[test]
    fn like_basic() {
        assert!(like_match("user interface", "%user%"));
        assert!(like_match("USER", "user"));
        assert!(!like_match("usability", "user%"));
        assert!(like_match("usability", "us%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abbc", "a_c"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("South Korea", "%Korea%"));
    }

    #[test]
    fn like_backtracking() {
        assert!(like_match("aXbXc", "a%b%c"));
        assert!(like_match("mississippi", "%iss%ppi"));
        assert!(!like_match("mississippi", "%issx%"));
        assert!(like_match("abc", "%%%abc%%%"));
    }

    #[test]
    fn cmp_eval() {
        let row: Vec<Value> = vec![2007.into(), "SIGMOD".into()];
        let e = Expr::col(0).gt(Expr::lit(2005));
        assert!(e.matches(&row).unwrap());
        let e = Expr::col(1).eq(Expr::lit("sigmod"));
        // Value equality is case sensitive; LIKE is not.
        assert!(!e.matches(&row).unwrap());
        let e = Expr::col(1).like("sigmod");
        assert!(e.matches(&row).unwrap());
    }

    #[test]
    fn three_valued_logic() {
        let row = vec![Value::Null];
        let e = Expr::col(0).eq(Expr::lit(1));
        assert_eq!(truth(&e, &row), Truth::Unknown);
        assert!(!e.matches(&row).unwrap());
        // NULL OR TRUE = TRUE
        let e = Expr::col(0).eq(Expr::lit(1)).or(Expr::lit(true));
        assert!(e.matches(&row).unwrap());
        // NOT UNKNOWN = UNKNOWN
        let e = Expr::col(0).eq(Expr::lit(1)).not();
        assert_eq!(truth(&e, &row), Truth::Unknown);
    }

    #[test]
    fn in_list_semantics() {
        let row: Vec<Value> = vec![3.into()];
        let e = Expr::InList(Box::new(Expr::col(0)), vec![1.into(), 3.into()]);
        assert!(e.matches(&row).unwrap());
        let e = Expr::InList(Box::new(Expr::col(0)), vec![1.into(), Value::Null]);
        assert_eq!(truth(&e, &row), Truth::Unknown);
        let e = Expr::InList(Box::new(Expr::col(0)), vec![1.into(), 2.into()]);
        assert_eq!(truth(&e, &row), Truth::False);
    }

    #[test]
    fn text_equality_by_symbol_agrees_with_sql_cmp() {
        // `=` and `<>` on two texts take the symbol fast path; the verdict
        // must be `sql_cmp`'s: equal, unequal, case-different, NULL.
        let texts = [
            Value::text("paper"),
            Value::text("paper"),
            Value::text("Paper"),
            Value::text("pap"),
            Value::text(""),
            Value::Null,
        ];
        for a in texts {
            for b in texts {
                for op in [CmpOp::Eq, CmpOp::Ne] {
                    let e = Expr::Cmp(op, Box::new(Expr::col(0)), Box::new(Expr::lit(b)));
                    let want = Truth::from_option(op.holds(a.sql_cmp(&b)));
                    assert_eq!(truth(&e, &[a]), want, "{a:?} {op} {b:?}");
                }
            }
        }
    }

    #[test]
    fn flipped_operands_hold_alike() {
        use CmpOp::*;
        for op in [Eq, Ne, Lt, Le, Gt, Ge] {
            for o in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(op.holds(Some(o)), op.flipped().holds(Some(o.reverse())));
            }
            assert_eq!(op.holds(None), None);
        }
    }

    #[test]
    fn is_null() {
        let row = vec![Value::Null, 1.into()];
        assert!(Expr::IsNull(Box::new(Expr::col(0))).matches(&row).unwrap());
        assert!(!Expr::IsNull(Box::new(Expr::col(1))).matches(&row).unwrap());
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::col(2)
            .eq(Expr::col(0))
            .and(Expr::col(2).gt(Expr::lit(1)));
        assert_eq!(e.referenced_columns(), vec![0, 2]);
    }

    #[test]
    fn out_of_range_column_errors() {
        let e = Expr::col(5);
        assert!(e.eval_value(&|c| [Value::Int(1)].get(c).copied()).is_err());
    }

    #[test]
    fn display_readable() {
        let e = Expr::col(0)
            .ge(Expr::lit(2005))
            .and(Expr::col(1).like("%Korea%"));
        assert_eq!(e.to_string(), "(#0 >= 2005 AND #1 LIKE '%Korea%')");
    }
}
