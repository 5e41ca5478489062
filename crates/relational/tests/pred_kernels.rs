//! Differential test of the predicate kernels against the reference
//! interpreter.
//!
//! Each case builds a table holding every column type — boundary numbers
//! (`i64::MIN`/`i64::MAX`, ±2^63 and the largest double below 2^63 as
//! FLOAT, −0.0 beside 0.0, NaN, infinities), text interned in reverse
//! lexicographic order, and NULLs thick around the null bitmap's word
//! edges — at one of the row counts 0, 1, 63, 64, 65 and 4097. It then
//! draws random `SqlExpr` predicate trees over the columns' names
//! (comparisons of every type pairing, `LIKE`, `IN` lists holding NULL and
//! mixed types, `IS NULL`, bare BOOL columns, nested `NOT` over UNKNOWN,
//! and now and then a leaf that could raise) and keeps the first that
//! `type_pred` accepts; every refusal must be an analysis error. It then
//! requires:
//!
//! * `scan::filter_indices` to return exactly the rows where row-by-row
//!   `Expr::eval_truth` is TRUE;
//! * the same for the predicate's negation and its `IS NULL` (its UNKNOWN
//!   rows), so FALSE and UNKNOWN are told apart too;
//! * `ColRelation::select` after a hash join (a selection vector per
//!   source) to keep exactly the joined rows the interpreter keeps;
//! * all of the above again after text interned past the cached `LIKE`
//!   bitmaps joins the table.
//!
//! The proptest shim derives every case from (test name, case index).
//! Case count defaults to 256; raise it with `PROPTEST_CASES`.

use etable_relational::colrel::{ColRelation, Pick};
use etable_relational::expr::{CmpOp, Truth};
use etable_relational::scan::filter_indices;
use etable_relational::schema::{Column, TableSchema};
use etable_relational::sql::analyze::{type_pred, Ty, TypedPred};
use etable_relational::sql::{parse_statement, SqlExpr, Statement};
use etable_relational::table::{Row, Table};
use etable_relational::value::{DataType, Value};
use etable_relational::{Error, Result};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 4097];

/// The wide table's columns: a join key, then two of every type.
const WIDE: [DataType; 9] = [
    DataType::Int,
    DataType::Int,
    DataType::Int,
    DataType::Float,
    DataType::Float,
    DataType::Text,
    DataType::Text,
    DataType::Bool,
    DataType::Bool,
];

/// The small join partner: key, INT, TEXT.
const SIDE: [DataType; 3] = [DataType::Int, DataType::Int, DataType::Text];

const INTS: [i64; 10] = [
    i64::MIN,
    i64::MIN + 1,
    -1,
    0,
    1,
    2,
    3,
    7,
    i64::MAX - 1,
    i64::MAX,
];

const FLOATS: [f64; 14] = [
    -0.0,
    0.0,
    f64::NAN,
    9_223_372_036_854_775_808.0,
    -9_223_372_036_854_775_808.0,
    9_223_372_036_854_774_784.0,
    -9_223_372_036_854_774_784.0,
    1.5,
    -3.5,
    2.0,
    3.0,
    7.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Interned in this (reverse lexicographic) order on first use, so symbol
/// ids and string order disagree.
const TEXTS: [&str; 8] = [
    "pk-zz",
    "pk-yy-data",
    "pk-mm",
    "pk-Data-kk",
    "pk-dd",
    "pk-aa-data",
    "pk-a",
    "",
];

const PATTERNS: [&str; 8] = [
    "%data%", "pk-%", "PK-D%", "%-zz", "_k-a%", "%", "pk-a", "pk-__",
];

fn texts() -> Vec<Value> {
    TEXTS.iter().map(Value::text).collect()
}

fn value(rng: &mut StdRng, ty: DataType) -> Value {
    match ty {
        DataType::Int if rng.gen_ratio(1, 2) => Value::Int(INTS[rng.gen_range(0..INTS.len())]),
        DataType::Int => Value::Int(rng.gen_range(-4i64..8)),
        DataType::Float if rng.gen_ratio(1, 2) => {
            Value::Float(FLOATS[rng.gen_range(0..FLOATS.len())])
        }
        DataType::Float => Value::Float(rng.gen_range(-4i64..8) as f64),
        DataType::Text => texts()[rng.gen_range(0..TEXTS.len())],
        DataType::Bool => Value::Bool(rng.gen_ratio(1, 2)),
    }
}

/// A row count, and which columns get NULLs at the word edges.
fn table(rng: &mut StdRng, name: &str, types: &[DataType], n: usize) -> Table {
    let cols = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| Column::nullable(format!("c{i}"), ty))
        .collect();
    let mut t = Table::new(TableSchema::new(name, cols)).unwrap();
    let edged: Vec<bool> = types.iter().map(|_| rng.gen_ratio(1, 2)).collect();
    let edge = |r: usize| matches!(r % 64, 0 | 1 | 62 | 63);
    let rows: Vec<Row> = (0..n)
        .map(|r| {
            types
                .iter()
                .enumerate()
                .map(|(c, &ty)| {
                    if rng.gen_ratio(1, 6) || (edged[c] && edge(r)) {
                        Value::Null
                    } else if c == 0 && name == "l" {
                        Value::Int(rng.gen_range(0i64..5))
                    } else {
                        value(rng, ty)
                    }
                })
                .collect()
        })
        .collect();
    t.append_rows(rows).unwrap();
    t
}

/// The join partner: keys 0..4 once each, plus a NULL key.
fn side(rng: &mut StdRng) -> Table {
    let mut t = table(rng, "r", &SIDE, 0);
    let rows = (0..4)
        .map(|k| vec![Value::Int(k), value(rng, SIDE[1]), value(rng, SIDE[2])])
        .chain([vec![Value::Null, Value::Int(1), Value::Null]]);
    t.append_rows(rows).unwrap();
    t
}

fn op(rng: &mut StdRng) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][rng.gen_range(0..6)]
}

/// Column `c` by name: the wide table's are `c0`..`c8`, and after the
/// join the side's follow as `c9`..`c11`.
fn col(c: usize) -> SqlExpr {
    SqlExpr::Column(format!("c{c}"))
}

fn col_of(rng: &mut StdRng, types: &[DataType], ty: DataType) -> SqlExpr {
    let cols: Vec<usize> = (0..types.len()).filter(|&c| types[c] == ty).collect();
    col(cols[rng.gen_range(0..cols.len())])
}

fn cmp(op: CmpOp, a: SqlExpr, b: SqlExpr) -> SqlExpr {
    SqlExpr::Cmp(op, Box::new(a), Box::new(b))
}

/// A literal for a column of type `ty`: mostly of that type, sometimes
/// NULL or another type.
fn literal(rng: &mut StdRng, ty: DataType) -> Value {
    match rng.gen_range(0..12) {
        0 => Value::Null,
        1 => {
            let other = [DataType::Int, DataType::Float, DataType::Text][rng.gen_range(0..3)];
            value(rng, other)
        }
        2 => Value::Bool(rng.gen_ratio(1, 2)),
        3 if ty == DataType::Int => value(rng, DataType::Float),
        4 if ty == DataType::Float => value(rng, DataType::Int),
        5 if ty == DataType::Text => Value::text("pk-absent"),
        _ => value(rng, ty),
    }
}

fn leaf(rng: &mut StdRng, types: &[DataType]) -> SqlExpr {
    let c = rng.gen_range(0..types.len());
    let ty = types[c];
    match rng.gen_range(0..20) {
        0..=5 => {
            let (a, b) = (col(c), SqlExpr::Literal(literal(rng, ty)));
            let (a, b) = if rng.gen_ratio(1, 3) { (b, a) } else { (a, b) };
            cmp(op(rng), a, b)
        }
        6..=8 => {
            // Mostly like-typed pairs, including mixed INT/FLOAT.
            let other = match ty {
                DataType::Int | DataType::Float if rng.gen_ratio(2, 3) => {
                    [DataType::Int, DataType::Float][rng.gen_range(0..2)]
                }
                _ if rng.gen_ratio(3, 4) => ty,
                _ => types[rng.gen_range(0..types.len())],
            };
            cmp(op(rng), col(c), col_of(rng, types, other))
        }
        9..=11 => {
            let pattern = PATTERNS[rng.gen_range(0..PATTERNS.len())];
            // LIKE over a non-TEXT column would raise: typing refuses it.
            let e = if rng.gen_ratio(1, 10) {
                col(c)
            } else {
                col_of(rng, types, DataType::Text)
            };
            SqlExpr::Like(Box::new(e), pattern.into())
        }
        12..=14 => {
            let n = rng.gen_range(0..5);
            let items = (0..n).map(|_| literal(rng, ty)).collect();
            SqlExpr::InList(Box::new(col(c)), items)
        }
        15 => SqlExpr::IsNull(Box::new(col(c))),
        16 | 17 => {
            // A non-BOOL column used as a predicate would raise: typing
            // refuses it.
            if rng.gen_ratio(1, 10) {
                col(c)
            } else {
                col_of(rng, types, DataType::Bool)
            }
        }
        18 => SqlExpr::Literal(
            [Value::Bool(true), Value::Bool(false), Value::Null][rng.gen_range(0..3)],
        ),
        _ => {
            // A nested predicate as a BOOL operand.
            let lit = SqlExpr::Literal(Value::Bool(rng.gen_ratio(1, 2)));
            cmp(op(rng), leaf(rng, types), lit)
        }
    }
}

fn tree(rng: &mut StdRng, types: &[DataType], depth: u32) -> SqlExpr {
    if depth == 0 || rng.gen_ratio(2, 5) {
        return leaf(rng, types);
    }
    let choice = rng.gen_range(0..7);
    let mut sub = || Box::new(tree(rng, types, depth - 1));
    match choice {
        0 | 1 => SqlExpr::And(sub(), sub()),
        2 | 3 => SqlExpr::Or(sub(), sub()),
        4 | 5 => SqlExpr::Not(sub()),
        _ => SqlExpr::IsNull(sub()),
    }
}

/// `e` typed over columns of `types`, named by [`col`].
fn typed(e: &SqlExpr, types: &[DataType]) -> Result<TypedPred> {
    type_pred(e, |name| {
        let c = (0..types.len()).find(|&c| format!("c{c}") == name);
        let c = c.ok_or_else(|| Error::UnknownColumn(name.into()))?;
        let base = Some(types[c]);
        Ok((
            c,
            Ty {
                base,
                nullable: true,
            },
        ))
    })
}

/// The first random tree over `types` that typing accepts. A refusal
/// must be an analysis error: a predicate that could raise on a row is
/// refused before any row is read.
fn typed_tree(rng: &mut StdRng, types: &[DataType]) -> SqlExpr {
    loop {
        let e = tree(rng, types, 3);
        match typed(&e, types) {
            Ok(_) => return e,
            Err(Error::Analyze(_)) => {}
            Err(other) => panic!("`{e}` refused with {other}, not by analysis"),
        }
    }
}

/// The reference: positions where `eval_truth` is TRUE, row by row.
fn reference(rows: &[Row], pred: &TypedPred) -> Result<Vec<usize>> {
    let mut keep = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if pred.expr().eval_truth(&|c| row.get(c).copied())? == Truth::True {
            keep.push(i);
        }
    }
    Ok(keep)
}

/// `e`, its negation and its UNKNOWN rows, typed over `types`.
fn variants(e: &SqlExpr, types: &[DataType]) -> [TypedPred; 3] {
    [
        e.clone(),
        SqlExpr::Not(Box::new(e.clone())),
        SqlExpr::IsNull(Box::new(e.clone())),
    ]
    .map(|v| typed(&v, types).unwrap())
}

fn check_scan(t: &Table, e: &SqlExpr) -> std::result::Result<(), String> {
    let rows = t.to_rows();
    for p in variants(e, &WIDE) {
        let want = reference(&rows, &p).map(|v| v.into_iter().map(|i| i as u32).collect());
        let got = Ok(filter_indices(t, &p));
        if got != want {
            return Err(format!(
                "filter_indices over {} rows, `{}`:\n  kernel {got:?}\n  interp {want:?}",
                t.len(),
                p.display()
            ));
        }
    }
    Ok(())
}

fn check_select(l: &Table, r: &Table, e: &SqlExpr) -> std::result::Result<(), String> {
    let joined = ColRelation::from_table(l, "l")
        .hash_join(&ColRelation::from_table(r, "r"), 0, 0)
        .unwrap();
    let cols = joined.columns().to_vec();
    let picks: Vec<Pick> = (0..cols.len()).map(Pick::Col).collect();
    let rows = joined
        .project(cols.clone(), &picks, None)
        .rows
        .iter()
        .collect::<Vec<_>>();
    let types: Vec<DataType> = WIDE.iter().chain(&SIDE).copied().collect();
    for p in variants(e, &types) {
        let want = reference(&rows, &p).map(|v| v.iter().map(|&i| rows[i].clone()).collect());
        let got = Ok(joined
            .select(&p)
            .project(cols.clone(), &picks, None)
            .rows
            .iter()
            .collect::<Vec<_>>());
        if got != want {
            return Err(format!(
                "select over {} joined rows, `{}`:\n  kernel {got:?}\n  interp {want:?}",
                rows.len(),
                p.display()
            ));
        }
    }
    Ok(())
}

fn check_case(seed: u64, n: usize) -> std::result::Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut l = table(&mut rng, "l", &WIDE, n);
    let r = side(&mut rng);
    let joined: Vec<DataType> = WIDE.iter().chain(&SIDE).copied().collect();
    let scan_pred = typed_tree(&mut rng, &WIDE);
    let join_pred = typed_tree(&mut rng, &joined);
    check_scan(&l, &scan_pred)?;
    check_select(&l, &r, &join_pred)?;
    // Text interned after every cached LIKE bitmap was built joins the
    // table; the next compile must extend the bitmaps over it.
    let late = Value::text(format!("pk-late-{seed}-data"));
    let mut row: Row = WIDE.iter().map(|&ty| value(&mut rng, ty)).collect();
    row[5] = late;
    row[0] = Value::Int(1);
    l.append_rows([row]).unwrap();
    check_scan(&l, &scan_pred)?;
    check_select(&l, &r, &join_pred)
}

/// Case-count override: `PROPTEST_CASES` (defaults to 256).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn kernels_agree_with_the_interpreter(seed in 0u64..u64::MAX / 2, n in 0usize..COUNTS.len()) {
        if let Err(msg) = check_case(seed, COUNTS[n]) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Every row count with a fixed set of predicates whose answers hinge on
/// NULL and NaN handling, so each count is covered whatever the sampler
/// draws.
#[test]
fn fixed_predicates_at_every_row_count() {
    let preds = [
        "c1 >= 0",
        "c3 = c4",
        "c1 < c3",
        "c3 <> 0",
        "c5 < c6",
        "c5 LIKE '%data%' OR c7",
        "NOT c1 IN (0, NULL)",
        "c5 IN ('pk-mm', 'pk-a')",
        "c8 IS NULL AND c2 > 1.5",
    ]
    .map(
        |w| match parse_statement(&format!("SELECT * FROM l WHERE {w}")) {
            Ok(Statement::Select(q)) => q.where_clause.unwrap(),
            other => panic!("{w}: {other:?}"),
        },
    );
    for (i, &n) in COUNTS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(i as u64);
        let l = table(&mut rng, "l", &WIDE, n);
        let r = side(&mut rng);
        for p in &preds {
            check_scan(&l, p).unwrap();
            check_select(&l, &r, p).unwrap();
        }
    }
}
