//! Grammar-driven differential SQL fuzzer.
//!
//! Each case builds a fresh set of small random tables (random sizes,
//! NULL-riddled columns, text interned in adversarial order) and a random
//! supported SELECT — joins (comma and `JOIN..ON` syntax, int- and
//! text-keyed, 3-table chains, disconnected cross products; join shapes
//! are weighted heavily so the executor's columnar selection-vector join
//! kernels are load-bearing here), WHERE menus, GROUP BY + HAVING,
//! aggregates including `COUNT(*)`/`AVG`/`MIN`/`MAX` on text, ORDER BY
//! with ties, LIMIT/OFFSET, and DISTINCT — then executes it with the
//! optimizing planner and the naive cross-product oracle (`sql::naive`),
//! whose row-at-a-time joins and tail kernels are independent of every
//! columnar kernel. Results must agree as **bags** always, and as exact
//! **sequences** whenever the generated ORDER BY is total (covers every
//! output column; LIMIT/OFFSET are only generated in that case, so both
//! engines must pick the same page). When ORDER BY is partial the planner's
//! output is additionally checked to be sorted under the keys — which also
//! pins dictionary-rank ordering to true lexicographic ordering. Every
//! such SELECT is also EXPLAINed: the text must render, and its last line
//! must be the executed result's `output: R rows x C columns`.
//!
//! Determinism: the proptest shim derives every case from (test name, case
//! index), so CI replays the same fixed seed stream. Case count defaults to
//! 256 and can be raised with the `PROPTEST_CASES` environment variable,
//! e.g. `PROPTEST_CASES=4096 cargo test --test sql_fuzz`.
//!
//! **Accept/reject differential**: one case in eight mutates into an
//! ill-formed query (unknown table/column, ambiguous unqualified
//! reference, type-mismatched comparison, LIKE on a number, non-grouped
//! select column, HAVING without GROUP BY, nested aggregate, aggregate
//! in WHERE, SUM over text, mistyped IN list, non-boolean predicate).
//! Both engines and EXPLAIN must reject it with the *same* error — the
//! shared analyzer is the specification — and `analyze` alone must already
//! return that error, with a code other than evaluation's: every shape is
//! refused before any row is read, and no ill-formed query may execute on
//! either side. Valid cases run exactly as before.
//!
//! SUM/AVG are only generated over INT columns with small values: their
//! accumulator is exact there, so the two engines' different evaluation
//! orders cannot produce last-ulp float divergence.
//!
//! **Adversarial numerics**: `s.big` (INT) and `t.wide` (FLOAT) carry
//! boundary values — `i64::MIN`/`i64::MAX`, floats at exactly ±2^63 (where
//! `i64::MAX as f64` rounds up), the largest double *below* 2^63, and
//! `-0.0` — and a dedicated join shape equates them (`s.big = t.wide`), so
//! every case stream exercises the exact int↔float comparison and the
//! hash/eq consistency of boundary keys. These columns stay out of the
//! SUM/AVG pools on purpose: the oracle accumulates in f64 and near-2^63
//! sums would diverge by evaluation order, which is not the property under
//! test. Overflow literals like `1e999` are lexer-rejected and covered by
//! an explicit rejection test.
//!
//! **Disk leg**: `paged_backend_agrees_with_resident` (the name is kept:
//! case seeds derive from it) replays the same case grammar against a
//! saved-and-reopened database (`Database::save`/`Database::open`),
//! asserting that it answers identically — byte-identical rows vs the
//! database it was saved from — and re-saves byte-identically. It rides
//! every `--test sql_fuzz` invocation, including the nightly deep-verify
//! matrix.
//!
//! **Spill leg**: `spilled_join_agrees_with_in_memory` runs the same case
//! under memory budgets of 1, 64 and 4096 bytes (every nonempty join
//! spills at budget 1) and demands the row *sequence* — not just the bag —
//! be identical to the unlimited-budget run, then checks this process left
//! no spill files behind. With `ETABLE_MEM_BUDGET` set (the nightly
//! tiny-budget matrix leg), the other legs' unoverridden queries spill
//! too, differentially checked against the naive oracle as usual.
//!
//! **Foreign-key leg**: `fk_joins_agree_with_hash_joins` has a schema and
//! case stream of its own (the legs above keep theirs): `r` (nullable)
//! and `q` both reference `s`'s primary key, so their join edges run on
//! the stored foreign-key index (`fk join`). Each case interleaves random
//! DML with joins in both orientations, 3-way chains through `s` and
//! filters on both sides, and runs every statement twice: on that
//! database and on a twin holding the same rows with no foreign key
//! declared, whose edges are hash joins (which spill under
//! `ETABLE_MEM_BUDGET`). The two must return the same row *sequence*, and
//! agree with the naive oracle as bags.
//!
//! **Atomicity leg**: `writes_are_statement_atomic_on_both_front_ends`
//! has a case stream of its own over the same schema. Each case applies
//! twelve random writes — multi-row INSERTs with dangling or repeated
//! keys, key UPDATEs, DELETEs that RESTRICT may refuse — to a plain
//! `Database` through `execute` and to a `SharedDatabase`. After every
//! statement both must hold the same rows table by table, and a refused
//! statement must leave the plain database exactly as it was.

use etable_repro::relational::database::Database;
use etable_repro::relational::exec::budget;
use etable_repro::relational::relation::Relation;
use etable_repro::relational::shared::SharedDatabase;
use etable_repro::relational::sql::explain::explain_query;
use etable_repro::relational::sql::naive::execute_query_naive;
use etable_repro::relational::sql::{
    analyze, execute, executor::execute_query, parse_statement, Query, Statement,
};
use etable_repro::relational::value::Value;
use etable_repro::relational::ErrorCode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Text pool with case variety, duplicates-by-construction and an empty
/// string; interned in shuffled order per case so symbol ids never align
/// with lexicographic order.
const WORDS: &[&str] = &[
    "pear", "Apple", "fig", "apple", "banana", "", "zz", "kiwi", "Fig",
];

/// Boundary ints for `s.big`: the extremes, their neighbours (which f64
/// cannot distinguish from the extremes), and small values that collide
/// with `t.wide`'s small floats.
const BIG_INTS: &[i64] = &[i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1, 0, 1, -1];

/// Boundary floats for `t.wide`: exactly ±2^63 (`i64::MAX as f64` rounds
/// *up* to 2^63, the historical hash/eq bug), the largest double below
/// 2^63, negative zero, and small values shared with `BIG_INTS`.
const WIDE_FLOATS: &[f64] = &[
    9_223_372_036_854_775_808.0,  // 2^63: > every i64
    -9_223_372_036_854_775_808.0, // -2^63 == i64::MIN exactly
    9_223_372_036_854_774_784.0,  // largest f64 < 2^63
    -0.0,
    0.0,
    1.0,
    -1.0,
];

fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE s (id INT PRIMARY KEY, g INT NOT NULL, txt TEXT, num INT, fl FLOAT, big INT)",
        "CREATE TABLE t (id INT PRIMARY KEY, s_id INT NOT NULL, w INT, lbl TEXT, wide FLOAT)",
        "CREATE TABLE u (id INT PRIMARY KEY, v TEXT)",
    ] {
        execute(&mut db, stmt).unwrap();
    }
    // Adversarial intern order: touch the pool in a random order first.
    let mut order: Vec<usize> = (0..WORDS.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &i in &order {
        let _ = Value::text(WORDS[i]);
    }
    let word = |rng: &mut StdRng| -> Value {
        if rng.gen_range(0..4) == 0 {
            Value::Null
        } else {
            WORDS[rng.gen_range(0..WORDS.len())].into()
        }
    };
    for id in 0..rng.gen_range(0..=10i64) {
        let txt = word(rng);
        let num: Value = if rng.gen_range(0..4) == 0 {
            Value::Null
        } else {
            rng.gen_range(-50..50i64).into()
        };
        let fl: Value = if rng.gen_range(0..3) == 0 {
            Value::Null
        } else {
            (rng.gen_range(-40..40i64) as f64 * 0.5).into()
        };
        let big: Value = if rng.gen_range(0..4) == 0 {
            Value::Null
        } else {
            BIG_INTS[rng.gen_range(0..BIG_INTS.len())].into()
        };
        db.insert(
            "s",
            vec![id.into(), rng.gen_range(0..3i64).into(), txt, num, fl, big],
        )
        .unwrap();
    }
    for id in 0..rng.gen_range(0..=12i64) {
        // May dangle (no FK declared): inner joins simply drop the row.
        let s_id = rng.gen_range(0..12i64);
        let w: Value = if rng.gen_range(0..4) == 0 {
            Value::Null
        } else {
            rng.gen_range(0..6i64).into()
        };
        let wide: Value = if rng.gen_range(0..4) == 0 {
            Value::Null
        } else {
            WIDE_FLOATS[rng.gen_range(0..WIDE_FLOATS.len())].into()
        };
        db.insert("t", vec![id.into(), s_id.into(), w, word(rng), wide])
            .unwrap();
    }
    for id in 0..rng.gen_range(0..=5i64) {
        db.insert("u", vec![id.into(), word(rng)]).unwrap();
    }
    db
}

/// Output-column descriptions the generator tracks so it can build ORDER
/// BY clauses over what it projected.
struct OutCol {
    /// How ORDER BY refers to it (column reference or alias).
    order_name: String,
    /// SELECT-list text.
    select_text: String,
}

struct GenQuery {
    sql: String,
    /// Positions (in output order) of the ORDER BY keys, with desc flags.
    order_keys: Vec<(usize, bool)>,
    /// ORDER BY covers every output column (total order up to row
    /// equality).
    order_total: bool,
}

fn gen_query(rng: &mut StdRng) -> GenQuery {
    // FROM shape. Join-bearing shapes dominate the distribution so the
    // columnar join path (selection-vector build/probe kernels) is
    // load-bearing in the differential suite: a third of all cases are
    // 3-table joins, plus a text-keyed equi-join (interned-symbol keys
    // with NULLs on both sides) and a disconnected FROM pair that forces
    // the cross-product kernel.
    let shape = rng.gen_range(0..10);
    let (from, join_preds): (&str, Vec<&str>) = match shape {
        0 => ("s", vec![]),
        1 => ("t", vec![]),
        2 => ("s, t", vec!["s.id = t.s_id"]),
        3 => ("s JOIN t ON s.id = t.s_id", vec![]),
        4 => ("s, u", vec![]),                 // no edge: cross product
        5 => ("s, t", vec!["s.txt = t.lbl"]),  // text keys, NULLs never match
        9 => ("s, t", vec!["s.big = t.wide"]), // int↔float boundary keys
        _ => ("s, t, u", vec!["s.id = t.s_id", "t.w = u.id"]),
    };
    let has_s = shape != 1;
    let has_t = shape == 1 || shape == 2 || shape == 3 || shape == 5 || shape >= 6;
    let has_u = shape == 4 || (6..=8).contains(&shape);

    // WHERE menu.
    let mut preds: Vec<String> = join_preds.iter().map(|p| p.to_string()).collect();
    for _ in 0..rng.gen_range(0..3) {
        let pick = rng.gen_range(0..14);
        let p = match pick {
            0 if has_s => format!("s.num >= {}", rng.gen_range(-50..50)),
            1 if has_s => format!(
                "s.txt LIKE '%{}%'",
                ["a", "p", "i", "z"][rng.gen_range(0..4)]
            ),
            2 if has_s => "s.txt IS NULL".to_string(),
            3 if has_s => format!("s.fl < {}.5", rng.gen_range(-10..10)),
            4 if has_t => "t.lbl IS NOT NULL".to_string(),
            5 if has_t => format!("t.w IN ({}, {})", rng.gen_range(0..6), rng.gen_range(0..6)),
            6 if has_s => format!("s.txt >= '{}'", WORDS[rng.gen_range(0..WORDS.len())]),
            7 if has_s && has_t => format!(
                "(s.g = {} OR t.w > {})",
                rng.gen_range(0..3),
                rng.gen_range(0..6)
            ),
            8 if has_s => format!("NOT (s.g = {})", rng.gen_range(0..3)),
            // Boundary literals: i64 extremes parse exactly; the float
            // literal at 2^63 against an INT column is the historical
            // rounding trap (`i64::MAX as f64` == 2^63).
            9 if has_s => format!(
                "s.big > {}",
                ["-9223372036854775808", "9223372036854775806", "0"][rng.gen_range(0..3)]
            ),
            10 if has_s => "s.big = 9223372036854775808.0".to_string(),
            11 if has_t => format!(
                "t.wide >= {}",
                ["9223372036854775808.0", "-9223372036854775808.0", "-0.0"][rng.gen_range(0..3)]
            ),
            12 if has_t => "t.wide <> -0.0".to_string(),
            _ if has_t => format!("t.lbl <> '{}'", WORDS[rng.gen_range(0..WORDS.len())]),
            _ => format!("s.g <= {}", rng.gen_range(0..3)),
        };
        preds.push(p);
    }
    let where_clause = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };

    let grouped = rng.gen_range(0..2) == 0;
    let (mut out_cols, group_by, having, distinct) = if grouped {
        // Group keys drawn from the available tables.
        let mut key_pool: Vec<&str> = Vec::new();
        if has_s {
            key_pool.extend(["s.g", "s.txt", "s.big"]);
        }
        if has_t {
            key_pool.extend(["t.lbl", "t.w", "t.wide"]);
        }
        if has_u {
            key_pool.push("u.v");
        }
        let n_keys = rng.gen_range(1..=2.min(key_pool.len()));
        let mut keys: Vec<&str> = Vec::new();
        while keys.len() < n_keys {
            let k = key_pool[rng.gen_range(0..key_pool.len())];
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        // Aggregates; SUM/AVG restricted to small-int columns (exact in
        // f64, so evaluation order cannot matter). The boundary columns
        // get MIN/MAX/COUNT only — comparisons are exact at any magnitude,
        // sums near 2^63 are not.
        let mut agg_pool: Vec<&str> = vec!["COUNT(*)"];
        if has_s {
            agg_pool.extend([
                "COUNT(s.txt)",
                "SUM(s.num)",
                "AVG(s.num)",
                "MIN(s.txt)",
                "MAX(s.txt)",
                "MIN(s.fl)",
                "MAX(s.num)",
                "MAX(s.big)",
                "MIN(s.big)",
            ]);
        }
        if has_t {
            agg_pool.extend([
                "SUM(t.w)",
                "AVG(t.w)",
                "MAX(t.lbl)",
                "COUNT(t.w)",
                "MIN(t.wide)",
                "MAX(t.wide)",
            ]);
        }
        if has_u {
            agg_pool.push("MIN(u.v)");
        }
        let n_aggs = rng.gen_range(1..=3);
        let mut cols: Vec<OutCol> = keys
            .iter()
            .map(|k| OutCol {
                order_name: k.to_string(),
                select_text: k.to_string(),
            })
            .collect();
        for ai in 0..n_aggs {
            let agg = agg_pool[rng.gen_range(0..agg_pool.len())];
            cols.push(OutCol {
                order_name: format!("a{ai}"),
                select_text: format!("{agg} AS a{ai}"),
            });
        }
        let atom = |rng: &mut StdRng| having_atom(rng, &keys, has_s, has_t);
        let having = match rng.gen_range(0..6) {
            0 => format!(" HAVING COUNT(*) >= {}", rng.gen_range(1..3)),
            1 if rng.gen_range(0..2) == 0 => " HAVING COUNT(*) > 100".to_string(),
            2 => format!(" HAVING {}", atom(rng)),
            3 => {
                let (a, b) = (atom(rng), atom(rng));
                let op = ["AND", "OR"][rng.gen_range(0..2)];
                format!(" HAVING ({a}) {op} ({b})")
            }
            4 => format!(" HAVING NOT ({})", atom(rng)),
            _ => String::new(),
        };
        (
            cols,
            format!(" GROUP BY {}", keys.join(", ")),
            having,
            false,
        )
    } else {
        let mut col_pool: Vec<&str> = Vec::new();
        if has_s {
            col_pool.extend(["s.id", "s.g", "s.txt", "s.num", "s.fl", "s.big"]);
        }
        if has_t {
            col_pool.extend(["t.id", "t.w", "t.lbl", "t.wide"]);
        }
        if has_u {
            col_pool.extend(["u.id", "u.v"]);
        }
        let n_cols = rng.gen_range(1..=3.min(col_pool.len()));
        let mut cols: Vec<OutCol> = Vec::new();
        while cols.len() < n_cols {
            let c = col_pool[rng.gen_range(0..col_pool.len())];
            if !cols.iter().any(|o| o.order_name == c) {
                cols.push(OutCol {
                    order_name: c.to_string(),
                    select_text: c.to_string(),
                });
            }
        }
        let distinct = rng.gen_range(0..4) == 0;
        (cols, String::new(), String::new(), distinct)
    };

    // ORDER BY: nothing, a strict subset (ties stay possible), or a random
    // permutation of every output column (total).
    let order_mode = rng.gen_range(0..3);
    let mut order_keys: Vec<(usize, bool)> = Vec::new();
    let mut order_total = false;
    match order_mode {
        0 => {}
        1 => {
            let n = rng.gen_range(1..=out_cols.len());
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < n {
                let i = rng.gen_range(0..out_cols.len());
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            order_keys = picked
                .into_iter()
                .map(|i| (i, rng.gen_range(0..2) == 0))
                .collect();
            order_total = order_keys.len() == out_cols.len();
        }
        _ => {
            let mut perm: Vec<usize> = (0..out_cols.len()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            order_keys = perm
                .into_iter()
                .map(|i| (i, rng.gen_range(0..2) == 0))
                .collect();
            order_total = true;
        }
    }
    let order_clause = if order_keys.is_empty() {
        String::new()
    } else {
        format!(
            " ORDER BY {}",
            order_keys
                .iter()
                .map(|&(i, desc)| format!(
                    "{}{}",
                    out_cols[i].order_name,
                    if desc { " DESC" } else { "" }
                ))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };

    // LIMIT/OFFSET only under a total ORDER BY, where the page both
    // engines pick is forced to be the same multiset.
    let mut tail = String::new();
    if order_total && rng.gen_range(0..2) == 0 {
        tail.push_str(&format!(" LIMIT {}", rng.gen_range(0..8)));
        if rng.gen_range(0..2) == 0 {
            tail.push_str(&format!(" OFFSET {}", rng.gen_range(0..5)));
        }
    }

    let select_list = out_cols
        .iter_mut()
        .map(|c| c.select_text.clone())
        .collect::<Vec<_>>()
        .join(", ");
    let sql = format!(
        "SELECT {}{select_list} FROM {from}{where_clause}{group_by}{having}{order_clause}{tail}",
        if distinct { "DISTINCT " } else { "" },
    );
    GenQuery {
        sql,
        order_keys,
        order_total,
    }
}

/// One HAVING predicate over the group keys in `keys` and the aggregates
/// of the tables in scope: LIKE, `=` and `<` on a TEXT key, `IS NULL` on
/// any key, a FLOAT aggregate against a float or integer literal (boundary
/// values and `-0.0` included), or a COUNT threshold.
fn having_atom(rng: &mut StdRng, keys: &[&str], has_s: bool, has_t: bool) -> String {
    let word = |rng: &mut StdRng| WORDS[rng.gen_range(0..WORDS.len())];
    let mut menu = vec![
        format!("COUNT(*) >= {}", rng.gen_range(1..4)),
        format!("{} IS NULL", keys[rng.gen_range(0..keys.len())]),
    ];
    if let Some(k) = keys.iter().find(|k| ["s.txt", "t.lbl", "u.v"].contains(k)) {
        menu.push(format!(
            "{k} LIKE '%{}%'",
            ["a", "p", "i", "z"][rng.gen_range(0..4)]
        ));
        menu.push(format!("{k} = '{}'", word(rng)));
        menu.push(format!("{k} < '{}'", word(rng)));
    }
    if has_s {
        menu.push(format!("MIN(s.fl) < {}.5", rng.gen_range(-10..10)));
    }
    if has_t {
        menu.push(format!(
            "MAX(t.wide) >= {}",
            [
                "-0.0",
                "0",
                "1",
                "9223372036854775808.0",
                "-9223372036854775808.0"
            ][rng.gen_range(0..5)]
        ));
    }
    menu.swap_remove(rng.gen_range(0..menu.len()))
}

/// The number of distinct ill-formed query shapes `invalid_query` can
/// produce.
const INVALID_SHAPES: usize = 12;

/// One ill-formed query over the fuzzer's fixed schema. Every shape
/// parses fine — the defect is semantic, so only the analyzer can catch
/// it. Returns the shape's name (for diagnostics) and the SQL.
fn invalid_query(shape: usize, rng: &mut StdRng) -> (&'static str, String) {
    match shape {
        0 => (
            "unknown-column",
            format!("SELECT s.bogus FROM s WHERE s.g = {}", rng.gen_range(0..3)),
        ),
        1 => ("unknown-table", "SELECT nosuch.id FROM nosuch".to_string()),
        2 => (
            "ambiguous-column",
            "SELECT id FROM s, t WHERE s.id = t.s_id".to_string(),
        ),
        3 => (
            "cmp-type-mismatch",
            format!("SELECT s.id FROM s WHERE s.txt > {}", rng.gen_range(0..9)),
        ),
        4 => (
            "like-on-number",
            "SELECT s.id FROM s WHERE s.num LIKE '%a%'".to_string(),
        ),
        5 => (
            "non-grouped-select",
            "SELECT s.txt, COUNT(*) AS n FROM s GROUP BY s.g".to_string(),
        ),
        6 => (
            "having-without-group",
            format!("SELECT s.id FROM s HAVING s.id > {}", rng.gen_range(0..5)),
        ),
        7 => (
            "nested-aggregate",
            "SELECT COUNT(MAX(s.num)) AS n FROM s GROUP BY s.g".to_string(),
        ),
        8 => (
            "aggregate-in-where",
            "SELECT s.id FROM s WHERE COUNT(*) > 1".to_string(),
        ),
        9 => (
            "sum-over-text",
            "SELECT SUM(s.txt) AS x FROM s GROUP BY s.g".to_string(),
        ),
        10 => (
            "in-list-type-mismatch",
            "SELECT s.id FROM s WHERE s.num IN (1, 'pear')".to_string(),
        ),
        _ => (
            "non-boolean-predicate",
            "SELECT s.id FROM s WHERE s.num".to_string(),
        ),
    }
}

/// The refusal of an ill-formed query: both engines, EXPLAIN and
/// `analyze` alone must return one error, and not an evaluation error —
/// the query is refused before any row is read.
fn refusal(db: &Database, q: &Query, kind: &str, sql: &str) -> std::result::Result<(), String> {
    let (planned, oracle) = (execute_query(db, q), execute_query_naive(db, q));
    let (p, n, e, a) = match (planned, oracle, explain_query(db, q), analyze(db, q)) {
        (Err(p), Err(n), Err(e), Err(a)) => (p, n, e, a),
        (p, n, e, a) => {
            let ok = [p.is_ok(), n.is_ok(), e.is_ok(), a.is_ok()];
            return Err(format!(
                "ill-formed query ({kind}) `{sql}` accepted by [planner, oracle, explain, analyze]: {ok:?}"
            ));
        }
    };
    if p != n || p != e || p != a {
        return Err(format!(
            "rejections of `{sql}` ({kind}) differ: planner `{p}`, oracle `{n}`, explain `{e}`, analyze `{a}`"
        ));
    }
    if a.code() == ErrorCode::Eval {
        return Err(format!(
            "`{sql}` ({kind}) refused as an evaluation error: {a}"
        ));
    }
    Ok(())
}

/// Runs one ill-formed case: the query must parse, and be refused (see
/// [`refusal`]).
fn check_invalid_case(db: &Database, rng: &mut StdRng) -> std::result::Result<(), String> {
    let shape = rng.gen_range(0..INVALID_SHAPES);
    let (kind, sql) = invalid_query(shape, rng);
    let q = match parse_statement(&sql) {
        Ok(Statement::Select(q)) => q,
        other => {
            return Err(format!(
                "ill-formed case ({kind}) must still parse: {other:?}: {sql}"
            ))
        }
    };
    refusal(db, &q, kind, &sql)
}

/// EXPLAIN of a SELECT that ran must render, and end with the shape of
/// the executed result. Its renderer reads the plan's tables, edges and
/// residuals at the positions the run recorded, so a wrong one panics.
fn check_explain(
    db: &Database,
    q: &Query,
    result: &Relation,
    sql: &str,
) -> std::result::Result<(), String> {
    let lines = explain_query(db, q).map_err(|e| format!("EXPLAIN refused `{sql}`: {e}"))?;
    let (rows, cols) = (result.len(), result.columns.len());
    let want = format!("output: {rows} rows x {cols} columns");
    match lines.last() {
        Some(last) if *last == want => Ok(()),
        last => Err(format!("EXPLAIN of `{sql}` ends {last:?}, not `{want}`")),
    }
}

fn check_case(seed: u64) -> std::result::Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_db(&mut rng);
    // One case in eight exercises the reject path instead of the value
    // differential.
    if rng.gen_range(0..8) == 0 {
        return check_invalid_case(&db, &mut rng);
    }
    let gen = gen_query(&mut rng);
    let q = match parse_statement(&gen.sql) {
        Ok(Statement::Select(q)) => q,
        other => {
            return Err(format!(
                "generated SQL failed to parse: {other:?}: {}",
                gen.sql
            ))
        }
    };
    let planned =
        execute_query(&db, &q).map_err(|e| format!("planner error on `{}`: {e}", gen.sql))?;
    check_explain(&db, &q, &planned, &gen.sql)?;
    let planned = planned.rows.iter().collect::<Vec<_>>();
    let naive = execute_query_naive(&db, &q)
        .map_err(|e| format!("oracle error on `{}`: {e}", gen.sql))?
        .rows
        .iter()
        .collect::<Vec<_>>();

    // Bags must always agree.
    let mut pb = planned.clone();
    let mut nb = naive.clone();
    pb.sort();
    nb.sort();
    if pb != nb {
        return Err(format!(
            "bag divergence on `{}`:\n planner: {planned:?}\n oracle:  {naive:?}",
            gen.sql
        ));
    }

    if gen.order_total {
        // Total ORDER BY: the sequences themselves must be identical.
        if planned != naive {
            return Err(format!(
                "sequence divergence under total ORDER BY on `{}`:\n planner: {planned:?}\n oracle:  {naive:?}",
                gen.sql
            ));
        }
    }
    if !gen.order_keys.is_empty() {
        // Planner output must be sorted under the keys (ties allowed) —
        // also pins rank-keyed text sorting to lexicographic order.
        for w in planned.windows(2) {
            for &(col, desc) in &gen.order_keys {
                let ord = w[0][col].total_cmp(&w[1][col]);
                let ord = if desc { ord.reverse() } else { ord };
                match ord {
                    std::cmp::Ordering::Less => break,
                    std::cmp::Ordering::Equal => continue,
                    std::cmp::Ordering::Greater => {
                        return Err(format!(
                            "planner output not sorted on `{}`: {:?} before {:?}",
                            gen.sql, w[0], w[1]
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

/// Unique scratch directory for the disk leg (parallel proptest cases
/// within one process must not collide, nor reruns across processes).
fn scratch_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("etable-fuzz-disk-{}-{n}", std::process::id()))
}

/// Disk leg of the differential: a saved-and-reopened database answers
/// identically. The same case also runs against a saved-and-reopened copy
/// of the database; rows must be **byte-identical** to the original's —
/// same values, same order — and rejections must carry the same error. Saving the reopened copy again must reproduce the on-disk
/// bytes exactly (round-trip idempotence under fuzzer-shaped data:
/// adversarial intern order, NULL-riddled columns, empty tables).
fn check_disk_case(seed: u64) -> std::result::Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_db(&mut rng);
    let dir = scratch_dir();
    let result = disk_case_on(&db, &mut rng, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn disk_case_on(
    db: &Database,
    rng: &mut StdRng,
    dir: &std::path::Path,
) -> std::result::Result<(), String> {
    db.save(dir).map_err(|e| format!("save failed: {e}"))?;
    let reopened = Database::open(dir).map_err(|e| format!("open failed: {e}"))?;

    // save→open→save must be byte-identical (canonical encoding).
    let again = dir.with_extension("resave");
    reopened
        .save(&again)
        .map_err(|e| format!("re-save failed: {e}"))?;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let a = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
        let b = std::fs::read(again.join(&name))
            .map_err(|e| format!("{}: {e}", name.to_string_lossy()))?;
        if a != b {
            let _ = std::fs::remove_dir_all(&again);
            return Err(format!(
                "re-saved `{}` is not byte-identical to the original save",
                name.to_string_lossy()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&again);

    let gen = gen_query(rng);
    let q = match parse_statement(&gen.sql) {
        Ok(Statement::Select(q)) => q,
        other => {
            return Err(format!(
                "generated SQL failed to parse: {other:?}: {}",
                gen.sql
            ))
        }
    };
    match (execute_query(db, &q), execute_query(&reopened, &q)) {
        (Ok(resident), Ok(paged)) => {
            if resident.rows != paged.rows {
                return Err(format!(
                    "disk backend diverged on `{}`:\n resident: {:?}\n paged:    {:?}",
                    gen.sql, resident.rows, paged.rows
                ));
            }
            Ok(())
        }
        (Err(r), Err(p)) if r == p => Ok(()),
        (r, p) => Err(format!(
            "disk backend disagrees on acceptance of `{}`: resident ok={} paged ok={}",
            gen.sql,
            r.is_ok(),
            p.is_ok()
        )),
    }
}

/// Spill leg: the same case grammar, executed under tiny memory budgets.
/// Budget 1 is below one hash-table entry, so every nonempty join takes
/// the Grace disk path (partitioning, recursive re-partitioning, the sort
/// fallback); 64 and 4096 spill only larger builds, covering the mixed
/// resident/spilled regime. The row **sequence** must be identical to the
/// unlimited-budget run at every budget — byte-identity is the spilled
/// join's contract, not mere bag equality — and rejections must carry the
/// same error. Afterwards no spill directory of this process may remain.
fn check_spill_case(seed: u64) -> std::result::Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_db(&mut rng);
    let gen = gen_query(&mut rng);
    let q = match parse_statement(&gen.sql) {
        Ok(Statement::Select(q)) => q,
        other => {
            return Err(format!(
                "generated SQL failed to parse: {other:?}: {}",
                gen.sql
            ))
        }
    };
    let unlimited = budget::with_budget(None, || execute_query(&db, &q));
    for limit in [1u64, 64, 4096] {
        let spilled = budget::with_budget(Some(limit), || execute_query(&db, &q));
        match (&unlimited, &spilled) {
            (Ok(a), Ok(b)) => {
                if a.rows != b.rows {
                    return Err(format!(
                        "budget {limit} changed the row sequence of `{}`:\n unlimited: {:?}\n spilled:   {:?}",
                        gen.sql, a.rows, b.rows
                    ));
                }
            }
            (Err(a), Err(b)) if a == b => {}
            (a, b) => {
                return Err(format!(
                    "budget {limit} changed acceptance of `{}`: unlimited ok={} spilled ok={}",
                    gen.sql,
                    a.is_ok(),
                    b.is_ok()
                ))
            }
        }
    }
    // Spill directories are removed when their join finishes, on this
    // thread, so none of ours may survive the calls above. Only enforce it
    // when the environment budget is unlimited: under the nightly
    // `ETABLE_MEM_BUDGET` matrix leg the *other* fuzz legs spill
    // concurrently in this process and legitimately hold live spill dirs.
    if budget::env_budget().is_none() {
        let root = std::env::temp_dir().join("etable-spill");
        let mine = format!("{}-", std::process::id());
        if let Ok(entries) = std::fs::read_dir(&root) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(&mine) {
                    return Err(format!(
                        "leftover spill dir after `{}`: {}",
                        gen.sql,
                        entry.path().display()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The foreign-key leg's schema: `r` and `q` reference `s`'s primary key.
const FK_SCHEMA: [&str; 3] = [
    "CREATE TABLE s (id INT PRIMARY KEY, g INT NOT NULL, txt TEXT)",
    "CREATE TABLE r (id INT PRIMARY KEY, s_id INT REFERENCES s(id), w INT, lbl TEXT)",
    "CREATE TABLE q (id INT PRIMARY KEY, s_id INT NOT NULL REFERENCES s(id), v INT)",
];

/// A database over [`FK_SCHEMA`] and its twin without the foreign keys,
/// holding the same random rows: `s` in shuffled key order, and `r` and
/// `q` bulk-loaded unchecked, so some of their keys dangle.
fn fk_dbs(rng: &mut StdRng) -> (Database, Database) {
    let (mut fk, mut twin) = (Database::new(), Database::new());
    for stmt in FK_SCHEMA {
        execute(&mut fk, stmt).unwrap();
        execute(&mut twin, &stmt.replace(" REFERENCES s(id)", "")).unwrap();
    }
    let word = |rng: &mut StdRng| -> Value {
        match rng.gen_range(0..4) {
            0 => Value::Null,
            _ => WORDS[rng.gen_range(0..WORDS.len())].into(),
        }
    };
    let mut ids: Vec<i64> = (0..10).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids.truncate(rng.gen_range(0..=8));
    let s_rows: Vec<_> = (ids.iter())
        .map(|&id| vec![id.into(), rng.gen_range(0..3i64).into(), word(rng)])
        .collect();
    let r_rows: Vec<_> = (0..rng.gen_range(0..=12i64))
        .map(|id| {
            let s_id: Value = match rng.gen_range(0..4) {
                0 => Value::Null,
                _ => rng.gen_range(0..11i64).into(),
            };
            vec![id.into(), s_id, rng.gen_range(0..4i64).into(), word(rng)]
        })
        .collect();
    let q_rows: Vec<_> = (0..rng.gen_range(0..=8i64))
        .map(|id| {
            let v = rng.gen_range(0..5i64).into();
            vec![id.into(), rng.gen_range(0..11i64).into(), v]
        })
        .collect();
    for db in [&mut fk, &mut twin] {
        db.append_rows("s", s_rows.clone()).unwrap();
        db.append_rows("r", r_rows.clone()).unwrap();
        db.append_rows("q", q_rows.clone()).unwrap();
    }
    (fk, twin)
}

/// A random SELECT over [`FK_SCHEMA`]: one of six join shapes (both
/// orientations, JOIN..ON, two 3-way chains through `s`, and `r` joined
/// to `s` twice), up to two filters drawn from both sides, and a select
/// list that is now and then grouped or DISTINCT. The grouped counts,
/// MIN / MAX, DISTINCT and global `COUNT(*)` are shaped for the
/// foreign-key tree pass (ORDER BY names every key, every grouped column
/// lies in one table); the unordered count and the SUM are not, so the
/// database runs them on the greedy loop.
fn fk_query(rng: &mut StdRng) -> String {
    // Per shape: its FROM, its filters, and (key, value) column pairs of
    // one table each.
    type Shape = (
        &'static str,
        &'static [&'static str],
        &'static [(&'static str, &'static str)],
    );
    let shapes: [Shape; 6] = [
        (
            "r, s WHERE r.s_id = s.id",
            &["r.w > 1", "r.lbl = 'fig'", "s.g = 1"],
            &[("s.g", "s.txt"), ("r.lbl", "r.w")],
        ),
        (
            "s JOIN r ON s.id = r.s_id",
            &["s.txt IS NULL", "r.w <> 2", "s.id < 5"],
            &[("s.g", "s.id"), ("r.w", "r.lbl")],
        ),
        (
            "r, s, q WHERE r.s_id = s.id AND q.s_id = s.id",
            &["q.v < 3", "s.g <> 0", "r.lbl IS NOT NULL"],
            &[("s.txt", "s.g"), ("q.v", "q.id"), ("r.lbl", "r.w")],
        ),
        (
            "q, s, r WHERE s.id = q.s_id AND s.id = r.s_id",
            &["q.v = 1", "r.w < 3", "s.id >= 2"],
            &[("q.v", "q.s_id"), ("s.g", "s.txt")],
        ),
        (
            "r a, s, r b WHERE a.s_id = s.id AND s.id = b.s_id",
            &["a.w = 0", "b.w > 0", "s.g = 2"],
            &[("a.w", "a.lbl"), ("s.g", "s.id"), ("b.lbl", "b.w")],
        ),
        (
            "s, q WHERE q.s_id = s.id",
            &["q.v >= 2", "s.txt = 'pear'", "s.g < 2"],
            &[("s.g", "s.txt"), ("q.v", "q.id")],
        ),
    ];
    let (from, filters, columns) = shapes[rng.gen_range(0..shapes.len())];
    let mut sql = String::from(from);
    for _ in 0..rng.gen_range(0..3) {
        sql += &format!(" AND {}", filters[rng.gen_range(0..filters.len())]);
    }
    if from.starts_with("s JOIN") {
        // JOIN..ON takes its filters in a WHERE of their own.
        sql = sql.replacen(" AND ", " WHERE ", 1);
    }
    let (k, v) = columns[rng.gen_range(0..columns.len())];
    match rng.gen_range(0..10) {
        0 => format!("SELECT s.g, COUNT(*) AS n FROM {sql} GROUP BY s.g"),
        1 => format!("SELECT {k}, COUNT(*) AS n FROM {sql} GROUP BY {k} ORDER BY n DESC, {k}"),
        2 => format!(
            "SELECT {k}, MIN({v}) AS lo, MAX({v}) AS hi, COUNT({v}) AS c FROM {sql} \
             GROUP BY {k} ORDER BY {k} DESC LIMIT 3"
        ),
        3 => format!("SELECT DISTINCT {k}, {v} FROM {sql} ORDER BY {v}, {k}"),
        4 => format!("SELECT COUNT(*) FROM {sql}"),
        5 => format!("SELECT {k}, SUM(s.id) AS t FROM {sql} GROUP BY {k} ORDER BY {k}"),
        _ => format!("SELECT * FROM {sql}"),
    }
}

/// A random write over [`FK_SCHEMA`]: inserts on every table (keys that
/// may be missing, duplicated or NULL), updates of a foreign key, of a
/// primary key and of a plain column, and deletes that RESTRICT may
/// refuse.
fn fk_write(rng: &mut StdRng, next: i64) -> String {
    let k = rng.gen_range(0..11i64);
    let key = |rng: &mut StdRng| match rng.gen_range(0..4) {
        0 => "NULL".to_string(),
        _ => rng.gen_range(0..11i64).to_string(),
    };
    match rng.gen_range(0..9) {
        0 => format!("INSERT INTO s VALUES ({k}, {}, 'kiwi')", k % 3),
        1 => format!(
            "INSERT INTO r VALUES ({next}, {}, {}, 'zz')",
            key(rng),
            k % 4
        ),
        2 => format!("INSERT INTO q VALUES ({next}, {k}, {})", k % 5),
        3 => format!("UPDATE r SET s_id = {} WHERE w = {}", key(rng), k % 4),
        4 => format!("UPDATE s SET id = {} WHERE id = {k}", next),
        5 => format!("UPDATE s SET g = {} WHERE id < {k}", k % 3),
        6 => format!("DELETE FROM s WHERE id = {k}"),
        7 => format!("DELETE FROM r WHERE w = {}", k % 4),
        _ => format!("DELETE FROM q WHERE v < {}", k % 5),
    }
}

/// One foreign-key case: eight statements, writes interleaved with
/// joins. A write the foreign-key database accepts must be accepted by
/// the twin too (which lacks only constraints); a read must return the
/// same row sequence on both, and the same bag as the naive oracle.
fn check_fk_case(seed: u64) -> std::result::Result<(), String> {
    fk_case(seed).map(|_| ())
}

/// What [`fk_case`] saw: how many grouped or DISTINCT reads the database
/// ran as a foreign-key tree pass and how many on the greedy loop, and the
/// reverse and forward walks of the reads that joined (no tree pass).
#[derive(Default)]
struct FkTally {
    tree: u64,
    greedy: u64,
    reverse_walks: u64,
    forward_walks: u64,
}

/// [`check_fk_case`], answering what it saw.
fn fk_case(seed: u64) -> std::result::Result<FkTally, String> {
    let mut seen = FkTally::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut fk, mut twin) = fk_dbs(&mut rng);
    for step in 0..8i64 {
        if rng.gen_range(0..2) == 0 {
            let sql = fk_write(&mut rng, 100 + step);
            if execute(&mut fk, &sql).is_ok() {
                execute(&mut twin, &sql).map_err(|e| format!("twin refused `{sql}`: {e}"))?;
            }
            continue;
        }
        let sql = fk_query(&mut rng);
        let q = match parse_statement(&sql) {
            Ok(Statement::Select(q)) => q,
            other => return Err(format!("generated SQL failed to parse: {other:?}: {sql}")),
        };
        let before = etable_repro::relational::work::on_this_thread();
        let (a, b) = (execute_query(&fk, &q), execute_query(&twin, &q));
        let w = etable_repro::relational::work::on_this_thread() - before;
        let grouped = sql.contains("GROUP BY") || sql.contains("DISTINCT");
        match w.tree_passes {
            0 => {
                seen.greedy += u64::from(grouped || sql.contains("COUNT"));
                seen.reverse_walks += w.reverse_walks;
                seen.forward_walks += w.forward_walks;
            }
            _ => seen.tree += 1,
        }
        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (
                a.rows.iter().collect::<Vec<_>>(),
                b.rows.iter().collect::<Vec<_>>(),
            ),
            (a, b) => return Err(format!("`{sql}` failed: fk {a:?}, twin {b:?}")),
        };
        if a != b {
            return Err(format!(
                "fk join diverged from hash join on `{sql}`:\n fk:   {a:?}\n hash: {b:?}"
            ));
        }
        let mut naive = execute_query_naive(&fk, &q)
            .map_err(|e| format!("oracle error on `{sql}`: {e}"))?
            .rows
            .iter()
            .collect::<Vec<_>>();
        let mut bag = a;
        bag.sort();
        naive.sort();
        if bag != naive {
            return Err(format!(
                "bag divergence on `{sql}`:\n fk:     {bag:?}\n oracle: {naive:?}"
            ));
        }
    }
    Ok(seen)
}

/// A random write over [`FK_SCHEMA`] that a constraint may refuse part
/// way through: multi-row INSERTs whose keys may dangle or repeat (among
/// the statement's own rows or against stored ones), key UPDATEs, and
/// DELETEs that RESTRICT may refuse.
fn atomic_write(rng: &mut StdRng) -> String {
    let k = rng.gen_range(0..11i64);
    // A referencing key: mostly one of the first `s` keys, now and then
    // NULL or a key that may dangle.
    let key = |rng: &mut StdRng| match rng.gen_range(0..8) {
        0 => "NULL".to_string(),
        1 => rng.gen_range(0..11i64).to_string(),
        _ => rng.gen_range(0..4i64).to_string(),
    };
    let rows = |rng: &mut StdRng, row: &dyn Fn(&mut StdRng, i64) -> String| {
        let rows: Vec<String> = (0..rng.gen_range(1..=4))
            .map(|_| {
                let id = rng.gen_range(0..8i64);
                row(rng, id)
            })
            .collect();
        rows.join(", ")
    };
    match rng.gen_range(0..7) {
        0 => format!(
            "INSERT INTO s VALUES {}",
            rows(rng, &|_, id| format!("({id}, {}, 'kiwi')", id % 3))
        ),
        1 => format!(
            "INSERT INTO r VALUES {}",
            rows(rng, &|rng, id| format!(
                "({id}, {}, {}, 'zz')",
                key(rng),
                id % 4
            ))
        ),
        2 => format!(
            "INSERT INTO q VALUES {}",
            rows(rng, &|rng, id| format!(
                "({id}, {}, {})",
                rng.gen_range(0..5i64),
                id % 5
            ))
        ),
        3 => format!(
            "UPDATE s SET id = {} WHERE id >= {k}",
            rng.gen_range(0..11i64)
        ),
        4 => format!("UPDATE r SET s_id = {k} WHERE w = {}", k % 4),
        5 => format!(
            "UPDATE q SET id = {} WHERE v <= {}",
            rng.gen_range(0..8i64),
            k % 5
        ),
        _ => format!(
            "DELETE FROM s WHERE id {} {k}",
            ["=", "<", ">="][rng.gen_range(0..3)]
        ),
    }
}

/// Every table's rows, in storage order.
fn table_rows(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    let rows = |name: &str| db.table(name).map(|t| t.iter_rows().collect());
    (db.table_names().into_iter())
        .map(|name| (name.to_string(), rows(name).unwrap_or_default()))
        .collect()
}

/// The atomicity leg's starting database: [`FK_SCHEMA`] with three `s`
/// rows to reference.
fn atomic_db() -> Database {
    let mut db = Database::new();
    for stmt in FK_SCHEMA {
        execute(&mut db, stmt).unwrap();
    }
    execute(
        &mut db,
        "INSERT INTO s VALUES (0, 0, 'a'), (1, 1, 'b'), (2, 2, NULL)",
    )
    .unwrap();
    db
}

/// One atomicity case: twelve random writes applied to a plain database
/// through `execute` and to a [`SharedDatabase`]. Both front ends must
/// accept or refuse each statement alike, with the same error, and hold
/// the same rows table by table after it; a refused statement must leave
/// the plain database as it was.
fn check_atomic_case(seed: u64) -> std::result::Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plain = atomic_db();
    let shared = SharedDatabase::new(plain.clone());
    for _ in 0..12 {
        let sql = atomic_write(&mut rng);
        let before = table_rows(&plain);
        let (a, b) = (execute(&mut plain, &sql), shared.execute(&sql));
        let after = table_rows(&plain);
        match (&a, &b) {
            (Ok(_), Ok(_)) => {}
            (Err(x), Err(y)) if x.to_string() == y.to_string() => {
                if after != before {
                    return Err(format!("refused `{sql}` ({x}) changed the database"));
                }
            }
            _ => return Err(format!("`{sql}`: plain {a:?}, shared {b:?}")),
        }
        if after != table_rows(&shared.snapshot()) {
            return Err(format!("front ends hold different rows after `{sql}`"));
        }
    }
    Ok(())
}

/// Case-count override: `PROPTEST_CASES` (defaults to 256, the count CI
/// runs).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn optimized_executor_agrees_with_naive_oracle(seed in 0u64..u64::MAX / 2) {
        if let Err(msg) = check_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn paged_backend_agrees_with_resident(seed in 0u64..u64::MAX / 2) {
        if let Err(msg) = check_disk_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn spilled_join_agrees_with_in_memory(seed in 0u64..u64::MAX / 2) {
        if let Err(msg) = check_spill_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn fk_joins_agree_with_hash_joins(seed in 0u64..u64::MAX / 2) {
        if let Err(msg) = check_fk_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn writes_are_statement_atomic_on_both_front_ends(seed in 0u64..u64::MAX / 2) {
        if let Err(msg) = check_atomic_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// The foreign-key leg's grammar reaches every shape, and its reads run
/// on both join kernels: `fk join` on the database, `hash join` on the
/// twin.
#[test]
fn fk_grammar_smoke() {
    let mut shapes = std::collections::BTreeSet::new();
    let (mut grouped, mut filtered) = (false, false);
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = fk_dbs(&mut rng);
        let sql = fk_query(&mut rng);
        let from = sql.split(" FROM ").nth(1).unwrap_or("");
        shapes.insert(from.split(" WHERE").next().unwrap_or("").to_string());
        grouped |= sql.contains("GROUP BY");
        filtered |= sql.matches(" AND ").count() >= 3;
        assert!(parse_statement(&sql).is_ok(), "must parse: {sql}");
    }
    assert!(shapes.len() >= 5 && grouped && filtered, "{shapes:?}");
    let mut rng = StdRng::seed_from_u64(1);
    let (mut fk, mut twin) = fk_dbs(&mut rng);
    let explain = "EXPLAIN SELECT * FROM r, s, q WHERE r.s_id = s.id AND q.s_id = s.id";
    let plan = |db: &mut Database| format!("{:?}", execute(db, explain).unwrap().rows);
    let (a, b) = (plan(&mut fk), plan(&mut twin));
    assert!(a.contains("fk join") && !a.contains("hash join"), "{a}");
    assert!(b.contains("hash join") && !b.contains("fk join"), "{b}");
}

/// Spill coverage does not shrink with the stored index: at a 64-byte
/// budget a join off the foreign key still takes the Grace path, and so
/// do the index's build and the twin's hash join of the same foreign-key
/// shape, while the join through the built index returns the same rows
/// without spilling.
/// The atomicity leg's writes are accepted, and refused for each reason
/// it draws them for, including multi-row INSERTs whose first row alone
/// would have been stored.
#[test]
fn atomic_grammar_smoke() {
    let mut seen = std::collections::BTreeMap::new();
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = atomic_db();
        for _ in 0..12 {
            let sql = atomic_write(&mut rng);
            let outcome = match execute(&mut db.clone(), &sql) {
                Ok(_) => "accepted",
                Err(e) => {
                    let e = e.to_string();
                    let first_row = sql.split("), (").next().unwrap_or_default();
                    if sql.contains("), (")
                        && execute(&mut db.clone(), &format!("{first_row})")).is_ok()
                    {
                        *seen.entry("refused after a good row").or_insert(0) += 1;
                    }
                    ["FK violation", "dangling", "referenced", "duplicate"]
                        .into_iter()
                        .find(|why| e.contains(why))
                        .unwrap_or("other refusal")
                }
            };
            *seen.entry(outcome).or_insert(0) += 1;
            let _ = execute(&mut db, &sql);
        }
    }
    for outcome in [
        "accepted",
        "FK violation",
        "dangling",
        "referenced",
        "duplicate",
        "refused after a good row",
    ] {
        assert!(
            seen.get(outcome).copied().unwrap_or(0) >= 5,
            "{outcome}: {seen:?}"
        );
    }
    assert!(!seen.contains_key("other refusal"), "{seen:?}");
}

/// The foreign-key leg reaches both row-space walks of the join along a
/// stored index — from the held referenced rows' reverse lists, and from
/// the held referencing rows' forward entries — within 64 cases, so it
/// checks each against the twin's hash join. Its grouped and DISTINCT
/// reads run as a foreign-key tree pass at least once, and on the greedy
/// loop at least once, so the twin checks both.
#[test]
fn fk_leg_takes_both_walks() {
    let (mut tree, mut greedy, mut rev, mut fwd) = (0, 0, 0, 0);
    for seed in 0..64u64 {
        let seen = fk_case(seed).unwrap();
        (tree, greedy) = (tree + seen.tree, greedy + seen.greedy);
        (rev, fwd) = (rev + seen.reverse_walks, fwd + seen.forward_walks);
    }
    assert!(
        rev > 0 && fwd > 0,
        "joins walked {rev} reverse, {fwd} forward"
    );
    assert!(
        tree > 0 && greedy > 0,
        "tree passes {tree}, greedy {greedy}"
    );
}

#[test]
fn non_fk_equi_join_still_spills_at_budget_64() {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut fk, mut twin) = fk_dbs(&mut rng);
    for db in [&mut fk, &mut twin] {
        for i in 0..8i64 {
            execute(db, &format!("INSERT INTO s VALUES ({}, 1, 'fig')", 20 + i)).unwrap();
            execute(
                db,
                &format!("INSERT INTO r VALUES ({}, {}, 1, 'fig')", 40 + i, 20 + i),
            )
            .unwrap();
        }
    }
    let run = |db: &Database, sql: &str| {
        let q = match parse_statement(sql) {
            Ok(Statement::Select(q)) => q,
            other => panic!("{other:?}"),
        };
        budget::with_budget(Some(64), || {
            let before = etable_repro::relational::storage::spill::grace_joins_on_this_thread();
            let rows = execute_query(db, &q).unwrap().rows;
            let spilled =
                etable_repro::relational::storage::spill::grace_joins_on_this_thread() - before;
            (rows, spilled)
        })
    };
    let off_key = "SELECT * FROM r, s WHERE r.lbl = s.txt";
    assert!(
        run(&fk, off_key).1 > 0,
        "a non-FK equi-join must spill at budget 64"
    );
    // The index's first use builds it through the hashing kernel, which
    // spills too; from then on the join along the key reads the index.
    let along = "SELECT * FROM r, s WHERE r.s_id = s.id";
    assert!(
        run(&fk, along).1 > 0,
        "the index build must spill at budget 64"
    );
    let ((fk_rows, fk_spills), (twin_rows, twin_spills)) = (run(&fk, along), run(&twin, along));
    assert_eq!(fk_rows, twin_rows);
    assert_eq!(fk_spills, 0);
    assert!(twin_spills > 0);
}

/// A handful of grammar corners replayed explicitly (fast to eyeball when
/// something breaks, independent of the sampler).
#[test]
fn fuzzer_grammar_smoke() {
    let mut seen_grouped = false;
    let mut seen_total_order = false;
    let mut seen_limit = false;
    let mut three_way = 0usize;
    let mut seen_text_join = false;
    let mut seen_cross = false;
    let mut seen_boundary_join = false;
    let mut seen_boundary_where = false;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let _db = random_db(&mut rng);
        let gen = gen_query(&mut rng);
        seen_grouped |= gen.sql.contains("GROUP BY");
        seen_total_order |= gen.order_total;
        seen_limit |= gen.sql.contains("LIMIT");
        three_way += gen.sql.contains("FROM s, t, u") as usize;
        seen_text_join |= gen.sql.contains("s.txt = t.lbl");
        seen_cross |= gen.sql.contains("FROM s, u");
        seen_boundary_join |= gen.sql.contains("s.big = t.wide");
        seen_boundary_where |= gen.sql.contains("9223372036854775808.0")
            || gen.sql.contains("-9223372036854775808")
            || gen.sql.contains("-0.0");
        assert!(
            parse_statement(&gen.sql).is_ok(),
            "generated SQL must parse: {}",
            gen.sql
        );
    }
    assert!(seen_grouped && seen_total_order && seen_limit);
    assert!(seen_text_join && seen_cross);
    assert!(seen_boundary_join, "no s.big = t.wide join in 200 cases");
    assert!(
        seen_boundary_where,
        "no boundary WHERE literal in 200 cases"
    );
    // 3-table joins must be load-bearing, not incidental: a third of the
    // grammar's FROM shapes, so ~50+ of 200 cases.
    assert!(three_way >= 40, "only {three_way}/200 3-table join cases");
}

/// Overflow literals must be rejected outright — never silently become
/// ±inf or a clamped int: `1e999` overflows f64 and the lexer refuses
/// non-finite floats; `9223372036854775808` overflows i64 (that value is
/// only reachable as a float literal). The exact boundary values the
/// fuzzer uses stay reachable.
#[test]
fn overflow_literals_are_rejected() {
    for sql in [
        "SELECT s.id FROM s WHERE s.fl < 1e999",
        "SELECT s.id FROM s WHERE s.fl > -1e999",
        "SELECT s.id FROM s WHERE s.big < 9223372036854775808",
    ] {
        assert!(parse_statement(sql).is_err(), "must reject: {sql}");
    }
    for sql in [
        "SELECT s.id FROM s WHERE s.big = -9223372036854775808",
        "SELECT s.id FROM s WHERE s.big = 9223372036854775807",
        "SELECT s.id FROM s WHERE s.big = 9223372036854775808.0",
    ] {
        assert!(parse_statement(sql).is_ok(), "must parse: {sql}");
    }
}

/// Every ill-formed shape, replayed explicitly: parses, and is refused by
/// `analyze` and both engines with one error that is not an evaluation
/// error.
#[test]
fn fuzzer_invalid_shapes_smoke() {
    let mut rng = StdRng::seed_from_u64(7);
    let db = random_db(&mut rng);
    for shape in 0..INVALID_SHAPES {
        let (kind, sql) = invalid_query(shape, &mut rng);
        let q = match parse_statement(&sql) {
            Ok(Statement::Select(q)) => q,
            other => panic!("ill-formed shape {kind} must parse: {other:?}: {sql}"),
        };
        if let Err(msg) = refusal(&db, &q, kind, &sql) {
            panic!("{msg}");
        }
    }
}
