//! Monkey testing the interaction layer: random action sequences —
//! plausible ones, and ill-typed filters, unknown attribute names and
//! edges that do not leave the node's type — against a live session must
//! never panic, must keep the pattern a valid tree, and must keep
//! history/revert consistent. Every action either is refused with a typed
//! error that leaves the session untouched, or yields a table whose
//! primary keys are what the pattern's SQL translation returns: the AST
//! run on the engine and (on the hand-sized academic fixture, where its
//! cross product fits) on the naive oracle.
//!
//! An enriched table builds its cells only when they are read; a further
//! leg holds every table a random session shows, cell by cell and through
//! both exports, against a table built eagerly from the matching result.
//!
//! `PROPTEST_CASES` raises the number of seeded sessions (deep-verify
//! runs 1024).

use etable_repro::core::etable::{Cell, ColumnKind, ColumnSpec, EnrichedTable};
use etable_repro::core::export::{to_csv, to_json};
use etable_repro::core::matching::match_primary;
use etable_repro::core::pattern::{FilterAtom, NodeFilter, QueryPattern};
use etable_repro::core::session::Session;
use etable_repro::core::transform;
use etable_repro::core::Error;
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::value::{DataType, Value};
use etable_repro::tgm::{translate, IdSlice, NodeId, Tgdb, TranslateOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

mod common;
use common::{academic, cases, check_translation, node_keys};

fn tgdb() -> &'static Arc<Tgdb> {
    static T: OnceLock<Arc<Tgdb>> = OnceLock::new();
    T.get_or_init(|| {
        let db = generate(&GenConfig::small());
        Arc::new(translate(&db, &TranslateOptions::default()).unwrap())
    })
}

/// A filter on `attr` that the SQL analyzer refuses: a literal of the
/// wrong type, LIKE over a number, a mixed-type IN list.
fn ill_typed_filter(attr: &str, data_type: DataType, rng: &mut StdRng) -> NodeFilter {
    let in_list = |values: Vec<Value>| {
        NodeFilter::atom(FilterAtom::In {
            attr: attr.into(),
            values,
        })
    };
    match (data_type, rng.gen_range(0..3)) {
        (DataType::Text, 0) => in_list(vec!["a".into(), 3.into()]),
        (DataType::Text, _) => NodeFilter::cmp(attr, CmpOp::Eq, 3),
        (_, 0) => in_list(vec![2007.into(), "abc".into()]),
        (_, 1) => NodeFilter::like(attr, "201%"),
        _ => NodeFilter::cmp(attr, CmpOp::Gt, "abc"),
    }
}

/// The sort and the hidden columns a session applies to the table it
/// shows, as the test saw it set them. A new history step clears both.
#[derive(Debug, Default)]
struct Presentation {
    sort: Option<(String, bool)>,
    hidden: BTreeSet<String>,
}

/// Performs one random action and returns what the session said. Errors
/// are fine (the UI reports them) — and for the draws built to be
/// refused, required; panics and invariant violations are not. A sort,
/// hide or show is also recorded in `shown`.
fn random_action(
    session: &mut Session,
    rng: &mut StdRng,
    shown: &mut Presentation,
) -> Result<(), Error> {
    let tgdb = session.tgdb_arc().clone();
    match rng.gen_range(0..9) {
        0 => {
            let tables = session.default_table_list();
            let (id, _) = tables[rng.gen_range(0..tables.len())].clone();
            session.open(id)
        }
        1 => {
            // Filter a random attribute of the current primary type.
            let Some(q) = session.current_pattern() else {
                return Ok(());
            };
            let nt = tgdb.schema.node_type(q.primary_node().node_type);
            let attr = nt.attrs[rng.gen_range(0..nt.attrs.len())].clone();
            let filter = match attr.data_type {
                DataType::Int => NodeFilter::cmp(
                    &attr.name,
                    [CmpOp::Gt, CmpOp::Le][rng.gen_range(0..2)],
                    rng.gen_range(0..2500),
                ),
                _ => NodeFilter::like(
                    &attr.name,
                    format!("%{}%", (b'a' + rng.gen_range(0..26u8)) as char),
                ),
            };
            session.filter(filter)
        }
        2 => {
            // Pivot on a random current column.
            let t = session.etable()?;
            if t.columns.is_empty() {
                return Ok(());
            }
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            session.pivot(&col)
        }
        3 => {
            // Seeall on a random cell.
            let t = session.etable()?;
            if t.is_empty() || t.columns.is_empty() {
                return Ok(());
            }
            let row = t.node_at(rng.gen_range(0..t.len())).unwrap();
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            session.seeall(row, &col)
        }
        4 => {
            // Single on a random reference.
            let t = session.etable()?;
            let mut refs = Vec::new();
            for r in 0..t.len().min(5) {
                for c in 0..t.columns.len() {
                    if let Some(rs) = t.cell(r, c).as_ref().and_then(|c| c.refs()) {
                        refs.extend(rs);
                    }
                }
            }
            match refs.get(
                rng.gen_range(0..refs.len().max(1))
                    .min(refs.len().saturating_sub(1)),
            ) {
                Some(&n) => session.single(n),
                None => Ok(()),
            }
        }
        5 => {
            let t = session.etable()?;
            if t.columns.is_empty() {
                return Ok(());
            }
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            let descending = rng.gen_range(0..2) == 0;
            session.sort(&col, descending);
            shown.sort = Some((col, descending));
            Ok(())
        }
        6 => {
            let t = session.etable()?;
            if t.columns.is_empty() {
                return Ok(());
            }
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            if rng.gen_range(0..2) == 0 {
                session.hide(&col);
                shown.hidden.insert(col);
            } else {
                session.show(&col);
                shown.hidden.remove(&col);
            }
            Ok(())
        }
        7 => {
            // A filter the session must refuse — an ill-typed one, an
            // unknown attribute, a neighbor-label filter along an edge that
            // does not leave the node's type or whose labels are not TEXT
            // — or a neighbor-label filter it must accept.
            let Some(q) = session.current_pattern() else {
                return Ok(());
            };
            let primary = q.primary_node().node_type;
            let nt = tgdb.schema.node_type(primary);
            let attr = nt.attrs[rng.gen_range(0..nt.attrs.len())].clone();
            let (filter, well_typed) = match rng.gen_range(0..4) {
                0 => (ill_typed_filter(&attr.name, attr.data_type, rng), false),
                1 => {
                    let unknown = format!("no_{}", attr.name);
                    (NodeFilter::cmp(unknown, CmpOp::Eq, 1), false)
                }
                kind => {
                    let leaves = kind == 3;
                    let edges: Vec<_> = tgdb
                        .schema
                        .edge_types()
                        .filter(|(_, e)| (e.source == primary) == leaves)
                        .collect();
                    if edges.is_empty() {
                        return Ok(());
                    }
                    let (edge, et) = edges[rng.gen_range(0..edges.len())];
                    let target = tgdb.schema.node_type(et.target);
                    let text_label = target.attrs[target.label_attr].data_type == DataType::Text;
                    let filter = NodeFilter::atom(FilterAtom::NeighborLabelLike {
                        edge,
                        pattern: "%a%".into(),
                    });
                    (filter, leaves && text_label)
                }
            };
            let outcome = session.filter(filter.clone());
            assert_eq!(outcome.is_ok(), well_typed, "{filter:?}: {outcome:?}");
            outcome
        }
        _ => {
            if session.history().is_empty() {
                return Ok(());
            }
            let step = rng.gen_range(0..session.history().len());
            session.revert(step)
        }
    }
}

/// [`random_action`] under the refusal contract: an action answered with
/// an error has changed neither the history nor the current pattern.
fn checked_action(session: &mut Session, rng: &mut StdRng, shown: &mut Presentation) {
    let before: (usize, Option<QueryPattern>) =
        (session.history().len(), session.current_pattern().cloned());
    if let Err(e) = random_action(session, rng, shown) {
        let after = (session.history().len(), session.current_pattern().cloned());
        assert_eq!(before, after, "refused with `{e}` but the session moved");
    }
    if session.history().len() != before.0 {
        *shown = Presentation::default();
    }
}

#[test]
fn random_sessions_never_break_invariants() {
    let tgdb = tgdb();
    for seed in 0..u64::from(cases(12)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(tgdb.clone());
        for step in 0..60 {
            checked_action(&mut session, &mut rng, &mut Presentation::default());
            // Invariants after every action:
            if let Some(q) = session.current_pattern() {
                q.validate(tgdb)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: invalid pattern: {e}"));
                let t = session
                    .etable()
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: execution failed: {e}"));
                // No duplicate rows, correct primary type.
                let mut nodes: Vec<_> = t.nodes().collect();
                let before = nodes.len();
                nodes.sort();
                nodes.dedup();
                assert_eq!(before, nodes.len(), "seed {seed} step {step}");
            }
        }
    }
}

#[test]
fn every_accepted_action_agrees_with_its_sql_translation_and_the_oracle() {
    let (db, tgdb) = academic();
    let (mut compared, mut refereed) = (0usize, 0usize);
    for seed in 0..u64::from(cases(24)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(tgdb.clone());
        for step in 0..40 {
            checked_action(&mut session, &mut rng, &mut Presentation::default());
            let Some(q) = session.current_pattern().cloned() else {
                continue;
            };
            let t = session.etable().unwrap();
            let expected = node_keys(tgdb, &q, t.nodes());
            let by_oracle = check_translation(db, tgdb, &q, &expected, true)
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            compared += 1;
            refereed += usize::from(by_oracle);
        }
    }
    // The oracle leg is not vacuous: most patterns fit its bound.
    assert!(refereed * 2 > compared, "{refereed} of {compared}");
}

#[test]
fn history_replay_reproduces_results() {
    // Replaying any prefix of a session's history via revert gives the same
    // row count as the original execution did at that point.
    let tgdb = tgdb();
    let mut rng = StdRng::seed_from_u64(7);
    let mut session = Session::new(tgdb.clone());
    let mut counts: Vec<Option<usize>> = Vec::new();
    for _ in 0..25 {
        checked_action(&mut session, &mut rng, &mut Presentation::default());
        counts.push(session.etable().ok().map(|t| t.len()));
    }
    let steps = session.history().len();
    for step in 0..steps {
        session.revert(step).unwrap();
        let now = session.etable().unwrap().len();
        // Find the count recorded when this history step was current. The
        // action loop may have executed non-pattern actions (sort/hide) in
        // between, so we only compare when a count was recorded for the
        // state right after the step was pushed.
        // History grows monotonically, so locating the first recording
        // where history length == step+1 suffices.
        let mut replay = Session::new(tgdb.clone());
        let mut rng2 = StdRng::seed_from_u64(7);
        let mut expected = None;
        for recorded in counts.iter().take(25) {
            checked_action(&mut replay, &mut rng2, &mut Presentation::default());
            if replay.history().len() == step + 1 {
                expected = *recorded;
                break;
            }
        }
        if let Some(e) = expected {
            assert_eq!(now, e, "step {step}");
        }
    }
}

/// One row of a table built the way transformation built it before
/// tables became windows: every cell of every matched row, up front.
#[derive(Debug, Clone, PartialEq)]
struct EagerRow {
    node: NodeId,
    cells: Vec<Cell>,
}

/// The table `q` shows under `shown`, built eagerly: `match_primary`'s
/// rows, a base cell through the graph, a neighbor cell as
/// `InstanceGraph::neighbors`, a participating cell as
/// `MatchResult::related`; then a stable sort by the sorted column and the
/// hidden columns dropped.
fn eager(tgdb: &Tgdb, q: &QueryPattern, shown: &Presentation) -> (Vec<ColumnSpec>, Vec<EagerRow>) {
    let columns = transform::header(tgdb, q).unwrap().columns;
    let m = match_primary(tgdb, q).unwrap();
    let cell = |node: NodeId, kind: &ColumnKind| match *kind {
        ColumnKind::Base { attr } => Cell::Atomic(tgdb.instances.value(node, attr)),
        ColumnKind::Neighbor { edge } => {
            Cell::Refs(IdSlice::from(tgdb.instances.neighbors(edge, node).to_vec()))
        }
        ColumnKind::Participating { node: at } => {
            Cell::Refs(IdSlice::from(m.related(tgdb, node, at).unwrap()))
        }
    };
    let mut rows: Vec<EagerRow> = (m.rows().iter())
        .map(|&node| EagerRow {
            node,
            cells: columns.iter().map(|c| cell(node, &c.kind)).collect(),
        })
        .collect();
    let sorted = (shown.sort.as_ref())
        .and_then(|(name, desc)| Some((columns.iter().position(|c| &c.name == name)?, *desc)));
    if let Some((i, descending)) = sorted {
        rows.sort_by(|a, b| {
            let ord = match (&a.cells[i], &b.cells[i]) {
                (Cell::Atomic(x), Cell::Atomic(y)) => x.total_cmp(y),
                (x, y) => x.ref_count().cmp(&y.ref_count()),
            };
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    let keep: Vec<bool> = columns
        .iter()
        .map(|c| !shown.hidden.contains(&c.name))
        .collect();
    for row in &mut rows {
        let mut kept = keep.iter();
        row.cells.retain(|_| *kept.next().unwrap());
    }
    let mut kept = keep.iter();
    let columns = columns
        .into_iter()
        .filter(|_| *kept.next().unwrap())
        .collect();
    (columns, rows)
}

/// A label as the exports print it.
fn label_text(tgdb: &Tgdb, node: NodeId) -> String {
    match tgdb.instances.label(node) {
        Value::Text(s) => s.as_str().to_string(),
        other => other.to_string(),
    }
}

fn json_text(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn csv_text(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The JSON export of an eager table, written out from the format.
fn eager_json(tgdb: &Tgdb, t: &EnrichedTable, rows: &[EagerRow]) -> String {
    let kind = |k: &ColumnKind| match k {
        ColumnKind::Base { .. } => "base",
        ColumnKind::Participating { .. } => "participating",
        ColumnKind::Neighbor { .. } => "neighbor",
    };
    let columns: Vec<String> = (t.columns.iter())
        .map(|c| {
            format!(
                "{{\"name\":{},\"kind\":\"{}\"}}",
                json_text(&c.name),
                kind(&c.kind)
            )
        })
        .collect();
    let cell = |c: &Cell| match c {
        Cell::Atomic(Value::Text(s)) => json_text(s.as_str()),
        Cell::Atomic(Value::Float(f)) if !f.is_finite() => "null".into(),
        Cell::Atomic(Value::Null) => "null".into(),
        Cell::Atomic(v) => v.to_string(),
        Cell::Refs(refs) => {
            let refs: Vec<String> = (refs.iter())
                .map(|&r| {
                    format!(
                        "{{\"node\":{},\"label\":{}}}",
                        r.0,
                        json_text(&label_text(tgdb, r))
                    )
                })
                .collect();
            format!("{{\"count\":{},\"refs\":[{}]}}", refs.len(), refs.join(","))
        }
    };
    let rows: Vec<String> = (rows.iter())
        .map(|r| {
            let cells: Vec<String> = r.cells.iter().map(cell).collect();
            format!("{{\"node\":{},\"cells\":[{}]}}", r.node.0, cells.join(","))
        })
        .collect();
    format!(
        "{{\"primary\":{},\"filter\":{},\"columns\":[{}],\"rows\":[{}]}}",
        json_text(&t.primary_type_name),
        json_text(&t.filter_desc),
        columns.join(","),
        rows.join(",")
    )
}

/// The CSV export of an eager table, written out from the format.
fn eager_csv(tgdb: &Tgdb, t: &EnrichedTable, rows: &[EagerRow]) -> String {
    let mut out: Vec<String> = vec![t
        .columns
        .iter()
        .map(|c| csv_text(&c.name))
        .collect::<Vec<_>>()
        .join(",")];
    for r in rows {
        let fields: Vec<String> = (r.cells.iter())
            .map(|c| match c {
                Cell::Atomic(Value::Null) => String::new(),
                Cell::Atomic(v) => csv_text(&v.to_string()),
                Cell::Refs(refs) => {
                    let labels: Vec<String> = refs.iter().map(|&n| label_text(tgdb, n)).collect();
                    csv_text(&labels.join("; "))
                }
            })
            .collect();
        out.push(fields.join(","));
    }
    out.iter().map(|line| format!("{line}\n")).collect()
}

/// A sort, hide or show on a random column of the current header, of any
/// kind and hidden or not, recorded in `shown`.
fn present(session: &mut Session, rng: &mut StdRng, shown: &mut Presentation) {
    let Some(q) = session.current_pattern() else {
        return;
    };
    let columns = transform::header(session.tgdb(), q).unwrap().columns;
    let col = columns[rng.gen_range(0..columns.len())].name.clone();
    match rng.gen_range(0..3) {
        0 => {
            let descending = rng.gen_range(0..2) == 0;
            session.sort(&col, descending);
            shown.sort = Some((col, descending));
        }
        1 => {
            session.hide(&col);
            shown.hidden.insert(col);
        }
        _ => {
            session.show(&col);
            shown.hidden.remove(&col);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Every table a random session shows — after pattern actions, and
    /// after sorts, hides and shows on every column kind — equals the eager
    /// table: the header, every row's node and every cell, read one at a
    /// time and a column at a time, every count, and both exports.
    #[test]
    fn windowed_tables_equal_the_eager_ones(seed in 0u64..1_000_000) {
        let tgdb = tgdb();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(tgdb.clone());
        let mut shown = Presentation::default();
        for step in 0..30 {
            if rng.gen_range(0..3) == 0 {
                present(&mut session, &mut rng, &mut shown);
            } else {
                checked_action(&mut session, &mut rng, &mut shown);
            }
            let Some(q) = session.current_pattern().cloned() else {
                continue;
            };
            let t = session.etable().unwrap();
            let (columns, rows) = eager(tgdb, &q, &shown);
            let at = format!("seed {seed} step {step}");
            prop_assert_eq!(&t.columns, &columns, "{}", at);
            prop_assert_eq!(t.len(), rows.len(), "{}", at);
            for (r, row) in rows.iter().enumerate() {
                prop_assert_eq!(t.node_at(r), Some(row.node), "{} row {}", at, r);
                for (c, cell) in row.cells.iter().enumerate() {
                    prop_assert_eq!(t.cell(r, c), Some(cell.clone()), "{} cell {} {}", at, r, c);
                    prop_assert_eq!(t.ref_count(r, c), cell.ref_count(), "{}", at);
                }
            }
            for c in 0..columns.len() {
                let whole: Vec<Cell> = t.column_values(c).collect();
                prop_assert!(whole.iter().eq(rows.iter().map(|r| &r.cells[c])), "{} column {}", at, c);
            }
            let refs: usize = rows.iter().flat_map(|r| &r.cells).map(Cell::ref_count).sum();
            prop_assert_eq!(t.total_refs(), refs, "{}", at);
            prop_assert_eq!(to_json(&t), eager_json(tgdb, &t, &rows), "{}", at);
            prop_assert_eq!(to_csv(&t), eager_csv(tgdb, &t, &rows), "{}", at);
        }
    }
}
