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
//! `PROPTEST_CASES` raises the number of seeded sessions (deep-verify
//! runs 1024).

use etable_repro::core::pattern::{FilterAtom, NodeFilter, QueryPattern};
use etable_repro::core::session::Session;
use etable_repro::core::Error;
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::value::{DataType, Value};
use etable_repro::tgm::{translate, Tgdb, TranslateOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Performs one random action and returns what the session said. Errors
/// are fine (the UI reports them) — and for the draws built to be
/// refused, required; panics and invariant violations are not.
fn random_action(session: &mut Session, rng: &mut StdRng) -> Result<(), Error> {
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
                    if let Some(rs) = t.cell(r, c).and_then(|c| c.refs()) {
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
            session.sort(&col, rng.gen_range(0..2) == 0);
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
            } else {
                session.show(&col);
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
fn checked_action(session: &mut Session, rng: &mut StdRng) {
    let before: (usize, Option<QueryPattern>) =
        (session.history().len(), session.current_pattern().cloned());
    if let Err(e) = random_action(session, rng) {
        let after = (session.history().len(), session.current_pattern().cloned());
        assert_eq!(before, after, "refused with `{e}` but the session moved");
    }
}

#[test]
fn random_sessions_never_break_invariants() {
    let tgdb = tgdb();
    for seed in 0..u64::from(cases(12)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(tgdb.clone());
        for step in 0..60 {
            checked_action(&mut session, &mut rng);
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
            checked_action(&mut session, &mut rng);
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
        checked_action(&mut session, &mut rng);
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
            checked_action(&mut replay, &mut rng2);
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
