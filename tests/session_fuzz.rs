//! Monkey testing the interaction layer: random but plausible action
//! sequences against a live session must never panic, must keep the
//! pattern a valid tree, and must keep history/revert consistent.

use etable_repro::core::pattern::NodeFilter;
use etable_repro::core::session::Session;
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::value::DataType;
use etable_repro::tgm::{translate, Tgdb, TranslateOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

fn tgdb() -> &'static Arc<Tgdb> {
    static T: OnceLock<Arc<Tgdb>> = OnceLock::new();
    T.get_or_init(|| {
        let db = generate(&GenConfig::small());
        Arc::new(translate(&db, &TranslateOptions::default()).unwrap())
    })
}

/// Performs one random action; errors are fine (the UI reports them), but
/// panics and invariant violations are not.
fn random_action(session: &mut Session, rng: &mut StdRng) {
    let tgdb = session.tgdb();
    match rng.gen_range(0..8) {
        0 => {
            let tables = session.default_table_list();
            let (id, _) = tables[rng.gen_range(0..tables.len())].clone();
            let _ = session.open(id);
        }
        1 => {
            // Filter a random attribute of the current primary type.
            let Some(q) = session.current_pattern() else {
                return;
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
            let _ = session.filter(filter);
        }
        2 => {
            // Pivot on a random current column.
            let Ok(t) = session.etable() else { return };
            if t.columns.is_empty() {
                return;
            }
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            let _ = session.pivot(&col);
        }
        3 => {
            // Seeall on a random cell.
            let Ok(t) = session.etable() else { return };
            if t.rows.is_empty() || t.columns.is_empty() {
                return;
            }
            let row = t.rows[rng.gen_range(0..t.rows.len())].node;
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            let _ = session.seeall(row, &col);
        }
        4 => {
            // Single on a random reference.
            let Ok(t) = session.etable() else { return };
            let mut refs = Vec::new();
            for r in t.rows.iter().take(5) {
                for c in &r.cells {
                    if let Some(rs) = c.refs() {
                        refs.extend(rs);
                    }
                }
            }
            if let Some(&n) = refs.get(
                rng.gen_range(0..refs.len().max(1))
                    .min(refs.len().saturating_sub(1)),
            ) {
                let _ = session.single(n);
            }
        }
        5 => {
            let Ok(t) = session.etable() else { return };
            if t.columns.is_empty() {
                return;
            }
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            session.sort(&col, rng.gen_range(0..2) == 0);
        }
        6 => {
            let Ok(t) = session.etable() else { return };
            if t.columns.is_empty() {
                return;
            }
            let col = t.columns[rng.gen_range(0..t.columns.len())].name.clone();
            if rng.gen_range(0..2) == 0 {
                session.hide(&col);
            } else {
                session.show(&col);
            }
        }
        _ => {
            if !session.history().is_empty() {
                let step = rng.gen_range(0..session.history().len());
                let _ = session.revert(step);
            }
        }
    }
}

#[test]
fn random_sessions_never_break_invariants() {
    let tgdb = tgdb();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(tgdb.clone());
        for step in 0..60 {
            random_action(&mut session, &mut rng);
            // Invariants after every action:
            if let Some(q) = session.current_pattern() {
                q.validate(tgdb)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: invalid pattern: {e}"));
                let t = session
                    .etable()
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: execution failed: {e}"));
                // No duplicate rows, correct primary type.
                let mut nodes: Vec<_> = t.rows.iter().map(|r| r.node).collect();
                let before = nodes.len();
                nodes.sort();
                nodes.dedup();
                assert_eq!(before, nodes.len(), "seed {seed} step {step}");
            }
        }
    }
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
        random_action(&mut session, &mut rng);
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
            random_action(&mut replay, &mut rng2);
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
