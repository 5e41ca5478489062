//! Monkey testing the interaction layer: random sequences of `Action`s of
//! all ten verbs, applied through `Session::apply` — plausible ones, and
//! ill-typed filters, unknown attribute names, edges that do not leave the
//! node's type, hidden or unknown columns, empty focuses and history steps
//! past the end — against a live session must never panic, must keep the
//! pattern a valid tree, and must keep history/revert consistent. Every
//! action either is refused with a typed error that leaves the session
//! untouched, or yields a table whose primary keys are what the pattern's
//! SQL translation returns: the AST run on the engine and (on the
//! hand-sized academic fixture, where its cross product fits) on the naive
//! oracle.
//!
//! An enriched table builds its cells only when they are read, and puts
//! its rows in order only as far as they are read; a further leg holds
//! every table a random session shows, cell by cell and through both
//! exports, against a table built eagerly from the matching result, and
//! every focus against the column ranker as it was first written. Another
//! holds every prefix of a sorted table, read in any order, against the
//! full stable sort.
//!
//! The DML leg interleaves the actions with random writes through a
//! `Connection`: every table it builds must be the latest epoch's, as the
//! pattern's SQL on that epoch says and in the order the eager table has
//! there, and every graph a re-pin loads (`Tgdb::at`, which keeps what the
//! writes left alone) must be the graph a fresh translation of that epoch
//! loads.
//!
//! The long-session leg shows more patterns than a session keeps matches
//! for, and reverts over the whole history: every table shown must list
//! what a fresh match of its pattern lists.
//!
//! `PROPTEST_CASES` raises the number of seeded sessions (deep-verify
//! runs 1024).

use etable_repro::core::actions::{Action, UserAction};
use etable_repro::core::column_rank::rank_columns;
use etable_repro::core::connection::Connection;
use etable_repro::core::etable::{Cell, ColumnKind, ColumnSpec, EnrichedTable};
use etable_repro::core::export::{to_csv, to_json};
use etable_repro::core::matching::match_primary;
use etable_repro::core::ops;
use etable_repro::core::pattern::{FilterAtom, NodeFilter, QueryPattern};
use etable_repro::core::session::Session;
use etable_repro::core::transform;
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::database::Database;
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::schema::{Column, ForeignKey, TableSchema};
use etable_repro::relational::shared::SharedDatabase;
use etable_repro::relational::value::{DataType, Value};
use etable_repro::tgm::{translate, IdSlice, NodeId, Tgdb, TranslateOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
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

impl Presentation {
    /// Records what an action the session accepted did to the table shown.
    fn record(&mut self, action: &Action, session: &Session) {
        match action {
            Action::Sort { column, descending } => self.sort = Some((column.clone(), *descending)),
            Action::Hide(column) => {
                self.hidden.insert(column.clone());
            }
            Action::Show(column) => {
                self.hidden.remove(column);
            }
            Action::FocusTop(k) => {
                let q = session.current_pattern().unwrap();
                let header = transform::header(session.tgdb(), q).unwrap().columns;
                let kept = session.focused();
                assert_eq!(kept.len(), (*k).min(header.len()), "{action:?}");
                self.hidden = (header.into_iter().map(|c| c.name))
                    .filter(|n| !kept.contains(n))
                    .collect();
            }
            Action::Change(_) | Action::Revert(_) => *self = Presentation::default(),
        }
    }
}

/// What the session must answer a drawn action with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Accept,
    Refuse,
    Either,
}

/// A column of `header`, hidden or not, or one time in four a name that
/// no table has.
fn any_column(header: &[ColumnSpec], rng: &mut StdRng) -> (String, Expect) {
    match rng.gen_range(0..4) {
        0 => ("no such column".into(), Expect::Refuse),
        _ => {
            let name = &header[rng.gen_range(0..header.len())].name;
            (name.clone(), Expect::Accept)
        }
    }
}

/// A sort, hide or show of [`any_column`].
fn presentation(header: &[ColumnSpec], rng: &mut StdRng) -> (Action, Expect) {
    let (column, expect) = any_column(header, rng);
    let action = match rng.gen_range(0..3) {
        0 => Action::Sort {
            column,
            descending: rng.gen_range(0..2) == 0,
        },
        1 => Action::Hide(column),
        _ => Action::Show(column),
    };
    (action, expect)
}

/// A node id the graph does not have: every verb that names one refuses it.
fn past_the_graph(tgdb: &Tgdb, rng: &mut StdRng) -> NodeId {
    NodeId::from_index(tgdb.instances.node_count() + rng.gen_range(0..3))
}

/// With no table open only Open and Single apply: every other verb is
/// refused.
fn from_nothing(session: &Session, rng: &mut StdRng) -> (Action, Expect) {
    let tgdb = session.tgdb();
    let node = NodeId::from_index(rng.gen_range(0..tgdb.instances.node_count()));
    let column = || "Papers".to_string();
    let refused = match rng.gen_range(0..10) {
        0 => {
            let tables = session.default_table_list();
            let (node_type, _) = tables[rng.gen_range(0..tables.len())];
            return (
                Action::Change(UserAction::Open { node_type }),
                Expect::Accept,
            );
        }
        1 if rng.gen_range(0..4) == 0 => {
            let node = past_the_graph(tgdb, rng);
            return (Action::Change(UserAction::Single { node }), Expect::Refuse);
        }
        1 => return (Action::Change(UserAction::Single { node }), Expect::Either),
        2 => Action::Change(UserAction::Filter {
            filter: NodeFilter::cmp("year", CmpOp::Gt, 2000),
        }),
        3 => Action::Change(UserAction::Pivot { column: column() }),
        4 => Action::Change(UserAction::Seeall {
            row: node,
            column: column(),
        }),
        5 => Action::Sort {
            column: column(),
            descending: true,
        },
        6 => Action::Hide(column()),
        7 => Action::Show(column()),
        8 => Action::FocusTop(rng.gen_range(0..3)),
        _ => Action::Revert(0),
    };
    (refused, Expect::Refuse)
}

/// One action of a random verb, any of the ten, drawn from what the
/// session shows, and what the session must answer. Among the draws are
/// ones built to be refused: ill-typed filters, unknown attributes, edges
/// that do not leave the node's type, hidden or unknown columns, a focus
/// on no columns and history steps past the end. `None` when the verb
/// drawn has nothing to act on.
fn random_action(session: &mut Session, rng: &mut StdRng) -> Option<(Action, Expect)> {
    let Some(q) = session.current_pattern().cloned() else {
        return Some(from_nothing(session, rng));
    };
    let tgdb = Arc::clone(session.tgdb());
    let header = transform::header(&tgdb, &q).unwrap().columns;
    let t = session.etable().unwrap();
    // A column for a pattern verb, which must refuse one it is not shown
    // and may refuse one it is (a base column).
    let pattern_column = |rng: &mut StdRng| {
        let (column, _) = any_column(&header, rng);
        let expect = match t.column(&column) {
            Some(_) => Expect::Either,
            None => Expect::Refuse,
        };
        (column, expect)
    };
    let change = |a: UserAction, expect: Expect| Some((Action::Change(a), expect));
    let primary = q.primary_node().node_type;
    let nt = tgdb.schema.node_type(primary);
    match rng.gen_range(0..10) {
        0 => {
            let tables = session.default_table_list();
            let (node_type, _) = tables[rng.gen_range(0..tables.len())];
            change(UserAction::Open { node_type }, Expect::Accept)
        }
        1 if rng.gen_range(0..2) == 0 => {
            // Filter a random attribute of the current primary type.
            let attr = &nt.attrs[rng.gen_range(0..nt.attrs.len())];
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
            change(UserAction::Filter { filter }, Expect::Either)
        }
        1 => {
            // A filter the session must refuse — an ill-typed one, an
            // unknown attribute, a neighbor-label filter along an edge that
            // does not leave the node's type or whose labels are not TEXT
            // — or a neighbor-label filter it must accept.
            let attr = &nt.attrs[rng.gen_range(0..nt.attrs.len())];
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
                        return None;
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
            let expect = if well_typed {
                Expect::Accept
            } else {
                Expect::Refuse
            };
            change(UserAction::Filter { filter }, expect)
        }
        2 => {
            let (column, expect) = pattern_column(rng);
            change(UserAction::Pivot { column }, expect)
        }
        3 | 4 if rng.gen_range(0..8) == 0 => {
            let node = past_the_graph(&tgdb, rng);
            let action = match rng.gen_range(0..2) {
                0 => UserAction::Single { node },
                _ => UserAction::Seeall {
                    row: node,
                    column: pattern_column(rng).0,
                },
            };
            change(action, Expect::Refuse)
        }
        3 => {
            // A cell's count.
            let row = t.node_at(rng.gen_range(0..t.len().max(1)))?;
            let (column, expect) = pattern_column(rng);
            change(UserAction::Seeall { row, column }, expect)
        }
        4 => {
            // One reference in the first rows.
            let mut refs = Vec::new();
            for r in 0..t.len().min(5) {
                for c in 0..t.columns.len() {
                    if let Some(rs) = t.cell(r, c).as_ref().and_then(|c| c.refs()) {
                        refs.extend(rs);
                    }
                }
            }
            let node = *refs.get(rng.gen_range(0..refs.len().max(1)))?;
            change(UserAction::Single { node }, Expect::Accept)
        }
        5..=7 => Some(presentation(&header, rng)),
        8 => {
            let k = rng.gen_range(0..=header.len());
            let expect = if k > 0 {
                Expect::Accept
            } else {
                Expect::Refuse
            };
            Some((Action::FocusTop(k), expect))
        }
        _ => {
            // One step past the history is refused.
            let step = rng.gen_range(0..=session.history().len());
            let past = step == session.history().len();
            let expect = if past { Expect::Refuse } else { Expect::Accept };
            Some((Action::Revert(step), expect))
        }
    }
}

/// Applies `action` under the refusal contract: an action answered with
/// an error has changed neither the history nor the current pattern, and
/// the session accepts and refuses what `expect` says. What an accepted
/// action does to the table shown is recorded in `shown`.
fn checked(
    session: &mut Session,
    (action, expect): (Action, Expect),
    shown: &mut Presentation,
) -> bool {
    let before: (usize, Option<QueryPattern>) =
        (session.history().len(), session.current_pattern().cloned());
    match session.apply(&action) {
        Ok(()) => {
            assert_ne!(expect, Expect::Refuse, "{action:?} was accepted");
            shown.record(&action, session);
            true
        }
        Err(e) => {
            assert_ne!(expect, Expect::Accept, "{action:?} was refused with `{e}`");
            let after = (session.history().len(), session.current_pattern().cloned());
            assert_eq!(
                before, after,
                "{action:?} was refused with `{e}` but the session moved"
            );
            false
        }
    }
}

/// The verb of an action.
fn verb(action: &Action) -> &'static str {
    match action {
        Action::Change(UserAction::Open { .. }) => "open",
        Action::Change(UserAction::Filter { .. }) => "filter",
        Action::Change(UserAction::Pivot { .. }) => "pivot",
        Action::Change(UserAction::Single { .. }) => "single",
        Action::Change(UserAction::Seeall { .. }) => "seeall",
        Action::Sort { .. } => "sort",
        Action::Hide(_) => "hide",
        Action::Show(_) => "show",
        Action::FocusTop(_) => "focus",
        Action::Revert(_) => "revert",
    }
}

/// A [`random_action`], [`checked`]; returns its verb and whether the
/// session accepted it.
fn checked_action(
    session: &mut Session,
    rng: &mut StdRng,
    shown: &mut Presentation,
) -> Option<(&'static str, bool)> {
    let drawn = random_action(session, rng)?;
    let verb = verb(&drawn.0);
    Some((verb, checked(session, drawn, shown)))
}

#[test]
fn random_sessions_never_break_invariants() {
    let tgdb = tgdb();
    // Per verb, how often the session refused and accepted it.
    let mut answers: BTreeMap<&str, BTreeMap<bool, usize>> = BTreeMap::new();
    for seed in 0..u64::from(cases(12)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(tgdb.clone());
        for step in 0..60 {
            if let Some((verb, accepted)) =
                checked_action(&mut session, &mut rng, &mut Presentation::default())
            {
                *answers
                    .entry(verb)
                    .or_default()
                    .entry(accepted)
                    .or_default() += 1;
            }
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
    // Every verb reached the session and was accepted, and every one but
    // Open was also refused (Single: an id the graph does not have).
    let verbs = [
        "open", "filter", "pivot", "single", "seeall", "sort", "hide", "show", "focus", "revert",
    ];
    for verb in verbs {
        let answered = answers.get(verb).cloned().unwrap_or_default();
        let refusable = verb != "open";
        assert!(answered.contains_key(&true), "{verb}: {answers:?}");
        assert_eq!(
            answered.contains_key(&false),
            refusable,
            "{verb}: {answers:?}"
        );
    }
}

#[test]
fn every_accepted_action_agrees_with_its_sql_translation_and_the_oracle() {
    let tgdb = academic();
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
            let expected = node_keys(tgdb, t.nodes());
            let by_oracle = check_translation(tgdb, &q, &expected, true)
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

/// A session keeps the matches of the last 64 patterns it showed. Over
/// 200 actions, a quarter of them reverts to any step of the history and
/// a quarter opens a table anew, so more patterns are shown than are kept
/// and reverts reach evicted ones: every table shown must list what a
/// fresh match of the current pattern lists.
#[test]
fn long_sessions_show_a_fresh_match() {
    let tgdb = tgdb();
    let tables = Session::new(tgdb.clone()).default_table_list();
    // Reverts that found their step's match evicted, over all cases.
    let mut rematched = 0;
    for seed in 0..u64::from(cases(8)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new(tgdb.clone());
        for step in 0..200 {
            let steps = session.history().len();
            let drawn = match rng.gen_range(0..4) {
                0 if steps > 0 => (Action::Revert(rng.gen_range(0..steps)), Expect::Accept),
                1 => {
                    let (node_type, _) = tables[rng.gen_range(0..tables.len())];
                    let open = UserAction::Open { node_type };
                    (Action::Change(open), Expect::Accept)
                }
                _ => match random_action(&mut session, &mut rng) {
                    Some(drawn) => drawn,
                    None => continue,
                },
            };
            let revert = matches!(drawn.0, Action::Revert(_));
            checked(&mut session, drawn, &mut Presentation::default());
            let Some(q) = session.current_pattern().cloned() else {
                continue;
            };
            let (_, misses) = session.cache_stats();
            let mut shown: Vec<NodeId> = session.etable().unwrap().nodes().collect();
            rematched += usize::from(revert && session.cache_stats().1 > misses);
            shown.sort();
            let fresh: Vec<NodeId> = match_primary(tgdb, &q).unwrap().rows().collect();
            assert_eq!(shown, fresh, "seed {seed} step {step}: {q:?}");
        }
    }
    assert!(rematched > 0, "no revert reached an evicted match");
}

/// One random write through `c` to `Papers`, `Paper_Authors` or
/// `Authors`: an INSERT, an UPDATE of a key or of a non-key column, or a
/// DELETE. Keys are drawn around the generated ones (papers 1..=300,
/// authors 1..=220, 19 conferences, 40 institutions): an INSERT mostly
/// takes a new key, anything else any key. So some writes are refused —
/// a duplicate key, a dangling or a still-referenced one — and a refusal
/// is fine.
fn random_write(c: &Connection, rng: &mut StdRng) {
    let any = |rng: &mut StdRng, n: i64| rng.gen_range(1..=n + 40);
    let new = |rng: &mut StdRng, n: i64| rng.gen_range(n - 10..=n + 40);
    let sql = match rng.gen_range(0..10) {
        0 => format!(
            "INSERT INTO Papers VALUES ({0}, {1}, 'fuzz {0}', {2}, 1, 9)",
            new(rng, 300),
            rng.gen_range(1..=19),
            rng.gen_range(2000..2016)
        ),
        1 => format!(
            "INSERT INTO Authors VALUES ({0}, 'fuzz {0}', {1})",
            new(rng, 220),
            rng.gen_range(1..=40)
        ),
        2 => format!(
            "INSERT INTO Paper_Authors VALUES ({}, {}, 1)",
            any(rng, 300),
            any(rng, 220)
        ),
        3 => format!(
            "UPDATE Papers SET year = {} WHERE id = {}",
            rng.gen_range(2000..2016),
            any(rng, 300)
        ),
        4 => format!(
            "UPDATE Papers SET id = {} WHERE id = {}",
            new(rng, 300),
            any(rng, 300)
        ),
        5 => format!(
            "UPDATE Authors SET name = 'renamed' WHERE id = {}",
            any(rng, 220)
        ),
        6 => format!(
            "DELETE FROM Paper_Authors WHERE paper_id = {}",
            any(rng, 300)
        ),
        7 => format!("DELETE FROM Papers WHERE id = {}", any(rng, 300)),
        8 => format!("DELETE FROM Authors WHERE id = {}", any(rng, 220)),
        _ => return delete_before_a_referenced_paper(c, rng),
    };
    let _ = c.sql(&sql);
}

/// Deletes a paper nothing references that lies before a referenced one
/// in `Papers`' rows: the rows after it move, so every edge type into
/// `Papers` must be rebuilt although its other end's index is the one the
/// last re-pin read. A generated paper is always referenced, so when no
/// such paper exists this writes one instead: two new papers, and an
/// author for the second.
fn delete_before_a_referenced_paper(c: &Connection, rng: &mut StdRng) {
    let db = Arc::clone(c.shared().snapshot().database());
    let links = [
        ("Paper_Authors", "paper_id"),
        ("Paper_Keywords", "paper_id"),
        ("Paper_References", "paper_id"),
        ("Paper_References", "ref_paper_id"),
    ];
    let mut referenced = BTreeSet::new();
    for (table, column) in links {
        let t = db.table(table).unwrap();
        let c = t.schema().column_index(column).unwrap();
        referenced.extend((0..t.len()).map(|r| t.value(r, c)));
    }
    let papers = db.table("Papers").unwrap();
    let keys: Vec<Value> = (0..papers.len()).map(|r| papers.value(r, 0)).collect();
    let last = keys
        .iter()
        .rposition(|k| referenced.contains(k))
        .unwrap_or(0);
    match keys[..last].iter().find(|k| !referenced.contains(k)) {
        Some(k) => {
            c.sql(&format!("DELETE FROM Papers WHERE id = {k}"))
                .unwrap();
        }
        None => {
            let k = rng.gen_range(400..100_000) * 2;
            for id in [k, k + 1] {
                let _ = c.sql(&format!(
                    "INSERT INTO Papers VALUES ({id}, 1, 'fuzz {id}', 2010, 1, 9)"
                ));
            }
            let _ = c.sql(&format!(
                "INSERT INTO Paper_Authors VALUES ({}, 1, 1)",
                k + 1
            ));
        }
    }
}

/// Asserts that `carried`, a graph a re-pin loaded, is the graph a fresh
/// translation of its epoch loads: the same nodes with the same columns,
/// the same edge count, and the same neighbors, in order, of every node
/// along every edge type, both directions. (The stored foreign-key
/// indexes both read are held against fresh builds in `relational`.)
fn assert_fresh(carried: &Tgdb, at: &str) {
    let fresh = translate(carried.database(), &TranslateOptions::default()).unwrap();
    let (c, f) = (&carried.instances, &fresh.instances);
    assert_eq!(c.node_count(), f.node_count(), "{at}");
    assert_eq!(c.edge_count(), f.edge_count(), "{at}");
    for (nt, _) in fresh.schema.node_types() {
        let (cc, fc) = (c.columns(nt), f.columns(nt));
        let same = cc.len() == fc.len() && cc.iter().zip(fc).all(|(a, b)| a.iter().eq(b.iter()));
        assert!(same, "{at}: the columns of node type {nt}");
    }
    for (et, _) in fresh.schema.edge_types() {
        for n in f.node_ids() {
            let (cn, fn_): (Vec<NodeId>, Vec<NodeId>) =
                (c.neighbors(et, n).collect(), f.neighbors(et, n).collect());
            assert_eq!(cn, fn_, "{at}: {et} from {n}");
        }
    }
}

#[test]
fn dml_between_actions_repins_the_session() {
    let tgdb = tgdb();
    let (mut repins, mut refereed) = (0, 0);
    for seed in 0..u64::from(cases(8)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SharedDatabase::new(Arc::clone(tgdb.database()));
        let mut c = Connection::connect(&shared, tgdb);
        let mut shown = Presentation::default();
        for step in 0..30 {
            match rng.gen_range(0..4) {
                0 => random_write(&c, &mut rng),
                1 => present(c.session_mut(), &mut rng, &mut shown),
                _ => {
                    checked_action(c.session_mut(), &mut rng, &mut shown);
                }
            }
            let Some(q) = c.session().current_pattern().cloned() else {
                continue;
            };
            let at = format!("seed {seed} step {step}");
            let before = Arc::clone(c.session().tgdb());
            let t = c.etable().unwrap_or_else(|e| panic!("{at}: {e}"));
            let graph = c.session().tgdb();
            if !Arc::ptr_eq(&before, graph) {
                repins += 1;
                assert_fresh(graph, &at);
            }
            assert!(
                Arc::ptr_eq(graph.database(), shared.snapshot().database()),
                "{at}: the table is not the latest epoch's"
            );
            graph
                .instances
                .check_consistency(&graph.schema)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            let (columns, rows) = eager(graph, &q, &shown);
            assert_eq!(t.columns, columns, "{at}");
            assert!(
                t.nodes().eq(rows.iter().map(|r| r.node)),
                "{at}: the order shown"
            );
            let expected = node_keys(graph, t.nodes());
            let by_oracle = check_translation(graph, &q, &expected, true)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            refereed += usize::from(by_oracle);
        }
    }
    // The leg is not vacuous: writes published epochs the session
    // followed, and the oracle refereed some of the tables.
    assert!(
        repins > 0 && refereed > 0,
        "{repins} re-pins, {refereed} refereed"
    );
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
        ColumnKind::Neighbor { edge } => Cell::Refs(IdSlice::from(
            tgdb.instances.neighbors(edge, node).collect::<Vec<_>>(),
        )),
        ColumnKind::Participating { node: at } => {
            Cell::Refs(IdSlice::from(m.related(tgdb, node, at).unwrap()))
        }
    };
    let mut rows: Vec<EagerRow> = m
        .rows()
        .map(|node| EagerRow {
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
            let refs: Vec<String> = (refs.ids())
                .map(|r| {
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
                    let labels: Vec<String> = refs.ids().map(|n| label_text(tgdb, n)).collect();
                    csv_text(&labels.join("; "))
                }
            })
            .collect();
        out.push(fields.join(","));
    }
    out.iter().map(|line| format!("{line}\n")).collect()
}

/// The column ranker as it was first written, over an eager table's rows:
/// a cell's content is its value or the sorted labels of its references,
/// and the scores are those `rank_columns` must give, bit for bit.
fn rank_oracle(tgdb: &Tgdb, columns: &[ColumnSpec], rows: &[EagerRow]) -> Vec<(String, [f64; 4])> {
    let n = rows.len().max(1) as f64;
    let mut scores: Vec<(String, [f64; 4])> = (columns.iter().enumerate())
        .map(|(ci, col)| {
            let mut filled = 0usize;
            let mut refs_total = 0usize;
            let mut all_ints = true;
            let mut distinct: HashSet<Vec<Value>> = HashSet::new();
            for row in rows {
                let content: Vec<Value> = match &row.cells[ci] {
                    Cell::Atomic(v) => {
                        filled += usize::from(!v.is_null());
                        all_ints &= v.as_int().is_some();
                        vec![*v]
                    }
                    Cell::Refs(refs) => {
                        filled += usize::from(refs.ids().len() > 0);
                        refs_total += refs.ids().len();
                        let mut labels: Vec<Value> =
                            refs.ids().map(|r| tgdb.instances.label(r)).collect();
                        labels.sort_unstable();
                        labels
                    }
                };
                distinct.insert(content);
            }
            let fill_rate = filled as f64 / n;
            let distinctness = distinct.len() as f64 / n;
            let mean_refs = refs_total as f64 / n;
            let crowding = 1.0 / (1.0 + mean_refs / 10.0);
            let id_penalty = if matches!(col.kind, ColumnKind::Base { .. })
                && all_ints
                && distinctness >= 0.999
                && rows.len() > 1
            {
                0.55
            } else {
                1.0
            };
            let score = (0.5 * fill_rate + 0.5 * distinctness) * crowding * id_penalty;
            let name = col.name.clone();
            (name, [score, fill_rate, distinctness, mean_refs])
        })
        .collect();
    scores.sort_by(|a, b| b.1[0].total_cmp(&a.1[0]).then(a.0.cmp(&b.0)));
    scores
}

/// Scores, best first, as the bits of the score, fill rate,
/// distinctness and mean references: equal only when equal bit for bit.
fn bits(scores: &[(String, [f64; 4])]) -> Vec<(String, [u64; 4])> {
    (scores.iter())
        .map(|(n, v)| (n.clone(), v.map(f64::to_bits)))
        .collect()
}

/// What `rank_columns` says of `t`, as [`bits`].
fn ranked_bits(t: &EnrichedTable) -> Vec<(String, [u64; 4])> {
    let scores: Vec<(String, [f64; 4])> = (rank_columns(t).into_iter())
        .map(|c| (c.name, [c.score, c.fill_rate, c.distinctness, c.mean_refs]))
        .collect();
    bits(&scores)
}

/// A focus on the top `k` columns: the session keeps the oracle's `k`
/// best, and the ranker scores the session's table — sorted as shown, all
/// columns — exactly as the oracle scores the eager one.
fn focus(session: &mut Session, rng: &mut StdRng, shown: &mut Presentation) {
    let Some(q) = session.current_pattern().cloned() else {
        return;
    };
    let tgdb = Arc::clone(session.tgdb());
    let all = Presentation {
        sort: shown.sort.clone(),
        hidden: BTreeSet::new(),
    };
    let (columns, rows) = eager(&tgdb, &q, &all);
    let want = rank_oracle(&tgdb, &columns, &rows);
    let mut table = transform::execute(&tgdb, &q).unwrap();
    if let Some((c, descending)) = &all.sort {
        table.sort_by_column(table.column_index(c).unwrap(), *descending);
    }
    assert_eq!(ranked_bits(&table), bits(&want), "{q:?}");
    let k = rng.gen_range(1..=columns.len());
    let kept = session.focus_top_columns(k).unwrap();
    let names: Vec<String> = want.into_iter().take(k).map(|(n, _)| n).collect();
    assert_eq!(kept, names, "{q:?}");
    shown.hidden = (columns.into_iter().map(|c| c.name))
        .filter(|n| !names.contains(n))
        .collect();
}

/// A sort, hide or show of [`any_column`] of the current header, or a
/// focus on the top columns; recorded in `shown`.
fn present(session: &mut Session, rng: &mut StdRng, shown: &mut Presentation) {
    let Some(q) = session.current_pattern() else {
        return;
    };
    let header = transform::header(session.tgdb(), q).unwrap().columns;
    match rng.gen_range(0..4) {
        3 => focus(session, rng, shown),
        _ => {
            checked(session, presentation(&header, rng), shown);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Every table a random session shows — after pattern actions, and
    /// after sorts, hides, shows and focuses on every column kind — equals
    /// the eager table: the header, every row's node and every cell, read
    /// one at a time, a column at a time and as a page of a drawn length
    /// (with the labels the page reads), every count, and both exports.
    #[test]
    fn windowed_tables_equal_the_eager_ones(seed in 0u64..1_000_000) {
        let tgdb = tgdb();
        let mut rng = StdRng::seed_from_u64(seed);
        // Page lengths come from a generator of their own, so the actions
        // drawn for a seed do not depend on them.
        let mut pages = StdRng::seed_from_u64(!seed);
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
            let n = pages.gen_range(0..=rows.len() + 1);
            let (mut page, mut labels) = (Vec::new(), true);
            t.read_page(n, |cell, label| {
                for id in cell.refs().into_iter().flatten() {
                    labels &= label(id) == t.label(id);
                }
                page.push(cell.clone());
            });
            let eager_page = (0..columns.len())
                .flat_map(|c| rows.iter().take(n).map(move |r| &r.cells[c]));
            prop_assert!(page.iter().eq(eager_page), "{} page of {}", at, n);
            prop_assert!(labels, "{} page of {}: labels", at, n);
            let refs: usize = rows.iter().flat_map(|r| &r.cells).map(Cell::ref_count).sum();
            prop_assert_eq!(t.total_refs(), refs, "{}", at);
            prop_assert_eq!(to_json(&t), eager_json(tgdb, &t, &rows), "{}", at);
            prop_assert_eq!(to_csv(&t), eager_csv(tgdb, &t, &rows), "{}", at);
        }
    }
}

/// Papers `P(id, title)`, `title` of type `ty` with the values `titles`
/// (NULL among them), that cite one another as `cites` lists by position.
fn cited_papers(ty: DataType, titles: &[Value], cites: &[(usize, usize)]) -> Tgdb {
    let mut db = Database::new();
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::nullable("title", ty),
    ];
    let p = TableSchema::new("P", columns).with_primary_key(&["id"]);
    db.create_table(p).unwrap();
    let link = vec![
        Column::new("src", DataType::Int),
        Column::new("dst", DataType::Int),
    ];
    let cites_table = TableSchema::new("Cites", link)
        .with_primary_key(&["src", "dst"])
        .with_foreign_key(ForeignKey::single("src", "P", "id"))
        .with_foreign_key(ForeignKey::single("dst", "P", "id"));
    db.create_table(cites_table).unwrap();
    for (i, &t) in titles.iter().enumerate() {
        db.insert("P", vec![Value::Int(i as i64), t]).unwrap();
    }
    for &(a, b) in cites {
        db.insert("Cites", vec![Value::Int(a as i64), Value::Int(b as i64)])
            .unwrap();
    }
    translate(&db, &TranslateOptions::default()).unwrap()
}

/// A random [`cited_papers`] table: titles of one random type drawn from
/// ints, floats with −0.0 beside 0.0, and text interned out of
/// lexicographic order, NULL among each, full of ties; up to three
/// citations a paper. Returns the graph, the pattern that opens `P` and
/// the paper count.
fn random_cited_papers(rng: &mut StdRng) -> (Tgdb, QueryPattern, usize) {
    for w in [
        "lazy-pear",
        "lazy-Apple",
        "lazy-fig",
        "lazy-apple",
        "lazy-",
        "lazy-Fig",
    ] {
        let _ = Value::text(w);
    }
    let atoms: [Value; 12] = [
        Value::Null,
        Value::Int(1),
        Value::Int(-2),
        Value::Int(7),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(2.5),
        "lazy-fig".into(),
        "lazy-Apple".into(),
        "lazy-apple".into(),
        "lazy-".into(),
        "lazy-pear".into(),
    ];
    let ty = [DataType::Int, DataType::Float, DataType::Text][rng.gen_range(0..3)];
    let fit: Vec<Value> = (atoms.iter().copied())
        .filter(|v| v.data_type().is_none_or(|t| t == ty))
        .collect();
    let n = rng.gen_range(1..80);
    let titles: Vec<Value> = (0..n).map(|_| fit[rng.gen_range(0..fit.len())]).collect();
    let mut cites = BTreeSet::new();
    for i in 0..n {
        for _ in 0..rng.gen_range(0..4) {
            cites.insert((i, rng.gen_range(0..n)));
        }
    }
    let tgdb = cited_papers(ty, &titles, &Vec::from_iter(cites));
    let (p, _) = tgdb.schema.node_type_by_name("P").unwrap();
    let q = ops::initiate(&tgdb, p).unwrap();
    (tgdb, q, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// A sorted table puts its rows in order only as far as they are read,
    /// yet every row read is the row the full stable sort puts there,
    /// whatever the order of the reads: the last row first, random rows
    /// (through copies that share the order and one that does not), or
    /// top to bottom; each followed by every row. Titles of each type and
    /// citation counts, all full of ties, both directions.
    #[test]
    fn lazy_order_prefixes_equal_the_stable_sort(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tgdb, q, n) = random_cited_papers(&mut rng);
        let table = transform::execute(&tgdb, &q).unwrap();
        for column in &table.columns {
            for descending in [false, true] {
                let shown = Presentation {
                    sort: Some((column.name.clone(), descending)),
                    hidden: BTreeSet::new(),
                };
                let want: Vec<NodeId> = eager(&tgdb, &q, &shown).1.iter().map(|r| r.node).collect();
                let sorted = || {
                    let mut t = table.clone();
                    t.sort_by_column(t.column_index(&column.name).unwrap(), descending);
                    t
                };
                let at = format!("seed {seed}, {} desc {descending}", column.name);
                let last = sorted();
                prop_assert_eq!(last.node_at(n - 1), Some(want[n - 1]), "{} last", at);
                prop_assert!(last.nodes().eq(want.iter().copied()), "{} after the last", at);
                let (t, other) = (sorted(), sorted());
                let shared = t.clone();
                for _ in 0..rng.gen_range(0..2 * n) {
                    let r = rng.gen_range(0..n);
                    let read = [&t, &shared, &other][rng.gen_range(0..3)];
                    prop_assert_eq!(read.node_at(r), Some(want[r]), "{} row {}", at, r);
                }
                prop_assert!(shared.nodes().eq(want.iter().copied()), "{} after random rows", at);
                prop_assert!(other.nodes().eq(want.iter().copied()), "{} after random rows", at);
                prop_assert!(sorted().nodes().eq(want.iter().copied()), "{} in order", at);
            }
        }
    }

    /// Papers cite papers whose titles tie, so distinct citation sets
    /// show the same labels: the ranker scores every column as the oracle
    /// does, bit for bit, on the table as made and sorted.
    #[test]
    fn rankings_of_tied_labels_equal_the_oracle(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tgdb, q, _) = random_cited_papers(&mut rng);
        let (columns, rows) = eager(&tgdb, &q, &Presentation::default());
        let want = bits(&rank_oracle(&tgdb, &columns, &rows));
        let mut table = transform::execute(&tgdb, &q).unwrap();
        for sorted in [false, true] {
            if sorted {
                table.sort_by_column(rng.gen_range(0..columns.len()), rng.gen_range(0..2) == 0);
            }
            prop_assert_eq!(ranked_bits(&table), want.clone(), "seed {} sorted {}", seed, sorted);
        }
    }
}
