//! An interactive session: the stateful layer behind the four interface
//! components of Figure 9 — default table list, main view, schema view,
//! and history view.
//!
//! The original system implements this as a Python application server; here
//! it is a library type that examples, tests and the simulated user study
//! drive programmatically.

use crate::actions::{self, Action, UserAction};
use crate::column_rank::rank_columns;
use crate::etable::EnrichedTable;
use crate::matching::{match_primary, MatchResult};
use crate::pattern::{NodeFilter, QueryPattern};
use crate::transform;
use crate::{Error, Result};
use etable_tgm::{NodeId, NodeTypeId, Tgdb};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One step in the history view.
#[derive(Debug, Clone)]
pub struct HistoryStep {
    /// Human-readable action description ("Filter 'Papers' table by ...").
    pub description: String,
    /// The pattern after the action, shared with every revert to it.
    pub pattern: Arc<QueryPattern>,
}

/// How the session shows the current step. A new step is shown unsorted,
/// with every column.
#[derive(Debug, Default)]
struct View {
    /// Index into the history of the step shown.
    step: usize,
    sort: Option<(String, bool)>,
    hidden: BTreeSet<String>,
    /// The columns the last focus on this step kept, best first.
    focused: Vec<String>,
}

/// An interactive browsing session over one typed graph database.
///
/// Sessions are **owned, `Send` values**: they share the graph database
/// through an `Arc` instead of borrowing it, so a server can park one per
/// connection and move it across worker threads.
pub struct Session {
    tgdb: Arc<Tgdb>,
    history: Vec<HistoryStep>,
    /// `None` until a table is open.
    view: Option<View>,
    /// The matches of the last [`KEPT_MATCHES`] patterns shown, least
    /// recently shown first. A pattern is found by pointer: a revert
    /// shows its step's own `Arc`, and the `Arc` held here keeps its
    /// address from being reused by another pattern.
    matches: Vec<(Arc<QueryPattern>, Arc<MatchResult>)>,
    /// How often a shown table found its match kept, and how often not.
    hits: u64,
    misses: u64,
    /// The table shown, sorted, before hiding; a new step, sort or graph
    /// drops it.
    window: Option<EnrichedTable>,
}

/// How many matches a session keeps (paper §9: reusing intermediate
/// results). A session's history rarely exceeds a few dozen steps.
const KEPT_MATCHES: usize = 64;

fn no_table() -> Error {
    Error::InvalidAction("no table is open".into())
}

impl Session {
    /// Starts a session with nothing open.
    pub fn new(tgdb: Arc<Tgdb>) -> Self {
        Session {
            tgdb,
            history: Vec::new(),
            view: None,
            matches: Vec::new(),
            hits: 0,
            misses: 0,
            window: None,
        }
    }

    /// The typed graph database this session browses (the handle is
    /// cheap to clone into another session).
    pub fn tgdb(&self) -> &Arc<Tgdb> {
        &self.tgdb
    }

    /// Browses `tgdb` from here on — the session's schema graph at
    /// another epoch ([`Tgdb::at`]) — and drops the kept matches. The
    /// history stays valid: a pattern names types by id and entities by
    /// key, and the schema graph does not change between epochs.
    pub fn repin(&mut self, tgdb: Arc<Tgdb>) {
        self.tgdb = tgdb;
        self.matches.clear();
        self.window = None;
    }

    /// The default table list (Figure 9 component 1): entity types only.
    pub fn default_table_list(&self) -> Vec<(NodeTypeId, String)> {
        self.tgdb
            .schema
            .entity_types()
            .into_iter()
            .map(|(id, t)| (id, t.name.clone()))
            .collect()
    }

    /// The node type a table name opens.
    pub fn table_named(&self, name: &str) -> Result<NodeTypeId> {
        (self.tgdb.schema.node_type_by_name(name))
            .map(|(id, _)| id)
            .ok_or_else(|| Error::InvalidAction(format!("unknown table `{name}`")))
    }

    /// The current query pattern, if a table is open.
    pub fn current_pattern(&self) -> Option<&QueryPattern> {
        (self.view.as_ref()).map(|v| &*self.history[v.step].pattern)
    }

    /// The history steps, oldest first.
    pub fn history(&self) -> &[HistoryStep] {
        &self.history
    }

    /// The columns the last [`Action::FocusTop`] on the current step kept,
    /// best first; empty before one.
    pub fn focused(&self) -> &[String] {
        (self.view.as_ref()).map_or(&[], |v| &v.focused)
    }

    /// The current pattern's enriched table under the session's sort and
    /// column visibility: a copy of the table the session keeps, which a
    /// hide, show or focus leaves as it is, so they order nothing again.
    pub fn etable(&mut self) -> Result<EnrichedTable> {
        let mut t = self.window()?.clone();
        if let Some(view) = &self.view {
            t.drop_columns(|c| view.hidden.contains(&c.name));
        }
        Ok(t)
    }

    /// The kept table, matched, transformed and sorted first if none is.
    fn window(&mut self) -> Result<&EnrichedTable> {
        if let Some(t) = self.window.take() {
            return Ok(self.window.insert(t));
        }
        let view = self.view.as_ref().ok_or_else(no_table)?;
        let sort = view.sort.clone();
        let pattern = Arc::clone(&self.history[view.step].pattern);
        let m = self.kept_match(pattern)?;
        let mut t = transform::transform(&self.tgdb, &m)?;
        if let Some((col, desc)) = sort {
            if let Some(idx) = t.column_index(&col) {
                t.sort_by_column(idx, desc);
            }
        }
        Ok(self.window.insert(t))
    }

    /// The match of a pattern about to be shown: the kept one if the
    /// pattern was shown before (moved to the back, as shown last), else
    /// a new one, which evicts the least recently shown past
    /// [`KEPT_MATCHES`].
    fn kept_match(&mut self, pattern: Arc<QueryPattern>) -> Result<Arc<MatchResult>> {
        let kept = (self.matches.iter()).position(|(p, _)| Arc::ptr_eq(p, &pattern));
        let entry = match kept {
            Some(i) => {
                self.hits += 1;
                self.matches.remove(i)
            }
            None => {
                let m = Arc::new(match_primary(&self.tgdb, &pattern)?);
                self.misses += 1;
                if self.matches.len() == KEPT_MATCHES {
                    self.matches.remove(0);
                }
                (pattern, m)
            }
        };
        let m = Arc::clone(&entry.1);
        self.matches.push(entry);
        Ok(m)
    }

    /// Applies one action: the session's only entry point. A refused
    /// action returns its error and leaves the session as it was.
    pub fn apply(&mut self, action: &Action) -> Result<()> {
        match action {
            Action::Change(change) => {
                // A change reads the column specs of the table it is
                // applied to, never its rows: hand it the header, without
                // the hidden columns, and match nothing here.
                let shown = match &self.view {
                    Some(view) => {
                        let pattern = &self.history[view.step].pattern;
                        let mut t = transform::header(&self.tgdb, pattern)?;
                        t.drop_columns(|c| view.hidden.contains(&c.name));
                        Some(t)
                    }
                    None => None,
                };
                let current = self.current_pattern();
                let outcome = actions::apply(&self.tgdb, current, shown.as_ref(), change)?;
                self.step(outcome.description, Arc::new(outcome.pattern));
            }
            Action::Sort { column, descending } => {
                self.view_naming(column)?.sort = Some((column.clone(), *descending));
                self.window = None;
            }
            Action::Hide(column) => {
                self.view_naming(column)?.hidden.insert(column.clone());
            }
            Action::Show(column) => {
                self.view_naming(column)?.hidden.remove(column);
            }
            Action::FocusTop(0) => {
                return Err(Error::InvalidAction(
                    "focus keeps at least one column".into(),
                ))
            }
            Action::FocusTop(k) => {
                let mut ranked = rank_columns(self.window()?);
                let hidden = ranked.split_off((*k).min(ranked.len()));
                let view = self.view.as_mut().ok_or_else(no_table)?;
                view.hidden = hidden.into_iter().map(|c| c.name).collect();
                view.focused = ranked.into_iter().map(|c| c.name).collect();
            }
            Action::Revert(i) => {
                let Some(step) = self.history.get(*i) else {
                    // Numbered from 1, as the history shows it.
                    let n = *i as u128 + 1;
                    let missing = format!("history step {n} does not exist");
                    return Err(Error::InvalidAction(missing));
                };
                let pattern = Arc::clone(&step.pattern);
                self.step(format!("Revert to step {}", i + 1), pattern);
            }
        }
        Ok(())
    }

    /// The current step's view, once `column` names a column of its
    /// table, hidden or not. Reads the kept table's header if there is
    /// one and the pattern's otherwise, so it matches nothing.
    fn view_naming(&mut self, column: &str) -> Result<&mut View> {
        let view = self.view.as_mut().ok_or_else(no_table)?;
        let known = match &self.window {
            Some(t) => t.column(column).is_some(),
            None => {
                let pattern = &self.history[view.step].pattern;
                transform::header(&self.tgdb, pattern)?
                    .column(column)
                    .is_some()
            }
        };
        if known {
            Ok(view)
        } else {
            Err(Error::UnknownColumn(column.to_string()))
        }
    }

    /// Shows `pattern` as a new step, with no presentation state.
    fn step(&mut self, description: String, pattern: Arc<QueryPattern>) {
        self.history.push(HistoryStep {
            description,
            pattern,
        });
        self.view = Some(View {
            step: self.history.len() - 1,
            ..View::default()
        });
        self.window = None;
    }

    // The verbs one at a time: wrappers over `apply`, kept for the
    // benchmark harness, the study scripts and the figure binaries until
    // ROADMAP 1(b).

    /// Opens a table from the default table list.
    pub fn open(&mut self, node_type: NodeTypeId) -> Result<()> {
        self.apply(&Action::Change(UserAction::Open { node_type }))
    }

    /// Opens a table by entity type name.
    pub fn open_by_name(&mut self, name: &str) -> Result<()> {
        self.open(self.table_named(name)?)
    }

    /// Filters the current table.
    pub fn filter(&mut self, filter: NodeFilter) -> Result<()> {
        self.apply(&Action::Change(UserAction::Filter { filter }))
    }

    /// Pivots on a column (by display name).
    pub fn pivot(&mut self, column: &str) -> Result<()> {
        let column = column.to_string();
        self.apply(&Action::Change(UserAction::Pivot { column }))
    }

    /// Clicks a single entity reference.
    pub fn single(&mut self, node: NodeId) -> Result<()> {
        self.apply(&Action::Change(UserAction::Single { node }))
    }

    /// Clicks a cell's reference count.
    pub fn seeall(&mut self, row: NodeId, column: &str) -> Result<()> {
        let column = column.to_string();
        self.apply(&Action::Change(UserAction::Seeall { row, column }))
    }

    /// Sorts the main view by a column.
    pub fn sort(&mut self, column: &str, descending: bool) -> Result<()> {
        let column = column.to_string();
        self.apply(&Action::Sort { column, descending })
    }

    /// Hides a column in the main view.
    pub fn hide(&mut self, column: &str) -> Result<()> {
        self.apply(&Action::Hide(column.to_string()))
    }

    /// Shows a previously hidden column.
    pub fn show(&mut self, column: &str) -> Result<()> {
        self.apply(&Action::Show(column.to_string()))
    }

    /// Reverts to history step `step` (0-based). The revert itself becomes a
    /// new history step, so the full trail is preserved.
    pub fn revert(&mut self, step: usize) -> Result<()> {
        self.apply(&Action::Revert(step))
    }

    /// Hides all but the `k` most informative columns of the current
    /// result, ranked once with every column shown (§9 future-work item
    /// 3; see [`crate::column_rank`]). Returns the kept column names,
    /// best first.
    pub fn focus_top_columns(&mut self, k: usize) -> Result<Vec<String>> {
        self.apply(&Action::FocusTop(k))?;
        Ok(self.focused().to_vec())
    }

    /// `(hits, misses)`: how many tables shown found their match kept
    /// and how many matched their pattern. Kept for the benchmark
    /// harness until ROADMAP 1(b)(ix).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etable::ColumnSpec;
    use crate::pattern::FilterAtom;
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;

    #[test]
    fn open_filter_pivot_flow() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Conferences").unwrap();
        assert_eq!(s.etable().unwrap().len(), 2);
        s.filter(NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD"))
            .unwrap();
        assert_eq!(s.etable().unwrap().len(), 1);
        s.pivot("Papers").unwrap();
        let t = s.etable().unwrap();
        assert_eq!(t.primary_type_name, "Papers");
        assert_eq!(t.len(), 2);
        assert_eq!(s.history().len(), 3);
    }

    #[test]
    fn default_table_list_is_entities_only() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let s = Session::new(tgdb.clone());
        let names: Vec<String> = s.default_table_list().into_iter().map(|(_, n)| n).collect();
        assert!(names.contains(&"Papers".to_string()));
        assert!(names.contains(&"Authors".to_string()));
        assert!(!names.iter().any(|n| n.contains(':')), "{names:?}");
    }

    #[test]
    fn revert_restores_earlier_result() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        let before = s.etable().unwrap();
        s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2012)).unwrap();
        assert_eq!(s.etable().unwrap().len(), 1);
        s.revert(0).unwrap();
        let after = s.etable().unwrap();
        assert_eq!(before.len(), after.len());
        // Open, filter, revert: the revert showed step 0's kept match.
        assert_eq!(s.history().len(), 3);
        assert_eq!(s.cache_stats(), (1, 2));
    }

    #[test]
    fn sort_and_hide_affect_presentation_only() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        s.sort("year", true).unwrap();
        let t = s.etable().unwrap();
        let years: Vec<i64> = t
            .column_values(t.column_index("year").unwrap())
            .map(|c| c.value().unwrap().as_int().unwrap())
            .collect();
        assert_eq!(years, vec![2014, 2012, 2011, 2007]);
        s.hide("Authors").unwrap();
        let t = s.etable().unwrap();
        assert!(t.column("Authors").is_none());
        s.show("Authors").unwrap();
        let t = s.etable().unwrap();
        assert!(t.column("Authors").is_some());
    }

    #[test]
    fn a_hidden_column_cannot_be_pivoted_on_or_expanded() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        let row = s.etable().unwrap().node_at(0).unwrap();
        s.hide("Authors").unwrap();
        assert!(s.etable().unwrap().column("Authors").is_none());
        let unknown = |r: Result<()>| matches!(r, Err(Error::UnknownColumn(c)) if c == "Authors");
        assert!(unknown(s.pivot("Authors")));
        assert!(unknown(s.seeall(row, "Authors")));
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.etable().unwrap().primary_type_name, "Papers");
        // Shown again, the column takes both actions.
        s.show("Authors").unwrap();
        s.seeall(row, "Authors").unwrap();
        s.revert(0).unwrap();
        s.pivot("Authors").unwrap();
        assert_eq!(s.etable().unwrap().primary_type_name, "Authors");
    }

    #[test]
    fn sort_by_ref_count_mirrors_figure1_history() {
        // "Sort table by # of Papers (referenced)".
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        s.sort("Papers (referenced)", true).unwrap();
        let t = s.etable().unwrap();
        let col = t.column_index("Papers (referenced)").unwrap();
        let counts: Vec<usize> = (0..t.len()).map(|r| t.ref_count(r, col)).collect();
        assert_eq!(counts, vec![2, 1, 1, 0]);
    }

    #[test]
    fn seeall_selects_row_then_pivots() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let usable = tgdb.node_by_key(papers, &10.into()).unwrap();
        s.seeall(usable, "Paper_Keywords: keyword").unwrap();
        let t = s.etable().unwrap();
        assert_eq!(t.len(), 2); // usability, user interface
        let labels: Vec<&str> = t
            .column_values(0)
            .map(|c| c.value().unwrap().as_text().unwrap())
            .collect();
        assert!(labels.contains(&"usability"));
    }

    #[test]
    fn focus_top_columns_hides_the_rest() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        let total = s.etable().unwrap().columns.len();
        assert!(matches!(
            s.focus_top_columns(0),
            Err(Error::InvalidAction(_))
        ));
        assert_eq!(s.etable().unwrap().columns.len(), total);
        let kept = s.focus_top_columns(3).unwrap();
        assert_eq!(kept.len(), 3);
        let t = s.etable().unwrap();
        assert_eq!(t.columns.len(), 3);
        assert!(total > 3);
        for name in &kept {
            assert!(t.column(name).is_some());
        }
    }

    #[test]
    fn one_cache_lookup_per_table_shown_and_none_per_action() {
        fn is_send<T: Send>(_: &T) {}
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let nandi = tgdb.node_by_label(authors, "Arnab Nandi").unwrap();
        let mut s = Session::new(tgdb.clone());
        is_send(&s);
        let lookups = |s: &Session| s.cache_stats().0 + s.cache_stats().1;
        for shown in 0..4 {
            // Applying an action reads the shown table's header only.
            match shown {
                0 => s.open_by_name("Papers"),
                1 => s.filter(NodeFilter::cmp("year", CmpOp::Lt, 2012)),
                2 => s.pivot("Authors"),
                _ => s.seeall(nandi, "Institutions"),
            }
            .unwrap();
            assert_eq!(lookups(&s), shown);
            let t = s.etable().unwrap();
            is_send(&t);
            assert_eq!(lookups(&s), shown + 1);
        }
        assert_eq!(s.history().len(), 4);
        // A presentation verb or a revert reads a header at most: the
        // sort drops the kept table, so the hide and show after it read
        // the pattern's header.
        for action in [
            Action::Sort {
                column: "name".into(),
                descending: true,
            },
            Action::Hide("name".into()),
            Action::Show("name".into()),
            Action::Revert(0),
        ] {
            s.apply(&action).unwrap();
            assert_eq!(lookups(&s), 4, "{action:?}");
        }
    }

    type Seen = (
        Vec<String>,
        Option<QueryPattern>,
        Option<(Option<(String, bool)>, BTreeSet<String>)>,
        Option<(Vec<ColumnSpec>, Vec<NodeId>)>,
    );

    /// Everything a refused action must leave as it was: the history, the
    /// current pattern, the sort, the hidden columns and the next table.
    fn seen(s: &mut Session) -> Seen {
        let table = (s.etable().ok()).map(|t| (t.columns.clone(), t.nodes().collect()));
        let history = s.history().iter().map(|h| h.description.clone());
        let view = (s.view.as_ref()).map(|v| (v.sort.clone(), v.hidden.clone()));
        (history.collect(), s.current_pattern().cloned(), view, table)
    }

    #[test]
    fn a_refused_action_leaves_the_session_as_it_was() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let row = tgdb.node_by_key(papers, &10.into()).unwrap();
        let pivot = |column: &str| {
            Action::Change(UserAction::Pivot {
                column: column.into(),
            })
        };
        let sort = |column: &str| Action::Sort {
            column: column.into(),
            descending: false,
        };

        // Nothing open: every verb but the two that start from nothing
        // (Open and Single) is refused.
        let mut s = Session::new(tgdb.clone());
        let filter = NodeFilter::cmp("year", CmpOp::Gt, 2000);
        for action in [
            Action::Change(UserAction::Filter { filter }),
            pivot("Authors"),
            Action::Change(UserAction::Seeall {
                row,
                column: "Authors".into(),
            }),
            sort("year"),
            Action::Hide("year".into()),
            Action::Show("year".into()),
            Action::FocusTop(1),
            Action::FocusTop(0),
            Action::Revert(0),
        ] {
            let before = seen(&mut s);
            assert!(s.apply(&action).is_err(), "{action:?}");
            assert_eq!(seen(&mut s), before, "{action:?}");
        }

        // A sorted table with a hidden column.
        s.open(papers).unwrap();
        s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2007)).unwrap();
        s.sort("year", true).unwrap();
        s.hide("Authors").unwrap();
        for (action, refusal) in [
            (sort("Nope"), "unknown column `Nope`"),
            (Action::Hide("Nope".into()), "unknown column `Nope`"),
            (Action::Show("Nope".into()), "unknown column `Nope`"),
            (Action::FocusTop(0), "focus keeps at least one column"),
            (Action::Revert(2), "history step 3 does not exist"),
            (Action::Revert(usize::MAX), "step 18446744073709551616 does"),
            (pivot("Authors"), "unknown column `Authors`"),
            (pivot("year"), "cannot pivot on base attribute"),
        ] {
            // With the kept table, then with only the pattern's header.
            for kept in [true, false] {
                let before = seen(&mut s);
                if !kept {
                    s.window = None;
                }
                let e = s.apply(&action).unwrap_err().to_string();
                assert!(e.contains(refusal), "{action:?}: {e}");
                assert_eq!(seen(&mut s), before, "{action:?}");
            }
        }
        assert_eq!(s.etable().unwrap().len(), 3);
    }

    #[test]
    fn the_match_cache_tells_quoted_text_apart() {
        // Two IN lists whose items differ only in quotes: a key that wrote
        // the text unescaped gave both one cache entry.
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        let acronym_in = |items: &[&str]| {
            NodeFilter::atom(FilterAtom::In {
                attr: "acronym".into(),
                values: items.iter().map(|&t| t.into()).collect(),
            })
        };
        s.open_by_name("Conferences").unwrap();
        s.filter(acronym_in(&["KDD", "SIGMOD"])).unwrap();
        assert_eq!(s.etable().unwrap().len(), 2);
        s.revert(0).unwrap();
        s.filter(acronym_in(&["KDD', 'SIGMOD"])).unwrap();
        assert_eq!(s.etable().unwrap().len(), 0);
    }

    #[test]
    fn reverts_find_the_matches_they_showed_last() {
        // Three trail steps, then laps that revert to each of them and
        // apply one filter anew: each lap shows one new pattern, so a
        // list kept in the order matches were made would lose the trail
        // after 61 laps.
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        s.etable().unwrap();
        s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2010)).unwrap();
        s.etable().unwrap();
        s.pivot("Authors").unwrap();
        s.etable().unwrap();
        let laps = 200;
        for _ in 0..laps {
            for step in 0..3 {
                s.revert(step).unwrap();
                s.etable().unwrap();
            }
            s.filter(NodeFilter::like("name", "%a%")).unwrap();
            s.etable().unwrap();
            assert!(s.matches.len() <= KEPT_MATCHES);
        }
        assert_eq!(s.cache_stats(), (3 * laps, 3 + laps));
    }

    #[test]
    fn a_revert_past_the_kept_matches_matches_again() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        let first: Vec<NodeId> = s.etable().unwrap().nodes().collect();
        for i in 0..KEPT_MATCHES {
            s.open_by_name(["Authors", "Papers"][i % 2]).unwrap();
            s.etable().unwrap();
        }
        let shown = KEPT_MATCHES as u64 + 1;
        assert_eq!(s.cache_stats(), (0, shown));
        s.revert(0).unwrap();
        assert_eq!(s.etable().unwrap().nodes().collect::<Vec<_>>(), first);
        assert_eq!(s.cache_stats(), (0, shown + 1));
        s.revert(0).unwrap();
        s.etable().unwrap();
        assert_eq!(s.cache_stats(), (1, shown + 1));
    }

    #[test]
    fn a_repin_drops_the_kept_matches() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        s.etable().unwrap();
        s.repin(tgdb.clone());
        s.etable().unwrap();
        assert_eq!(s.cache_stats(), (0, 2));
        s.revert(0).unwrap();
        s.etable().unwrap();
        assert_eq!(s.cache_stats(), (1, 2));
    }

    #[test]
    fn errors_without_open_table() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        assert!(s.etable().is_err());
        assert!(s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2000)).is_err());
        assert!(s.revert(0).is_err());
    }
}
