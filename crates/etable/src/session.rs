//! An interactive session: the stateful layer behind the four interface
//! components of Figure 9 — default table list, main view, schema view,
//! and history view.
//!
//! The original system implements this as a Python application server; here
//! it is a library type that examples, tests and the simulated user study
//! drive programmatically.

use crate::actions::{apply, UserAction};
use crate::cache::QueryCache;
use crate::etable::EnrichedTable;
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
    /// The pattern after the action.
    pub pattern: QueryPattern,
}

/// An interactive browsing session over one typed graph database.
///
/// Sessions are **owned, `Send` values**: they share the graph database
/// through an `Arc` instead of borrowing it, so a server can park one per
/// connection and move it across worker threads. (This is the API
/// redesign behind the serving layer; the old `Session<'a>` borrow made
/// handing a session to a second thread impossible.)
pub struct Session {
    tgdb: Arc<Tgdb>,
    history: Vec<HistoryStep>,
    /// Index into `history` of the step currently shown.
    cursor: Option<usize>,
    hidden: BTreeSet<String>,
    sort: Option<(String, bool)>,
    cache: QueryCache,
}

impl Session {
    /// Starts a session with nothing open.
    pub fn new(tgdb: Arc<Tgdb>) -> Self {
        Session {
            tgdb,
            history: Vec::new(),
            cursor: None,
            hidden: BTreeSet::new(),
            sort: None,
            cache: QueryCache::new(),
        }
    }

    /// The typed graph database this session browses (the handle is
    /// cheap to clone into another session).
    pub fn tgdb(&self) -> &Arc<Tgdb> {
        &self.tgdb
    }

    /// Browses `tgdb` from here on — the session's schema graph at
    /// another epoch ([`Tgdb::at`]) — and drops the cached matches. The
    /// history stays valid: a pattern names types by id and entities by
    /// key, and the schema graph does not change between epochs.
    pub fn repin(&mut self, tgdb: Arc<Tgdb>) {
        self.tgdb = tgdb;
        self.cache.clear();
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

    /// The current query pattern, if a table is open.
    pub fn current_pattern(&self) -> Option<&QueryPattern> {
        self.cursor.map(|i| &self.history[i].pattern)
    }

    /// The history steps, oldest first.
    pub fn history(&self) -> &[HistoryStep] {
        &self.history
    }

    /// Executes the current pattern into an enriched table, applying the
    /// session's sort and column visibility.
    pub fn etable(&mut self) -> Result<EnrichedTable> {
        let pattern = self
            .current_pattern()
            .ok_or_else(|| Error::InvalidAction("no table is open".into()))?
            .clone();
        let m = self.cache.get_or_compute(&self.tgdb, &pattern)?;
        let mut t = transform::transform(&self.tgdb, &m)?;
        if let Some((col, desc)) = &self.sort {
            if let Some(idx) = t.column_index(col) {
                t.sort_by_column(idx, *desc);
            }
        }
        t.drop_columns(|c| self.hidden.contains(&c.name));
        Ok(t)
    }

    fn push(&mut self, action: &UserAction) -> Result<()> {
        // An action reads the column specs of the table it is applied to,
        // never its rows: hand it the header, without the hidden columns,
        // and match nothing here.
        let shown = match self.current_pattern() {
            Some(pattern) => {
                let mut t = transform::header(&self.tgdb, pattern)?;
                t.drop_columns(|c| self.hidden.contains(&c.name));
                Some(t)
            }
            None => None,
        };
        let outcome = apply(&self.tgdb, self.current_pattern(), shown.as_ref(), action)?;
        self.history.push(HistoryStep {
            description: outcome.description,
            pattern: outcome.pattern,
        });
        self.cursor = Some(self.history.len() - 1);
        // A new query invalidates per-table presentation state.
        self.sort = None;
        self.hidden.clear();
        Ok(())
    }

    /// Opens a table from the default table list.
    pub fn open(&mut self, node_type: NodeTypeId) -> Result<()> {
        self.push(&UserAction::Open { node_type })
    }

    /// Opens a table by entity type name.
    pub fn open_by_name(&mut self, name: &str) -> Result<()> {
        let (id, _) = self
            .tgdb
            .schema
            .node_type_by_name(name)
            .ok_or_else(|| Error::InvalidAction(format!("unknown table `{name}`")))?;
        self.open(id)
    }

    /// Filters the current table.
    pub fn filter(&mut self, filter: NodeFilter) -> Result<()> {
        self.push(&UserAction::Filter { filter })
    }

    /// Pivots on a column (by display name).
    pub fn pivot(&mut self, column: &str) -> Result<()> {
        self.push(&UserAction::Pivot {
            column: column.to_string(),
        })
    }

    /// Clicks a single entity reference.
    pub fn single(&mut self, node: NodeId) -> Result<()> {
        self.push(&UserAction::Single { node })
    }

    /// Clicks a cell's reference count.
    pub fn seeall(&mut self, row: NodeId, column: &str) -> Result<()> {
        self.push(&UserAction::Seeall {
            row,
            column: column.to_string(),
        })
    }

    /// Sorts the main view by a column.
    pub fn sort(&mut self, column: &str, descending: bool) {
        self.sort = Some((column.to_string(), descending));
    }

    /// Hides a column in the main view.
    pub fn hide(&mut self, column: &str) {
        self.hidden.insert(column.to_string());
    }

    /// Shows a previously hidden column.
    pub fn show(&mut self, column: &str) {
        self.hidden.remove(column);
    }

    /// Reverts to history step `step` (0-based). The revert itself becomes a
    /// new history step, so the full trail is preserved.
    pub fn revert(&mut self, step: usize) -> Result<()> {
        if step >= self.history.len() {
            return Err(Error::InvalidAction(format!(
                "history step {step} does not exist"
            )));
        }
        let pattern = self.history[step].pattern.clone();
        self.history.push(HistoryStep {
            description: format!("Revert to step {}", step + 1),
            pattern,
        });
        self.cursor = Some(self.history.len() - 1);
        self.sort = None;
        self.hidden.clear();
        Ok(())
    }

    /// Hides all but the `k` most informative columns of the current
    /// result, using the column ranker (§9 future-work item 3; see
    /// [`crate::column_rank`]). Returns the kept column names.
    pub fn focus_top_columns(&mut self, k: usize) -> Result<Vec<String>> {
        if k == 0 {
            return Err(Error::InvalidAction(
                "focus keeps at least one column".into(),
            ));
        }
        // Rank on the unhidden table.
        let hidden_before = std::mem::take(&mut self.hidden);
        let table = match self.etable() {
            Ok(t) => t,
            Err(e) => {
                self.hidden = hidden_before;
                return Err(e);
            }
        };
        let keep = crate::column_rank::top_k_columns(&table, k);
        for name in crate::column_rank::columns_to_hide(&table, k) {
            self.hidden.insert(name);
        }
        Ok(keep)
    }

    /// Cache statistics `(hits, misses)` — exercised by the reuse bench.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(s.history().len(), 3); // open, filter, revert
                                          // Revert re-used the cached matching of step 0.
        let (hits, _) = s.cache_stats();
        assert!(hits >= 1);
    }

    #[test]
    fn sort_and_hide_affect_presentation_only() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        s.sort("year", true);
        let t = s.etable().unwrap();
        let years: Vec<i64> = t
            .column_values(t.column_index("year").unwrap())
            .map(|c| c.value().unwrap().as_int().unwrap())
            .collect();
        assert_eq!(years, vec![2014, 2012, 2011, 2007]);
        s.hide("Authors");
        let t = s.etable().unwrap();
        assert!(t.column("Authors").is_none());
        s.show("Authors");
        let t = s.etable().unwrap();
        assert!(t.column("Authors").is_some());
    }

    #[test]
    fn a_hidden_column_cannot_be_pivoted_on_or_expanded() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        s.open_by_name("Papers").unwrap();
        let row = s.etable().unwrap().node_at(0).unwrap();
        s.hide("Authors");
        assert!(s.etable().unwrap().column("Authors").is_none());
        let unknown = |r: Result<()>| matches!(r, Err(Error::UnknownColumn(c)) if c == "Authors");
        assert!(unknown(s.pivot("Authors")));
        assert!(unknown(s.seeall(row, "Authors")));
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.etable().unwrap().primary_type_name, "Papers");
        // Shown again, the column takes both actions.
        s.show("Authors");
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
        s.sort("Papers (referenced)", true);
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
    fn errors_without_open_table() {
        let tgdb = std::sync::Arc::new(academic_tgdb());
        let mut s = Session::new(tgdb.clone());
        assert!(s.etable().is_err());
        assert!(s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2000)).is_err());
        assert!(s.revert(0).is_err());
    }
}
