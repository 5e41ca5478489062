//! Column ranking — the paper's future-work item (3): "leveraging machine
//! learning techniques to rank and select important columns to display"
//! (§9), motivated by a participant's "there are too many attributes ...,
//! which is not easy to interpret" (§7.2).
//!
//! We implement the interpretable statistical core such a ranker would
//! learn from: a column is informative when it is *filled* (few empty
//! cells), *discriminative* (many distinct values relative to rows), and
//! not overwhelming (bounded average reference-set size). This follows the
//! influence-style column scoring of Yang et al., "Summarizing relational
//! databases" (PVLDB 2009), which the paper cites as \[47\] for exactly this
//! purpose.

use crate::etable::{Cell, ColumnKind, EnrichedTable};
use crate::work;
use etable_relational::intern::Sym;
use etable_tgm::NodeId;
use std::ops::Range;

/// A scored column.
#[derive(Debug, Clone)]
pub struct ColumnScore {
    /// Column display name.
    pub name: String,
    /// Score in `[0, 1]`; higher is more useful to display.
    pub score: f64,
    /// Fraction of rows with a non-empty cell.
    pub fill_rate: f64,
    /// Distinct cell contents relative to row count.
    pub distinctness: f64,
    /// Mean number of references per cell (0 for atomic columns).
    pub mean_refs: f64,
}

/// Scores every column of an enriched table, best first, in one pass over
/// its rows in the order the table was made with, so a sorted table
/// orders nothing. A cell's content is its value, or its references'
/// labels as a multiset, each label compared by identity
/// ([`Value::order_word`](etable_relational::value::Value::order_word) over
/// symbol ids, never by text) and read once per distinct id set.
pub fn rank_columns(table: &EnrichedTable) -> Vec<ColumnScore> {
    work::count(|w| w.rank_passes += 1);
    let n = table.len().max(1) as f64;
    let mut scores: Vec<ColumnScore> = table
        .columns
        .iter()
        .enumerate()
        .map(|(ci, col)| {
            let mut filled = 0usize;
            let mut refs_total = 0usize;
            let mut all_ints = true;
            // Each cell's content as a run: a value's identity, or sorted ids.
            let mut words: Vec<u128> = Vec::new();
            let mut runs: Vec<Range<usize>> = Vec::with_capacity(table.len());
            for cell in table.unordered_cells(ci) {
                let start = words.len();
                match cell {
                    Cell::Atomic(v) => {
                        filled += usize::from(!v.is_null());
                        all_ints &= v.as_int().is_some();
                        words.push(v.order_word(Sym::id));
                    }
                    Cell::Refs(refs) => {
                        filled += usize::from(refs.ids().len() > 0);
                        refs_total += refs.ids().len();
                        words.extend(refs.ids().map(|r| u128::from(r.0)));
                        words[start..].sort_unstable();
                    }
                }
                runs.push(start..words.len());
            }
            let distinct = if let ColumnKind::Base { .. } = col.kind {
                words.sort_unstable();
                words.dedup();
                words.len()
            } else {
                let mut labels: Vec<u128> = Vec::new();
                let runs: Vec<Range<usize>> = (distinct_runs(&words, runs).into_iter())
                    .map(|ids| {
                        let start = labels.len();
                        let label = |&id: &u128| table.label(NodeId(id as u32)).order_word(Sym::id);
                        labels.extend(words[ids].iter().map(label));
                        labels[start..].sort_unstable();
                        start..labels.len()
                    })
                    .collect();
                work::count(|w| {
                    w.id_sets += runs.len() as u64;
                    w.labels_read += labels.len() as u64;
                });
                distinct_runs(&labels, runs).len()
            };
            let fill_rate = filled as f64 / n;
            let distinctness = distinct as f64 / n;
            let mean_refs = refs_total as f64 / n;
            // Crowding penalty: very wide reference sets (like a 30-item
            // citation list) cost screen space; halve the score as the mean
            // set size approaches 10+.
            let crowding = 1.0 / (1.0 + mean_refs / 10.0);
            // Identifier-column penalty: *numeric* base columns where every
            // value is unique (surrogate keys) describe rows no better than
            // position; unique text (titles, names) stays informative.
            let id_penalty = if matches!(col.kind, ColumnKind::Base { .. })
                && all_ints
                && distinctness >= 0.999
                && table.len() > 1
            {
                0.55
            } else {
                1.0
            };
            let score = (0.5 * fill_rate + 0.5 * distinctness) * crowding * id_penalty;
            ColumnScore {
                name: col.name.clone(),
                score,
                fill_rate,
                distinctness,
                mean_refs,
            }
        })
        .collect();
    scores.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.name.cmp(&b.name)));
    scores
}

/// One run of `words` per distinct content among `runs`.
fn distinct_runs(words: &[u128], mut runs: Vec<Range<usize>>) -> Vec<Range<usize>> {
    runs.sort_unstable_by(|a, b| words[a.clone()].cmp(&words[b.clone()]));
    runs.dedup_by(|a, b| words[a.clone()] == words[b.clone()]);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::testutil::academic_tgdb;
    use crate::transform;

    fn papers_table() -> EnrichedTable {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        transform::execute(&tgdb, &q).unwrap()
    }

    #[test]
    fn scores_are_bounded_and_sorted() {
        let t = papers_table();
        let scores = rank_columns(&t);
        assert_eq!(scores.len(), t.columns.len());
        for s in &scores {
            assert!((0.0..=1.0).contains(&s.score), "{s:?}");
        }
        for w in scores.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_columns_rank_last() {
        let t = papers_table();
        let scores = rank_columns(&t);
        // In the mini fixture no paper has every neighbor kind; columns with
        // mostly-empty cells (e.g. citations for most papers) rank below
        // title.
        let title_pos = scores.iter().position(|s| s.name == "title").unwrap();
        let worst = scores.last().unwrap();
        assert!(title_pos < scores.len() - 1);
        assert!(worst.fill_rate <= scores[title_pos].fill_rate);
    }

    #[test]
    fn id_columns_are_penalized() {
        let t = papers_table();
        let scores = rank_columns(&t);
        let id = scores.iter().find(|s| s.name == "id").unwrap();
        let title = scores.iter().find(|s| s.name == "title").unwrap();
        assert!(
            title.score > id.score,
            "title {} !> id {}",
            title.score,
            id.score
        );
    }

    /// One ranking names every column once, so its first `k` names (what
    /// a focus keeps) and the rest (what it hides) partition the columns.
    #[test]
    fn top_k_and_hide_partition_columns() {
        let t = papers_table();
        let names: Vec<String> = rank_columns(&t).into_iter().map(|s| s.name).collect();
        let (keep, hide) = names.split_at(4);
        assert_eq!(keep.len() + hide.len(), t.columns.len());
        let mut all: Vec<&String> = names.iter().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), t.columns.len());
        assert!(t.columns.iter().all(|c| names.contains(&c.name)));
    }

    #[test]
    fn ranking_is_deterministic() {
        let t = papers_table();
        let a: Vec<String> = rank_columns(&t).into_iter().map(|s| s.name).collect();
        let b: Vec<String> = rank_columns(&t).into_iter().map(|s| s.name).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_table_is_handled() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::select(
            &tgdb,
            &q,
            crate::pattern::NodeFilter::cmp("year", etable_relational::expr::CmpOp::Gt, 9999),
        )
        .unwrap();
        let t = transform::execute(&tgdb, &q).unwrap();
        assert!(t.is_empty());
        let scores = rank_columns(&t);
        assert_eq!(scores.len(), t.columns.len());
    }
}
