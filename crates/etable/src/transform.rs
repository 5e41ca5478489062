//! Format transformation (§5.4.2): turning an instance-matching result into
//! an enriched table.
//!
//! Rows are the matched primary nodes; columns are
//! 1. base attributes `Ab` of the primary node type,
//! 2. participating node columns `At` (one per non-primary pattern node,
//!    row-scoped through the pattern), and
//! 3. neighbor node columns `Ah` (one per schema edge type leaving the
//!    primary type, unfiltered).
//!
//! A neighbor column is suppressed when the same edge type already connects
//! the primary node to a participating node — "some of these columns are
//! the same as the participating node columns" (Figure 8 caption).
//!
//! The table builds no cell: it is the header plus the matched ids, and
//! each cell is computed when it is read (see [`crate::etable`]).

use crate::etable::{ColumnKind, ColumnSpec, EnrichedTable};
use crate::matching::{match_primary, MatchResult};
use crate::pattern::QueryPattern;
use crate::Result;
use etable_tgm::Tgdb;
use std::collections::HashSet;
use std::sync::Arc;

/// Executes a query pattern and transforms the result into an enriched
/// table (instance matching + format transformation, Figure 8).
pub fn execute(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<EnrichedTable> {
    transform(tgdb, &Arc::new(match_primary(tgdb, pattern)?))
}

/// The enriched table of `pattern` without its rows: heading, filter
/// description and column specs, which depend on the pattern and the
/// schema only. This is all a user action needs of the table it is
/// applied to ([`crate::actions::apply`]), so a session matches nothing
/// to apply one.
pub fn header(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<EnrichedTable> {
    transform(tgdb, &Arc::new(MatchResult::empty(pattern)))
}

/// Transforms an existing matching result into an enriched table: the
/// header of `m.pattern` plus a copy of the matched primary ids. No cell
/// is built, no label is read, and nothing is allocated per reference.
pub fn transform(tgdb: &Tgdb, m: &Arc<MatchResult>) -> Result<EnrichedTable> {
    let pattern = &m.pattern;
    let primary = pattern.primary;
    let primary_ty = pattern.primary_node().node_type;
    let nt = tgdb.schema.node_type(primary_ty);

    let mut columns: Vec<ColumnSpec> = Vec::new();

    // 1. Base attributes Ab.
    for (i, attr) in nt.attrs.iter().enumerate() {
        columns.push(ColumnSpec {
            name: attr.name.clone(),
            kind: ColumnKind::Base { attr: i },
        });
    }

    // Display names are disambiguated by occurrence: "Papers", "Papers (2)".
    let mut used_names: HashSet<String> = columns.iter().map(|c| c.name.clone()).collect();
    let mut unique = |base: &str| {
        let mut name = base.to_string();
        let mut k = 2;
        while !used_names.insert(name.clone()) {
            name = format!("{base} ({k})");
            k += 1;
        }
        name
    };

    // 2. Participating node columns At (every pattern node except the
    //    primary), named after the node type.
    // Edge types that connect the primary node to an adjacent participating
    // node; their neighbor columns would duplicate the participating column.
    let covered_edges: HashSet<etable_tgm::EdgeTypeId> = pattern
        .incident(tgdb, primary)
        .into_iter()
        .map(|(_, et)| et)
        .collect();
    for id in pattern.node_ids() {
        if id == primary {
            continue;
        }
        columns.push(ColumnSpec {
            name: unique(&tgdb.schema.node_type(pattern.node(id).node_type).name),
            kind: ColumnKind::Participating { node: id },
        });
    }

    // 3. Neighbor node columns Ah, for edge types not already covered by an
    //    adjacent participating column.
    for (et_id, et) in tgdb.schema.outgoing(primary_ty) {
        if covered_edges.contains(&et_id) {
            continue;
        }
        columns.push(ColumnSpec {
            name: unique(&et.name),
            kind: ColumnKind::Neighbor { edge: et_id },
        });
    }

    // Filter description, e.g. "Papers filtered by year > 2005 AND ...".
    let mut filters = Vec::new();
    for id in pattern.node_ids() {
        let n = pattern.node(id);
        if !n.filter.is_empty() {
            let tname = &tgdb.schema.node_type(n.node_type).name;
            let desc = n.filter.display_with(tgdb, n.node_type);
            filters.push(format!("{tname}.{desc}"));
        }
    }
    let filter_desc = if filters.is_empty() {
        String::new()
    } else {
        format!("filtered by {}", filters.join(" AND "))
    };

    EnrichedTable::new(nt.name.clone(), filter_desc, columns, tgdb, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etable::ColumnKind;
    use crate::ops;
    use crate::pattern::NodeFilter;
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;

    #[test]
    fn base_columns_match_node_type_attrs() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        assert_eq!(t.len(), 4);
        // id, title, year base columns.
        let base: Vec<&str> = t
            .columns
            .iter()
            .filter(|c| matches!(c.kind, ColumnKind::Base { .. }))
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(base, vec!["id", "title", "year"]);
    }

    #[test]
    fn neighbor_columns_cover_schema_edges() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        for name in [
            "Conferences",
            "Authors",
            "Paper_Keywords: keyword",
            "Papers (referenced)",
            "Papers (referencing)",
        ] {
            assert!(t.column(name).is_some(), "missing neighbor column {name}");
        }
    }

    #[test]
    fn rows_have_no_duplicates() {
        // The key property motivating ETable: one row per primary entity,
        // however many authors/keywords it has.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let q = ops::shift(&q, crate::pattern::PatternNodeId(0)).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        let mut nodes: Vec<_> = t.rows.iter().map(|r| r.node).collect();
        let before = nodes.len();
        nodes.sort();
        nodes.dedup();
        assert_eq!(before, nodes.len());
        assert_eq!(before, 4);
    }

    #[test]
    fn participating_column_respects_filters() {
        // Papers joined with SIGMOD conference: participating Conferences
        // column lists only SIGMOD, and rows shrink to SIGMOD papers.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ce, _) = tgdb.schema.outgoing_by_name(papers, "Conferences").unwrap();
        let q = ops::add(&tgdb, &q, ce).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
        let q = ops::shift(&q, crate::pattern::PatternNodeId(0)).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        assert_eq!(t.len(), 2); // papers 10 and 11
        let col = t.column_index("Conferences").unwrap();
        assert!(matches!(
            t.columns[col].kind,
            ColumnKind::Participating { .. }
        ));
        for row in t.rows.iter() {
            let refs = row.cells[col].refs().unwrap();
            assert_eq!(refs.len(), 1);
            assert_eq!(t.label(refs.clone().next().unwrap()), "SIGMOD".into());
        }
    }

    #[test]
    fn neighbor_column_suppressed_when_participating_covers_it() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ce, _) = tgdb.schema.outgoing_by_name(papers, "Conferences").unwrap();
        let q = ops::add(&tgdb, &q, ce).unwrap();
        let q = ops::shift(&q, crate::pattern::PatternNodeId(0)).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        // Exactly one "Conferences" column: the participating one.
        let count = t
            .columns
            .iter()
            .filter(|c| c.name.starts_with("Conferences"))
            .count();
        assert_eq!(count, 1);
        assert!(matches!(
            t.column("Conferences").unwrap().kind,
            ColumnKind::Participating { .. }
        ));
    }

    #[test]
    fn neighbor_cells_are_unfiltered() {
        // Even when papers are filtered to SIGMOD, the Authors neighbor
        // column still shows *all* authors of each surviving row.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ce, _) = tgdb.schema.outgoing_by_name(papers, "Conferences").unwrap();
        let q = ops::add(&tgdb, &q, ce).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
        let q = ops::shift(&q, crate::pattern::PatternNodeId(0)).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        let usable = t
            .rows
            .iter()
            .find(|r| {
                r.cells[1]
                    .value()
                    .is_some_and(|v| v.to_string().contains("usable"))
            })
            .unwrap();
        let authors = t.column_index("Authors").unwrap();
        assert_eq!(usable.cells[authors].ref_count(), 2);
    }

    #[test]
    fn filter_description_lists_conditions() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        assert!(t.filter_desc.contains("year > 2005"), "{}", t.filter_desc);
    }

    #[test]
    fn figure8_toy_example() {
        // Reproduces the shape of Figure 8: conferences x papers x authors
        // x institutions, pivoted to Authors — each author row lists their
        // papers without duplication.
        let tgdb = academic_tgdb();
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = ops::initiate(&tgdb, confs).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
        let q = ops::add(&tgdb, &q, pe).unwrap();
        let papers_ty = q.primary_node().node_type;
        let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let t = execute(&tgdb, &q).unwrap();
        // Authors of SIGMOD papers: Jagadish, Nandi, Kwon.
        assert_eq!(t.len(), 3);
        let papers_col = t.column_index("Papers").unwrap();
        for row in t.rows.iter() {
            assert!(row.cells[papers_col].ref_count() >= 1);
        }
    }
}
