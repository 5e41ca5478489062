//! Descriptive statistics over a typed graph database: per-type node
//! counts, per-edge-type degree distributions, and a text summary. Used by
//! the figure harnesses and by tests asserting the synthetic data keeps the
//! skewed shape of the paper's DBLP/ACM crawl.

use crate::ids::EdgeTypeId;
use crate::tgdb::Tgdb;

/// Degree distribution summary for one edge type.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Edge type name.
    pub edge_name: String,
    /// Number of source nodes (including zero-degree ones).
    pub sources: usize,
    /// Total edges.
    pub total: usize,
    /// Minimum out-degree.
    pub min: usize,
    /// Maximum out-degree.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Median out-degree.
    pub median: usize,
    /// Fraction of source nodes with degree zero.
    pub zero_fraction: f64,
}

/// Computes the out-degree distribution of one edge type over all nodes of
/// its source type.
pub fn degree_stats(tgdb: &Tgdb, edge: EdgeTypeId) -> DegreeStats {
    let et = tgdb.schema.edge_type(edge);
    let sources = tgdb.instances.nodes_of_type(et.source);
    let mut degrees: Vec<usize> = sources
        .iter()
        .map(|n| tgdb.instances.degree(edge, n))
        .collect();
    degrees.sort_unstable();
    let n = degrees.len();
    let total: usize = degrees.iter().sum();
    let zero = degrees.iter().filter(|&&d| d == 0).count();
    DegreeStats {
        edge_name: et.name.clone(),
        sources: n,
        total,
        min: degrees.first().copied().unwrap_or(0),
        max: degrees.last().copied().unwrap_or(0),
        mean: if n == 0 { 0.0 } else { total as f64 / n as f64 },
        median: if n == 0 { 0 } else { degrees[n / 2] },
        zero_fraction: if n == 0 { 0.0 } else { zero as f64 / n as f64 },
    }
}

/// A whole-database summary: one line per node type and per forward edge
/// type.
pub fn summary(tgdb: &Tgdb) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "node types:");
    for (id, nt) in tgdb.schema.node_types() {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} nodes ({})",
            nt.name,
            tgdb.instances.nodes_of_type(id).len(),
            nt.kind
        );
    }
    let _ = writeln!(out, "edge types (forward directions):");
    for (id, et) in tgdb.schema.edge_types() {
        if !et.forward {
            continue;
        }
        let s = degree_stats(tgdb, id);
        let _ = writeln!(
            out,
            "  {:<28} {:>8} edges  degree min/med/mean/max = {}/{}/{:.2}/{}",
            et.name, s.total, s.min, s.median, s.mean, s.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tgdb() -> Tgdb {
        // Reuse the translate-module fixture through a small local build.
        use etable_relational::database::Database;
        use etable_relational::schema::{Column, ForeignKey, TableSchema};
        use etable_relational::value::DataType;
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "P",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "C",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("p_id", DataType::Int),
                    Column::new("label", DataType::Text),
                ],
            )
            .with_primary_key(&["id"])
            .with_foreign_key(ForeignKey::single("p_id", "P", "id")),
        )
        .unwrap();
        db.insert("P", vec![1.into(), "a".into()]).unwrap();
        db.insert("P", vec![2.into(), "b".into()]).unwrap();
        db.insert("C", vec![10.into(), 1.into(), "x".into()])
            .unwrap();
        db.insert("C", vec![11.into(), 1.into(), "y".into()])
            .unwrap();
        crate::translate::translate(&db, &crate::translate::TranslateOptions::default()).unwrap()
    }

    #[test]
    fn degree_stats_count_correctly() {
        let t = tgdb();
        let (p, _) = t.schema.node_type_by_name("P").unwrap();
        // Reverse FK edge: P -> C, degrees are [2, 0].
        let (et, _) = t.schema.outgoing_by_name(p, "C").unwrap();
        let s = degree_stats(&t, et);
        assert_eq!(s.sources, 2);
        assert_eq!(s.total, 2);
        assert_eq!(s.max, 2);
        assert_eq!(s.min, 0);
        assert!((s.mean - 1.0).abs() < 1e-12);
        assert!((s.zero_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_everything() {
        let t = tgdb();
        let text = summary(&t);
        assert!(text.contains("node types:"));
        assert!(text.contains("edge types"));
        assert!(text.contains("P "));
        assert!(text.contains("degree min/med/mean/max"));
    }
}
