//! Plain-text rendering of enriched tables, query-pattern diagrams, schema
//! graphs and session histories.
//!
//! The original ETable front-end is an HTML/D3 web app; the renderer here
//! reproduces the *information* of Figures 1, 4, 6, 7 and 9 in a terminal,
//! which keeps every figure reproducible and testable.

use crate::etable::{Cell, EnrichedTable};
use crate::session::Session;
use etable_tgm::Tgdb;
use std::fmt::Write;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Maximum rows rendered (the UI paginates; Figure 1 shows ~11).
    pub max_rows: usize,
    /// Maximum entity references listed per cell before eliding (the UI
    /// shows ~5 labels plus the count).
    pub max_refs: usize,
    /// Maximum characters per label before truncation with `…`.
    pub max_label: usize,
    /// Maximum width of a cell in characters.
    pub max_cell: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            max_rows: 12,
            max_refs: 5,
            max_label: 10,
            max_cell: 28,
        }
    }
}

/// Truncates a string to `n` characters, appending `…` when shortened
/// (labels in Figure 1 appear as e.g. "H. V. Jaga…").
pub fn truncate(s: &str, n: usize) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() <= n {
        s.to_string()
    } else {
        let mut out: String = chars[..n.saturating_sub(1)].iter().collect();
        out.push('…');
        out
    }
}

fn render_cell(t: &EnrichedTable, cell: &Cell, opts: &RenderOptions) -> String {
    match cell {
        Cell::Atomic(v) => truncate(&v.to_string(), opts.max_cell),
        Cell::Refs(refs) => {
            let refs = refs.ids();
            let shown: Vec<String> = (refs.clone())
                .take(opts.max_refs)
                .map(|r| truncate(&t.label_text(r), opts.max_label))
                .collect();
            let mut text = format!("{} | {}", refs.len(), shown.join(", "));
            if refs.len() > opts.max_refs {
                text.push('…');
            }
            truncate(&text, opts.max_cell)
        }
    }
}

/// Renders an enriched table as fixed-width text (the main view, Figure 1).
pub fn render_etable(t: &EnrichedTable, opts: &RenderOptions) -> String {
    let mut out = String::new();
    let title = if t.filter_desc.is_empty() {
        t.primary_type_name.clone()
    } else {
        format!("{} {}", t.primary_type_name, t.filter_desc)
    };
    let _ = writeln!(out, "== {title} ==");

    let headers: Vec<String> = t
        .columns
        .iter()
        .map(|c| truncate(&c.name, opts.max_cell))
        .collect();
    // The shown rows' cells, column by column, and each column's width.
    // Reading the page's last row first puts the page in order at once.
    let _ = t.node_at(opts.max_rows.min(t.len()).saturating_sub(1));
    let body: Vec<Vec<String>> = (0..t.columns.len())
        .map(|c| {
            t.column_values(c)
                .take(opts.max_rows)
                .map(|cell| render_cell(t, &cell, opts))
                .collect()
        })
        .collect();
    let widths: Vec<usize> = headers
        .iter()
        .zip(&body)
        .map(|(h, col)| {
            col.iter()
                .fold(h.chars().count(), |w, s| w.max(s.chars().count()))
        })
        .collect();
    let pad = |s: &str, w: usize| {
        let mut out = s.to_string();
        let len = s.chars().count();
        for _ in len..w {
            out.push(' ');
        }
        out
    };
    let _ = writeln!(
        out,
        "| {} |",
        headers
            .iter()
            .zip(&widths)
            .map(|(h, &w)| pad(h, w))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let _ = writeln!(
        out,
        "|{}|",
        widths
            .iter()
            .map(|&w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for r in 0..t.len().min(opts.max_rows) {
        let _ = writeln!(
            out,
            "| {} |",
            body.iter()
                .zip(&widths)
                .map(|(col, &w)| pad(&col[r], w))
                .collect::<Vec<_>>()
                .join(" | ")
        );
    }
    if t.len() > opts.max_rows {
        let _ = writeln!(out, "... {} more rows", t.len() - opts.max_rows);
    }
    out
}

/// Renders the TGDB schema graph (Figure 4): node types and the forward
/// edge types between them.
pub fn render_schema(tgdb: &Tgdb) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== TGDB schema graph ==");
    let _ = writeln!(out, "node types:");
    for (_, nt) in tgdb.schema.node_types() {
        let attrs: Vec<&str> = nt.attrs.iter().map(|a| a.name.as_str()).collect();
        let _ = writeln!(
            out,
            "  [{}] ({}) attrs: {} label: {}",
            nt.name,
            nt.kind,
            attrs.join(", "),
            nt.attrs[nt.label_attr].name
        );
    }
    let _ = writeln!(out, "edge types:");
    for (_, et) in tgdb.schema.edge_types() {
        if !et.forward {
            continue; // reverse directions are implied
        }
        let src = &tgdb.schema.node_type(et.source).name;
        let tgt = &tgdb.schema.node_type(et.target).name;
        let _ = writeln!(
            out,
            "  [{src}] --{}--> [{tgt}]  ({}; {})",
            et.name,
            et.kind,
            et.source_desc()
        );
    }
    out
}

/// Renders the history view (Figure 9 component 4).
pub fn render_history(session: &Session) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== HISTORY ==");
    for (i, step) in session.history().iter().enumerate() {
        let _ = writeln!(out, "{}. {}", i + 1, step.description);
    }
    out
}

/// Renders the full interface state (Figure 9): default table list, main
/// view, schema view, history view.
pub fn render_session(session: &mut Session, opts: &RenderOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== ETABLE BUILDER: choose a table ==");
    for (_, name) in session.default_table_list() {
        let _ = writeln!(out, "  * {name}");
    }
    let _ = writeln!(out);
    match session.etable() {
        Ok(t) => {
            out.push_str(&render_etable(&t, opts));
        }
        Err(_) => {
            let _ = writeln!(out, "(no table open)");
        }
    }
    let _ = writeln!(out);
    if let Some(p) = session.current_pattern() {
        let _ = writeln!(out, "== SCHEMA VIEW (query pattern) ==");
        out.push_str(&p.diagram(session.tgdb()));
        let _ = writeln!(out);
    }
    out.push_str(&render_history(session));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::NodeFilter;
    use crate::testutil::academic_tgdb;
    use crate::{ops, transform};
    use etable_relational::expr::CmpOp;

    #[test]
    fn truncate_behaviour() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("H. V. Jagadish", 10), "H. V. Jag…");
        assert_eq!(truncate("ab", 2), "ab");
    }

    #[test]
    fn etable_rendering_contains_counts_and_labels() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let t = transform::execute(&tgdb, &q).unwrap();
        let text = render_etable(&t, &RenderOptions::default());
        assert!(text.contains("Authors"));
        // "Making database systems usable" has 2 authors -> "2 | ".
        assert!(text.contains("2 | "), "{text}");
    }

    #[test]
    fn schema_rendering_lists_forward_edges_once() {
        let tgdb = academic_tgdb();
        let text = render_schema(&tgdb);
        assert!(text.contains("[Papers]"));
        assert!(text.contains("--Authors-->"));
        // Reverse direction is implied, not listed.
        let occurrences = text.matches("many-to-many relationship").count();
        let forward_mn = tgdb
            .schema
            .edge_types()
            .filter(|(_, e)| e.forward && e.kind == etable_tgm::EdgeTypeKind::ManyToMany)
            .count();
        assert_eq!(occurrences, forward_mn);
    }

    #[test]
    fn session_rendering_shows_all_four_components() {
        let tgdb = academic_tgdb();
        let mut s = crate::session::Session::new(std::sync::Arc::new(tgdb));
        s.open_by_name("Papers").unwrap();
        s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2010)).unwrap();
        let text = render_session(&mut s, &RenderOptions::default());
        assert!(text.contains("choose a table"));
        assert!(text.contains("== Papers"));
        assert!(text.contains("SCHEMA VIEW"));
        assert!(text.contains("HISTORY"));
        assert!(text.contains("2. Filter 'Papers'"));
    }

    #[test]
    fn long_tables_elide_rows() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let t = transform::execute(&tgdb, &q).unwrap();
        let opts = RenderOptions {
            max_rows: 2,
            ..Default::default()
        };
        let text = render_etable(&t, &opts);
        assert!(text.contains("... 2 more rows"));
    }
}
