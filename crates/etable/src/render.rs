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
    let mut out = s.to_string();
    cut(&mut out, 0, n);
    out
}

/// Truncates `text[start..]` in place as [`truncate`] does, returning its
/// width in characters.
fn cut(text: &mut String, start: usize, n: usize) -> usize {
    let width = text[start..].chars().count();
    if width <= n {
        return width;
    }
    let keep = text[start..].char_indices().nth(n.saturating_sub(1));
    text.truncate(start + keep.map_or(0, |(at, _)| at));
    text.push('…');
    n.max(1)
}

/// Renders an enriched table as fixed-width text (the main view, Figure 1):
/// every header and shown cell is written into one arena and cut in place,
/// then the lines are written into one buffer.
pub fn render_etable(t: &EnrichedTable, opts: &RenderOptions) -> String {
    let (rows, cols) = (t.len().min(opts.max_rows), t.columns.len());
    let mut arena = String::with_capacity(16 * cols * (rows + 1));
    // (start, end, width) of each header, then of each cell column by column.
    let mut spans = Vec::with_capacity(cols * (rows + 1));
    let mut close = |arena: &mut String, start: usize| {
        let width = cut(arena, start, opts.max_cell);
        spans.push((start, arena.len(), width));
    };
    for column in &t.columns {
        let start = arena.len();
        arena.push_str(&column.name);
        close(&mut arena, start);
    }
    t.read_page(rows, |cell, label| {
        let start = arena.len();
        match cell {
            Cell::Atomic(v) => {
                let _ = write!(arena, "{v}");
            }
            Cell::Refs(refs) => {
                let refs = refs.ids();
                let more = refs.len() > opts.max_refs;
                let _ = write!(arena, "{} | ", refs.len());
                // Past `max_cell` characters the cell's shown text is fixed.
                let mut width = arena.len() - start;
                for (i, id) in refs.take(opts.max_refs).enumerate() {
                    if width > opts.max_cell {
                        break;
                    }
                    if i > 0 {
                        arena.push_str(", ");
                        width += 2;
                    }
                    let at = arena.len();
                    let _ = write!(arena, "{}", label(id));
                    width += cut(&mut arena, at, opts.max_label);
                }
                if more {
                    arena.push('…');
                }
            }
        }
        close(&mut arena, start);
    });
    let widths: Vec<usize> = (0..cols)
        .map(|c| (spans[cols + c * rows..][..rows].iter()).fold(spans[c].2, |w, s| w.max(s.2)))
        .collect();
    let line = widths.iter().sum::<usize>() + 3 * cols + 4;
    let mut out = String::with_capacity(64 + arena.len() + (rows + 2) * line);
    let gap = if t.filter_desc.is_empty() { "" } else { " " };
    let _ = writeln!(out, "== {}{gap}{} ==", t.primary_type_name, t.filter_desc);
    // Row `r` of the page, or the header when `r` is `None`.
    let emit = |out: &mut String, r: Option<usize>| {
        out.push_str("| ");
        for (c, &w) in widths.iter().enumerate() {
            let (start, end, width) = spans[r.map_or(c, |r| cols + c * rows + r)];
            if c > 0 {
                out.push_str(" | ");
            }
            out.push_str(&arena[start..end]);
            out.extend(std::iter::repeat_n(' ', w - width));
        }
        out.push_str(" |\n");
    };
    emit(&mut out, None);
    out.push('|');
    for (c, &w) in widths.iter().enumerate() {
        if c > 0 {
            out.push('|');
        }
        out.extend(std::iter::repeat_n('-', w + 2));
    }
    out.push_str("|\n");
    for r in 0..rows {
        emit(&mut out, Some(r));
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
    use etable_relational::database::Database;
    use etable_relational::expr::CmpOp;
    use etable_relational::schema::{Column, ForeignKey, TableSchema};
    use etable_relational::value::{DataType, Value};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The renderer as first written, kept as the one-pass renderer's
    /// byte-identity oracle: a `String` per cell, label and padded cell,
    /// every line a joined `Vec`.
    mod reference {
        use crate::etable::{Cell, EnrichedTable};
        use crate::render::RenderOptions;
        use std::fmt::Write;

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
    }

    #[test]
    fn truncate_behaviour() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("H. V. Jagadish", 10), "H. V. Jag…");
        assert_eq!(truncate("ab", 2), "ab");
    }

    /// Cuts fall on character boundaries, never inside a multi-byte
    /// character, and `n` = 0, 1 and the length behave as the reference.
    #[test]
    fn truncate_counts_characters_not_bytes() {
        for s in [
            "",
            "a",
            "Łukasz",
            "数据库",
            "abcdefghi数据库",
            "é",
            "Zoë Ångström",
        ] {
            let len = s.chars().count();
            for n in [0, 1, 2, 9, 10, len.saturating_sub(1), len, len + 1] {
                assert_eq!(truncate(s, n), reference::truncate(s, n), "{s:?} at {n}");
            }
            assert_eq!(truncate(s, len), s);
        }
        assert_eq!(truncate("数据库", 0), "…");
        assert_eq!(truncate("数据库", 1), "…");
        assert_eq!(truncate("数据库", 2), "数…");
        assert_eq!(truncate("", 0), "");
        // `数` straddles byte 10: the cut keeps whole characters.
        assert_eq!(truncate("abcdefghi数据库", 10), "abcdefghi…");
        assert_eq!(truncate("Łukasz", 3), "Łu…");
    }

    /// `PROPTEST_CASES`, else `default`.
    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(default)
    }

    /// People with multi-byte, empty and NULL names and FLOAT scores
    /// (NULL, -0.0, 1e21) in groups with multi-byte titles, one of them
    /// with `数` straddling a 10-character cut.
    fn multibyte_tgdb() -> Tgdb {
        let mut db = Database::new();
        let groups = TableSchema::new(
            "Groups",
            vec![
                Column::new("id", DataType::Int),
                Column::new("title", DataType::Text),
            ],
        );
        db.create_table(groups.with_primary_key(&["id"])).unwrap();
        let people = TableSchema::new(
            "People",
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("name", DataType::Text),
                Column::nullable("score", DataType::Float),
                Column::nullable("lead_of", DataType::Int),
            ],
        )
        .with_primary_key(&["id"])
        .with_foreign_key(ForeignKey::single("lead_of", "Groups", "id"));
        db.create_table(people).unwrap();
        let member = TableSchema::new(
            "Member",
            vec![
                Column::new("person_id", DataType::Int),
                Column::new("group_id", DataType::Int),
            ],
        )
        .with_primary_key(&["person_id", "group_id"])
        .with_foreign_key(ForeignKey::single("person_id", "People", "id"))
        .with_foreign_key(ForeignKey::single("group_id", "Groups", "id"));
        db.create_table(member).unwrap();
        let titles = [
            "数据库",
            "Łukasz's group",
            "",
            "abcdefghi数据库",
            "Zoë Ångström",
        ];
        for (id, title) in (0i64..).zip(titles) {
            db.insert("Groups", vec![Value::Int(id), title.into()])
                .unwrap();
        }
        let people: [(Value, Value, Value); 6] = [
            ("Łukasz".into(), Value::Float(1.5), Value::Int(0)),
            ("数据库".into(), Value::Null, Value::Null),
            (Value::Null, Value::Float(-0.0), Value::Int(3)),
            ("".into(), Value::Float(1e21), Value::Null),
            (
                "Zoë Ångström-Łukasiewicz".into(),
                Value::Float(0.1),
                Value::Int(1),
            ),
            (
                "abcdefghi数据库xyz".into(),
                Value::Float(-2.25),
                Value::Null,
            ),
        ];
        for (id, (name, score, lead)) in (0i64..).zip(people) {
            db.insert("People", vec![Value::Int(id), name, score, lead])
                .unwrap();
        }
        for (p, g) in [
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 0),
            (2, 3),
            (4, 0),
            (4, 4),
            (5, 3),
        ] {
            db.insert("Member", vec![Value::Int(p), Value::Int(g)])
                .unwrap();
        }
        etable_tgm::translate(&db, &Default::default()).unwrap()
    }

    /// The number of tables in the menu.
    const MENU: usize = 10;

    /// Table `which` of the menu: academic tables with neighbor and
    /// participating columns, and the multi-byte fixture's. Table 8 is
    /// three hops from its primary (Conferences) to Institutions, and
    /// table 9 branches at its primary (Papers): Authors → Institutions on
    /// one side, Conferences on the other. A hidden column there can be an
    /// ancestor of a shown one on the walk.
    fn menu_table(academic: &Arc<Tgdb>, multibyte: &Arc<Tgdb>, which: usize) -> EnrichedTable {
        let chain = ["Institutions", "Authors", "Papers", "Conferences", "Papers"];
        let (tgdb, steps): (&Arc<Tgdb>, &[&str]) = match which {
            0 => (academic, &["Papers"]),
            1 => (academic, &["Authors"]),
            2 => (academic, &["Papers", "Authors"]),
            3 => (academic, &["Conferences", "=SIGMOD", "Papers"]),
            4 => (academic, &chain[..3]),
            5 => (multibyte, &["People"]),
            6 => (multibyte, &["Groups"]),
            7 => (multibyte, &["Groups", "People"]),
            8 => (academic, &chain[..4]),
            _ => (academic, &chain),
        };
        let mut s = Session::new(Arc::clone(tgdb));
        s.open_by_name(steps[0]).unwrap();
        for step in &steps[1..] {
            match step.strip_prefix('=') {
                Some(acronym) => s.filter(NodeFilter::cmp("acronym", CmpOp::Eq, acronym)),
                None => s.pivot(step),
            }
            .unwrap();
        }
        s.etable().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(64)))]

        /// The one-pass renderer writes the reference's bytes for every
        /// table of the menu, sorted on any column either way or not,
        /// with any columns hidden (all of them included), under random
        /// options down to 0 rows, references, label and cell characters.
        #[test]
        fn one_pass_render_equals_the_reference(
            which in 0usize..MENU,
            sort in 0usize..24,
            hide in 0u32..512,
            max_rows in 0usize..=40,
            max_refs in 0usize..=8,
            max_label in 0usize..=12,
            max_cell in 0usize..=40,
        ) {
            let (academic, multibyte) = (Arc::new(academic_tgdb()), Arc::new(multibyte_tgdb()));
            let mut t = menu_table(&academic, &multibyte, which);
            if sort / 2 < t.columns.len() {
                t.sort_by_column(sort / 2, sort % 2 == 1);
            }
            let hidden: Vec<String> = (t.columns.iter().enumerate())
                .filter(|&(i, _)| hide >> i & 1 == 1)
                .map(|(_, c)| c.name.clone())
                .collect();
            t.drop_columns(|c| hidden.contains(&c.name));
            let opts = RenderOptions { max_rows, max_refs, max_label, max_cell };
            prop_assert_eq!(render_etable(&t, &opts), reference::render_etable(&t, &opts));
        }
    }

    /// Every table of the menu, whole, under the default options and the
    /// edge options, renders the reference's bytes.
    #[test]
    fn every_menu_table_renders_the_reference_bytes() {
        let (academic, multibyte) = (Arc::new(academic_tgdb()), Arc::new(multibyte_tgdb()));
        let edges = [
            (12, 5, 10, 28),
            (0, 0, 0, 0),
            (40, 1, 1, 1),
            (3, 8, 12, 0),
            (40, 8, 0, 40),
        ];
        for which in 0..MENU {
            let t = menu_table(&academic, &multibyte, which);
            for (max_rows, max_refs, max_label, max_cell) in edges {
                let opts = RenderOptions {
                    max_rows,
                    max_refs,
                    max_label,
                    max_cell,
                };
                assert_eq!(
                    render_etable(&t, &opts),
                    reference::render_etable(&t, &opts),
                    "table {which}, {opts:?}"
                );
            }
        }
        let people = render_etable(
            &menu_table(&academic, &multibyte, 5),
            &RenderOptions::default(),
        );
        // An empty label between two, and 1e21 as `Display` writes it.
        assert!(
            people.contains("| 5 | 数据库, Łukasz's …, , abcd… |"),
            "{people}"
        );
        assert!(people.contains("| 1000000000000000000000 |"), "{people}");
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
