//! The enriched table: the presentation data model's result format (§5.1).
//!
//! Each row represents one node of the primary node type; columns are
//! base attributes `Ab`, participating node columns `At`, or neighbor node
//! columns `Ah` (§5.4.2). Entity-reference cells hold clickable labels, not
//! foreign keys, mirroring hyperlinks (§5.1).
//!
//! A table is a window onto the graph: a header, a sort if one is set, and
//! what a cell is computed from — the instance graph and the matching
//! result, both shared `Arc`s. Its rows are the match's primary rows, read
//! in place ([`MatchResult::rows`]), not copied. No cell is stored. A cell
//! is built when someone reads it: a base value through the graph, a
//! neighbor cell as the node's shared run of the buffer its edge type is
//! read from ([`IdSlice`]), a participating cell as the frontier of its
//! pattern node in one walk of the pattern tree from the row.
//!
//! The pattern tree is resolved from the primary once, when the table is
//! made, into hops, parents first; a participating column names its hop.
//! A read walks each row once, for the hops its columns need and the hops
//! they start from: a page's or a row's participating cells share their
//! path prefixes, and a lone cell walks only its own chain.
//!
//! The order is lazy too. A sort builds one word per row for the column
//! sorted; a read orders only the prefix it reaches, with ORDER BY …
//! LIMIT's kernel ([`order_prefix`]), and a read past it at least doubles
//! it. Copies of a table share its order. The table stays `Send` and
//! self-contained after the graph handle is gone.

use crate::matching::{mark_chain, Frontiers, Hop, MatchResult};
use crate::pattern::PatternNodeId;
use crate::{work, Error, Result};
use etable_relational::colrel::order_prefix;
use etable_relational::table::ColumnStore;
use etable_relational::value::Value;
use etable_tgm::{EdgeTypeId, IdSlice, InstanceGraph, NodeId, Tgdb};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// One cell of an enriched table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An atomic value (base-attribute column).
    Atomic(Value),
    /// A set of entity references (entity-reference column), each a
    /// clickable label in the UI ([`EnrichedTable::label`]). The count shown
    /// in the cell corner is the slice's length.
    Refs(IdSlice),
}

impl Cell {
    /// Number of references (0 for atomic cells).
    pub fn ref_count(&self) -> usize {
        match self {
            Cell::Atomic(_) => 0,
            Cell::Refs(r) => r.ids().len(),
        }
    }

    /// The referenced nodes, if this is a reference cell.
    pub fn refs(&self) -> Option<impl ExactSizeIterator<Item = NodeId> + Clone + '_> {
        match self {
            Cell::Atomic(_) => None,
            Cell::Refs(r) => Some(r.ids()),
        }
    }

    /// The atomic value, if this is an atomic cell.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Cell::Atomic(v) => Some(v),
            Cell::Refs(_) => None,
        }
    }
}

/// What a column presents (§5.4.2's three column kinds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnKind {
    /// `Ab`: a base attribute of the primary node type.
    Base {
        /// Attribute position in the node type.
        attr: usize,
    },
    /// `At`: a participating node column (entities bound to a non-primary
    /// pattern node, filtered by the whole query pattern).
    Participating {
        /// The pattern node this column tracks.
        node: PatternNodeId,
    },
    /// `Ah`: a neighbor node column (all schema-graph neighbors along one
    /// edge type, regardless of the pattern).
    Neighbor {
        /// The edge type leaving the primary node type.
        edge: EdgeTypeId,
    },
}

/// A column of an enriched table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Display name (attribute name, node type name, or edge name).
    pub name: String,
    /// What the column presents.
    pub kind: ColumnKind,
}

/// One row with all its cells built: what [`ETableRows`] yields.
#[derive(Debug, Clone, PartialEq)]
pub struct ETableRow {
    /// The primary node this row represents.
    pub node: NodeId,
    /// Cells, positionally matching the table's columns.
    pub cells: Vec<Cell>,
}

/// Where a column's cells come from: its [`ColumnKind`], with a
/// participating column's pattern node resolved to its hop of the walk
/// when the table is made, so no read can fail.
#[derive(Debug, Clone)]
enum Source {
    Base(usize),
    Neighbor(EdgeTypeId),
    Participating(usize),
}

/// The rows of an enriched table: the sort on the matched primary rows if
/// one is set, one `Source` per column, and the shared graph and matching
/// result the rows are read from and the cells computed from.
///
/// Read a table through [`EnrichedTable::nodes`], [`EnrichedTable::cell`],
/// [`EnrichedTable::ref_count`] and [`EnrichedTable::column_values`]. This
/// view builds whole rows one at a time ([`ETableRows::iter`]); it is
/// public for tests and for the frozen `benchmark/` harness (ROADMAP 1(b)).
#[derive(Clone)]
pub struct ETableRows {
    /// Shared by every copy: what one copy orders, all have in order.
    order: Option<Arc<Mutex<Order>>>,
    sources: Vec<Source>,
    /// The pattern tree walked from the primary, parents first.
    hops: Vec<Hop>,
    graph: Arc<InstanceGraph>,
    /// Its primary rows, ascending, are the rows in the order the table
    /// was made with.
    matched: Arc<MatchResult>,
}

/// A sort of the rows: one word per row, its key above its position (so
/// the words order as a stable sort by key), the first `done` in order.
struct Order {
    words: Vec<u128>,
    done: usize,
}

/// What a pass over rows reads their participating cells with: the hops
/// its columns need walked (the hops they start from included; `walks`:
/// any), and the frontiers each row's walk fills, reused from row to row.
struct Reader {
    needs: Vec<bool>,
    walks: bool,
    walk: Frontiers,
}

impl ETableRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.matched.rows().len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The top row, with its cells built.
    pub fn first(&self) -> Option<ETableRow> {
        self.iter().next()
    }

    /// Every row top to bottom, each built when the iterator reaches it.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ETableRow> + '_ {
        let mut reader = self.reader(&self.sources);
        (0..self.len()).map(|row| self.node(row)).map(move |node| {
            self.walk(node, &mut reader);
            ETableRow {
                node,
                cells: (self.sources.iter())
                    .map(|source| self.cell(node, source, &reader))
                    .collect(),
            }
        })
    }

    /// The node shown at row `row` (`< len`). A read past the ordered rows
    /// orders through `row` and at least doubles them: all rows, one sort.
    /// A sort only permutes the unordered rest, so a poisoned order holds.
    fn node(&self, row: usize) -> NodeId {
        let Some(order) = &self.order else {
            return self.matched.primary_at(row);
        };
        let mut order = order.lock().unwrap_or_else(PoisonError::into_inner);
        self.order_to(&mut order, row + 1);
        self.matched.primary_at(order.words[row] as u32 as usize)
    }

    /// The nodes of rows `0..n` (`n <= len`), ordered under one lock.
    fn page(&self, n: usize) -> Vec<NodeId> {
        let Some(order) = &self.order else {
            return self.matched.rows().take(n).collect();
        };
        let mut order = order.lock().unwrap_or_else(PoisonError::into_inner);
        self.order_to(&mut order, n);
        (order.words[..n].iter())
            .map(|&w| self.matched.primary_at(w as u32 as usize))
            .collect()
    }

    /// Puts rows `0..n` of `order` in order, at least doubling the ordered
    /// prefix when it grows.
    fn order_to(&self, order: &mut Order, n: usize) {
        let done = order.done;
        if n > done {
            let to = n.max(2 * done).min(self.len());
            order_prefix(&mut order.words, done, to, u128::cmp);
            order.done = to;
            work::count(|w| w.rows_ordered += (to - done) as u64);
        }
    }

    /// A reader of the cells of `sources`.
    fn reader<'s>(&self, sources: impl IntoIterator<Item = &'s Source>) -> Reader {
        let mut needs = vec![false; self.hops.len()];
        for source in sources {
            if let Source::Participating(at) = source {
                mark_chain(&self.hops, *at, &mut needs);
            }
        }
        Reader {
            walks: needs.contains(&true),
            needs,
            walk: Frontiers::default(),
        }
    }

    /// Walks the pattern tree from `node`'s row, once, for the hops
    /// `reader` needs: its participating cells are then read from the walk.
    fn walk(&self, node: NodeId, reader: &mut Reader) {
        if reader.walks {
            let (graph, hops) = (&self.graph, &self.hops);
            (self.matched).walk_row(graph, hops, &reader.needs, node, &mut reader.walk);
        }
    }

    /// The cell of `node` in the column `source` computes, a participating
    /// one from `reader`'s walk of `node`'s row.
    fn cell(&self, node: NodeId, source: &Source, reader: &Reader) -> Cell {
        match source {
            Source::Base(attr) => {
                let (first, columns) = self.base_columns();
                Cell::Atomic(columns[*attr].get((node.0 - first) as usize))
            }
            Source::Neighbor(edge) => Cell::Refs(self.graph.neighbor_slice(*edge, node)),
            Source::Participating(at) => Cell::Refs(reader.walk.at(*at).to_vec().into()),
        }
    }

    /// The primary type's first id and columns, where every row's base
    /// cells are (no search for a row's type).
    fn base_columns(&self) -> (u32, &[ColumnStore]) {
        let nt = self.matched.pattern.primary_node().node_type;
        (
            self.graph.nodes_of_type(nt).first().0,
            self.graph.columns(nt),
        )
    }

    /// The reference count of that cell, without building it.
    fn count(&self, node: NodeId, source: &Source, reader: &Reader) -> usize {
        match source {
            Source::Base(_) => 0,
            Source::Neighbor(edge) => self.graph.degree(*edge, node),
            Source::Participating(at) => reader.walk.at(*at).len(),
        }
    }

    /// The cells of column `source` for `nodes`, in their order.
    fn column<'a>(
        &'a self,
        source: &'a Source,
        nodes: impl ExactSizeIterator<Item = NodeId> + 'a,
    ) -> impl ExactSizeIterator<Item = Cell> + 'a {
        let mut reader = self.reader([source]);
        nodes.map(move |node| {
            self.walk(node, &mut reader);
            self.cell(node, source, &reader)
        })
    }
}

impl fmt::Debug for ETableRows {
    /// The rows' content; the graph and the matching result are not shown.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for ETableRows {
    /// Equal when every row has the same node and cells, wherever they
    /// were computed from.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// An enriched table (§5.1): the ETable presentation of a query result.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrichedTable {
    /// Name of the primary node type (table heading).
    pub primary_type_name: String,
    /// Human-readable description of the filters applied (table subtitle,
    /// as in Figure 1's "Papers filtered by ...").
    pub filter_desc: String,
    /// The columns. Hide one with [`EnrichedTable::drop_columns`], which
    /// keeps the rows in step.
    pub columns: Vec<ColumnSpec>,
    /// The rows, one per matched primary node, in display order.
    pub rows: ETableRows,
}

impl EnrichedTable {
    /// The table headed `primary_type_name` and `filter_desc` with
    /// `matched`'s rows under `columns`, whose participating columns name
    /// nodes of `matched.pattern` other than its primary: the pattern tree
    /// and every column's source are resolved here, once.
    pub(crate) fn new(
        primary_type_name: String,
        filter_desc: String,
        columns: Vec<ColumnSpec>,
        tgdb: &Tgdb,
        matched: &Arc<MatchResult>,
    ) -> Result<EnrichedTable> {
        let hops = matched.hops(tgdb)?;
        let source = |c: &ColumnSpec| {
            Ok(match c.kind {
                ColumnKind::Base { attr } => Source::Base(attr),
                ColumnKind::Neighbor { edge } => Source::Neighbor(edge),
                ColumnKind::Participating { node } => Source::Participating(
                    (hops.iter().position(|h| h.node == node))
                        .ok_or_else(|| Error::InvalidNode(format!("{node} out of range")))?,
                ),
            })
        };
        let rows = ETableRows {
            order: None,
            sources: columns.iter().map(source).collect::<Result<_>>()?,
            hops,
            graph: Arc::clone(&tgdb.instances),
            matched: Arc::clone(matched),
        };
        Ok(EnrichedTable {
            primary_type_name,
            filter_desc,
            columns,
            rows,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column position by display name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column spec by display name.
    pub fn column(&self, name: &str) -> Option<&ColumnSpec> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// The label of a referenced node (`NULL` for a node the graph does
    /// not have).
    pub fn label(&self, node: NodeId) -> Value {
        let graph = &self.rows.graph;
        if node.index() < graph.node_count() {
            graph.label(node)
        } else {
            Value::Null
        }
    }

    /// The label of any node of `node`'s type, from that type's label
    /// column, which is looked up once (for a run of labels of one type).
    pub(crate) fn type_labels(&self, node: NodeId) -> impl Fn(NodeId) -> Value + '_ {
        let graph = &self.rows.graph;
        let nt = graph.type_of(node);
        let (span, column) = (graph.nodes_of_type(nt), graph.label_column(nt));
        move |id| {
            debug_assert!(span.row(id).is_some(), "{id} is not of {nt}");
            column.get((id.0 - span.first().0) as usize)
        }
    }

    /// The label as display text; interned text is borrowed, not copied.
    pub fn label_text(&self, node: NodeId) -> Cow<'static, str> {
        match self.label(node) {
            Value::Text(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// The primary node of every row, top to bottom.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.len()).map(|row| self.rows.node(row))
    }

    /// The primary node of row `row`, if the table has that row. Reading
    /// row `r` of a sorted table first puts rows `0..=r` in order, so a
    /// page read from its last row is ordered at once.
    pub fn node_at(&self, row: usize) -> Option<NodeId> {
        (row < self.len()).then(|| self.rows.node(row))
    }

    /// The cell of row `row` in column `col`, if both exist, built now.
    pub fn cell(&self, row: usize, col: usize) -> Option<Cell> {
        let source = self.rows.sources.get(col)?;
        let node = self.node_at(row)?;
        self.rows.column(source, std::iter::once(node)).next()
    }

    /// The number of references in a cell (0 for an atomic cell or one
    /// the table does not have), counted without building the cell.
    pub fn ref_count(&self, row: usize, col: usize) -> usize {
        match (self.node_at(row), self.rows.sources.get(col)) {
            (Some(node), Some(source)) => {
                let mut reader = self.rows.reader([source]);
                self.rows.walk(node, &mut reader);
                self.rows.count(node, source, &reader)
            }
            _ => 0,
        }
    }

    /// The cells of column `col`, top to bottom, each built when the
    /// iterator reaches it.
    ///
    /// # Panics
    ///
    /// When `col` is not a column of the table.
    pub fn column_values(&self, col: usize) -> impl ExactSizeIterator<Item = Cell> + '_ {
        let rows = &self.rows;
        rows.column(
            &rows.sources[col],
            (0..self.len()).map(|row| rows.node(row)),
        )
    }

    /// The first `rows` rows as a page shows them: their nodes are read
    /// once, under one lock, each row's participating cells come from one
    /// walk of the row (for the hops the shown columns need, hidden
    /// ancestors included), and `visit(cell, label)` sees each column's
    /// cells top to bottom, columns left to right, where `label` reads the
    /// label of a node the cell refers to from its type's label column,
    /// looked up once per column (`type_labels`). Counts the cells built
    /// and the labels read (`work::Work::{page_cells, page_labels}`).
    pub fn read_page(
        &self,
        rows: usize,
        mut visit: impl FnMut(&Cell, &mut dyn FnMut(NodeId) -> Value),
    ) {
        let page = &self.rows;
        let nodes = page.page(rows.min(self.len()));
        let mut reader = page.reader(&page.sources);
        // The participating cells, row by row, one walk a row.
        let mut walked: Vec<Vec<Cell>> = vec![Vec::new(); page.sources.len()];
        if reader.walks {
            for &node in &nodes {
                page.walk(node, &mut reader);
                for (source, cells) in page.sources.iter().zip(&mut walked) {
                    if let Source::Participating(_) = source {
                        cells.push(page.cell(node, source, &reader));
                    }
                }
            }
        }
        let mut read = 0;
        for (source, walked) in page.sources.iter().zip(walked) {
            let (mut walked, mut labels) = (walked.into_iter(), None);
            for &node in &nodes {
                // Only a participating column has cells walked already.
                let cell = (walked.next()).unwrap_or_else(|| page.cell(node, source, &reader));
                if let (None, Some(id)) = (&labels, cell.refs().and_then(|mut ids| ids.next())) {
                    labels = Some(self.type_labels(id));
                }
                visit(&cell, &mut |id| {
                    read += 1;
                    labels.as_ref().map_or(Value::Null, |label| label(id))
                });
            }
        }
        let cells = (nodes.len() * page.sources.len()) as u64;
        work::count(|w| {
            w.page_cells += cells;
            w.page_labels += read;
        });
    }

    /// Every cell of column `col`, rows in the order the table was made
    /// with: a reader blind to order (the column ranker) orders nothing.
    pub(crate) fn unordered_cells(&self, col: usize) -> impl Iterator<Item = Cell> + '_ {
        let rows = &self.rows;
        rows.column(&rows.sources[col], rows.matched.rows())
    }

    /// Drops every column `drop` selects (the session's hidden columns):
    /// an edit of the header and of the column sources, with no cell to
    /// touch.
    pub fn drop_columns(&mut self, drop: impl Fn(&ColumnSpec) -> bool) {
        let keep: Vec<bool> = self.columns.iter().map(|c| !drop(c)).collect();
        let mut kept = keep.iter();
        self.columns.retain(|_| kept.next() == Some(&true));
        let mut kept = keep.iter();
        self.rows.sources.retain(|_| kept.next() == Some(&true));
    }

    /// Sorts rows by a column: atomic columns by value, reference columns
    /// by reference count (the paper's "Sort table by # of Papers
    /// (referenced)", Figure 1 history step 3). Stable: rows that tie keep
    /// the order the table was made with (a sort replaces the one before).
    ///
    /// Each row gets its word now — its key ([`Value::order_word`] over
    /// dictionary ranks, or a count), flipped when descending, above its
    /// position — and is put in order when read.
    ///
    /// # Panics
    ///
    /// When `column` is not a column of the table.
    pub fn sort_by_column(&mut self, column: usize, descending: bool) {
        let dict = etable_relational::intern::rank_map();
        let rows = &self.rows;
        let source = &rows.sources[column];
        let (first, columns) = rows.base_columns();
        let mut reader = rows.reader([source]);
        let mut key = |node: NodeId| match source {
            Source::Base(attr) => {
                let value = columns[*attr].get((node.0 - first) as usize);
                value.order_word(|s| dict.rank(s))
            }
            _ => {
                rows.walk(node, &mut reader);
                rows.count(node, source, &reader) as u128
            }
        };
        let flip = if descending { !0 << 32 } else { 0 };
        let words: Vec<u128> = (rows.matched.rows().zip(0u32..))
            .map(|(node, i)| ((key(node) << 32) ^ flip) | u128::from(i))
            .collect();
        work::count(|w| w.keys_built += words.len() as u64);
        self.rows.order = Some(Arc::new(Mutex::new(Order { words, done: 0 })));
    }

    /// Total number of entity references across all cells (used by the
    /// duplication-factor analysis: a relational join would repeat rows
    /// multiplicatively, an ETable only additively). Counted without
    /// building a cell, from one walk of each row.
    pub fn total_refs(&self) -> usize {
        let rows = &self.rows;
        let mut reader = rows.reader(&rows.sources);
        (rows.matched.rows())
            .map(|node| {
                rows.walk(node, &mut reader);
                let counts = rows.sources.iter().map(|s| rows.count(node, s, &reader));
                counts.sum::<usize>()
            })
            .sum()
    }
}

impl fmt::Display for EnrichedTable {
    /// Compact one-line summary; full rendering lives in [`crate::render`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ETable[{} rows of {}; {} columns]",
            self.rows.len(),
            self.primary_type_name,
            self.columns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{NodeFilter, PatternNodeId};
    use crate::{ops, transform};
    use etable_relational::database::Database;
    use etable_relational::expr::CmpOp;
    use etable_relational::schema::{Column, ForeignKey, TableSchema};
    use etable_relational::value::DataType;
    use etable_tgm::NodeTypeId;

    /// Papers `P(id, title)`, the title of type `title`, keyed by position
    /// and titled `titles` (each NULL or of type `title`), that cite papers
    /// (`Cites`) as `cites` lists by position, loaded through `translate`;
    /// and the forward citation edge type.
    fn papers(
        title: DataType,
        titles: &[Value],
        cites: &[(usize, usize)],
    ) -> (Tgdb, NodeTypeId, EdgeTypeId) {
        let mut db = Database::new();
        let p = TableSchema::new(
            "P",
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("title", title),
            ],
        );
        db.create_table(p.with_primary_key(&["id"])).unwrap();
        let cites_table = TableSchema::new(
            "Cites",
            vec![
                Column::new("src", DataType::Int),
                Column::new("dst", DataType::Int),
            ],
        )
        .with_primary_key(&["src", "dst"])
        .with_foreign_key(ForeignKey::single("src", "P", "id"))
        .with_foreign_key(ForeignKey::single("dst", "P", "id"));
        db.create_table(cites_table).unwrap();
        let key = |i: usize| Value::Int(i as i64);
        for (i, &t) in titles.iter().enumerate() {
            db.insert("P", vec![key(i), t]).unwrap();
        }
        for &(a, b) in cites {
            db.insert("Cites", vec![key(a), key(b)]).unwrap();
        }
        let tgdb = etable_tgm::translate(&db, &Default::default()).unwrap();
        let (p, _) = tgdb.schema.node_type_by_name("P").unwrap();
        let (cites, _) = (tgdb.schema.outgoing(p).into_iter())
            .find(|(_, e)| e.forward)
            .unwrap();
        (tgdb, p, cites)
    }

    /// Two papers, "B-paper" citing "A-paper" and an untitled paper,
    /// "A-paper" citing "B-paper": columns id, title and the two
    /// citation directions.
    fn table() -> EnrichedTable {
        let (tgdb, p, _) = papers(
            DataType::Text,
            &["B-paper".into(), "A-paper".into(), Value::Null],
            &[(0, 1), (0, 2), (1, 0)],
        );
        let q = ops::initiate(&tgdb, p).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("id", CmpOp::Lt, 2)).unwrap();
        transform::execute(&tgdb, &q).unwrap()
    }

    #[test]
    fn labels_resolve_through_the_shared_column() {
        let t = table();
        assert_eq!(
            t.columns[2].kind,
            ColumnKind::Neighbor {
                edge: papers(DataType::Text, &[], &[]).2
            }
        );
        let cell = t.cell(0, 2).unwrap();
        assert!(cell.refs().unwrap().eq([NodeId(1), NodeId(2)]));
        assert_eq!(t.label(NodeId(1)), "A-paper".into());
        assert_eq!(t.label_text(NodeId(1)), "A-paper");
        assert_eq!(t.label_text(NodeId(2)), "NULL");
        assert_eq!(t.label(NodeId(99)), Value::Null);
        // Cells compare by content, not by which buffer they point into.
        assert_eq!(
            t.cell(1, 2),
            Some(Cell::Refs(IdSlice::from(vec![NodeId(0)])))
        );
    }

    #[test]
    fn sort_by_atomic_column() {
        let mut t = table();
        t.sort_by_column(1, false);
        assert_eq!(t.cell(0, 1), Some(Cell::Atomic("A-paper".into())));
        assert_eq!(t.nodes().collect::<Vec<_>>(), [NodeId(1), NodeId(0)]);
    }

    #[test]
    fn sort_by_ref_count_descending() {
        let mut t = table();
        t.sort_by_column(3, true);
        assert_eq!(t.ref_count(0, 3), 1);
        t.sort_by_column(2, true);
        assert_eq!(t.ref_count(0, 2), 2);
    }

    /// The comparator the decorated sort replaced: built row against built
    /// row, reading the interner for every text comparison.
    fn oracle_sort(rows: &mut [ETableRow], column: usize, descending: bool) {
        rows.sort_by(|a, b| {
            let ord = match (&a.cells[column], &b.cells[column]) {
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

    /// SplitMix64: the test's own generator, seeded per case.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }
    }

    /// Random tables — an atomic column of ints, of floats with -0.0 beside
    /// 0.0, or of text interned out of lexicographic order, NULL in each,
    /// neighbor columns and a participating column, all full of ties — sort
    /// exactly as the old comparator sorted their built rows, ascending and
    /// descending. Every cell read alone, every column read whole and every
    /// count agree with the built rows.
    #[test]
    fn decorated_sort_matches_the_cell_comparator() {
        for w in [
            "sort-pear",
            "sort-Apple",
            "sort-fig",
            "sort-apple",
            "sort-",
            "sort-Fig",
        ] {
            let _ = Value::text(w);
        }
        let atoms: Vec<Value> = vec![
            Value::Null,
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(-2),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.5),
            "sort-fig".into(),
            "sort-Apple".into(),
            "sort-apple".into(),
            "sort-".into(),
            "sort-pear".into(),
        ];
        for seed in 0..400u64 {
            let mut rng = Mix(seed);
            let ty = [DataType::Int, DataType::Float, DataType::Text][rng.below(3)];
            let fit: Vec<Value> = (atoms.iter().copied())
                .filter(|v| v.data_type().is_none_or(|t| t == ty))
                .collect();
            let n = rng.below(40);
            let titles: Vec<Value> = (0..n).map(|_| fit[rng.below(fit.len())]).collect();
            let mut cites = Vec::new();
            for i in 0..n {
                for s in 0..rng.below(5.min(n)) {
                    cites.push((i, (i + 1 + s) % n));
                }
            }
            let (tgdb, p, et) = papers(ty, &titles, &cites);
            let bare = ops::initiate(&tgdb, p).unwrap();
            // Papers with the papers they cite as a participating column.
            let cited = ops::shift(&ops::add(&tgdb, &bare, et).unwrap(), PatternNodeId(0));
            for q in [bare, cited.unwrap()] {
                let t = transform::execute(&tgdb, &q).unwrap();
                let built: Vec<ETableRow> = t.rows.iter().collect();
                for (r, row) in built.iter().enumerate() {
                    for (c, cell) in row.cells.iter().enumerate() {
                        assert_eq!(t.cell(r, c).as_ref(), Some(cell), "seed {seed}");
                        assert_eq!(t.ref_count(r, c), cell.ref_count(), "seed {seed}");
                    }
                }
                for c in 0..t.columns.len() {
                    let whole: Vec<Cell> = t.column_values(c).collect();
                    assert!(whole.iter().eq(built.iter().map(|r| &r.cells[c])));
                }
                let refs = built.iter().flat_map(|r| &r.cells).map(Cell::ref_count);
                assert_eq!(t.total_refs(), refs.sum::<usize>());
                for column in 0..t.columns.len() {
                    for descending in [false, true] {
                        let mut got = t.clone();
                        got.sort_by_column(column, descending);
                        let mut want = built.clone();
                        oracle_sort(&mut want, column, descending);
                        let got: Vec<ETableRow> = got.rows.iter().collect();
                        assert_eq!(got, want, "seed {seed}, column {column}, desc {descending}");
                    }
                }
            }
        }
    }

    #[test]
    fn lookups() {
        let t = table();
        assert_eq!(t.column_index("title"), Some(1));
        assert!(t.column("nope").is_none());
        assert_eq!(t.nodes().collect::<Vec<_>>(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(t.node_at(1), Some(NodeId(1)));
        assert_eq!(t.node_at(2), None);
        assert_eq!(t.cell(1, 1), Some(Cell::Atomic("A-paper".into())));
        assert!(t.cell(2, 0).is_none() && t.cell(0, 4).is_none());
        assert_eq!(
            (t.ref_count(0, 2), t.ref_count(0, 1), t.ref_count(5, 2)),
            (2, 0, 0)
        );
        let counts: Vec<usize> = t.column_values(2).map(|c| c.ref_count()).collect();
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(t.total_refs(), (2 + 1) + (1 + 1));
        assert_eq!(t.rows.first().map(|r| r.node), Some(NodeId(0)));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn drop_columns_drops_header_and_cells_together() {
        let mut t = table();
        t.drop_columns(|_| false);
        assert_eq!(t, table());
        t.drop_columns(|c| c.name == "title");
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.column_index("id"), Some(0));
        assert_eq!(t.ref_count(0, 1), 2);
        assert!(t.cell(0, 3).is_none());
        assert!(t.rows.iter().all(|r| r.cells.len() == 3));
    }

    #[test]
    fn debug_and_equality_read_content_not_the_graph() {
        let t = table();
        let text = format!("{t:?}");
        assert!(
            text.contains("A-paper") && text.contains("B-paper"),
            "{text}"
        );
        assert!(
            !text.contains("adjacency") && !text.contains("allowed"),
            "{text}"
        );
        // The same content from another copy of the graph is equal.
        let mut other = table();
        assert_eq!(t, other);
        other.sort_by_column(1, false);
        assert_ne!(t, other);
    }

    #[test]
    fn cell_accessors() {
        let c = Cell::Atomic(Value::Int(3));
        assert_eq!(c.ref_count(), 0);
        assert!(c.refs().is_none());
        assert_eq!(c.value(), Some(&Value::Int(3)));
    }
}
