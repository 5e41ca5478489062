//! The enriched table: the presentation data model's result format (§5.1).
//!
//! Each row represents one node of the primary node type; columns are
//! base attributes `Ab`, participating node columns `At`, or neighbor node
//! columns `Ah` (§5.4.2). Entity-reference cells hold clickable labels, not
//! foreign keys, mirroring hyperlinks (§5.1).
//!
//! A table holds node ids only. A reference cell is a shared run of ids
//! ([`IdSlice`]) — of the graph's CSR target array for a neighbor column,
//! of one buffer per column for a participating column — and label text is
//! looked up in the graph's label column, which the table shares, only for
//! the cells that are rendered, exported or ranked. Both are `Arc`s, so a
//! table stays self-contained and `Send` after the graph handle is gone.

use crate::pattern::PatternNodeId;
use etable_relational::intern::RankMap;
use etable_relational::value::{SortCell, Value};
use etable_tgm::{EdgeTypeId, IdSlice, NodeId};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

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
            Cell::Refs(r) => r.len(),
        }
    }

    /// The referenced nodes, if this is a reference cell.
    pub fn refs(&self) -> Option<&[NodeId]> {
        match self {
            Cell::Atomic(_) => None,
            Cell::Refs(r) => Some(r),
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

/// One row: a primary node plus its cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ETableRow {
    /// The primary node this row represents.
    pub node: NodeId,
    /// Cells, positionally matching the table's columns.
    pub cells: Vec<Cell>,
}

/// An enriched table (§5.1): the ETable presentation of a query result.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrichedTable {
    /// Name of the primary node type (table heading).
    pub primary_type_name: String,
    /// Human-readable description of the filters applied (table subtitle,
    /// as in Figure 1's "Papers filtered by ...").
    pub filter_desc: String,
    /// The columns.
    pub columns: Vec<ColumnSpec>,
    /// The rows, one per matched primary node. Read them through
    /// [`EnrichedTable::nodes`], [`EnrichedTable::cell`] and
    /// [`EnrichedTable::column_values`]: only this module and
    /// [`crate::transform`] know the layout, and the field stays public
    /// only for the frozen `benchmark/` harness (ROADMAP 1(b)).
    pub rows: Vec<ETableRow>,
    /// The instance graph's label column (`label(v) = v[β]` by node id),
    /// shared, not copied.
    pub labels: Arc<[Value]>,
}

impl EnrichedTable {
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

    /// The label of a referenced node (`NULL` for a node the label column
    /// does not cover).
    pub fn label(&self, node: NodeId) -> Value {
        self.labels
            .get(node.index())
            .copied()
            .unwrap_or(Value::Null)
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
        self.rows.iter().map(|r| r.node)
    }

    /// The primary node of row `row`, if the table has that row.
    pub fn node_at(&self, row: usize) -> Option<NodeId> {
        self.rows.get(row).map(|r| r.node)
    }

    /// The cell of row `row` in column `col`, if both exist.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Cell> {
        self.rows.get(row)?.cells.get(col)
    }

    /// The number of references in a cell (0 for an atomic cell or one
    /// the table does not have).
    pub fn ref_count(&self, row: usize, col: usize) -> usize {
        self.cell(row, col).map_or(0, Cell::ref_count)
    }

    /// The cells of column `col`, top to bottom.
    ///
    /// # Panics
    ///
    /// When `col` is not a column of the table.
    pub fn column_values(&self, col: usize) -> impl ExactSizeIterator<Item = &Cell> + '_ {
        self.rows.iter().map(move |r| &r.cells[col])
    }

    /// Drops every column `drop` selects, with its cells (the session's
    /// hidden columns). Nothing is cloned; a table that drops no column
    /// is left untouched.
    pub fn drop_columns(&mut self, drop: impl Fn(&ColumnSpec) -> bool) {
        let keep: Vec<bool> = self.columns.iter().map(|c| !drop(c)).collect();
        if keep.iter().all(|&k| k) {
            return;
        }
        let mut kept = keep.iter();
        self.columns.retain(|_| kept.next() == Some(&true));
        for row in &mut self.rows {
            let mut kept = keep.iter();
            row.cells.retain(|_| kept.next() == Some(&true));
        }
    }

    /// Sorts rows by a column: atomic columns by value, reference columns
    /// by reference count (the paper's "Sort table by # of Papers
    /// (referenced)", Figure 1 history step 3). Stable: rows that tie keep
    /// their order, ascending and descending.
    ///
    /// Each row is decorated once (`SortKey`: text by its rank in one
    /// dictionary snapshot, so no comparison reads the interner), the
    /// (key, position) pairs are sorted, and the rows are permuted in
    /// place.
    pub fn sort_by_column(&mut self, column: usize, descending: bool) {
        let dict = etable_relational::intern::rank_map();
        let mut keyed: Vec<(SortKey, u32)> = (self.rows.iter().zip(0..))
            .map(|(r, i)| (SortKey::new(&r.cells[column], &dict), i))
            .collect();
        keyed.sort_unstable_by(|a, b| {
            let ord = SortKey::cmp(a.0, b.0);
            let ord = if descending { ord.reverse() } else { ord };
            ord.then(a.1.cmp(&b.1))
        });
        let mut order: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
        permute(&mut self.rows, &mut order);
    }

    /// Total number of entity references across all cells (used by the
    /// duplication-factor analysis: a relational join would repeat rows
    /// multiplicatively, an ETable only additively).
    pub fn total_refs(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.cells.iter().map(Cell::ref_count).sum::<usize>())
            .sum()
    }
}

/// A cell decorated for sorting: an atomic value with its dictionary
/// rank, or a reference count.
#[derive(Debug, Clone, Copy)]
enum SortKey {
    Atomic(SortCell),
    Refs(usize),
}

impl SortKey {
    fn new(cell: &Cell, dict: &RankMap) -> Self {
        match cell {
            Cell::Atomic(v) => SortKey::Atomic(SortCell::new(*v, dict)),
            Cell::Refs(r) => SortKey::Refs(r.len()),
        }
    }

    /// Two atomic cells by [`Value::total_cmp`]; any other pair by
    /// reference count, an atomic cell counting 0.
    fn cmp(a: SortKey, b: SortKey) -> Ordering {
        let count = |k| match k {
            SortKey::Atomic(_) => 0,
            SortKey::Refs(n) => n,
        };
        match (a, b) {
            (SortKey::Atomic(x), SortKey::Atomic(y)) => SortCell::total_cmp(x, y),
            _ => count(a).cmp(&count(b)),
        }
    }
}

/// Reorders `items` in place so that position `i` holds what position
/// `order[i]` held, following each cycle of the permutation once.
/// `order` (a permutation of the positions) is used up.
fn permute<T>(items: &mut [T], order: &mut [u32]) {
    for start in 0..order.len() {
        let mut cur = start;
        while order[cur] as usize != start {
            let next = order[cur] as usize;
            items.swap(cur, next);
            order[cur] = cur as u32;
            cur = next;
        }
        order[cur] = cur as u32;
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

    fn table() -> EnrichedTable {
        let refs: Arc<[NodeId]> = vec![NodeId(1), NodeId(2), NodeId(1)].into();
        let run = |range| Cell::Refs(IdSlice::new(&refs, range).unwrap());
        EnrichedTable {
            primary_type_name: "Papers".into(),
            filter_desc: String::new(),
            columns: vec![
                ColumnSpec {
                    name: "title".into(),
                    kind: ColumnKind::Base { attr: 1 },
                },
                ColumnSpec {
                    name: "Authors".into(),
                    kind: ColumnKind::Neighbor {
                        edge: etable_tgm::EdgeTypeId(0),
                    },
                },
            ],
            rows: vec![
                ETableRow {
                    node: NodeId(0),
                    cells: vec![Cell::Atomic("B-paper".into()), run(0..2)],
                },
                ETableRow {
                    node: NodeId(1),
                    cells: vec![Cell::Atomic("A-paper".into()), run(2..3)],
                },
            ],
            labels: vec![Value::Null, "X".into(), 7.into()].into(),
        }
    }

    #[test]
    fn labels_resolve_through_the_shared_column() {
        let t = table();
        assert_eq!(t.rows[0].cells[1].refs(), Some(&[NodeId(1), NodeId(2)][..]));
        assert_eq!(t.label(NodeId(1)), "X".into());
        assert_eq!(t.label_text(NodeId(1)), "X");
        assert_eq!(t.label_text(NodeId(2)), "7");
        assert_eq!(t.label(NodeId(99)), Value::Null);
        // Cells compare by content, not by which buffer they point into.
        assert_eq!(t.rows[1].cells[1], {
            let other: Arc<[NodeId]> = vec![NodeId(1)].into();
            Cell::Refs(IdSlice::new(&other, 0..1).unwrap())
        });
    }

    #[test]
    fn sort_by_atomic_column() {
        let mut t = table();
        t.sort_by_column(0, false);
        assert_eq!(t.rows[0].cells[0].value(), Some(&"A-paper".into()));
    }

    #[test]
    fn sort_by_ref_count_descending() {
        let mut t = table();
        t.sort_by_column(1, true);
        assert_eq!(t.rows[0].cells[1].ref_count(), 2);
    }

    /// The comparator the decorated sort replaced: cell against cell,
    /// reading the interner for every text comparison.
    fn oracle_sort(t: &mut EnrichedTable, column: usize, descending: bool) {
        t.rows.sort_by(|a, b| {
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
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Random tables — an atomic column mixing NULL, ints, floats equal to
    /// them, -0.0 beside 0.0 and text interned out of lexicographic order,
    /// and a reference column, both full of ties — sort exactly as the old
    /// comparator sorted them, ascending and descending.
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
        let refs: Arc<[NodeId]> = (0..8).map(NodeId).collect::<Vec<_>>().into();
        for seed in 0..400u64 {
            let mut rng = Mix(seed);
            let mut t = table();
            t.rows = (0..rng.below(40))
                .map(|i| ETableRow {
                    node: NodeId(i as u32),
                    cells: vec![
                        Cell::Atomic(atoms[rng.below(atoms.len())]),
                        Cell::Refs(IdSlice::new(&refs, 0..rng.below(5)).unwrap()),
                    ],
                })
                .collect();
            for (column, descending) in [(0, false), (0, true), (1, false), (1, true)] {
                let (mut got, mut want) = (t.clone(), t.clone());
                got.sort_by_column(column, descending);
                oracle_sort(&mut want, column, descending);
                assert_eq!(got, want, "seed {seed}, column {column}, desc {descending}");
            }
        }
        // A mixed pair keeps the rule: an atomic cell counts 0 references.
        let dict = etable_relational::intern::rank_map();
        let cells = [
            Cell::Atomic("sort-fig".into()),
            Cell::Refs(IdSlice::new(&refs, 0..0).unwrap()),
            Cell::Refs(IdSlice::new(&refs, 0..2).unwrap()),
        ];
        for a in &cells {
            for b in &cells {
                let old = match (a, b) {
                    (Cell::Atomic(x), Cell::Atomic(y)) => x.total_cmp(y),
                    (x, y) => x.ref_count().cmp(&y.ref_count()),
                };
                assert_eq!(
                    SortKey::cmp(SortKey::new(a, &dict), SortKey::new(b, &dict)),
                    old
                );
            }
        }
    }

    #[test]
    fn permute_follows_every_cycle() {
        let mut items = vec!['a', 'b', 'c', 'd', 'e'];
        permute(&mut items, &mut [2, 0, 1, 4, 3]);
        assert_eq!(items, ['c', 'a', 'b', 'e', 'd']);
    }

    #[test]
    fn lookups() {
        let t = table();
        assert_eq!(t.column_index("Authors"), Some(1));
        assert!(t.column("nope").is_none());
        assert_eq!(t.nodes().collect::<Vec<_>>(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(t.node_at(1), Some(NodeId(1)));
        assert_eq!(t.node_at(2), None);
        assert_eq!(t.cell(1, 0).and_then(Cell::value), Some(&"A-paper".into()));
        assert!(t.cell(2, 0).is_none() && t.cell(0, 2).is_none());
        assert_eq!(
            (t.ref_count(0, 1), t.ref_count(0, 0), t.ref_count(5, 1)),
            (2, 0, 0)
        );
        let counts: Vec<usize> = t.column_values(1).map(Cell::ref_count).collect();
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(t.total_refs(), 3);
    }

    #[test]
    fn drop_columns_drops_header_and_cells_together() {
        let mut t = table();
        t.drop_columns(|_| false);
        assert_eq!(t, table());
        t.drop_columns(|c| c.name == "title");
        assert_eq!(t.columns.len(), 1);
        assert_eq!(t.column_index("Authors"), Some(0));
        assert_eq!(t.ref_count(0, 0), 2);
        assert!(t.cell(0, 1).is_none());
    }

    #[test]
    fn cell_accessors() {
        let c = Cell::Atomic(Value::Int(3));
        assert_eq!(c.ref_count(), 0);
        assert!(c.refs().is_none());
        assert_eq!(c.value(), Some(&Value::Int(3)));
    }
}
