//! The TGDB instance graph (paper Definition 2).
//!
//! `GI = (V, E)` with a node-type mapping and an edge-type mapping. A
//! graph is immutable and works on dense node ids: the nodes of one type
//! are one run of consecutive ids, a [`Span`], and node `first + r` of a
//! type is its row `r` — of its relation for an entity type, of its
//! distinct values for a value type. The spans are all the graph stores of
//! its nodes: a node's type is the span its id falls in (one search among
//! the types' first ids), and no list of a type's ids exists.
//!
//! A node's attributes are not copied out of the database: each node type
//! keeps its attributes as [`ColumnStore`]s, and row `r` of its columns is
//! its `r`-th node. An entity type's columns are `Arc` clones of its
//! source table's, so the graph and the epoch it was loaded from share
//! every cell; a value type's one column holds its distinct values. A node
//! filter therefore runs on the relational kernel over those columns
//! (`etable_relational::scan::select_rows`).
//!
//! Nor does the graph build an adjacency of its own: an edge type's edges
//! are the rows of its relation, and each end of a row is the row itself
//! or a map from the relation's rows to the end's rows — a stored
//! foreign-key index or a value type's rank map, both an [`FkIndex`]. A
//! direction reads "the rows whose *from* end is the node" out of the
//! *from* map's lazily built reverse index
//! ([`Rev`](etable_relational::fk_index::Rev)), then each through its
//! *to* end (a relationship gathers those targets once, in `Rev`'s
//! order). So the "quick neighbor-lookup" the paper relies on (§1) is two
//! offset loads and a slice, the graph and the SQL joins along a foreign
//! key share one reverse index, and the graph of a later epoch reads
//! whatever maps that epoch holds, building nothing until a lookup.

use crate::ids::{EdgeTypeId, NodeId, NodeTypeId};
use crate::schema_graph::{AttrDef, SchemaGraph};
use crate::{Error, Result};
use etable_relational::fk_index::{FkIndex, DANGLING, NULL_REF};
use etable_relational::table::{ColumnData, ColumnStore, Table};
use etable_relational::value::{DataType, Value};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The ids `base + r` of the rows `rows` of one node type, in order.
fn ids(base: u32, rows: &[u32]) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
    rows.iter().map(move |&r| NodeId(base + r))
}

/// The nodes of one type: the ids `first .. first + len`, node `first + r`
/// being the type's row `r`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    first: u32,
    len: u32,
}

impl Span {
    /// The first node, which is row 0.
    pub fn first(self) -> NodeId {
        NodeId(self.first)
    }

    /// Number of nodes.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when the type has no node.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The node of row `row` (`< len`).
    pub fn node(self, row: u32) -> NodeId {
        debug_assert!(row < self.len, "row {row} of {}", self.len);
        NodeId(self.first + row)
    }

    /// The row of `id`, if it is a node of the type.
    pub fn row(self, id: NodeId) -> Option<u32> {
        Some(id.0.wrapping_sub(self.first)).filter(|&r| r < self.len)
    }

    /// The nodes, in ascending order.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + Clone {
        (self.first..self.first + self.len).map(NodeId)
    }
}

/// A shared buffer of rows a neighbor list is a run of.
#[derive(Clone)]
enum Buf {
    /// A reverse index's rows, or the targets gathered through them.
    Listed(Arc<[u32]>),
    /// A map's `fwd`: a row's one target.
    Map(Arc<Vec<u32>>),
}

/// A shared, immutable run of node ids: a node's neighbor list within a
/// buffer the graph reads, or a set of ids a walk collected. Handing a
/// neighbor list out bumps a reference count; it copies no ids and
/// allocates nothing. Equality is by the ids it names.
#[derive(Clone)]
pub struct IdSlice {
    buf: Buf,
    range: Range<usize>,
    /// The first id of the node type whose rows `buf` holds.
    base: u32,
}

impl IdSlice {
    /// The ids, in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        let rows: &[u32] = match &self.buf {
            Buf::Listed(rows) => rows,
            Buf::Map(rows) => rows,
        };
        // In bounds by construction: a run lies inside its buffer.
        ids(self.base, &rows[self.range.clone()])
    }
}

impl From<Vec<NodeId>> for IdSlice {
    /// All of `ids`, as a buffer of its own.
    fn from(ids: Vec<NodeId>) -> IdSlice {
        let buf: Arc<[u32]> = ids.iter().map(|n| n.0).collect();
        let (range, base) = (0..buf.len(), 0);
        let buf = Buf::Listed(buf);
        IdSlice { buf, range, base }
    }
}

impl PartialEq for IdSlice {
    fn eq(&self, other: &Self) -> bool {
        self.ids().eq(other.ids())
    }
}

impl fmt::Debug for IdSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ids()).finish()
    }
}

/// How one direction of an edge type finds a source row's targets.
#[derive(Debug, Clone)]
enum Edges {
    /// Source row `r` is the relation's row `r`; its one target, if any,
    /// is `to[r]` (an entity FK or categorical edge type, forward).
    Own(FkIndex),
    /// The relation's rows whose source is row `r` are the targets:
    /// `from`'s reverse index run for `r` (entity FK and categorical,
    /// reverse).
    Listed(FkIndex),
    /// The relation's rows whose source is row `r` are `from`'s reverse
    /// index run for `r`, and each one's target is `to` of it
    /// (relationship and multivalued, both ways). `targets` is `to` of
    /// every row of the reverse index, in its order, gathered on first
    /// use, so a run of it is the node's targets; graphs whose two maps
    /// are the same buffers share it.
    Mapped {
        from: FkIndex,
        to: FkIndex,
        targets: Arc<OnceLock<Arc<[u32]>>>,
    },
}

/// One directed edge type, with this graph's id spans around it.
#[derive(Debug, Clone)]
struct Adjacency {
    /// The source type's nodes; a node outside has no neighbors.
    source: Span,
    /// The target type's first id.
    base: u32,
    edges: Edges,
    /// A `Listed` or `Mapped` direction's reverse-index offsets and the
    /// buffer its runs lie in, taken on first use, so a lookup reads them
    /// here as it would a CSR's.
    view: OnceLock<View>,
}

/// A reverse index's offsets, and the rows or targets its runs index.
type View = (Arc<[u32]>, Arc<[u32]>);

impl Adjacency {
    /// The buffer holding `node`'s target rows, and their run in it.
    fn run(&self, node: NodeId) -> (&[u32], Range<usize>) {
        let Some(row) = self.source.row(node).map(|r| r as usize) else {
            return (&[], 0..0);
        };
        if let Edges::Own(to) = &self.edges {
            let live = to.fwd().get(row).is_some_and(|&t| t < DANGLING);
            return (to.fwd(), if live { row..row + 1 } else { 0..0 });
        }
        let (offsets, buf) = self.view();
        match offsets.get(row..row + 2) {
            Some(&[lo, hi]) => (buf, lo as usize..hi as usize),
            _ => (buf, 0..0),
        }
    }

    /// The reverse-index offsets and run buffer (see `view`); an `Own`
    /// direction has none.
    fn view(&self) -> &View {
        self.view.get_or_init(|| match &self.edges {
            Edges::Own(_) => (Arc::default(), Arc::default()),
            Edges::Listed(from) => {
                let rev = from.rev();
                (Arc::clone(rev.offsets()), Arc::clone(rev.rows()))
            }
            Edges::Mapped { from, to, targets } => {
                let (rev, to) = (from.rev(), to.fwd());
                let gather = || rev.rows().iter().map(|&r| to[r as usize]).collect();
                (
                    Arc::clone(rev.offsets()),
                    Arc::clone(targets.get_or_init(gather)),
                )
            }
        })
    }
}

/// The nodes of one type: their span, and one column per attribute of the
/// type (in `attrs` order) whose row `r` is the type's row `r`.
#[derive(Debug, Clone)]
pub(crate) struct TypeNodes {
    pub(crate) span: Span,
    pub(crate) columns: Vec<ColumnStore>,
    /// The label attribute's position in `columns`.
    pub(crate) label: usize,
    /// A value type's source column and its rank map: by row of it, the
    /// row of that row's value among the type's nodes (`NULL_REF` for
    /// NULL). `None` for an entity type, whose rows are its relation's.
    pub(crate) ranked: Option<(ColumnStore, FkIndex)>,
}

impl TypeNodes {
    /// Value type `nt` of `ty`, read from column `col` of `table`: one node
    /// per distinct non-NULL value, in the value total order. `prev`'s
    /// nodes of the type, if it ranked the same cells; else one
    /// `distinct_ranks` sort, which also ranks every row's value.
    pub(crate) fn values(
        prev: Option<&InstanceGraph>,
        nt: NodeTypeId,
        ty: DataType,
        (table, col): (&Table, usize),
    ) -> Result<Self> {
        let source = table.column(col);
        let kept = prev.and_then(|g| g.types.get(nt.index())).filter(|nodes| {
            (nodes.ranked.as_ref()).is_some_and(|(ranked, _)| same_cells(ranked, source))
        });
        if let Some(nodes) = kept {
            return Ok(nodes.clone());
        }
        let (values, ranks) = table.distinct_ranks(col);
        let nulls = usize::from(values.first().is_some_and(Value::is_null));
        let column = ColumnStore::from_values(ty, values[nulls..].iter().copied())?;
        let rank = |k: u32| k.checked_sub(nulls as u32).unwrap_or(NULL_REF);
        Ok(TypeNodes {
            span: Span::default(),
            columns: vec![column],
            label: 0,
            ranked: Some((
                source.clone(),
                FkIndex::from_ranks(ranks.into_iter().map(rank).collect()),
            )),
        })
    }
}

/// The type of the values `column` holds, and where its data buffer is.
fn column_type(column: &ColumnStore) -> (DataType, *const ()) {
    match column.data() {
        ColumnData::Int(v) => (DataType::Int, Arc::as_ptr(v).cast()),
        ColumnData::Float(v) => (DataType::Float, Arc::as_ptr(v).cast()),
        ColumnData::Sym(v) => (DataType::Text, Arc::as_ptr(v).cast()),
        ColumnData::Bool(v) => (DataType::Bool, Arc::as_ptr(v).cast()),
    }
}

/// Whether `b` holds `a`'s very data buffer and the same NULLs, so the
/// same cells: a write copies a shared buffer before it changes it.
fn same_cells(a: &ColumnStore, b: &ColumnStore) -> bool {
    column_type(a) == column_type(b) && a.len() == b.len() && a.nulls() == b.nulls()
}

/// The instance graph.
#[derive(Debug, Clone)]
pub struct InstanceGraph {
    /// node type -> its span and attribute columns.
    types: Vec<TypeNodes>,
    /// edge type -> adjacency (both directions of a pair are stored).
    adjacency: Vec<Adjacency>,
    /// Total number of logical (forward) edges, counted on first use.
    edge_count: OnceLock<usize>,
}

impl InstanceGraph {
    /// The graph of the node types `types` (one per node type of
    /// `schema`, in order), numbered type after type, and of the edge
    /// types, each forward one (in id order) read from its `ends`: by row
    /// of the relation its provenance names, the source row (`None`: the
    /// row itself) and the target row, each a stored foreign-key index or
    /// a value type's rank map, at and above `DANGLING` for a NULL key or
    /// value, which is no edge. Both directions read those maps in place;
    /// one that maps through the same two buffers as in `prev` shares its
    /// gathered targets with it.
    pub(crate) fn load(
        schema: &SchemaGraph,
        mut types: Vec<TypeNodes>,
        ends: Vec<(Option<FkIndex>, FkIndex)>,
        prev: Option<&InstanceGraph>,
    ) -> Result<InstanceGraph> {
        let mut first = 0u32;
        for (nt, nodes) in (0..).map(NodeTypeId).zip(&mut types) {
            let rows = nodes.columns.first().map_or(0, ColumnStore::len);
            let name = &schema.node_type(nt).name;
            let exhausted = || Error::Integrity(format!("node type `{name}`: node ids exhausted"));
            let end = u32::try_from(rows).ok().and_then(|n| first.checked_add(n));
            let len = end.ok_or_else(exhausted)? - first;
            nodes.span = Span { first, len };
            first += len;
        }
        let mapped = |i: usize, from: &FkIndex, to: &FkIndex| {
            let kept = prev.and_then(|g| match &g.adjacency.get(i)?.edges {
                Edges::Mapped {
                    from: f,
                    to: t,
                    targets,
                } if f.shares(from) && t.shares(to) => Some(Arc::clone(targets)),
                _ => None,
            });
            let (from, to) = (from.clone(), to.clone());
            Edges::Mapped {
                from,
                to,
                targets: kept.unwrap_or_default(),
            }
        };
        let mut adjacency = Vec::with_capacity(schema.edge_type_count());
        let forward = schema.edge_types().filter(|(_, e)| e.forward);
        for ((_, def), (from, to)) in forward.zip(ends) {
            // Each forward edge type is followed by its reverse.
            let i = adjacency.len();
            debug_assert_eq!(def.reverse.index(), i + 1);
            let (source, target) = (
                types[def.source.index()].span,
                types[def.target.index()].span,
            );
            let (forward, reverse) = match &from {
                None => (Edges::Own(to.clone()), Edges::Listed(to)),
                Some(from) => (mapped(i, from, &to), mapped(i + 1, &to, from)),
            };
            adjacency.push(Adjacency {
                source,
                base: target.first,
                edges: forward,
                view: OnceLock::new(),
            });
            adjacency.push(Adjacency {
                source: target,
                base: source.first,
                edges: reverse,
                view: OnceLock::new(),
            });
        }
        Ok(InstanceGraph {
            types,
            adjacency,
            edge_count: OnceLock::new(),
        })
    }

    /// The type of a node (`typeτ` in Definition 2), `id < node_count`:
    /// the last type whose first id is not past `id` (an empty type shares
    /// its first id with the next one).
    pub fn type_of(&self, id: NodeId) -> NodeTypeId {
        assert!(id.index() < self.node_count(), "no node {id}");
        NodeTypeId::from_index(self.types.partition_point(|t| t.span.first <= id.0) - 1)
    }

    /// The nodes of `id`'s type and `id`'s row in their columns.
    fn locate(&self, id: NodeId) -> (&TypeNodes, usize) {
        let nodes = &self.types[self.type_of(id).index()];
        (nodes, (id.0 - nodes.span.first) as usize)
    }

    /// The attribute columns of node type `nt`, in `attrs` order: row `r`
    /// of each is the `r`-th node of [`InstanceGraph::nodes_of_type`],
    /// whose ids are consecutive.
    pub fn columns(&self, nt: NodeTypeId) -> &[ColumnStore] {
        &self.types[nt.index()].columns
    }

    /// The node's label `label(v) = v[βi]`, read from its type's label
    /// column.
    pub fn label(&self, id: NodeId) -> Value {
        let (nodes, row) = self.locate(id);
        nodes.columns[nodes.label].get(row)
    }

    /// The label column of node type `nt`: its row `r` is the label of the
    /// type's row `r`. One lookup serves any number of labels of one type
    /// (a reference column's ids all have its target type).
    pub fn label_column(&self, nt: NodeTypeId) -> &ColumnStore {
        let nodes = &self.types[nt.index()];
        &nodes.columns[nodes.label]
    }

    /// Attribute `attr` (a position in the node type's `attrs`) of a node,
    /// read from the type's column at the node's row.
    #[inline]
    pub fn value(&self, id: NodeId, attr: usize) -> Value {
        let (nodes, row) = self.locate(id);
        nodes.columns[attr].get(row)
    }

    /// An attribute value of a node by attribute name.
    pub fn attr(&self, schema: &SchemaGraph, id: NodeId, name: &str) -> Option<Value> {
        let nt = schema.node_type(self.type_of(id));
        nt.attr_index(name).map(|i| self.value(id, i))
    }

    /// The nodes of a type: its span of ids.
    pub fn nodes_of_type(&self, nt: NodeTypeId) -> Span {
        self.types[nt.index()].span
    }

    /// Neighbors of `node` along edge type `et` (none for a node not of the
    /// edge type's source type), in the row order of the edge type's
    /// relation.
    pub fn neighbors(
        &self,
        et: EdgeTypeId,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        let adj = &self.adjacency[et.index()];
        let (buf, run) = adj.run(node);
        ids(adj.base, &buf[run])
    }

    /// The same neighbors as a shared run of the buffer they are read
    /// from.
    pub fn neighbor_slice(&self, et: EdgeTypeId, node: NodeId) -> IdSlice {
        let adj = &self.adjacency[et.index()];
        let (_, range) = adj.run(node);
        let buf = match &adj.edges {
            Edges::Own(to) => Buf::Map(Arc::clone(to.fwd())),
            _ => Buf::Listed(
                adj.view
                    .get()
                    .map_or_else(Arc::default, |v| Arc::clone(&v.1)),
            ),
        };
        IdSlice {
            buf,
            range,
            base: adj.base,
        }
    }

    /// Out-degree of `node` along `et`.
    pub fn degree(&self, et: EdgeTypeId, node: NodeId) -> usize {
        self.adjacency[et.index()].run(node).1.len()
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.types
            .last()
            .map_or(0, |t| (t.span.first + t.span.len) as usize)
    }

    /// Total logical edge count (each forward/reverse pair counted once).
    /// A direction has one entry per live entry of the map its runs are
    /// found through (`to` of a row's own edge, else `from`), so half
    /// their sum over both directions of every edge type, counted on
    /// first use.
    pub fn edge_count(&self) -> usize {
        *self.edge_count.get_or_init(|| {
            let entries = |adj: &Adjacency| match &adj.edges {
                Edges::Own(map) | Edges::Listed(map) | Edges::Mapped { from: map, .. } => {
                    map.fwd().iter().filter(|&&t| t < DANGLING).count()
                }
            };
            self.adjacency.iter().map(entries).sum::<usize>() / 2
        })
    }

    /// All node ids, in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Verifies structural consistency against a schema graph:
    /// * every node type has one column per attribute, of the attribute's
    ///   type, with one row per node,
    /// * every edge has its mirror on the reverse edge type (so a target
    ///   row that names no node of its type is caught too).
    ///
    /// An edge's endpoints are rows of its two types by construction.
    /// Returns the number of directed adjacency entries checked.
    pub fn check_consistency(&self, schema: &SchemaGraph) -> std::result::Result<usize, String> {
        for (nt, def) in schema.node_types() {
            let (columns, rows) = (self.columns(nt), self.nodes_of_type(nt).len());
            let fits = |(a, c): (&AttrDef, &ColumnStore)| {
                (column_type(c).0, c.len()) == (a.data_type, rows)
            };
            if columns.len() != def.attrs.len() || !def.attrs.iter().zip(columns).all(fits) {
                let name = &def.name;
                return Err(format!(
                    "node type `{name}`: its columns do not fit its attributes"
                ));
            }
        }
        let mut checked = 0usize;
        for (id, et) in schema.edge_types() {
            for src in self.nodes_of_type(et.source).iter() {
                for tgt in self.neighbors(id, src) {
                    if !self.neighbors(et.reverse, tgt).any(|n| n == src) {
                        return Err(format!(
                            "edge type `{}`: {src} -> {tgt} lacks its reverse mirror",
                            et.name
                        ));
                    }
                    checked += 1;
                }
            }
        }
        Ok(checked)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tgdb::Tgdb;
    use crate::translate::{translate, TranslateOptions};
    use etable_relational::database::Database;
    use etable_relational::schema::{Column, ForeignKey, TableSchema};
    use etable_relational::sql::execute;

    /// Asserts that `carried` is the graph `fresh` is: the same nodes with
    /// the same columns, and the same neighbors, in order, of every node
    /// along every edge type.
    pub(crate) fn assert_same_graph(carried: &Tgdb, fresh: &Tgdb, at: &str) {
        let (c, f) = (&carried.instances, &fresh.instances);
        assert_eq!(c.node_count(), f.node_count(), "{at}");
        assert_eq!(c.edge_count(), f.edge_count(), "{at}");
        for (nt, _) in fresh.schema.node_types() {
            assert_eq!(c.nodes_of_type(nt), f.nodes_of_type(nt), "{at}: {nt}");
            for (a, b) in c.columns(nt).iter().zip(f.columns(nt)) {
                assert!(a.iter().eq(b.iter()), "{at}: {nt}");
            }
        }
        for (et, _) in fresh.schema.edge_types() {
            for n in f.node_ids() {
                assert_eq!(nbrs(c, et, n), nbrs(f, et, n), "{at}: {et} {n}");
            }
        }
        assert_eq!(
            c.check_consistency(&carried.schema),
            f.check_consistency(&fresh.schema),
            "{at}"
        );
    }

    /// The neighbors of `n` along `et`, collected.
    pub(crate) fn nbrs(g: &InstanceGraph, et: EdgeTypeId, n: NodeId) -> Vec<NodeId> {
        g.neighbors(et, n).collect()
    }

    /// The maps one direction of an edge type reads.
    fn maps(adj: &Adjacency) -> Vec<&FkIndex> {
        match &adj.edges {
            Edges::Own(map) | Edges::Listed(map) => vec![map],
            Edges::Mapped { from, to, .. } => vec![from, to],
        }
    }

    /// Whether two directions share their gathered targets, if they have
    /// any.
    fn same_targets(x: &Adjacency, y: &Adjacency) -> bool {
        match (&x.edges, &y.edges) {
            (Edges::Mapped { targets: x, .. }, Edges::Mapped { targets: y, .. }) => {
                Arc::ptr_eq(x, y)
            }
            _ => true,
        }
    }

    /// Whether two indexes share `fwd` and its reverse index's slot.
    fn same_map(x: &FkIndex, y: &FkIndex) -> bool {
        x.shares(y) && x.shares_rev(y)
    }

    /// The edge types whose every map `a` and `b` share (`fwd` and the
    /// slot of its reverse index), and gathered targets if they have any,
    /// and the value types whose rank maps they share.
    pub(crate) fn shared_parts(a: &InstanceGraph, b: &InstanceGraph) -> (Vec<usize>, Vec<usize>) {
        let edges = (a.adjacency.iter().zip(&b.adjacency))
            .map(|(x, y)| {
                let (mx, my) = (maps(x), maps(y));
                let same = mx.len() == my.len() && mx.iter().zip(&my).all(|(x, y)| same_map(x, y));
                same && same_targets(x, y)
            })
            .enumerate();
        let ranks = (a.types.iter().zip(&b.types)).map(|(x, y)| match (&x.ranked, &y.ranked) {
            (Some((_, x)), Some((_, y))) => same_map(x, y),
            _ => false,
        });
        let kept = |it: &mut dyn Iterator<Item = (usize, bool)>| {
            it.filter(|&(_, shared)| shared).map(|(i, _)| i).collect()
        };
        (kept(&mut edges.into_iter()), kept(&mut ranks.enumerate()))
    }

    /// Entity relation `name(id, label)`.
    fn entity(name: &str, label: &str) -> TableSchema {
        let columns = vec![
            Column::new("id", DataType::Int),
            Column::new(label, DataType::Text),
        ];
        TableSchema::new(name, columns).with_primary_key(&["id"])
    }

    /// Relationship relation `name(l, r)` from `left` to `right`, or with
    /// no `right` a multivalued attribute `r` of `left`.
    fn relation(name: &str, left: &str, right: Option<&str>) -> TableSchema {
        let columns = vec![
            Column::new("l", DataType::Int),
            Column::new("r", DataType::Int),
        ];
        let schema = (TableSchema::new(name, columns).with_primary_key(&["l", "r"]))
            .with_foreign_key(ForeignKey::single("l", left, "id"));
        match right {
            Some(right) => schema.with_foreign_key(ForeignKey::single("r", right, "id")),
            None => schema,
        }
    }

    /// No automatic categorical types: a graph of its relations alone.
    fn plain() -> TranslateOptions {
        TranslateOptions {
            categorical_threshold: 0,
            ..TranslateOptions::default()
        }
    }

    /// Papers 1 "Usable DBs" and 2 "SkewTune", and authors 10 Jagadish and
    /// 11 Nandi: paper 1 by both, paper 2 by Nandi. Returns the forward
    /// `Paper_Authors` edge type and the nodes `[p1, p2, a1, a2]`.
    fn setup() -> (Tgdb, EdgeTypeId, Vec<NodeId>) {
        let mut db = Database::new();
        db.create_table(entity("Papers", "title")).unwrap();
        db.create_table(entity("Authors", "name")).unwrap();
        (db.create_table(relation("Paper_Authors", "Papers", Some("Authors")))).unwrap();
        for stmt in [
            "INSERT INTO Papers VALUES (1, 'Usable DBs'), (2, 'SkewTune')",
            "INSERT INTO Authors VALUES (10, 'Jagadish'), (11, 'Nandi')",
            "INSERT INTO Paper_Authors VALUES (1, 10), (1, 11), (2, 11)",
        ] {
            execute(&mut db, stmt).unwrap();
        }
        let tgdb = translate(&db, &plain()).unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let (et, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let key = |nt, k: i64| tgdb.node_by_key(nt, &Value::Int(k)).unwrap();
        let ids = vec![
            key(papers, 1),
            key(papers, 2),
            key(authors, 10),
            key(authors, 11),
        ];
        (tgdb, et, ids)
    }

    #[test]
    fn neighbor_lookup_both_directions() {
        let (tgdb, et, ids) = setup();
        let (g, schema) = (&tgdb.instances, &tgdb.schema);
        let (p1, p2, a1, a2) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(nbrs(g, et, p1), [a1, a2]);
        assert_eq!(nbrs(g, et, p2), [a2]);
        let rev = schema.edge_type(et).reverse;
        assert_eq!(nbrs(g, rev, a2), [p1, p2]);
        assert_eq!(nbrs(g, rev, a1), [p1]);
        assert_eq!(g.neighbors(rev, a2).len(), 2);
        // The shared run is the same list, and a node of the wrong type
        // simply has no neighbors along the edge.
        assert!(g.neighbor_slice(et, p1).ids().eq(g.neighbors(et, p1)));
        assert_eq!(g.neighbors(et, a1).len(), 0);
        assert_eq!(g.neighbor_slice(rev, p2).ids().len(), 0);
    }

    #[test]
    fn labels_use_label_attr() {
        let (tgdb, _, ids) = setup();
        let g = &tgdb.instances;
        assert_eq!(g.label(ids[0]), "Usable DBs".into());
        assert_eq!(g.label(ids[3]), "Nandi".into());
        // Row `r` of a type's columns is its `r`-th node.
        let authors = g.type_of(ids[3]);
        assert_eq!(g.nodes_of_type(authors).node(1), ids[3]);
        assert_eq!(g.columns(authors)[1].get(1), "Nandi".into());
    }

    #[test]
    fn attr_by_name() {
        let (tgdb, _, ids) = setup();
        let (g, schema) = (&tgdb.instances, &tgdb.schema);
        assert_eq!(g.attr(schema, ids[0], "id"), Some(Value::Int(1)));
        assert_eq!(g.value(ids[3], 1), "Nandi".into());
        assert!(g.attr(schema, ids[0], "nope").is_none());
    }

    #[test]
    fn counts() {
        let (tgdb, et, ids) = setup();
        let g = &tgdb.instances;
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        let papers = g.type_of(ids[0]);
        let entries = g.nodes_of_type(papers).iter().map(|p| g.degree(et, p));
        assert_eq!(entries.sum::<usize>(), 3);
    }

    #[test]
    fn nodes_of_type_partition() {
        let (tgdb, _, _) = setup();
        let g = &tgdb.instances;
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        assert_eq!(g.nodes_of_type(papers).len(), 2);
        assert_eq!(g.nodes_of_type(authors).len(), 2);
        // The partition covers every node exactly once.
        assert_eq!(
            g.nodes_of_type(papers).len() + g.nodes_of_type(authors).len(),
            g.node_count()
        );
    }

    #[test]
    fn consistency_check_passes_and_counts() {
        let (tgdb, _, _) = setup();
        // 3 logical edges, mirrored -> 6 directed adjacency entries.
        assert_eq!(tgdb.instances.check_consistency(&tgdb.schema), Ok(6));
    }

    #[test]
    fn empty_neighbors_for_isolated_node() {
        let (tgdb, et, _) = setup();
        let mut db = (**tgdb.database()).clone();
        execute(&mut db, "INSERT INTO Papers VALUES (3, 'Lonely')").unwrap();
        let tgdb = tgdb.at(Arc::new(db)).unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let p3 = tgdb.node_by_key(papers, &Value::Int(3)).unwrap();
        assert_eq!(tgdb.instances.neighbors(et, p3).len(), 0);
        assert_eq!(tgdb.instances.degree(et, p3), 0);
        // The new paper's row lies past every row the relationship's
        // reverse index lists.
        assert_eq!(tgdb.instances.check_consistency(&tgdb.schema), Ok(6));
    }

    #[test]
    fn check_consistency_rejects_misfit_columns() {
        let (tgdb, _, ids) = setup();
        let papers = tgdb.instances.type_of(ids[0]);
        let mut g = (*tgdb.instances).clone();
        g.types[papers.index()].columns.pop();
        let misfit = Err("node type `Papers`: its columns do not fit its attributes".to_string());
        assert_eq!(g.check_consistency(&tgdb.schema), misfit);
        // An INT column where the TEXT title belongs.
        let ints = g.types[papers.index()].columns[0].clone();
        g.types[papers.index()].columns.push(ints);
        assert_eq!(g.check_consistency(&tgdb.schema), misfit);
        // A column of another length.
        let short = ColumnStore::from_values(DataType::Text, ["one".into()]).unwrap();
        *g.types[papers.index()].columns.last_mut().unwrap() = short;
        assert_eq!(g.check_consistency(&tgdb.schema), misfit);
    }

    /// Corruptions a graph can still hold: the two directions of an edge
    /// type read different maps (here the reverse one loses every entry),
    /// or a map entry lies past the target type (row space cannot name a
    /// node of another type, so this is the only way a target can be
    /// wrong).
    #[test]
    fn check_consistency_rejects_missing_mirrors() {
        let (tgdb, et, _) = setup();
        let rev = tgdb.schema.edge_type(et).reverse;
        let corrupt = |dir: EdgeTypeId, end: usize, map: FkIndex| {
            let mut g = (*tgdb.instances).clone();
            let Edges::Mapped { from, to, targets } = &mut g.adjacency[dir.index()].edges else {
                panic!("a relationship maps its rows both ways");
            };
            *[from, to][end] = map;
            *targets = Arc::default();
            g.adjacency[dir.index()].view = OnceLock::new();
            g.check_consistency(&tgdb.schema).unwrap_err()
        };
        let err = corrupt(rev, 0, FkIndex::from_ranks(vec![NULL_REF; 3]));
        assert!(err.contains("lacks its reverse mirror"), "{err}");
        let Edges::Mapped { to, .. } = &tgdb.instances.adjacency[et.index()].edges else {
            panic!("a relationship maps its rows both ways");
        };
        let mut targets = to.fwd().to_vec();
        targets[0] = 99;
        let err = corrupt(et, 1, FkIndex::from_ranks(targets));
        assert!(err.contains("lacks its reverse mirror"), "{err}");
    }

    /// SplitMix64: a fixed stream per seed, so every case can be replayed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random small database: entity relations `T{i}(id, name, cat,
    /// ref)` with a nullable categorical `cat` and a nullable `ref` onto a
    /// random entity (itself included), empty ones included, and relations
    /// `R{j}(l, r)`: relationships between random entities
    /// (self-relationships included) or multivalued attributes. Returns it
    /// with its translation options and the number of each.
    fn random_db(
        pick: &mut impl FnMut(usize) -> usize,
    ) -> (Database, TranslateOptions, usize, usize) {
        let (k, m) = (1 + pick(3), pick(4));
        let mut db = Database::new();
        let mut opts = plain();
        let targets: Vec<usize> = (0..k).map(|_| pick(k)).collect();
        for (i, &t) in targets.iter().enumerate() {
            let columns = vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("cat", DataType::Int),
                Column::nullable("ref", DataType::Int),
            ];
            let schema = (TableSchema::new(format!("T{i}"), columns).with_primary_key(&["id"]))
                .with_foreign_key(ForeignKey::single("ref", format!("T{t}"), "id"));
            db.create_table(schema).unwrap();
            opts.categorical_columns
                .push((format!("T{i}"), "cat".into()));
        }
        let sizes: Vec<usize> = (0..k).map(|_| pick(12)).collect();
        let maybe = |v: Option<usize>| v.map_or(Value::Null, |v| Value::Int(v as i64));
        for i in 0..k {
            let rows: Vec<Vec<Value>> = (0..sizes[i])
                .map(|j| {
                    let to = sizes[targets[i]];
                    let cat = (pick(4) > 0).then(|| pick(3));
                    let to = (to > 0 && pick(3) > 0).then(|| pick(to));
                    let name = Value::from(format!("n{i}.{j}"));
                    vec![Value::Int(j as i64), name, maybe(cat), maybe(to)]
                })
                .collect();
            db.append_rows(&format!("T{i}"), rows).unwrap();
        }
        for j in 0..m {
            let (l, r) = (pick(k), pick(k));
            let name = format!("R{j}");
            let right = (pick(3) > 0).then(|| format!("T{r}"));
            let values = if right.is_some() { sizes[r] } else { 5 };
            (db.create_table(relation(&name, &format!("T{l}"), right.as_deref()))).unwrap();
            if sizes[l] == 0 || values == 0 {
                continue;
            }
            let mut seen = std::collections::HashSet::new();
            let pairs: Vec<Vec<Value>> = (0..pick(15))
                .map(|_| (pick(sizes[l]) as i64, pick(values) as i64))
                .filter(|&p| seen.insert(p))
                .map(|(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect();
            db.append_rows(&name, pairs).unwrap();
        }
        db.check_integrity().unwrap();
        (db, opts, k, m)
    }

    /// For random small databases — NULL keys and values, empty types,
    /// self-references and self-relationships — every neighbor lookup equals a
    /// reference adjacency built naively from the rows through the nodes'
    /// keys, in row order, in both directions. After each of a run of
    /// random writes, `at` loads what a fresh translation loads.
    #[test]
    fn csr_matches_naive_adjacency_on_random_graphs() {
        for seed in 0..200u64 {
            let mut rng = seed;
            let mut pick = |n: usize| (next(&mut rng) % n.max(1) as u64) as usize;
            let (mut db, opts, k, m) = random_db(&mut pick);
            let mut tgdb = translate(&db, &opts).unwrap();
            let g = &tgdb.instances;
            let n = g.node_count();
            let mut naive = vec![vec![Vec::<NodeId>::new(); n]; tgdb.schema.edge_type_count()];
            for (et, def) in tgdb.schema.edge_types().filter(|(_, e)| e.forward) {
                let (table, src_col, tgt_col) = def.provenance.key_columns();
                let table = db.table(table).unwrap();
                let cell =
                    |r: usize, col: &str| table.value(r, table.schema().column_index(col).unwrap());
                for r in 0..table.len() {
                    let src = match src_col {
                        None => Some(g.nodes_of_type(def.source).node(r as u32)),
                        Some(col) => tgdb.node_by_key(def.source, &cell(r, col)),
                    };
                    let tgt = tgdb.node_by_key(def.target, &cell(r, tgt_col));
                    if let (Some(s), Some(t)) = (src, tgt) {
                        naive[et.index()][s.index()].push(t);
                        naive[def.reverse.index()][t.index()].push(s);
                    }
                }
            }
            // Every node lies in its type's span, empty types among them.
            for v in g.node_ids() {
                assert!(
                    g.nodes_of_type(g.type_of(v)).row(v).is_some(),
                    "seed {seed} {v}"
                );
            }
            let mut directed = 0;
            for (et, _) in tgdb.schema.edge_types() {
                for v in g.node_ids() {
                    let want = &naive[et.index()][v.index()];
                    assert_eq!(nbrs(g, et, v), *want, "seed {seed} {et} {v}");
                    assert!(g.neighbor_slice(et, v).ids().eq(want.iter().copied()));
                    assert_eq!(g.degree(et, v), want.len());
                    directed += want.len();
                }
            }
            assert_eq!(
                g.check_consistency(&tgdb.schema),
                Ok(directed),
                "seed {seed}"
            );
            assert_eq!(g.edge_count() * 2, directed, "seed {seed}");

            // Deletes dominate: a row deleted from the middle of a table
            // shifts the rows of every key onto it, one end of an edge type
            // at a time.
            for step in 0..1 + pick(12) {
                let (t, r, key) = (pick(k), pick(m.max(1)), pick(14));
                let stmt = match pick(10) {
                    0 => format!(
                        "INSERT INTO T{t} VALUES ({}, 'new', {}, {})",
                        20 + step,
                        pick(3),
                        pick(12)
                    ),
                    1 => format!("INSERT INTO R{r} VALUES ({key}, {})", pick(12)),
                    2 | 3 => format!("DELETE FROM T{t} WHERE id = {key}"),
                    4 => format!("DELETE FROM R{r} WHERE l = {key}"),
                    5 => format!("DELETE FROM R{r} WHERE r = {key}"),
                    6 => format!("UPDATE T{t} SET cat = {} WHERE id = {key}", pick(4)),
                    7 => format!("UPDATE T{t} SET cat = NULL WHERE id = {key}"),
                    8 => format!("UPDATE T{t} SET name = 'renamed' WHERE id = {key}"),
                    _ => format!("UPDATE T{t} SET ref = NULL WHERE id = {key}"),
                };
                // Refused writes (a missing key, RESTRICT) change nothing.
                let _ = execute(&mut db, &stmt);
                let epoch = Arc::new(db.clone());
                tgdb = tgdb.at(Arc::clone(&epoch)).unwrap();
                let fresh = translate(&epoch, &opts).unwrap();
                assert_same_graph(&tgdb, &fresh, &format!("seed {seed}: {stmt}"));
            }
        }
    }

    /// An `IdSlice` reads only its range of the buffer, and compares by
    /// the ids it names, whatever its base.
    #[test]
    fn id_slices_compare_by_content_and_check_their_range() {
        let a = IdSlice {
            buf: Buf::Listed(vec![1, 2, 3].into()),
            range: 1..3,
            base: 10,
        };
        let b = IdSlice::from(vec![NodeId(12), NodeId(13)]);
        assert_eq!(a, b);
        assert_ne!(a, IdSlice::from(vec![NodeId(12)]));
        assert_eq!(a.ids().nth(1), Some(NodeId(13)));
        assert_eq!(a.ids().len(), 2);
        assert_eq!(format!("{a:?}"), "[NodeId(12), NodeId(13)]");
    }
}
