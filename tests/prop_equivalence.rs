//! Property-based cross-crate invariants: randomly generated query
//! patterns are executed three ways — full graph-relation materialization
//! (Definition 4), decomposed Yannakakis matching, and the translated SQL
//! query over the original relational database — and must agree. The
//! translation is executed as the AST it is, on the optimizing engine and,
//! where the cross product is small enough, on the naive oracle; its text
//! form is pinned separately (print → parse → the same AST).
//!
//! `PROPTEST_CASES` raises the case count (deep-verify runs 1024).

use etable_repro::core::matching::{match_full, match_primary};
use etable_repro::core::ops;
use etable_repro::core::pattern::{
    FilterAtom, NodeFilter, PatternEdge, PatternNodeId, QueryPattern,
};
use etable_repro::core::Error;
use etable_repro::core::{testutil, work};
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::database::Database;
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::sql::execute;
use etable_repro::relational::value::{DataType, Value};
use etable_repro::tgm::{
    translate, EdgeTypeId, NodeId, NodeTypeId, NodeTypeKind, Tgdb, TranslateOptions,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

mod common;
use common::{academic, cases, check_translation, node_keys};

fn env() -> &'static Tgdb {
    static ENV: OnceLock<Tgdb> = OnceLock::new();
    ENV.get_or_init(|| {
        translate(&generate(&GenConfig::small()), &TranslateOptions::default()).unwrap()
    })
}

/// Builds a random but always-valid query pattern by replaying random
/// Initiate/Select/Add/Shift operators.
fn random_pattern(tgdb: &Tgdb, seed: u64, steps: usize) -> QueryPattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let entities = tgdb.schema.entity_types();
    let (start, _) = entities[rng.gen_range(0..entities.len())];
    let mut q = ops::initiate(tgdb, start).unwrap();
    for _ in 0..steps {
        match rng.gen_range(0..3) {
            0 => {
                // Add a random outgoing edge (if the pattern stays small).
                if q.len() >= 5 {
                    continue;
                }
                let outgoing = tgdb.schema.outgoing(q.primary_node().node_type);
                if outgoing.is_empty() {
                    continue;
                }
                let (et, _) = outgoing[rng.gen_range(0..outgoing.len())];
                q = ops::add(tgdb, &q, et).unwrap();
            }
            1 => {
                // Random filter on the primary node.
                let nt = tgdb.schema.node_type(q.primary_node().node_type);
                let attr = &nt.attrs[rng.gen_range(0..nt.attrs.len())];
                let filter = match attr.data_type {
                    DataType::Int => {
                        let op = [CmpOp::Gt, CmpOp::Le, CmpOp::Ge][rng.gen_range(0..3)];
                        // Plausible ranges for ids/years/pages.
                        let v = if attr.name == "year" {
                            rng.gen_range(2000..2016)
                        } else {
                            rng.gen_range(0..400)
                        };
                        NodeFilter::cmp(&attr.name, op, v)
                    }
                    _ => {
                        let letter = (b'a' + rng.gen_range(0..26u8)) as char;
                        NodeFilter::like(&attr.name, format!("%{letter}%"))
                    }
                };
                q = ops::select(tgdb, &q, filter).unwrap();
            }
            _ => {
                // Shift to a random participating node.
                let target = PatternNodeId(rng.gen_range(0..q.len()));
                q = ops::shift(&q, target).unwrap();
            }
        }
    }
    // Value-node primaries are valid but make key comparison trivial;
    // prefer shifting back to an entity occurrence when one exists.
    if tgdb.schema.node_type(q.primary_node().node_type).kind != NodeTypeKind::Entity {
        if let Some(id) = q
            .node_ids()
            .find(|&id| tgdb.schema.node_type(q.node(id).node_type).kind == NodeTypeKind::Entity)
        {
            q = ops::shift(&q, id).unwrap();
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn decomposed_equals_full_on_every_projection(seed in 0u64..10_000, steps in 1usize..7) {
        let tgdb = env();
        let q = random_pattern(tgdb, seed, steps);
        let full = match_full(tgdb, &q).unwrap();
        let prim = match_primary(tgdb, &q).unwrap();
        for id in q.node_ids() {
            // The projection is read as the result holds it: its order is
            // part of the contract (ascending node id, as the full
            // relation's projection sorts).
            let mut want: Vec<_> = full.distinct_nodes(id).unwrap();
            want.sort();
            want.dedup();
            prop_assert_eq!(&prim.projection(id), &want, "projection mismatch at {} (seed {})", id, seed);
        }
    }

    #[test]
    fn sql_translation_matches_pattern_execution(seed in 0u64..10_000, steps in 1usize..7) {
        let tgdb = env();
        let q = random_pattern(tgdb, seed, steps);
        let m = match_primary(tgdb, &q).unwrap();
        let expected = node_keys(tgdb, m.rows());
        if let Err(msg) = check_translation(tgdb, &q, &expected, false) {
            prop_assert!(false, "seed {}: {}", seed, msg);
        }
    }

    #[test]
    fn sql_translation_matches_engine_and_oracle(seed in 0u64..10_000, steps in 1usize..7) {
        let tgdb = academic();
        let q = random_pattern(tgdb, seed, steps);
        let m = match_primary(tgdb, &q).unwrap();
        let expected = node_keys(tgdb, m.rows());
        if let Err(msg) = check_translation(tgdb, &q, &expected, true) {
            prop_assert!(false, "seed {}: {}", seed, msg);
        }
    }

    #[test]
    fn related_sets_are_consistent_with_full_join(seed in 0u64..10_000, steps in 1usize..6) {
        // For each matched primary row and participating node, the
        // decomposed `related()` walk equals the projection of the full
        // graph relation restricted to that row.
        let tgdb = env();
        let q = random_pattern(tgdb, seed, steps);
        let full = match_full(tgdb, &q).unwrap();
        let prim = match_primary(tgdb, &q).unwrap();
        let ppos = full.attr_pos(q.primary).unwrap();
        // Check a sample of rows to bound runtime.
        for row in prim.rows().take(5) {
            for id in q.node_ids() {
                if id == q.primary { continue; }
                let tpos = full.attr_pos(id).unwrap();
                let mut expected: Vec<_> = full
                    .tuples
                    .iter()
                    .filter(|t| t[ppos] == row)
                    .map(|t| t[tpos])
                    .collect();
                expected.sort();
                expected.dedup();
                let mut got = prim.related(tgdb, row, id).unwrap();
                got.sort();
                prop_assert_eq!(expected, got, "row-scoped mismatch at {} (seed {})", id, seed);
            }
        }
    }

    #[test]
    fn tree_and_path_walk_pattern_edges_from_every_root(seed in 0u64..10_000, steps in 1usize..7) {
        // `tree` lists every node once, root first, each parent before its
        // child and each link along a pattern edge oriented parent -> child;
        // `path` follows those links down from its start.
        let tgdb = env();
        let q = random_pattern(tgdb, seed, steps);
        // Whether `et` leads from `a` to `b` along pattern edge `e`.
        let along = |e: &PatternEdge, a: PatternNodeId, b: PatternNodeId, et: EdgeTypeId| {
            (e.from, e.to, e.edge_type) == (a, b, et)
                || (e.to, e.from, tgdb.schema.edge_type(e.edge_type).reverse) == (a, b, et)
        };
        for root in q.node_ids() {
            let tree = q.tree(tgdb, root).unwrap();
            prop_assert_eq!(tree.len(), q.len());
            prop_assert_eq!(tree[0].node, root);
            prop_assert!(tree[0].via.is_none());
            let mut at = vec![None; q.len()];
            for (i, step) in tree.iter().enumerate() {
                prop_assert!(at[step.node.0].is_none(), "{} listed twice (seed {})", step.node, seed);
                at[step.node.0] = Some(i);
                if i == 0 {
                    continue;
                }
                let Some(via) = step.via else {
                    return Err(TestCaseError::fail(format!("{} has no parent (seed {seed})", step.node)));
                };
                prop_assert!(at[via.parent.0].is_some(), "{} before its parent (seed {})", step.node, seed);
                prop_assert!(along(&q.edges[via.edge], via.parent, step.node, via.edge_type));
            }
            for to in q.node_ids() {
                let mut cur = root;
                for (next, et) in q.path(tgdb, root, to).unwrap() {
                    let via = at[next.0].and_then(|i| tree[i].via);
                    prop_assert_eq!(via.map(|v| (v.parent, v.edge_type)), Some((cur, et)));
                    prop_assert!(q.edges.iter().any(|e| along(e, cur, next, et)));
                    cur = next;
                }
                prop_assert_eq!(cur, to, "path from {} ends elsewhere (seed {})", root, seed);
            }
        }
    }

    #[test]
    fn transformation_rows_are_distinct_primary_nodes(seed in 0u64..10_000, steps in 1usize..6) {
        let tgdb = env();
        let q = random_pattern(tgdb, seed, steps);
        let t = etable_repro::core::transform::execute(tgdb, &q).unwrap();
        let mut nodes: Vec<_> = t.nodes().collect();
        let before = nodes.len();
        nodes.sort();
        nodes.dedup();
        prop_assert_eq!(before, nodes.len(), "duplicate rows for seed {}", seed);
        // Every row's node has the primary type.
        for n in nodes {
            prop_assert_eq!(
                tgdb.instances.type_of(n),
                q.primary_node().node_type
            );
        }
    }
}

/// A random pattern whose filters select little: `NodeIs` atoms built the
/// way the `Single` and `Seeall` actions build them, and `=` / `IN` over
/// values that occur in the data, on any pattern node, not only the
/// primary. Nodes and values are drawn from the pattern's current match
/// when it has one.
fn selective_pattern(tgdb: &Tgdb, rng: &mut StdRng) -> QueryPattern {
    let g = &tgdb.instances;
    let entities = tgdb.schema.entity_types();
    let (start, _) = entities[rng.gen_range(0..entities.len())];
    let mut q = ops::initiate(tgdb, start).unwrap();
    for _ in 0..rng.gen_range(1..9) {
        let at = PatternNodeId(rng.gen_range(0..q.len()));
        let nt = q.node(at).node_type;
        // Values of nodes that still match, so most filters keep some.
        let matched = match_primary(tgdb, &q).unwrap().projection(at);
        let nodes = if matched.is_empty() {
            g.nodes_of_type(nt).iter().collect()
        } else {
            matched
        };
        let pick = |rng: &mut StdRng| nodes[rng.gen_range(0..nodes.len())];
        match rng.gen_range(0..7) {
            0 | 1 if q.len() < 5 => {
                let outgoing = tgdb.schema.outgoing(q.primary_node().node_type);
                if let Some(&(et, _)) = outgoing.get(rng.gen_range(0..outgoing.len().max(1))) {
                    q = ops::add(tgdb, &q, et).unwrap();
                }
            }
            0..=2 => q = ops::shift(&q, at).unwrap(),
            _ if nodes.is_empty() => {}
            3 => {
                // `Seeall` selects the clicked row of the primary node;
                // `Single` opens one node on its own.
                q = if rng.gen_range(0..4) == 0 {
                    ops::initiate(tgdb, nt).unwrap()
                } else {
                    ops::shift(&q, at).unwrap()
                };
                let key = tgdb.key_of(pick(rng));
                q = ops::select(tgdb, &q, NodeFilter::node_is(key)).unwrap();
            }
            _ => {
                let attrs = &tgdb.schema.node_type(nt).attrs;
                let pos = rng.gen_range(0..attrs.len());
                let attr = attrs[pos].name.clone();
                let value = |rng: &mut StdRng| g.value(pick(rng), pos);
                let filter = if rng.gen_range(0..2) == 0 {
                    NodeFilter::cmp(&attr, CmpOp::Eq, value(rng))
                } else {
                    let values = vec![value(rng), value(rng)];
                    NodeFilter::atom(FilterAtom::In { attr, values })
                };
                match ops::select_on(tgdb, &q, at, filter) {
                    Ok(next) => q = next,
                    // `= NULL` and the like: the analyzer's refusals.
                    Err(Error::InvalidAction(_)) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }
    q
}

/// How `match_primary` started one pattern node, by its documented rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Start {
    /// One candidate: the node a `NodeIs` atom names.
    NodeIs,
    /// The parent's neighbors, filtered.
    Expand,
    /// The whole type, filtered.
    Scan,
}

/// The seed `match_primary` roots a pattern at (`"NodeIs"`, `"filtered"`
/// or `"none"`, meaning the primary), and how each node starts, recomputed
/// from its documented rule with the graph's public API.
fn seed_and_starts(tgdb: &Tgdb, q: &QueryPattern) -> (&'static str, Vec<Start>) {
    let (seed, kind, mut starts) = started(tgdb, q);
    starts.remove(seed.0);
    (
        kind,
        starts.into_iter().map(|(start, _, _)| start).collect(),
    )
}

/// How one pattern node starts, its parent in the tree rooted at the
/// seed, and the nodes it starts with.
type Started = (Start, Option<PatternNodeId>, Vec<NodeId>);

/// The seed, its kind (as [`seed_and_starts`] names it), and how each
/// pattern node starts.
fn started(tgdb: &Tgdb, q: &QueryPattern) -> (PatternNodeId, &'static str, Vec<Started>) {
    let g = &tgdb.instances;
    let filters: Vec<_> = q
        .nodes
        .iter()
        .map(|n| n.filter.bind(tgdb, n.node_type).unwrap())
        .collect();
    let size = |id: &PatternNodeId| g.nodes_of_type(q.node(*id).node_type).len();
    let pinned = q.node_ids().find(|id| filters[id.0].node_is().is_some());
    let filtered = q
        .node_ids()
        .filter(|id| !q.node(*id).filter.is_empty())
        .min_by_key(size);
    let (seed, kind) = match (pinned, filtered) {
        (Some(id), _) => (id, "NodeIs"),
        (None, Some(id)) => (id, "filtered"),
        (None, None) => (q.primary, "none"),
    };
    let mut sets = vec![Vec::new(); q.len()];
    let mut starts = vec![(Start::Scan, None); q.len()];
    for step in q.tree(tgdb, seed).unwrap() {
        let (filter, nt) = (&filters[step.node.0], q.node(step.node).node_type);
        let all = g.nodes_of_type(nt);
        let expand = step.via.filter(|via| {
            let degrees: usize = sets[via.parent.0]
                .iter()
                .map(|&v| g.degree(via.edge_type, v))
                .sum();
            degrees < all.len()
        });
        let (start, source) = match (filter.node_is(), expand) {
            (Some(t), _) => (Start::NodeIs, t.into_iter().collect()),
            (None, Some(via)) => {
                let mut reached: Vec<_> = sets[via.parent.0]
                    .iter()
                    .flat_map(|&v| g.neighbors(via.edge_type, v))
                    .collect();
                reached.sort();
                reached.dedup();
                (Start::Expand, reached)
            }
            (None, None) => (Start::Scan, all.iter().collect()),
        };
        starts[step.node.0] = (start, step.via.map(|via| via.parent));
        sets[step.node.0] = source
            .into_iter()
            .filter(|&v| filter.eval(tgdb, v).unwrap())
            .collect();
    }
    let starts = starts.into_iter().zip(sets);
    (
        seed,
        kind,
        starts.map(|((s, p), set)| (s, p, set)).collect(),
    )
}

#[test]
fn selective_patterns_match_from_every_seed_and_start() {
    // Patterns anchored at one node or one value: the seeded matcher
    // equals the full join's projections, in order, the translation
    // returns its rows, and the case stream roots the match at each kind
    // of seed and starts nodes both ways.
    let tgdb = env();
    let mut seeds = std::collections::BTreeSet::new();
    let mut starts = std::collections::BTreeSet::new();
    for seed in 0..u64::from(cases(64).max(64)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = selective_pattern(tgdb, &mut rng);
        let full = match_full(tgdb, &q).unwrap();
        let prim = match_primary(tgdb, &q).unwrap();
        for id in q.node_ids() {
            let mut want = full.distinct_nodes(id).unwrap();
            want.sort();
            want.dedup();
            assert_eq!(
                prim.projection(id),
                want,
                "seed {seed}: {id}\n{}",
                q.diagram(tgdb)
            );
        }
        let expected = node_keys(tgdb, prim.rows());
        if let Err(msg) = check_translation(tgdb, &q, &expected, false) {
            panic!("seed {seed}: {msg}\n{}", q.diagram(tgdb));
        }
        let (kind, node_starts) = seed_and_starts(tgdb, &q);
        seeds.insert(kind);
        starts.extend(node_starts);
    }
    assert_eq!(
        seeds.into_iter().collect::<Vec<_>>(),
        ["NodeIs", "filtered", "none"]
    );
    for kind in [Start::Expand, Start::Scan] {
        assert!(
            starts.contains(&kind),
            "no node started by {kind:?}: {starts:?}"
        );
    }
}

#[test]
fn the_delta_down_pass_equals_rechecking_every_row() {
    // The down pass re-checks a node grown from its parent's start only
    // under the parent rows dropped since: on selective patterns that gives
    // the match re-checking every row gives, with no more rows re-checked,
    // and the case stream runs it where a parent did drop rows.
    let tgdb = env();
    let (mut dropped, mut fewer) = (0, 0);
    for seed in 0..u64::from(cases(64).max(64)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = selective_pattern(tgdb, &mut rng);
        let rechecked = |m: fn(&Tgdb, &QueryPattern) -> etable_repro::core::Result<_>| {
            let before = work::on_this_thread();
            let m = m(tgdb, &q).unwrap();
            (m, (work::on_this_thread() - before).down_rechecked)
        };
        let (delta, some) = rechecked(match_primary);
        let (every, all) = rechecked(testutil::match_rechecking_every_row);
        let at = format!("seed {seed}\n{}", q.diagram(tgdb));
        assert!(delta.rows().eq(every.rows()), "{at}");
        for id in q.node_ids() {
            assert_eq!(delta.projection(id), every.projection(id), "{id}, {at}");
        }
        assert!(some <= all, "{some} > {all}, {at}");
        fewer += usize::from(some < all);
        let (_, _, starts) = started(tgdb, &q);
        dropped += (starts.iter())
            .filter_map(|(start, parent, _)| parent.filter(|_| *start == Start::Expand))
            .filter(|p| starts[p.0].2.len() > delta.projection(*p).len())
            .count();
    }
    assert!(dropped > 0, "no expanded node's parent dropped a row");
    assert!(fewer > 0, "the delta down pass never re-checked fewer rows");
}

/// Text values of the filter-semantics leg, quote and wildcard included.
const TEXTS: [&str; 6] = ["ab", "Ab", "b'a", "a%b", "", "ba"];

/// LIKE patterns of the filter-semantics leg.
const LIKES: [&str; 7] = ["%a%", "a%", "_b", "%'%", "%", "AB", "%null%"];

/// The filter-semantics leg's database, its rows drawn from `rng`:
/// entities `g` and `h` whose labels (`name`, `title`) and other TEXT,
/// INT and FLOAT attributes may be NULL, a nullable foreign key `h → g`,
/// a junction `gh` and a multi-valued `tag`. Few rows, so the oracle
/// referees most translations; few distinct values, so translation also
/// makes the non-label attributes categorical value types.
fn filter_db(rng: &mut StdRng) -> Database {
    fn or_null(rng: &mut StdRng, v: String) -> String {
        if rng.gen_range(0..4) == 0 {
            "NULL".into()
        } else {
            v
        }
    }
    let text = |rng: &mut StdRng| {
        let t = TEXTS[rng.gen_range(0..TEXTS.len())].replace('\'', "''");
        or_null(rng, format!("'{t}'"))
    };
    let mut stmts = vec![
        "CREATE TABLE g (id INT PRIMARY KEY, name TEXT, n INT, score FLOAT)".to_string(),
        "CREATE TABLE h (id INT PRIMARY KEY, title TEXT, note TEXT, g_id INT REFERENCES g(id))"
            .into(),
        "CREATE TABLE gh (g_id INT, h_id INT, PRIMARY KEY (g_id, h_id), \
         FOREIGN KEY (g_id) REFERENCES g (id), FOREIGN KEY (h_id) REFERENCES h (id))"
            .into(),
        "CREATE TABLE tag (h_id INT, word TEXT, PRIMARY KEY (h_id, word), \
         FOREIGN KEY (h_id) REFERENCES h (id))"
            .into(),
    ];
    let (gs, hs) = (rng.gen_range(1..6), rng.gen_range(1..6));
    for id in 1..=gs {
        let (name, n) = (text(rng), rng.gen_range(0..3).to_string());
        let score = format!("{:.1}", rng.gen_range(0..4) as f64 / 2.0);
        let (n, score) = (or_null(rng, n), or_null(rng, score));
        stmts.push(format!("INSERT INTO g VALUES ({id}, {name}, {n}, {score})"));
    }
    for id in 1..=hs {
        let (title, note) = (text(rng), text(rng));
        let g_id = rng.gen_range(1..=gs).to_string();
        let g_id = or_null(rng, g_id);
        stmts.push(format!(
            "INSERT INTO h VALUES ({id}, {title}, {note}, {g_id})"
        ));
    }
    for (g, h) in (1..=gs).flat_map(|g| (1..=hs).map(move |h| (g, h))) {
        if rng.gen_range(0..3) == 0 {
            stmts.push(format!("INSERT INTO gh VALUES ({g}, {h})"));
        }
    }
    for h in 1..=hs {
        for word in TEXTS {
            if rng.gen_range(0..4) == 0 {
                let word = word.replace('\'', "''");
                stmts.push(format!("INSERT INTO tag VALUES ({h}, '{word}')"));
            }
        }
    }
    let mut db = Database::new();
    for stmt in &stmts {
        execute(&mut db, stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    db
}

/// A filter atom of any kind over node type `nt`, drawn from `rng`: the
/// six comparisons against INT, FLOAT, TEXT or NULL literals, LIKE and
/// NOT LIKE, IN with a NULL item, IS NULL, a neighbor-label LIKE, and
/// `NodeIs` on such a literal as the key. Many are ill-typed on purpose;
/// `ops::select` refuses those.
fn random_atom(tgdb: &Tgdb, nt: NodeTypeId, rng: &mut StdRng) -> FilterAtom {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let literal = |rng: &mut StdRng| match rng.gen_range(0..7) {
        0 | 1 => Value::Int(rng.gen_range(0..4)),
        2 | 3 => Value::Float(rng.gen_range(0..4) as f64 / 2.0),
        4 | 5 => Value::text(TEXTS[rng.gen_range(0..TEXTS.len())]),
        _ => Value::Null,
    };
    let attrs = &tgdb.schema.node_type(nt).attrs;
    let attr = attrs[rng.gen_range(0..attrs.len())].name.clone();
    let like = LIKES[rng.gen_range(0..LIKES.len())].to_string();
    let outgoing = tgdb.schema.outgoing(nt);
    match rng.gen_range(0..8) {
        0 => FilterAtom::Cmp {
            attr,
            op: OPS[rng.gen_range(0..OPS.len())],
            value: literal(rng),
        },
        7 => FilterAtom::NodeIs(literal(rng)),
        1 => FilterAtom::Like {
            attr,
            pattern: like,
        },
        2 => FilterAtom::NotLike {
            attr,
            pattern: like,
        },
        3 => FilterAtom::In {
            attr,
            values: vec![literal(rng), Value::Null, literal(rng)],
        },
        4 => FilterAtom::IsNull { attr },
        _ if outgoing.is_empty() => FilterAtom::IsNull { attr },
        _ => FilterAtom::NeighborLabelLike {
            edge: outgoing[rng.gen_range(0..outgoing.len())].0,
            pattern: like,
        },
    }
}

/// The set-at-a-time matcher against the row-at-a-time reference, filter
/// by filter: for the filter of every node of `q`, and for a conjunction
/// of one to three random atoms on every node type (entity and value
/// types), `BoundFilter::select` over the whole type and over a random
/// subset of it keeps exactly the nodes `BoundFilter::eval` passes one by
/// one. The atoms and subsets come from a generator derived from `seed`,
/// so the case stream of the leg that calls this does not change.
fn kernel_matches_evaluator(tgdb: &Tgdb, q: &QueryPattern, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e_656c);
    let mut filters: Vec<_> = q
        .nodes
        .iter()
        .map(|n| (n.node_type, n.filter.clone()))
        .collect();
    for (nt, _) in tgdb.schema.node_types() {
        let mut filter = NodeFilter::none();
        for _ in 0..rng.gen_range(1..4) {
            let atom = NodeFilter::atom(random_atom(tgdb, nt, &mut rng));
            if atom.bind(tgdb, nt).is_ok() {
                filter = filter.and(atom);
            }
        }
        filters.push((nt, filter));
    }
    for (nt, filter) in filters {
        let bound = filter.bind(tgdb, nt).map_err(|e| e.to_string())?;
        let all = tgdb.instances.nodes_of_type(nt);
        let every: Vec<NodeId> = all.iter().collect();
        let some: Vec<NodeId> = (all.iter()).filter(|_| rng.gen_range(0..2) == 0).collect();
        let passes = |nodes: &[NodeId]| -> Vec<NodeId> {
            let eval = |n: &NodeId| bound.eval(tgdb, *n).unwrap();
            nodes.iter().copied().filter(eval).collect()
        };
        // `select` reads and returns rows of the type; `None` is all rows.
        let rows = |nodes: &[NodeId]| nodes.iter().map(|&n| all.row(n).unwrap()).collect();
        let cases = [
            (None, &every),
            (Some(rows(&every)), &every),
            (Some(rows(&some)), &some),
        ];
        for (given, nodes) in cases {
            let got: Vec<NodeId> = match bound.select(tgdb, given) {
                Some(rows) => rows.into_iter().map(|r| all.node(r)).collect(),
                None => every.clone(),
            };
            if got != passes(nodes) {
                return Err(format!(
                    "{filter:?} over {} of {} nodes: select {got:?}, eval {:?}",
                    nodes.len(),
                    all.len(),
                    passes(nodes)
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn filters_mean_one_thing_to_matching_and_sql(seed in 0u64..1_000_000) {
        // Random filters on random node types, value types included, over
        // nullable data: the graph's matching (both matchers) keeps
        // exactly the rows the translated query returns on the engine and
        // on the oracle, `select` refuses only with typed errors, and the
        // kernel selects what the evaluator passes.
        let mut rng = StdRng::seed_from_u64(seed);
        let db = filter_db(&mut rng);
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let types = tgdb.schema.node_type_count();
        let start = tgdb.schema.node_types().nth(rng.gen_range(0..types)).unwrap().0;
        let mut q = ops::initiate(&tgdb, start).unwrap();
        for _ in 0..rng.gen_range(1..7) {
            match rng.gen_range(0..4) {
                0 if q.len() < 4 => {
                    let outgoing = tgdb.schema.outgoing(q.primary_node().node_type);
                    if let Some(&(et, _)) = outgoing.get(rng.gen_range(0..outgoing.len().max(1))) {
                        q = ops::add(&tgdb, &q, et).unwrap();
                    }
                }
                0 | 1 => {
                    let target = PatternNodeId(rng.gen_range(0..q.len()));
                    q = ops::shift(&q, target).unwrap();
                }
                _ => {
                    let atom = random_atom(&tgdb, q.primary_node().node_type, &mut rng);
                    match ops::select(&tgdb, &q, NodeFilter::atom(atom.clone())) {
                        Ok(next) => q = next,
                        Err(Error::InvalidAction(_) | Error::UnknownAttribute { .. }) => {}
                        Err(e) => prop_assert!(false, "seed {}: {:?} refused with {}", seed, atom, e),
                    }
                }
            }
        }
        let m = match_primary(&tgdb, &q).unwrap();
        let mut full = match_full(&tgdb, &q).unwrap().distinct_nodes(q.primary).unwrap();
        full.sort();
        prop_assert_eq!(&full, &m.rows().collect::<Vec<_>>(), "seed {}: matchers disagree", seed);
        if let Err(msg) = kernel_matches_evaluator(&tgdb, &q, seed) {
            prop_assert!(false, "seed {}: {}", seed, msg);
        }
        let expected = node_keys(&tgdb, m.rows());
        if let Err(msg) = check_translation(&tgdb, &q, &expected, true) {
            prop_assert!(false, "seed {}: {}\n{}", seed, msg, q.diagram(&tgdb));
        }
    }
}

#[test]
fn like_match_agrees_with_naive_reference() {
    // Reference implementation: recursive descent.
    fn naive(t: &[char], p: &[char]) -> bool {
        match (t.first(), p.first()) {
            (_, None) => t.is_empty(),
            (_, Some('%')) => naive(t, &p[1..]) || (!t.is_empty() && naive(&t[1..], p)),
            (Some(tc), Some('_')) => {
                let _ = tc;
                naive(&t[1..], &p[1..])
            }
            (Some(tc), Some(pc)) => tc.eq_ignore_ascii_case(pc) && naive(&t[1..], &p[1..]),
            (None, Some(_)) => false,
        }
    }
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..4000 {
        let tlen = rng.gen_range(0..10);
        let plen = rng.gen_range(0..8);
        let text: String = (0..tlen)
            .map(|_| ['a', 'b', 'A', 'c'][rng.gen_range(0..4)])
            .collect();
        let pattern: String = (0..plen)
            .map(|_| ['a', 'b', '%', '_', 'c'][rng.gen_range(0..5)])
            .collect();
        let tc: Vec<char> = text.to_lowercase().chars().collect();
        let pc: Vec<char> = pattern.to_lowercase().chars().collect();
        assert_eq!(
            etable_repro::relational::expr::like_match(&text, &pattern),
            naive(&tc, &pc),
            "text={text:?} pattern={pattern:?}"
        );
    }
}

#[test]
fn random_filters_never_crash_value_comparisons() {
    // Fuzz Value comparison total order: antisymmetry and transitivity on
    // random triples.
    let mut rng = StdRng::seed_from_u64(5);
    let rand_value = |rng: &mut StdRng| -> Value {
        match rng.gen_range(0..5) {
            0 => Value::Null,
            1 => Value::Int(rng.gen_range(-5..5)),
            2 => Value::Float(rng.gen_range(-3.0..3.0)),
            3 => Value::text(
                (0..rng.gen_range(0..3))
                    .map(|_| (b'a' + rng.gen_range(0..3u8)) as char)
                    .collect::<String>(),
            ),
            _ => Value::Bool(rng.gen_range(0..2) == 1),
        }
    };
    for _ in 0..5000 {
        let a = rand_value(&mut rng);
        let b = rand_value(&mut rng);
        let c = rand_value(&mut rng);
        // Antisymmetry.
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity (on <=).
        if a.total_cmp(&b) != std::cmp::Ordering::Greater
            && b.total_cmp(&c) != std::cmp::Ordering::Greater
        {
            assert_ne!(
                a.total_cmp(&c),
                std::cmp::Ordering::Greater,
                "{a:?} {b:?} {c:?}"
            );
        }
    }
}
