//! Rendered and exported tables must stay byte-identical across changes of
//! representation: the strings under `golden/` were captured from the
//! `EntityRef { node, label: String }` cells and `HashMap` adjacency this
//! crate had before its tables became id-native, so neighbor order,
//! reference order and label text are all pinned.

use etable_core::etable::EnrichedTable;
use etable_core::export::{to_csv, to_json};
use etable_core::pattern::{FilterAtom, NodeFilter, PatternNodeId};
use etable_core::render::{render_etable, RenderOptions};
use etable_core::session::Session;
use etable_core::testutil::academic_tgdb;
use etable_core::{ops, transform};
use etable_relational::expr::CmpOp;
use std::sync::Arc;

/// The Figure 1 history on the mini database: papers with a keyword like
/// "user", at SIGMOD, sorted by citations.
fn figure1() -> EnrichedTable {
    let tgdb = Arc::new(academic_tgdb());
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
    let (keyword_edge, _) = tgdb
        .schema
        .outgoing_by_name(papers, "Paper_Keywords: keyword")
        .unwrap();
    let mut s = Session::new(tgdb.clone());
    s.open_by_name("Papers").unwrap();
    s.filter(NodeFilter::atom(FilterAtom::NeighborLabelLike {
        edge: keyword_edge,
        pattern: "%user%".into(),
    }))
    .unwrap();
    s.pivot("Conferences").unwrap();
    s.filter(NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD"))
        .unwrap();
    s.pivot("Papers").unwrap();
    s.sort("Papers (referenced)", true);
    s.etable().unwrap()
}

/// The Figure 8 query: SIGMOD x papers after 2005 x authors x
/// institutions, presented with Authors as primary.
fn figure8() -> EnrichedTable {
    let tgdb = academic_tgdb();
    let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
    let q = ops::initiate(&tgdb, confs).unwrap();
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
    let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
    let q = ops::add(&tgdb, &q, pe).unwrap();
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
    let (ae, _) = tgdb
        .schema
        .outgoing_by_name(q.primary_node().node_type, "Authors")
        .unwrap();
    let q = ops::add(&tgdb, &q, ae).unwrap();
    let (ie, _) = tgdb
        .schema
        .outgoing_by_name(q.primary_node().node_type, "Institutions")
        .unwrap();
    let q = ops::add(&tgdb, &q, ie).unwrap();
    let q = ops::shift(&q, PatternNodeId(2)).unwrap();
    transform::execute(&tgdb, &q).unwrap()
}

#[test]
fn figure1_renders_and_exports_byte_identically() {
    let t = figure1();
    assert_eq!(
        render_etable(&t, &RenderOptions::default()),
        include_str!("golden/figure1.txt")
    );
    assert_eq!(to_json(&t), include_str!("golden/figure1.json"));
    assert_eq!(to_csv(&t), include_str!("golden/figure1.csv"));
}

#[test]
fn figure8_renders_and_exports_byte_identically() {
    let t = figure8();
    assert_eq!(
        render_etable(&t, &RenderOptions::default()),
        include_str!("golden/figure8.txt")
    );
    assert_eq!(to_json(&t), include_str!("golden/figure8.json"));
    assert_eq!(to_csv(&t), include_str!("golden/figure8.csv"));
}
