//! Paper-scale smoke test: the full 38,000-paper data set of §7.1,
//! translated and queried end to end. Runs as a normal test in release
//! builds (a couple of seconds on the columnar engine — CI runs it in the
//! paper-scale job); debug builds keep it ignored because the unoptimized
//! pipeline takes tens of seconds there (`cargo test --release -- --ignored`
//! still forces it in debug).
//!
//! `ETABLE_SCALE` overrides the paper count (the nightly `deep-verify`
//! workflow runs this at 76,000 papers); the structural assertions scale
//! with the configured size.

use etable_repro::core::pattern::{FilterAtom, NodeFilter};
use etable_repro::core::session::Session;
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::expr::CmpOp;
use etable_repro::tgm::{translate, TranslateOptions};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale run (38k papers) is release-only; debug builds skip it"
)]
fn paper_scale_pipeline() {
    let cfg = GenConfig::paper_scale()
        .with_scale_from_env()
        .expect("valid ETABLE_SCALE");
    let db = generate(&cfg);
    assert_eq!(db.table("Papers").unwrap().len(), cfg.papers);
    db.check_integrity().unwrap();

    let tgdb = std::sync::Arc::new(translate(&db, &TranslateOptions::default()).unwrap());
    // Every entity row becomes a node; link rows become edges. The
    // thresholds are the 38k run's (>60k nodes, >200k edges) expressed as
    // per-paper ratios so the test holds at any ETABLE_SCALE.
    assert!(tgdb.instances.node_count() > cfg.papers * 8 / 5);
    assert!(tgdb.instances.edge_count() > cfg.papers * 5);
    // Every neighbor list, both ways, read from the foreign-key indexes
    // and rank maps in place, has its mirror on the reverse edge type.
    assert_eq!(
        tgdb.instances.check_consistency(&tgdb.schema),
        Ok(2 * tgdb.instances.edge_count())
    );

    // The Figure 1 workload at full scale.
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
    let (ke, _) = tgdb
        .schema
        .outgoing_by_name(papers, "Paper_Keywords: keyword")
        .unwrap();
    let mut s = Session::new(tgdb.clone());
    s.open_by_name("Papers").unwrap();
    s.filter(NodeFilter::atom(FilterAtom::NeighborLabelLike {
        edge: ke,
        pattern: "%user%".into(),
    }))
    .unwrap();
    s.pivot("Conferences").unwrap();
    s.filter(NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD"))
        .unwrap();
    s.pivot("Papers").unwrap();
    let t = s.etable().unwrap();
    // ~1 in 300 papers is a SIGMOD 'user' paper (>126 at the 38k default).
    assert!(
        t.len() > cfg.papers / 300,
        "only {} SIGMOD 'user' papers at scale {}",
        t.len(),
        cfg.papers
    );
    // Interactive latency: re-execution from cache is instant; even the
    // cold path must stay comfortably interactive.
    let start = std::time::Instant::now();
    let _ = s.etable().unwrap();
    assert!(
        start.elapsed().as_millis() < 2_000,
        "cached re-render took {:?}",
        start.elapsed()
    );
}
