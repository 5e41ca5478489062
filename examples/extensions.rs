//! The §9 future-work features implemented as extensions: column ranking,
//! result caching, and machine-readable export.
//!
//! Run with `cargo run --example extensions`.

use etable_repro::core::column_rank;
use etable_repro::core::export;
use etable_repro::core::pattern::NodeFilter;
use etable_repro::core::session::Session;
use etable_repro::core::{ops, transform};
use etable_repro::relational::expr::CmpOp;

fn main() {
    let (_, tgdb) = etable_repro::default_environment();

    // The SIGMOD papers.
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").expect("Papers");
    let sigmod = {
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ce, _) = tgdb.schema.outgoing_by_name(papers, "Conferences").unwrap();
        let q = ops::add(&tgdb, &q, ce).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
        ops::shift(&q, etable_repro::core::pattern::PatternNodeId(0)).unwrap()
    };

    // --- §9 (3): column ranking ---------------------------------------
    let table = transform::execute(&tgdb, &sigmod).expect("execute");
    println!("column ranking for the SIGMOD papers table:");
    for score in column_rank::rank_columns(&table).iter().take(6) {
        println!(
            "  {:<26} score {:.3}  (fill {:.2}, distinct {:.2}, refs/cell {:.1})",
            score.name, score.score, score.fill_rate, score.distinctness, score.mean_refs
        );
    }

    // Session-level: keep only the best 4 columns.
    let mut s = Session::new(tgdb.clone());
    s.open_by_name("Papers").unwrap();
    let kept = s.focus_top_columns(4).unwrap();
    println!("\nfocused columns: {}", kept.join(", "));

    // --- §9 (2): reusing matches --------------------------------------
    s.filter(NodeFilter::cmp("year", CmpOp::Ge, 2010)).unwrap();
    let _ = s.etable().unwrap();
    s.revert(0).unwrap(); // step 0's pattern: the session kept its match
    let _ = s.etable().unwrap();
    let (hits, misses) = s.cache_stats();
    println!("kept matches: {hits} hits / {misses} misses after a revert");

    // --- export --------------------------------------------------------
    let json = export::to_json(&table);
    let csv = export::to_csv(&table);
    println!(
        "\nexports: JSON {} bytes, CSV {} bytes (first line: {})",
        json.len(),
        csv.len(),
        csv.lines().next().unwrap_or("")
    );
}
