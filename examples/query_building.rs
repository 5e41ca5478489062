//! Incremental query building (Figures 6 and 7): construct "researchers at
//! Korean institutions who published at SIGMOD after 2005" one primitive
//! operator at a time, then round-trip the pattern through SQL (§8).
//!
//! Run with `cargo run --example query_building`.

use etable_repro::core::pattern::{NodeFilter, PatternNodeId};
use etable_repro::core::{matching, ops, sql_translate};
use etable_repro::relational::expr::CmpOp;

fn main() {
    let (db, tgdb) = etable_repro::default_environment();

    // P1: Initiate("Conferences")
    let (confs, _) = tgdb
        .schema
        .node_type_by_name("Conferences")
        .expect("Conferences");
    let q = ops::initiate(&tgdb, confs).expect("P1");
    // P2: Select(acronym = 'SIGMOD')
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).expect("P2");
    // P3: Add(Papers)
    let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").expect("edge");
    let q = ops::add(&tgdb, &q, pe).expect("P3");
    // P4: Select(year > 2005)
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).expect("P4");
    // P5: Add(Authors)
    let papers_ty = q.primary_node().node_type;
    let (ae, _) = tgdb
        .schema
        .outgoing_by_name(papers_ty, "Authors")
        .expect("edge");
    let q = ops::add(&tgdb, &q, ae).expect("P5");
    // P6: Add(Institutions)
    let authors_ty = q.primary_node().node_type;
    let (ie, _) = tgdb
        .schema
        .outgoing_by_name(authors_ty, "Institutions")
        .expect("edge");
    let q = ops::add(&tgdb, &q, ie).expect("P6");
    // P7: Select(country like '%Korea%')
    let q = ops::select(&tgdb, &q, NodeFilter::like("country", "%Korea%")).expect("P7");
    // P8: Shift(Authors)
    let q = ops::shift(&q, PatternNodeId(2)).expect("P8");

    println!(
        "final query pattern (primary marked *):\n{}",
        q.diagram(&tgdb)
    );

    let m = matching::match_primary(&tgdb, &q).expect("match");
    println!("matched researchers: {}", m.rows().len());
    for &node in m.rows().iter().take(8) {
        println!("  - {}", tgdb.instances.label(node));
    }

    // §8: the pattern as the paper's general SQL form, and an executable
    // primary-key query whose result provably matches the pattern.
    let display_sql = sql_translate::to_sql(&tgdb, &db, &q).expect("to_sql");
    let exec_sql = sql_translate::to_primary_sql(&tgdb, &db, &q).expect("to_primary_sql");
    println!("\n§8 SQL pattern:\n  {display_sql}");
    println!("\nexecutable check query:\n  {exec_sql}");

    let mut db2 = db.clone();
    let rel = etable_repro::relational::sql::execute(&mut db2, &exec_sql).expect("SQL runs");
    assert_eq!(rel.len(), m.rows().len(), "SQL and ETable agree");
    println!(
        "\nSQL returned {} researchers — identical to the ETable result.",
        rel.len()
    );

    // And back again: SQL -> ETable pattern (§8's translation steps).
    let grouped = exec_sql.replacen("SELECT DISTINCT ", "SELECT ", 1) + " GROUP BY t2.id";
    let back = sql_translate::from_sql(&tgdb, &db, &grouped).expect("from_sql");
    let m2 = matching::match_primary(&tgdb, &back).expect("match back");
    assert_eq!(m.rows(), m2.rows());
    println!("round-trip SQL -> pattern -> execution agrees too.");
}
