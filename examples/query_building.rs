//! Incremental query building (Figures 6 and 7): construct "researchers at
//! Korean institutions who published at SIGMOD after 2005" one primitive
//! operator at a time, then round-trip the pattern through SQL (§8).
//!
//! Run with `cargo run --example query_building`.

use etable_repro::core::pattern::{NodeFilter, PatternNodeId};
use etable_repro::core::{from_sql, matching, ops, to_sql};
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::sql::ast::{Query, SqlExpr};
use etable_repro::relational::sql::executor::execute_query;

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
    for node in m.rows().take(8) {
        println!("  - {}", tgdb.instances.label(node));
    }

    // §8: the pattern as the paper's general SQL form, and an executable
    // primary-key query whose result provably matches the pattern. The
    // translation is the SQL front end's own AST; the text is its rendering.
    let display_sql = to_sql::to_sql(&tgdb, &q).expect("to_sql");
    let exec = to_sql::to_query(&tgdb, &q).expect("to_query");
    println!("\n§8 SQL pattern:\n  {display_sql}");
    println!("\nexecutable check query:\n  {exec}");

    let rel = execute_query(&db, &exec).expect("SQL runs");
    assert_eq!(rel.len(), m.rows().len(), "SQL and ETable agree");
    println!(
        "\nSQL returned {} researchers — identical to the ETable result.",
        rel.len()
    );

    // And back again: SQL -> ETable pattern (§8's translation steps), from
    // the same query in the GROUP BY form that names the primary.
    let grouped = Query {
        distinct: false,
        group_by: vec![SqlExpr::Column("t2.id".into())],
        ..exec
    };
    let back = from_sql::from_query(&tgdb, &grouped).expect("from_query");
    let m2 = matching::match_primary(&tgdb, &back).expect("match back");
    assert!(m.rows().eq(m2.rows()));
    println!("round-trip SQL -> pattern -> execution agrees too.");
}
