//! Figure 6: the example query pattern — researchers who published at
//! SIGMOD after 2005 and work at institutions in Korea — in diagrammatic
//! form, plus its §8 SQL equivalent.

use etable_core::pattern::{NodeFilter, PatternNodeId};
use etable_core::{ops, to_sql};
use etable_relational::expr::CmpOp;

fn main() {
    let (_, tgdb) = etable_bench::default_dataset();
    let (confs, _) = tgdb
        .schema
        .node_type_by_name("Conferences")
        .expect("Conferences");
    let q = ops::initiate(&tgdb, confs).unwrap();
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
    let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
    let q = ops::add(&tgdb, &q, pe).unwrap();
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
    let papers_ty = q.primary_node().node_type;
    let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
    let q = ops::add(&tgdb, &q, ae).unwrap();
    let authors_ty = q.primary_node().node_type;
    let (ie, _) = tgdb
        .schema
        .outgoing_by_name(authors_ty, "Institutions")
        .unwrap();
    let q = ops::add(&tgdb, &q, ie).unwrap();
    let q = ops::select(&tgdb, &q, NodeFilter::like("country", "%Korea%")).unwrap();
    let q = ops::shift(&q, PatternNodeId(2)).unwrap();

    println!("== Figure 6: query pattern (primary node marked *) ==\n");
    println!("{}", q.diagram(&tgdb));
    println!("§8 SQL pattern:\n  {}", to_sql::to_sql(&tgdb, &q).unwrap());
    println!(
        "\nexecutable primary-key query:\n  {}",
        to_sql::to_primary_sql(&tgdb, &q).unwrap()
    );
    let m = etable_core::matching::match_primary(&tgdb, &q).unwrap();
    println!("\nmatched researchers: {}", m.rows().len());
}
