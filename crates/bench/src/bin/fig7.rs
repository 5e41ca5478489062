//! Figure 7: incrementally building the Figure 6 query — the eight
//! primitive operators P1–P8 (left side) and the user-level actions U1–U4
//! (right side) that invoke them.

use etable_core::pattern::{NodeFilter, PatternNodeId, QueryPattern};
use etable_core::render::{render_etable, RenderOptions};
use etable_core::session::Session;
use etable_core::{matching, ops};
use etable_relational::expr::CmpOp;
use etable_tgm::Tgdb;

fn show(tgdb: &Tgdb, step: &str, op: &str, q: &QueryPattern) {
    let m = matching::match_primary(tgdb, q).expect("match");
    println!("--- {step}: {op} ---");
    print!("{}", q.diagram(tgdb));
    println!("rows: {}\n", m.rows().len());
}

fn main() {
    let (_, tgdb) = etable_bench::default_dataset();
    println!("== Figure 7 (left): primitive operator sequence ==\n");

    let (confs, _) = tgdb
        .schema
        .node_type_by_name("Conferences")
        .expect("Conferences");
    let q = ops::initiate(&tgdb, confs).unwrap();
    show(&tgdb, "P1", "Initiate(\"Conferences\")", &q);
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
    show(&tgdb, "P2", "Select(\"acronym = 'SIGMOD'\")", &q);
    let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
    let q = ops::add(&tgdb, &q, pe).unwrap();
    show(&tgdb, "P3", "Add(\"Papers\")", &q);
    let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
    show(&tgdb, "P4", "Select(\"year > 2005\")", &q);
    let papers_ty = q.primary_node().node_type;
    let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
    let q = ops::add(&tgdb, &q, ae).unwrap();
    show(&tgdb, "P5", "Add(\"Authors\")", &q);
    let authors_ty = q.primary_node().node_type;
    let (ie, _) = tgdb
        .schema
        .outgoing_by_name(authors_ty, "Institutions")
        .unwrap();
    let q = ops::add(&tgdb, &q, ie).unwrap();
    show(&tgdb, "P6", "Add(\"Institutions\")", &q);
    let q = ops::select(&tgdb, &q, NodeFilter::like("country", "%Korea%")).unwrap();
    show(&tgdb, "P7", "Select(\"country like '%Korea%'\")", &q);
    let q = ops::shift(&q, PatternNodeId(2)).unwrap();
    show(&tgdb, "P8", "Shift(\"Authors\")", &q);

    println!("\n== Figure 7 (right): the same query through user actions ==\n");
    let mut s = Session::new(tgdb.clone());
    s.open_by_name("Conferences").unwrap(); // U1
    println!("U1: Open(\"Conferences\")");
    let t = s.etable().unwrap();
    let sigmod = t
        .column_values(t.column_index("acronym").unwrap())
        .position(|c| c.value().is_some_and(|v| v.to_string() == "SIGMOD"))
        .and_then(|row| t.node_at(row))
        .expect("SIGMOD row");
    s.seeall(sigmod, "Papers").unwrap(); // U2
    println!("U2: Seeall(\"SIGMOD\", \"Papers\")  [invokes Select + Add]");
    s.filter(NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap(); // U3
    println!("U3: Filter(\"year > 2005\")         [invokes Select]");
    s.pivot("Authors").unwrap(); // U4
    s.sort("Papers", true).unwrap();
    println!("U4: Pivot(\"Authors\")              [invokes Add] + sort by paper count\n");
    let t = s.etable().unwrap();
    let opts = RenderOptions {
        max_rows: 6,
        ..Default::default()
    };
    println!("{}", render_etable(&t, &opts));
}
