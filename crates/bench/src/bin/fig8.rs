//! Figure 8: the two-step query execution process — instance matching
//! produces an intermediate graph relation; format transformation pivots it
//! into the ETable format without duplication.

use etable_core::pattern::{NodeFilter, PatternNodeId};
use etable_core::render::{render_etable, RenderOptions};
use etable_core::{matching, ops, transform};
use etable_relational::expr::CmpOp;

fn main() {
    // The figure's query: σ_acronym='SIGMOD'(Conf) * σ_year>2005(Papers)
    // * Authors * Institutions, presented with Authors as primary.
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
    let q = ops::shift(&q, PatternNodeId(2)).unwrap(); // Authors primary

    println!("== Figure 8, step 1: instance matching ==\n");
    let full = matching::match_full(&tgdb, &q).expect("full matching");
    println!(
        "intermediate graph relation: {} attributes x {} tuples",
        full.attrs.len(),
        full.len()
    );
    println!("first tuples (node labels):");
    for t in full.tuples.iter().take(8) {
        let labels: Vec<String> = t
            .iter()
            .map(|&n| {
                let ty = &tgdb.schema.node_type(tgdb.instances.type_of(n)).name;
                format!(
                    "[{}] {}",
                    ty,
                    etable_core::render::truncate(&tgdb.instances.label(n).to_string(), 18)
                )
            })
            .collect();
        println!("  ({})", labels.join(", "));
    }

    println!("\n== Figure 8, step 2: format transformation ==\n");
    let table = transform::execute(&tgdb, &q).expect("transform");
    let opts = RenderOptions {
        max_rows: 8,
        ..Default::default()
    };
    println!("{}", render_etable(&table, &opts));
    println!(
        "graph relation tuples: {}   ETable rows: {}   (duplication factor {:.1}x removed)",
        full.len(),
        table.len(),
        full.len() as f64 / table.len().max(1) as f64
    );
}
