//! Figure 1: the enriched table of SIGMOD papers whose keywords contain
//! "user", with base attributes, participating columns (Conferences,
//! keywords) and neighbor columns (Authors, citations), plus the history
//! panel shown on the figure's right side.

use etable_core::pattern::{FilterAtom, NodeFilter};
use etable_core::render::{render_etable, render_history, RenderOptions};
use etable_core::session::Session;
use etable_relational::expr::CmpOp;

fn main() {
    let (_, tgdb) = etable_bench::dataset(&etable_bench::scale_from_env());
    let mut session = Session::new(tgdb.clone());

    // Figure 1 filters papers by *keyword*, a neighbor label, which the
    // interface translates into a subquery (§6.1).
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").expect("Papers");
    let (keyword_edge, _) = tgdb
        .schema
        .outgoing_by_name(papers, "Paper_Keywords: keyword")
        .expect("keyword edge");
    let keyword_filter = NodeFilter::atom(FilterAtom::NeighborLabelLike {
        edge: keyword_edge,
        pattern: "%user%".into(),
    });

    // The history of Figure 1, steps 1-6.
    session.open_by_name("Papers").expect("open Papers");
    session.filter(keyword_filter).expect("filter by keyword");
    session.sort("Papers (referenced)", true).expect("sort");
    session
        .pivot("Conferences")
        .expect("pivot onto Conferences");
    session
        .filter(NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD"))
        .expect("filter SIGMOD");
    session.pivot("Papers").expect("pivot back to Papers");
    session.sort("Paper_Keywords: keyword", true).expect("sort");
    session.sort("Papers (referenced)", true).expect("sort");

    let table = session.etable().expect("execute");
    let opts = RenderOptions {
        max_rows: 11,
        ..Default::default()
    };
    println!("{}", render_etable(&table, &opts));
    println!("{}", render_history(&session));
    println!(
        "{} SIGMOD papers match keyword LIKE '%user%'; a relational join of the \
         same tables would repeat each paper once per (author x keyword x \
         citation) combination.",
        table.len()
    );
}
