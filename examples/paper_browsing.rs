//! The paper's running example (Figures 1 and 2): browse SIGMOD papers
//! about "user", then drill into authors three different ways.
//!
//! Run with `cargo run --example paper_browsing`.

use etable_repro::core::pattern::{FilterAtom, NodeFilter};
use etable_repro::core::render::{render_etable, render_history, RenderOptions};
use etable_repro::core::session::Session;
use etable_repro::relational::expr::CmpOp;

fn main() {
    let (_, tgdb) = etable_repro::default_environment();
    let mut session = Session::new(tgdb.clone());

    // Figure 1: Papers filtered by keyword LIKE '%user%' AND conference =
    // SIGMOD. The keyword filter targets a *neighbor label* — the interface
    // turns it into a subquery (§6.1).
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").expect("Papers");
    let (keyword_edge, _) = tgdb
        .schema
        .outgoing_by_name(papers, "Paper_Keywords: keyword")
        .expect("keyword edge");

    session.open_by_name("Papers").expect("open");
    session
        .filter(NodeFilter::atom(FilterAtom::NeighborLabelLike {
            edge: keyword_edge,
            pattern: "%user%".into(),
        }))
        .expect("keyword filter");
    session.pivot("Conferences").expect("pivot");
    session
        .filter(NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD"))
        .expect("conference filter");
    session.pivot("Papers").expect("pivot back");
    session.sort("Papers (referenced)", true).expect("sort");

    let table = session.etable().expect("execute");
    let opts = RenderOptions {
        max_rows: 10,
        ..Default::default()
    };
    println!("{}", render_etable(&table, &opts));
    println!("{}", render_history(&session));

    // Figure 2: three routes to author information.
    let row_node = table.node_at(0).expect("at least one row");
    let authors_col = table.column_index("Authors").expect("Authors column");
    let first_author = table
        .cell(0, authors_col)
        .and_then(|c| c.refs()?.next())
        .expect("an author");

    // (a) click one author's name.
    let mut a = Session::new(tgdb.clone());
    a.open_by_name("Papers").unwrap();
    a.single(first_author).expect("single");
    println!(
        "(a) clicking '{}' opens a one-row Authors table: {} row(s)",
        table.label(first_author),
        a.etable().unwrap().len()
    );

    // (b) click the count in the cell.
    session.seeall(row_node, "Authors").expect("seeall");
    println!(
        "(b) clicking the author count lists all {} author(s) of that paper",
        session.etable().unwrap().len()
    );
    session.revert(session.history().len() - 2).expect("back");

    // (c) click the pivot button on the column.
    session.pivot("Authors").expect("pivot authors");
    session.sort("Papers", true).expect("sort");
    let authors = session.etable().expect("authors table");
    println!(
        "(c) pivoting groups all {} authors and ranks them by paper count:",
        authors.len()
    );
    let name_col = authors.column_index("name").expect("name");
    let papers_col = authors.column_index("Papers").expect("Papers");
    for (row, name) in authors.column_values(name_col).take(5).enumerate() {
        println!(
            "      {:<28} {} papers",
            name.value().expect("name"),
            authors.ref_count(row, papers_col)
        );
    }
}
