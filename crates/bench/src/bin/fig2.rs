//! Figure 2: three interaction routes from a Papers table to author
//! information — (a) click an author's name, (b) click a paper's author
//! count, (c) click the pivot button on the Authors column.

use etable_core::render::{render_etable, RenderOptions};
use etable_core::session::Session;

fn main() {
    let (_, tgdb) = etable_bench::default_dataset();
    let opts = RenderOptions {
        max_rows: 5,
        ..Default::default()
    };

    // Start from the Papers table, as in the figure.
    let mut base = Session::new(tgdb.clone());
    base.open_by_name("Papers").expect("open Papers");
    let papers_table = base.etable().expect("papers table");
    let (papers_ty, _) = tgdb.schema.node_type_by_name("Papers").expect("Papers");
    let usable = tgdb
        .node_by_key(papers_ty, &1.into())
        .expect("planted paper 1");
    let row = papers_table
        .nodes()
        .position(|n| n == usable)
        .expect("row for paper 1");
    let authors_col = papers_table.column_index("Authors").expect("Authors col");
    let first_author = papers_table
        .cell(row, authors_col)
        .and_then(|c| c.refs()?.next())
        .expect("an author");

    println!("Starting table: Papers ({} rows)\n", papers_table.len());

    // (a) Click an author's name -> single-row Authors table.
    let mut a = Session::new(tgdb.clone());
    a.open_by_name("Papers").unwrap();
    a.single(first_author).expect("click reference");
    println!(
        "(a) Click reference '{}':",
        papers_table.label(first_author)
    );
    println!("{}", render_etable(&a.etable().unwrap(), &opts));

    // (b) Click the author count -> all authors of that paper.
    let mut b = Session::new(tgdb.clone());
    b.open_by_name("Papers").unwrap();
    b.seeall(usable, "Authors").expect("click count");
    println!("(b) Click author count of 'Making database systems usable':");
    println!("{}", render_etable(&b.etable().unwrap(), &opts));

    // (c) Click the pivot button -> all authors across all rows.
    let mut c = Session::new(tgdb.clone());
    c.open_by_name("Papers").unwrap();
    c.pivot("Authors").expect("pivot");
    c.sort("Papers", true);
    println!("(c) Click pivot on the Authors column (sorted by paper count):");
    println!("{}", render_etable(&c.etable().unwrap(), &opts));
}
