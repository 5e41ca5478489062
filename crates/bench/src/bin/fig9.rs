//! Figure 9: the four interface components — default table list, main
//! view, schema view, history view — rendered for a mid-exploration
//! session.

use etable_core::pattern::NodeFilter;
use etable_core::render::{render_session, RenderOptions};
use etable_core::session::Session;
use etable_relational::expr::CmpOp;

fn main() {
    let (_, tgdb) = etable_bench::default_dataset();
    let mut session = Session::new(tgdb.clone());
    session.open_by_name("Conferences").expect("open");
    session
        .filter(NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD"))
        .expect("filter");
    session.pivot("Papers").expect("pivot");
    session
        .filter(NodeFilter::cmp("year", CmpOp::Gt, 2005))
        .expect("filter year");
    session.pivot("Authors").expect("pivot authors");
    session.sort("Papers", true).expect("sort");

    let opts = RenderOptions {
        max_rows: 8,
        ..Default::default()
    };
    println!("{}", render_session(&mut session, &opts));
}
