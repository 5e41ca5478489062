//! Quickstart: build a database, translate it to a typed graph, browse it
//! with ETable actions, look at the SQL you never had to write — then
//! serve the same database over TCP and query it from a wire client.
//!
//! Run with `cargo run --example quickstart`.

use etable_repro::core::pattern::NodeFilter;
use etable_repro::core::render::{render_etable, RenderOptions};
use etable_repro::core::session::Session;
use etable_repro::core::to_sql;
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::shared::SharedDatabase;

fn main() {
    // 1. A relational database: the paper's academic schema (Figure 3)
    //    filled with synthetic DBLP/ACM-like data.
    let (db, tgdb) = etable_repro::default_environment();
    println!(
        "relational database: {} tables, {} rows",
        db.table_names().len(),
        db.total_rows()
    );

    // 2. The typed graph model: entities and relationships, reverse
    //    engineered from keys and cardinalities (Appendix A).
    println!(
        "typed graph: {} node types, {} nodes, {} edges\n",
        tgdb.schema.node_type_count(),
        tgdb.instances.node_count(),
        tgdb.instances.edge_count()
    );

    // 3. Browse: open Papers, filter to recent ones, pivot to authors —
    //    no SQL, no schema knowledge, three actions.
    let mut session = Session::new(tgdb.clone());
    session.open_by_name("Papers").expect("open");
    session
        .filter(NodeFilter::cmp("year", CmpOp::Ge, 2014))
        .expect("filter");
    session.pivot("Authors").expect("pivot");
    session.sort("Papers", true).expect("sort");

    let table = session.etable().expect("execute");
    let opts = RenderOptions {
        max_rows: 8,
        ..Default::default()
    };
    println!("{}", render_etable(&table, &opts));

    // 4. The query the session built for you, in the paper's §8 SQL form.
    let pattern = session.current_pattern().expect("pattern");
    println!(
        "equivalent SQL (you never typed this):\n  {}",
        to_sql::to_sql(&tgdb, pattern).expect("translation")
    );

    // 5. The history panel: every step is revertable.
    println!();
    for (i, step) in session.history().iter().enumerate() {
        println!("history {}: {}", i + 1, step.description);
    }

    // 6. The same database as a multi-threaded server: any number of
    //    clients over one shared deployment, reads on epoch snapshots,
    //    writes serialized. `etable serve` / `etable client` wrap exactly
    //    this pair.
    let shared = SharedDatabase::new(db);
    let server =
        etable_server::Server::start("127.0.0.1:0", shared, tgdb).expect("bind an ephemeral port");
    let mut client =
        etable_server::Client::connect(server.addr().to_string().as_str()).expect("connect");
    let recent = client
        .query("SELECT COUNT(*) FROM Papers WHERE year >= 2014")
        .expect("wire query");
    println!(
        "\nover the wire (epoch {}): {} papers since 2014",
        client.epoch(),
        recent.get(0, 0)
    );
    client.quit().expect("orderly goodbye");
    server.shutdown().expect("all server threads joined");
}
