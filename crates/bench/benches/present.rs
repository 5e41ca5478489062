//! Present bench family: the paper's presentation verbs (§6.1 sort, hide
//! and show; §9 item 3's column focus) on the medium corpus, each followed
//! by the session's table and a 12-row render, as the main view shows it.
//! `sorted_first_page` re-sorts all 3 000 papers by year (alternating the
//! direction, so every iteration is a new sort) and shows the first page;
//! `hide_after_sort` hides and shows a column of the sorted table, which
//! orders nothing again; `focus_top_4` ranks the columns of SIGMOD's
//! papers and hides all but the best four; `render_page` is the 12-row
//! render alone, of an all-Papers table already shown once; `chain_page`
//! is the same render of Table 2's task-4 chain (`Institutions = CMU →
//! Authors → Papers`, pivoted on to Conferences), whose Papers, Authors and
//! Institutions cells walk one, two and three hops from each row.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_core::pattern::NodeFilter;
use etable_core::render::{render_etable, RenderOptions};
use etable_core::session::Session;
use etable_datagen::GenConfig;
use etable_relational::expr::CmpOp;

fn bench_present(c: &mut Criterion) {
    let (_, tgdb) = etable_bench::dataset(&GenConfig::medium());
    let opts = RenderOptions::default();
    let show = |s: &mut Session| render_etable(&s.etable().expect("table shows"), &opts).len();
    let mut papers = Session::new(tgdb.clone());
    papers.open_by_name("Papers").expect("Papers opens");
    let mut sigmod = Session::new(tgdb.clone());
    sigmod
        .open_by_name("Conferences")
        .expect("Conferences opens");
    (sigmod.filter(NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")))
        .and_then(|()| sigmod.pivot("Papers"))
        .expect("SIGMOD's papers open");
    show(&mut sigmod);

    let mut group = c.benchmark_group("present");
    group.sample_size(20);
    let mut descending = false;
    group.bench_function("sorted_first_page", |b| {
        b.iter(|| {
            descending = !descending;
            papers.sort("year", descending).expect("year sorts");
            show(&mut papers)
        })
    });
    papers.sort("year", true).expect("year sorts");
    show(&mut papers);
    group.bench_function("hide_after_sort", |b| {
        b.iter(|| {
            papers.hide("title").expect("title hides");
            let hidden = show(&mut papers);
            papers.show("title").expect("title shows");
            hidden + show(&mut papers)
        })
    });
    group.bench_function("focus_top_4", |b| {
        b.iter(|| sigmod.focus_top_columns(4).expect("focus ranks").len())
    });
    let mut all = Session::new(tgdb.clone());
    all.open_by_name("Papers").expect("Papers opens");
    let page = all.etable().expect("table shows");
    render_etable(&page, &opts);
    group.bench_function("render_page", |b| {
        b.iter(|| render_etable(&page, &opts).len())
    });
    let mut chain = Session::new(tgdb);
    chain
        .open_by_name("Institutions")
        .expect("Institutions opens");
    let cmu = NodeFilter::cmp("name", CmpOp::Eq, "Carnegie Mellon University");
    chain.filter(cmu).expect("CMU filters");
    for to in ["Authors", "Papers", "Conferences"] {
        chain.pivot(to).expect("the chain pivots");
    }
    let conferences = chain.etable().expect("table shows");
    render_etable(&conferences, &opts);
    group.bench_function("chain_page", |b| {
        b.iter(|| render_etable(&conferences, &opts).len())
    });
    group.finish();
}

criterion_group!(benches, bench_present);
criterion_main!(benches);
