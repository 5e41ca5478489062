//! Present bench family: the paper's presentation verbs (§6.1 sort, hide
//! and show; §9 item 3's column focus) on the medium corpus, each followed
//! by the session's table and a 12-row render, as the main view shows it.
//! `sorted_first_page` re-sorts all 3 000 papers by year (alternating the
//! direction, so every iteration is a new sort) and shows the first page;
//! `hide_after_sort` hides and shows a column of the sorted table, which
//! orders nothing again; `focus_top_4` ranks the columns of SIGMOD's
//! papers and hides all but the best four.

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
    let mut sigmod = Session::new(tgdb);
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
    group.finish();
}

criterion_group!(benches, bench_present);
criterion_main!(benches);
