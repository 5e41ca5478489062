//! The "quick neighbor-lookup" claim (§1): retrieving a paper's authors
//! through the TGM adjacency index vs. executing the equivalent relational
//! join. `tgm_adjacency` counts a paper's authors; `tgm_read_authors`
//! reads every author id, each through the relationship's author map, and
//! `tgm_read_conference_papers` reads every paper id of a conference, a
//! bare run of the conference key's reverse index.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_datagen::GenConfig;
use etable_relational::sql::executor::execute_query;
use etable_relational::sql::parse_statement;

fn bench_neighbor(c: &mut Criterion) {
    let (db, tgdb) = etable_bench::dataset(&GenConfig::small().with_papers(1000));
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
    let (authors_edge, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
    let nodes: Vec<_> = tgdb.instances.nodes_of_type(papers).iter().collect();

    let mut group = c.benchmark_group("neighbor");
    // TGM: adjacency probe per paper.
    group.bench_function("tgm_adjacency", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let n = nodes[i % nodes.len()];
            i += 1;
            tgdb.instances.neighbors(authors_edge, n).len()
        })
    });
    group.bench_function("tgm_read_authors", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let n = nodes[i % nodes.len()];
            i += 1;
            let authors = tgdb.instances.neighbors(authors_edge, n);
            authors.map(|a| a.0).fold(0u32, u32::wrapping_add)
        })
    });
    let (conferences, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
    let (papers_edge, _) = tgdb.schema.outgoing_by_name(conferences, "Papers").unwrap();
    let venues: Vec<_> = tgdb.instances.nodes_of_type(conferences).iter().collect();
    group.bench_function("tgm_read_conference_papers", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let n = venues[i % venues.len()];
            i += 1;
            let papers = tgdb.instances.neighbors(papers_edge, n);
            papers.map(|p| p.0).fold(0u32, u32::wrapping_add)
        })
    });
    // Relational: a 3-table join filtered to one paper id.
    let stmt = parse_statement(
        "SELECT a.name FROM Papers p, Paper_Authors pa, Authors a \
         WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.id = 500",
    )
    .unwrap();
    let q = match stmt {
        etable_relational::sql::Statement::Select(q) => q,
        _ => unreachable!(),
    };
    group.bench_function("relational_join", |b| {
        b.iter(|| execute_query(&db, &q).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, bench_neighbor);
criterion_main!(benches);
