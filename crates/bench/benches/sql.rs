//! SQL executor benchmarks, one entry per kernel: the vectorized
//! single-table group scan, rank-keyed ORDER BY and MIN/MAX on text, the
//! pushdown scan (dictionary LIKE alone and beside an INT comparison), the
//! join probe, and the join + grouped tail — on the medium corpus, plus,
//! at 38 000 papers, the two `ORDER BY … LIMIT` statements of the wire
//! read mix (`*_top30`, `*_top40`), where the grouped relation has 20 671
//! rows and the top-k tail shows, `group_highcard`, the group-id pass
//! over the 110 746 rows of `Paper_Authors`, and the two predicate-kernel
//! scans of the wire read mix: an INT range (`scan_int_range`) and a
//! TEXT equality against one generated title (`scan_text_eq`), and
//! bulk statement 1 of the wire read mix (`project_bulk`: 19 108 rows ×
//! 3 columns, whose final projection gathers 57 324 cells), and Table 2's
//! two slowest statements of that mix, tasks 4 and 6 (set A): chains of
//! foreign-key joins from one filtered row, which probe only the rows
//! the held rows' index entries name.
//!
//! These are the paths `table1`/`fig1` regeneration leans on; their medians
//! feed `BENCH_results.json` and are pinned by the committed
//! `BENCH_baseline.json` regression gate.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_bench::parse_select as parse;
use etable_datagen::tasks::{task_set, TaskSet};
use etable_datagen::{generate, GenConfig};
use etable_relational::database::Database;
use etable_relational::sql::executor::execute_query;

/// A benchmark case: entry name and SQL.
type Case = (&'static str, &'static str);

fn bench_sql(c: &mut Criterion) {
    let medium: &[Case] = &[
        // Vectorized group scan (single table, no pushdown).
        (
            "group_count_year",
            "SELECT year, COUNT(*) AS n FROM Papers GROUP BY year ORDER BY n DESC, year",
        ),
        // MIN/MAX on interned text compare dictionary ranks.
        (
            "group_minmax_title",
            "SELECT conference_id, MIN(title) AS lo, MAX(title) AS hi \
             FROM Papers GROUP BY conference_id",
        ),
        // Pushdown selection vector feeding the group scan.
        (
            "filter_group_year",
            "SELECT year, COUNT(*) AS n FROM Papers WHERE year >= 2005 GROUP BY year",
        ),
        // Rank-keyed ORDER BY over a text column.
        (
            "order_by_title",
            "SELECT title FROM Papers ORDER BY title LIMIT 50",
        ),
        // Dictionary LIKE scan: one bitmap probe per row.
        (
            "scan_like_title",
            "SELECT id FROM Papers WHERE title LIKE '%data%'",
        ),
        // Two-column pushdown scan: INT comparison + dictionary LIKE.
        (
            "filtered_scan",
            "SELECT id FROM Papers WHERE year >= 2005 AND title LIKE '%data%'",
        ),
        // Build on Papers, probe Paper_Authors: the bare join kernel.
        (
            "join_probe",
            "SELECT pa.paper_id FROM Papers p, Paper_Authors pa WHERE p.id = pa.paper_id",
        ),
        // Hash join + grouped tail + ORDER BY with ties broken by name.
        (
            "join_group_author",
            "SELECT a.name, COUNT(*) AS n FROM Authors a, Paper_Authors pa \
             WHERE a.id = pa.author_id GROUP BY a.name ORDER BY n DESC, a.name LIMIT 10",
        ),
    ];
    let paper_scale: &[Case] = &[
        // ORDER BY COUNT(*) DESC … LIMIT 30 over 20 671 groups: typed group
        // ids, then a top-k of the grouped batch.
        (
            "join_group_author_top30",
            "SELECT a.name, COUNT(*) AS n FROM Authors a, Paper_Authors pa \
             WHERE a.id = pa.author_id GROUP BY a.name ORDER BY n DESC, a.name LIMIT 30",
        ),
        // Top-k of a text key below a dictionary LIKE scan.
        (
            "order_by_title_top40",
            "SELECT title FROM Papers WHERE title LIKE '%data%' ORDER BY title LIMIT 40",
        ),
        // 110 746 rows into 20 671 groups on an INT key.
        (
            "group_highcard",
            "SELECT author_id, COUNT(*) AS n FROM Paper_Authors GROUP BY author_id",
        ),
        // The INT pushdown of the bulk wire reads: one compare per row.
        (
            "scan_int_range",
            "SELECT COUNT(*) FROM Papers WHERE year >= 2008",
        ),
        // The same scan with its rows materialised: what the final
        // projection costs beside `scan_int_range`.
        (
            "project_bulk",
            "SELECT id, title, year FROM Papers WHERE year >= 2008",
        ),
    ];
    let mut group = c.benchmark_group("sql");
    // These medians feed the baseline regression gate; more samples keep
    // the IQR fence meaningful on a noisy machine.
    group.sample_size(30);
    let mut run = |db: &Database, name: &str, sql: &str| {
        let q = parse(sql);
        group.bench_function(name, |b| {
            b.iter(|| {
                execute_query(db, &q)
                    .expect("benchmark query executes")
                    .len()
            })
        });
    };
    // The larger corpus is generated only once the medium entries are
    // done: its strings join the interner the LIKE bitmap is built over.
    let db = generate(&GenConfig::medium());
    for (name, sql) in medium {
        run(&db, name, sql);
    }
    let db = generate(&GenConfig::medium().with_papers(38_000));
    for (name, sql) in paper_scale {
        run(&db, name, sql);
    }
    // TEXT equality against the title of the middle paper: one symbol-id
    // compare per row.
    let papers = db.table("Papers").expect("Papers exists");
    let title = papers.value(papers.len() / 2, 2);
    let title = title
        .as_text()
        .expect("titles are TEXT")
        .replace('\'', "''");
    run(
        &db,
        "scan_text_eq",
        &format!("SELECT COUNT(*) FROM Papers WHERE title = '{title}'"),
    );
    let tasks = task_set(TaskSet::A);
    run(&db, "task4_institution_conference", &tasks[3].sql);
    run(&db, "task6_conference_authors", &tasks[5].sql);
    group.finish();
}

criterion_group!(benches, bench_sql);
criterion_main!(benches);
