//! End-to-end CLI workflows: the Table 2 study tasks solved through the
//! command-line interface, with answers checked against ground-truth SQL —
//! the whole stack (parser → session → matching → rendering) in one path.

use etable_cli::engine::Engine;
use etable_repro::core::connection::Connection;
use etable_repro::datagen::{generate, ground_truth, task_set, GenConfig, TaskSet};
use etable_repro::relational::shared::SharedDatabase;
use etable_repro::tgm::{translate, Tgdb, TranslateOptions};
use std::sync::{Arc, OnceLock};

fn env() -> &'static (SharedDatabase, Arc<Tgdb>) {
    static ENV: OnceLock<(SharedDatabase, Arc<Tgdb>)> = OnceLock::new();
    ENV.get_or_init(|| {
        let db = generate(&GenConfig::small());
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let tgdb = Arc::new(tgdb);
        (SharedDatabase::new(Arc::clone(tgdb.database())), tgdb)
    })
}

fn run_to_csv(lines: &[&str]) -> String {
    let (db, tgdb) = env();
    let mut engine = Engine::new(Connection::connect(db, tgdb));
    for l in lines {
        engine
            .eval_line(l)
            .unwrap_or_else(|e| panic!("command `{l}` failed: {e}"));
    }
    engine.eval_line("export csv").expect("export")
}

fn csv_column(csv: &str, name: &str) -> Vec<String> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let idx = header
        .iter()
        .position(|h| *h == name)
        .unwrap_or_else(|| panic!("no column {name} in {header:?}"));
    // Fields with commas are quoted; for the columns we assert on (years,
    // titles without commas in the fixtures' planted rows) plain split works
    // only when no earlier field is quoted — so parse properly.
    lines.map(|l| csv_fields(l).swap_remove(idx)).collect()
}

/// Splits one CSV record on the commas outside double quotes; `""` inside
/// quotes is one `"`.
fn csv_fields(line: &str) -> Vec<String> {
    let (mut fields, mut cur, mut quoted) = (Vec::new(), String::new(), false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    assert!(!quoted, "unterminated quoted CSV field: {line}");
    fields.push(cur);
    fields
}

#[test]
fn record_parsing_with_quotes() {
    assert_eq!(csv_fields("a,b,c"), ["a", "b", "c"]);
    assert_eq!(csv_fields("x,,z"), ["x", "", "z"]);
    assert_eq!(
        csv_fields("1,\"a, b\",\"he said \"\"hi\"\"\""),
        ["1", "a, b", "he said \"hi\""]
    );
}

#[test]
fn task1_year_lookup_via_cli() {
    let tasks = task_set(TaskSet::A);
    let (db, _) = env();
    let truth = ground_truth(&db.snapshot(), &tasks[0]);
    let csv = run_to_csv(&[
        "open Papers",
        "filter title = 'Making database systems usable'",
    ]);
    let years = csv_column(&csv, "year");
    assert_eq!(
        years.into_iter().collect::<std::collections::BTreeSet<_>>(),
        truth
    );
}

#[test]
fn task3_filter_pipeline_via_cli() {
    // Papers by Samuel Madden in 2013+, via Authors -> seeall -> filter.
    let tasks = task_set(TaskSet::A);
    let (db, _) = env();
    let truth = ground_truth(&db.snapshot(), &tasks[2]);
    let csv = run_to_csv(&[
        "open Authors",
        "filter name = 'Samuel Madden'",
        "seeall 1 Papers",
        "filter year >= 2013",
    ]);
    let titles = csv_column(&csv, "title");
    assert_eq!(
        titles
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>(),
        truth
    );
}

#[test]
fn task5_superlative_via_cli() {
    let tasks = task_set(TaskSet::A);
    let (db, _) = env();
    let truth = ground_truth(&db.snapshot(), &tasks[4]);
    let csv = run_to_csv(&[
        "open Institutions",
        "filter country = 'South Korea'",
        "sort Authors desc",
    ]);
    let names = csv_column(&csv, "name");
    assert_eq!(
        names
            .first()
            .cloned()
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>(),
        truth
    );
}

#[test]
fn json_export_round_trips_reference_counts() {
    let (db, tgdb) = env();
    let mut engine = Engine::new(Connection::connect(db, tgdb));
    engine.eval_line("open Conferences").unwrap();
    engine.eval_line("filter acronym = SIGMOD").unwrap();
    let json = engine.eval_line("export json").unwrap();
    // SIGMOD's paper count in the JSON equals the relational row count.
    let n = db
        .execute(
            "SELECT COUNT(*) FROM Papers p, Conferences c \
             WHERE p.conference_id = c.id AND c.acronym = 'SIGMOD'",
        )
        .unwrap()
        .get(0, 0)
        .as_int()
        .unwrap();
    assert!(
        json.contains(&format!("{{\"count\":{n},")),
        "expected count {n} in JSON"
    );
}
