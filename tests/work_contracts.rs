//! The presentation layer's work, counted (`etable_core::work`), does not
//! grow with the table where the paper's verbs show a page of it: at two
//! corpus sizes, a sorted first page orders at most the page, a hide, a
//! show and a re-render after a sort build no key and order no row, and a
//! focus ranks the table once, reading labels once per distinct reference
//! set. The SQL executor's work (`etable_relational::work`) is held to the
//! rows a join can match: Table 2's join tasks probe no more rows than
//! their joins emit, and a statement builds a reverse foreign-key index
//! once per database, not once per run.

use etable_repro::core::etable::{Cell, EnrichedTable};
use etable_repro::core::render::{render_etable, RenderOptions};
use etable_repro::core::session::Session;
use etable_repro::core::work::{on_this_thread, Work};
use etable_repro::datagen::tasks::{task_set, TaskSet};
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::sql::executor::execute_query;
use etable_repro::relational::sql::{parse_statement, Statement};
use etable_repro::relational::work;
use etable_repro::tgm::{translate, NodeId, TranslateOptions};
use std::collections::HashSet;
use std::sync::Arc;

/// What `act` did on this thread.
fn work_of(act: impl FnOnce()) -> Work {
    let before = on_this_thread();
    act();
    on_this_thread() - before
}

/// The session's table, rendered as the main view shows it.
fn show(s: &mut Session) -> EnrichedTable {
    let t = s.etable().unwrap();
    render_etable(&t, &RenderOptions::default());
    t
}

/// The distinct reference sets of every reference column of `t`, and
/// their sizes summed.
fn distinct_sets(t: &EnrichedTable) -> (u64, u64) {
    let (mut sets, mut ids) = (0, 0);
    for c in 0..t.columns.len() {
        let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
        for cell in t.column_values(c) {
            if let Cell::Refs(refs) = cell {
                let mut set: Vec<NodeId> = refs.ids().collect();
                set.sort_unstable();
                seen.insert(set);
            }
        }
        sets += seen.len() as u64;
        ids += seen.iter().map(|s| s.len() as u64).sum::<u64>();
    }
    (sets, ids)
}

#[test]
fn presentation_work_is_bounded_by_what_is_shown() {
    let page = RenderOptions::default().max_rows as u64;
    for papers in [3_000, 12_000] {
        let db = generate(&GenConfig::medium().with_papers(papers));
        let tgdb = Arc::new(translate(&db, &TranslateOptions::default()).unwrap());
        let mut s = Session::new(tgdb);
        s.open_by_name("Papers").unwrap();
        assert_eq!(show(&mut s).len(), papers);

        s.sort("year", true).unwrap();
        let first = work_of(|| drop(show(&mut s)));
        assert_eq!(first.keys_built, papers as u64, "{papers}: one key a row");
        assert!(first.rows_ordered <= page, "{papers}: {first:?}");

        for step in ["hide", "show", "render"] {
            let w = work_of(|| {
                match step {
                    "hide" => s.hide("title").unwrap(),
                    "show" => s.show("title").unwrap(),
                    _ => {}
                }
                drop(show(&mut s));
            });
            assert_eq!(
                (w.keys_built, w.rows_ordered),
                (0, 0),
                "{papers} {step}: {w:?}"
            );
        }

        let all = s.etable().unwrap();
        let (sets, ids) = distinct_sets(&all);
        let w = work_of(|| {
            s.focus_top_columns(4).unwrap();
            drop(show(&mut s));
        });
        assert_eq!(w.rank_passes, 1, "{papers}: {w:?}");
        assert_eq!(w.id_sets, sets, "{papers}: {w:?}");
        assert!(
            w.labels_read <= ids,
            "{papers}: {w:?}, {ids} ids in distinct sets"
        );
        assert_eq!((w.keys_built, w.rows_ordered), (0, 0), "{papers}: {w:?}");
    }
}

/// What `act` made the SQL executor do on this thread.
fn sql_work(act: impl FnOnce()) -> work::Work {
    let before = work::on_this_thread();
    act();
    work::on_this_thread() - before
}

#[test]
fn sql_joins_probe_only_rows_that_can_match() {
    let tasks = task_set(TaskSet::A);
    for papers in [3_000, 12_000] {
        let db = generate(&GenConfig::medium().with_papers(papers));
        for task in [2, 6] {
            let Ok(Statement::Select(q)) = parse_statement(&tasks[task - 1].sql) else {
                panic!("task {task} is a SELECT");
            };
            let run = || drop(execute_query(&db, &q).unwrap());
            let first = sql_work(run);
            let again = sql_work(run);
            let at = format!("{papers} papers, task {task}");
            assert!(first.reverse_builds >= 1, "{at}: {first:?}");
            assert_eq!(again.reverse_builds, 0, "{at}: {again:?}");
            assert!(again.reverse_walks >= 1, "{at}: {again:?}");
            assert!(again.rows_matched > 0, "{at}: {again:?}");
            assert!(
                again.rows_probed <= 2 * again.rows_matched,
                "{at}: {again:?}"
            );
        }
    }
}
