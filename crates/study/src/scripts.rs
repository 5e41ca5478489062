//! Per-task interaction scripts for both study conditions.
//!
//! **ETable condition** — the script *actually drives* a
//! [`etable_core::session::Session`] against the synthetic database,
//! performing the same action sequence a participant performs in the
//! paper's interface, and extracts the answer from the final enriched
//! table. Answers are verified against the tasks' ground-truth SQL, so a
//! regression in the engine fails the study.
//!
//! **Navicat condition** — the graphical query builder is closed source, so
//! its scripts are synthetic KLM traces modeling the documented workflow
//! (drag tables onto a canvas, draw join lines, type WHERE/GROUP BY
//! fragments, run, interpret duplicated join results), plus the §7.2 error
//! model: formulation attempts fail with a task- and expertise-dependent
//! probability, each failure costing a debug cycle, sometimes a restart.
//!
//! Step counts are calibrated so the *nominal* (noise-free, error-free)
//! KLM times land near the per-task means of Figure 10; the simulation then
//! reproduces the figure's variance and significance structure from the
//! participant and error models rather than from the calibration.

use crate::klm::UiStep;
use etable_core::etable::EnrichedTable;
use etable_core::pattern::NodeFilter;
use etable_core::session::Session;
use etable_datagen::{params, TaskCategory, TaskParams, TaskSet};
use etable_relational::expr::CmpOp;
use etable_tgm::Tgdb;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The outcome of running an ETable script.
#[derive(Debug, Clone)]
pub struct ScriptRun {
    /// The interface steps performed.
    pub steps: Vec<UiStep>,
    /// The answer read off the final enriched table.
    pub answer: BTreeSet<String>,
}

/// Runs the ETable script for `task_no` (1–6) of the given task set.
pub fn run_etable_task(
    tgdb: &Arc<Tgdb>,
    task_no: usize,
    set: TaskSet,
) -> Result<ScriptRun, etable_core::Error> {
    let p = params(set);
    let mut session = Session::new(Arc::clone(tgdb));
    let n_tables = session.default_table_list().len();
    let mut steps: Vec<UiStep> = Vec::new();
    // Opening a table = finding it in the default table list.
    let open = |session: &mut Session, steps: &mut Vec<UiStep>, table: &str| {
        steps.push(UiStep::Search(n_tables));
        steps.push(UiStep::Execute);
        session.open_by_name(table)
    };
    // Filtering = opening the header popup, typing the condition, applying.
    let filter = |session: &mut Session,
                  steps: &mut Vec<UiStep>,
                  f: NodeFilter,
                  typed_chars: usize|
     -> Result<(), etable_core::Error> {
        steps.push(UiStep::Click); // open the filter popup
        steps.push(UiStep::Type(typed_chars));
        steps.push(UiStep::Click); // apply
        steps.push(UiStep::Execute);
        session.filter(f)
    };

    let answer: BTreeSet<String>;
    match task_no {
        1 => {
            // Find the year of paper `title1`.
            steps.push(UiStep::Read(8)); // read the task statement
            steps.push(UiStep::Think);
            open(&mut session, &mut steps, "Papers")?;
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("title", CmpOp::Eq, p.title1),
                p.title1.len() + 6,
            )?;
            steps.push(UiStep::Read(6)); // locate the year cell
            let t = session.etable()?;
            answer = read_column(&t, "year", usize::MAX)?;
        }
        2 => {
            // All keywords of paper `title2`.
            steps.push(UiStep::Read(8));
            steps.push(UiStep::Think);
            open(&mut session, &mut steps, "Papers")?;
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("title", CmpOp::Eq, p.title2),
                p.title2.len() + 6,
            )?;
            let t = session.etable()?;
            let row_node = t.node_at(0).ok_or_else(|| {
                etable_core::Error::InvalidAction("task 2 paper not found".into())
            })?;
            // Click the keyword count to list them all.
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.seeall(row_node, "Paper_Keywords: keyword")?;
            let t = session.etable()?;
            steps.push(UiStep::Read(t.len()));
            answer = read_column(&t, "keyword", usize::MAX)?;
        }
        3 => {
            // Papers by `author` in `year`+.
            steps.push(UiStep::Read(8));
            steps.push(UiStep::Think);
            open(&mut session, &mut steps, "Authors")?;
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("name", CmpOp::Eq, p.author),
                p.author.len() + 5,
            )?;
            let t = session.etable()?;
            let row_node = t.node_at(0).ok_or_else(|| {
                etable_core::Error::InvalidAction("task 3 author not found".into())
            })?;
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.seeall(row_node, "Papers")?;
            steps.push(UiStep::Read(24)); // skim the unfiltered paper list
            steps.push(UiStep::Think);
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("year", CmpOp::Ge, p.year),
                12,
            )?;
            let t = session.etable()?;
            steps.push(UiStep::Read(t.len() + 8)); // verify titles and years
            steps.push(UiStep::Think);
            answer = read_column(&t, "title", usize::MAX)?;
        }
        4 => {
            // Papers by `institution` researchers at `conf_filter`.
            steps.push(UiStep::Read(10));
            steps.push(UiStep::Think);
            open(&mut session, &mut steps, "Institutions")?;
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("name", CmpOp::Eq, p.institution),
                p.institution.len() + 5,
            )?;
            steps.push(UiStep::Read(6));
            // Pivot through Authors and Papers, reading intermediate
            // results each time — §7.2: "Task 4 involves the highest number
            // of operations that require participants to spend significant
            // time in interpreting intermediate results".
            steps.push(UiStep::Think);
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.pivot("Authors")?;
            steps.push(UiStep::Read(45));
            steps.push(UiStep::Think);
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.pivot("Papers")?;
            steps.push(UiStep::Read(45));
            steps.push(UiStep::Think);
            // A common detour the paper reports recovering from via pivots:
            // pivot onto the citation column by mistake, inspect, revert.
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.pivot("Papers (referenced)")?;
            steps.push(UiStep::Read(15));
            steps.push(UiStep::Think);
            let back_to = session.history().len() - 2;
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.revert(back_to)?;
            // Conference restriction: pivot onto Conferences, filter, pivot
            // back to the participating Papers column.
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.pivot("Conferences")?;
            steps.push(UiStep::Read(8));
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("acronym", CmpOp::Eq, p.conf_filter),
                p.conf_filter.len() + 8,
            )?;
            steps.push(UiStep::Think);
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.pivot("Papers")?;
            steps.push(UiStep::Read(40));
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            let t = session.etable()?;
            steps.push(UiStep::Read(t.len().min(25)));
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            answer = read_column(&t, "title", usize::MAX)?;
        }
        5 => {
            // Largest South Korean institution by researcher count: filter
            // institutions, then sort by the Authors neighbor-column count.
            steps.push(UiStep::Read(8));
            steps.push(UiStep::Think);
            open(&mut session, &mut steps, "Institutions")?;
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("country", CmpOp::Eq, "South Korea"),
                19,
            )?;
            // Scan the filtered institutions and their author counts before
            // discovering the sort-by-count affordance.
            steps.push(UiStep::Read(18));
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            steps.push(UiStep::Click); // open the Authors column menu
            steps.push(UiStep::Click); // sort by count
            steps.push(UiStep::Execute);
            session.sort("Authors", true)?;
            let t = session.etable()?;
            // Verify the top row really has the largest count, scanning
            // the counts column up and down.
            steps.push(UiStep::Read(28));
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            answer = read_column(&t, "name", 1)?;
        }
        6 => {
            // Top 3 authors by paper count at `conf_agg`: this is the
            // paper's canonical pivot workflow (Figure 7's right side).
            steps.push(UiStep::Read(8));
            steps.push(UiStep::Think);
            open(&mut session, &mut steps, "Conferences")?;
            filter(
                &mut session,
                &mut steps,
                NodeFilter::cmp("acronym", CmpOp::Eq, p.conf_agg),
                p.conf_agg.len() + 8,
            )?;
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.pivot("Papers")?;
            steps.push(UiStep::Read(30));
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.pivot("Authors")?;
            steps.push(UiStep::Read(40));
            steps.push(UiStep::Think);
            // First sort attempt on the wrong column (alphabetical), then
            // the count sort — the figure-1 history shows such re-sorts.
            steps.push(UiStep::Click);
            steps.push(UiStep::Click);
            steps.push(UiStep::Execute);
            session.sort("name", false)?;
            steps.push(UiStep::Read(12));
            steps.push(UiStep::Think);
            steps.push(UiStep::Click); // column menu on the Papers column
            steps.push(UiStep::Click); // sort by count
            steps.push(UiStep::Execute);
            session.sort("Papers", true)?;
            let t = session.etable()?;
            // Read off the top three and double-check their counts
            // against the next few rows.
            steps.push(UiStep::Read(45));
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            steps.push(UiStep::Think);
            answer = read_column(&t, "name", 3)?;
        }
        other => {
            return Err(etable_core::Error::InvalidAction(format!(
                "no such task {other}"
            )))
        }
    }
    Ok(ScriptRun { steps, answer })
}

/// The first `n` values of attribute column `name`, as read off the table.
fn read_column(
    t: &EnrichedTable,
    name: &str,
    n: usize,
) -> Result<BTreeSet<String>, etable_core::Error> {
    let col = (t.column_index(name))
        .ok_or_else(|| etable_core::Error::UnknownColumn(name.to_string()))?;
    t.column_values(col)
        .take(n)
        .map(|c| match c.value() {
            Some(v) => Ok(v.to_string()),
            None => Err(etable_core::Error::InvalidAction(format!(
                "column `{name}` holds references, not values"
            ))),
        })
        .collect()
}

/// The Navicat-condition plan for one task.
#[derive(Debug, Clone)]
pub struct NavicatPlan {
    /// Steps of one successful formulation attempt.
    pub build: Vec<UiStep>,
    /// Base probability that one attempt fails with a SQL error
    /// (before the participant's expertise adjustment).
    pub base_fail: f64,
    /// Steps of one debug cycle after a failed attempt.
    pub debug: Vec<UiStep>,
    /// Probability that a failed participant restarts from scratch instead
    /// of debugging (§7.2: "preferred to specify new SQL queries from
    /// scratch instead of debugging existing ones").
    pub restart_prob: f64,
}

/// Builds the Navicat plan for a task.
pub fn navicat_plan(task: &etable_datagen::Task, _params: &TaskParams) -> NavicatPlan {
    let mut build = Vec::new();
    // Orient in the schema tree (7 relations).
    build.push(UiStep::Read(10));
    build.push(UiStep::Think);
    // Drag each participating relation onto the canvas.
    for _ in 0..task.relations {
        build.push(UiStep::Search(7));
        build.push(UiStep::Drag);
    }
    // Draw each join line and double-check its endpoints.
    for _ in 0..task.relations.saturating_sub(1) {
        build.push(UiStep::Drag);
        build.push(UiStep::Think);
    }
    // Pick output columns.
    build.push(UiStep::Click);
    build.push(UiStep::Click);
    // Build each filter condition in the criteria grid: find the column in
    // a dropdown, pick the operator, type the value (long literals are
    // copy-pasted, so their cost is bounded).
    let (n_conditions, value_chars) = match task.number {
        1 => (1, 18),
        2 => (1, 18),
        3 => (2, 28),
        4 => (2, 30),
        5 => (1, 22),
        _ => (1, 16),
    };
    for _ in 0..n_conditions {
        build.push(UiStep::Search(8)); // find the column in the dropdown
        build.push(UiStep::Click); // pick the operator
        build.push(UiStep::Think);
    }
    build.push(UiStep::Type(value_chars));
    // Aggregation tasks additionally need GROUP BY / ORDER BY / LIMIT
    // fragments, which the paper found participants struggled with most
    // ("many participants did not specify a GROUP BY attribute in their
    // SELECT clauses in their first attempts").
    if task.category == TaskCategory::Aggregate {
        build.push(UiStep::Think);
        build.push(UiStep::Think);
        build.push(UiStep::Type(34));
        build.push(UiStep::Think);
        build.push(UiStep::Type(26));
        build.push(UiStep::Think);
    }
    // Run.
    build.push(UiStep::Click);
    build.push(UiStep::Execute);
    // Interpret the (duplicated) join output.
    let read_items = match task.number {
        1 => 4,
        2 => 10,
        3 => 12,
        4 => 110, // five-way join: heavy duplication
        5 => 30,
        _ => 30,
    };
    build.push(UiStep::Read(read_items));
    if task.relations >= 3 {
        build.push(UiStep::Think); // re-check that duplicates are benign
        build.push(UiStep::Think);
    }
    if task.number == 4 {
        // Re-run after realizing DISTINCT is needed to deduplicate titles.
        build.push(UiStep::Think);
        build.push(UiStep::Type(9));
        build.push(UiStep::Click);
        build.push(UiStep::Execute);
        build.push(UiStep::Read(40));
    }

    // Error model: per-attempt failure probability. Aggregates fail most
    // (GROUP BY confusion); the superlative task 5 worst of all.
    let base_fail = match task.number {
        1 | 2 => 0.15,
        3 => 0.32,
        4 => 0.38,
        5 => 0.78,
        _ => 0.55,
    };
    // One debug cycle: read the error, think, fix part of the text, rerun.
    let mut debug = vec![
        UiStep::Read(6),
        UiStep::Think,
        UiStep::Think,
        UiStep::Think,
        UiStep::Type(value_chars / 2 + 14),
        UiStep::Click,
        UiStep::Execute,
        UiStep::Read(8),
    ];
    if task.category == TaskCategory::Aggregate {
        // Aggregate errors send participants back to the documentation.
        debug.push(UiStep::Read(20));
        debug.push(UiStep::Think);
        debug.push(UiStep::Type(24));
        debug.push(UiStep::Click);
        debug.push(UiStep::Execute);
    }
    NavicatPlan {
        build,
        base_fail,
        debug,
        restart_prob: 0.35,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klm::trace_seconds;
    use etable_datagen::{generate, ground_truth, task_set, GenConfig};
    use etable_tgm::{translate, TranslateOptions};

    fn setup() -> (etable_relational::database::Database, Arc<Tgdb>) {
        let db = generate(&GenConfig::small());
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        (db, Arc::new(tgdb))
    }

    #[test]
    fn reading_a_missing_or_reference_column_is_refused() {
        let (_, tgdb) = setup();
        let mut s = Session::new(Arc::clone(&tgdb));
        s.open_by_name("Papers").unwrap();
        let t = s.etable().unwrap();
        assert_eq!(read_column(&t, "year", 2).unwrap().len(), 2);
        let missing = read_column(&t, "nope", 1).unwrap_err();
        assert_eq!(missing, etable_core::Error::UnknownColumn("nope".into()));
        let refs = read_column(&t, "Authors", 1).unwrap_err();
        assert!(
            matches!(refs, etable_core::Error::InvalidAction(_)),
            "{refs}"
        );
    }

    #[test]
    fn etable_scripts_produce_correct_answers() {
        let (db, tgdb) = setup();
        for set in [TaskSet::A, TaskSet::B] {
            let tasks = task_set(set);
            for task in &tasks {
                let run = run_etable_task(&tgdb, task.number, set).unwrap();
                assert!(!run.steps.is_empty());
                let truth = ground_truth(&db, task);
                if task.number == 6 {
                    // Top-3 with possible count ties: the chosen set must be
                    // *a* valid top 3 — same size, and every chosen author's
                    // paper count at least the 3rd-highest count.
                    assert_eq!(run.answer.len(), 3, "set {set:?}");
                    continue;
                }
                assert_eq!(
                    run.answer, truth,
                    "task {} of {set:?}: script answered {:?}, truth {:?}",
                    task.number, run.answer, truth
                );
            }
        }
    }

    #[test]
    fn etable_task6_counts_match_ground_truth() {
        // Verify the top-3 by comparing paper *counts*, which are
        // tie-insensitive.
        use etable_relational::sql::execute;
        let (db, tgdb) = setup();
        for set in [TaskSet::A, TaskSet::B] {
            let p = params(set);
            let run = run_etable_task(&tgdb, 6, set).unwrap();
            let mut db2 = db.clone();
            let counts = execute(
                &mut db2,
                &format!(
                    "SELECT a.name, COUNT(*) AS n FROM Papers p, Paper_Authors pa, Authors a, \
                     Conferences c WHERE p.id = pa.paper_id AND pa.author_id = a.id \
                     AND p.conference_id = c.id AND c.acronym = '{}' \
                     GROUP BY a.name ORDER BY n DESC",
                    p.conf_agg
                ),
            )
            .unwrap();
            let mut top: Vec<i64> = counts
                .rows
                .iter()
                .take(3)
                .map(|r| r[1].as_int().unwrap())
                .collect();
            let mut chosen: Vec<i64> = counts
                .rows
                .iter()
                .filter(|r| run.answer.contains(&r[0].to_string()))
                .map(|r| r[1].as_int().unwrap())
                .collect();
            top.sort();
            chosen.sort();
            assert_eq!(top, chosen, "set {set:?}");
        }
    }

    #[test]
    fn nominal_times_have_figure10_shape() {
        // ETable nominal times must be ordered like the paper's bars:
        // tasks 1 and 2 fast, task 4 slowest, task 6 second-slowest.
        let (_, tgdb) = setup();
        let times: Vec<f64> = (1..=6)
            .map(|n| trace_seconds(&run_etable_task(&tgdb, n, TaskSet::A).unwrap().steps))
            .collect();
        assert!(times[0] < times[2], "{times:?}");
        assert!(times[1] < times[2], "{times:?}");
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert_eq!(times[3], max, "task 4 should be slowest: {times:?}");
        assert!(times[5] > times[4], "{times:?}");
    }

    #[test]
    fn navicat_nominal_exceeds_etable_nominal() {
        let (_, tgdb) = setup();
        let tasks = task_set(TaskSet::A);
        let p = params(TaskSet::A);
        for task in &tasks {
            let et = trace_seconds(
                &run_etable_task(&tgdb, task.number, TaskSet::A)
                    .unwrap()
                    .steps,
            );
            let nv = trace_seconds(&navicat_plan(task, &p).build);
            assert!(
                nv > et * 0.9,
                "task {}: navicat nominal {nv:.1}s vs etable {et:.1}s",
                task.number
            );
        }
    }

    #[test]
    fn aggregate_tasks_fail_most_often() {
        let tasks = task_set(TaskSet::A);
        let p = params(TaskSet::A);
        let fails: Vec<f64> = tasks
            .iter()
            .map(|t| navicat_plan(t, &p).base_fail)
            .collect();
        assert!(fails[4] > fails[2]);
        assert!(fails[2] > fails[0]);
    }
}
