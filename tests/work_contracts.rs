//! The presentation layer's work, counted (`etable_core::work`), does not
//! grow with the table where the paper's verbs show a page of it: at two
//! corpus sizes, a sorted first page orders at most the page, a hide, a
//! show and a re-render after a sort build no key and order no row, and a
//! focus ranks the table once, reading labels once per distinct reference
//! set, and a 12-row render builds the page's cells and reads at most
//! `max_refs` labels per shown reference cell. The matcher holds only the
//! rows an open names: none for a whole type, one for a `Single`; its down
//! pass re-checks no row when no parent row with children was dropped; and
//! a page walks each hop of the pattern tree once a row, so showing the
//! columns on the way to a participating column costs no neighbor visit
//! more than showing it alone. The SQL
//! executor's work (`etable_relational::work`) is held to the rows a join
//! can match: Table 2's join tasks probe no more rows than
//! their joins emit, and a statement builds a reverse foreign-key index
//! once per database, not once per run. The instance graph builds none
//! at translation or re-pin, and reads the very reverse indexes the SQL
//! joins read.

use etable_repro::core::etable::{Cell, EnrichedTable};
use etable_repro::core::pattern::NodeFilter;
use etable_repro::core::render::{render_etable, RenderOptions};
use etable_repro::core::session::Session;
use etable_repro::core::work::{on_this_thread, Work};
use etable_repro::datagen::tasks::{params, task_set, TaskSet};
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::relational::expr::CmpOp;
use etable_repro::relational::sql::executor::execute_query;
use etable_repro::relational::sql::{execute, parse_statement, Statement};
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

/// A 12-row render of all Papers builds one cell per shown row and column,
/// the same count at both corpus sizes, and reads at most `max_refs`
/// labels per shown reference cell, within the same bound at both: the
/// page's work does not grow with the table. (The label count itself
/// differs, because the first 12 papers of the two corpora differ.)
#[test]
fn a_render_reads_the_page_and_no_more() {
    let opts = RenderOptions::default();
    let page = opts.max_rows;
    let mut cells = Vec::new();
    for papers in [3_000, 12_000] {
        let db = generate(&GenConfig::medium().with_papers(papers));
        let tgdb = Arc::new(translate(&db, &TranslateOptions::default()).unwrap());
        let mut s = Session::new(tgdb);
        s.open_by_name("Papers").unwrap();
        let t = s.etable().unwrap();
        let refs = (0..t.columns.len())
            .filter(|&c| t.cell(0, c).is_some_and(|cell| cell.refs().is_some()))
            .count();
        let shown: usize = (0..page)
            .flat_map(|r| (0..t.columns.len()).map(move |c| (r, c)))
            .map(|(r, c)| t.ref_count(r, c).min(opts.max_refs))
            .sum();
        let w = work_of(|| drop(render_etable(&t, &opts)));
        assert_eq!(
            w.page_cells,
            (page * t.columns.len()) as u64,
            "{papers}: {w:?}"
        );
        assert!(
            0 < w.page_labels && w.page_labels <= shown as u64,
            "{papers}: {w:?}, {shown} labels on the page"
        );
        assert!(
            shown <= page * opts.max_refs * refs,
            "{papers}: {refs} reference columns"
        );
        cells.push(w.page_cells);
    }
    assert_eq!(
        cells[0], cells[1],
        "the same page at 3 000 and 12 000 papers"
    );
}

/// The matcher holds only the rows an open names, at both corpus sizes:
/// an unfiltered open of Papers lists no row (its primary is every row of
/// the type, and the table reads the match's rows in place, with no list of
/// its own), a `Single` on one paper holds that one row, and a `title =`
/// open holds exactly the papers so titled.
#[test]
fn the_matcher_holds_only_the_rows_an_open_names() {
    for papers in [3_000, 12_000] {
        let db = generate(&GenConfig::medium().with_papers(papers));
        let tgdb = Arc::new(translate(&db, &TranslateOptions::default()).unwrap());
        let mut s = Session::new(Arc::clone(&tgdb));
        let shown = |s: &mut Session| s.etable().unwrap().len();
        let w = work_of(|| {
            s.open_by_name("Papers").unwrap();
            assert_eq!(shown(&mut s), papers);
        });
        assert_eq!(w.rows_held, 0, "{papers}: {w:?}");

        let paper = s.etable().unwrap().node_at(papers / 2).unwrap();
        let w = work_of(|| {
            s.single(paper).unwrap();
            assert_eq!(shown(&mut s), 1);
        });
        assert_eq!(w.rows_held, 1, "{papers}: {w:?}");

        let title = tgdb.instances.label(paper);
        let (papers_type, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let titled = (tgdb.instances.label_column(papers_type).iter())
            .filter(|t| *t == title)
            .count();
        let w = work_of(|| {
            s.open_by_name("Papers").unwrap();
            s.filter(NodeFilter::cmp("title", CmpOp::Eq, title))
                .unwrap();
            assert_eq!(shown(&mut s), titled);
        });
        assert_eq!(w.rows_held, titled as u64, "{papers}: {w:?}");
    }
}

/// Table 2's task 4 at a corpus of `papers`: the session on
/// `Institutions = CMU → Authors → Papers`, and the graph.
fn task4(papers: usize) -> (Session, Arc<etable_repro::tgm::Tgdb>) {
    let db = generate(&GenConfig::medium().with_papers(papers));
    let tgdb = Arc::new(translate(&db, &TranslateOptions::default()).unwrap());
    let mut s = Session::new(Arc::clone(&tgdb));
    s.open_by_name("Institutions").unwrap();
    let cmu = params(TaskSet::A).institution;
    s.filter(NodeFilter::cmp("name", CmpOp::Eq, cmu)).unwrap();
    s.pivot("Authors").unwrap();
    s.pivot("Papers").unwrap();
    (s, tgdb)
}

/// The down pass re-checks a node grown from its parent's rows only where
/// the parent dropped a row with children. On `Institutions(name) →
/// Authors → Papers` the institution seeds the match and each node grows
/// from its parent; the authors the match drops wrote no paper (checked
/// here through the graph), so the down pass re-checks no row at all.
#[test]
fn the_down_pass_rechecks_no_row_when_no_parent_with_children_was_dropped() {
    for papers in [3_000, 12_000] {
        let (mut s, tgdb) = task4(papers);
        let g = &tgdb.instances;
        let mut t = None;
        let w = work_of(|| t = Some(s.etable().unwrap()));
        let t = t.unwrap();
        assert!(w.rows_held > 0 && !t.is_empty(), "{papers}: {w:?}");
        assert_eq!(w.down_rechecked, 0, "{papers}: {w:?}");
        // The premise: no author of the institution the match dropped has
        // a paper.
        let col = |name| t.column_index(name).unwrap();
        let kept: HashSet<NodeId> = (t.column_values(col("Authors")))
            .flat_map(|c| c.refs().unwrap().collect::<Vec<_>>())
            .collect();
        let inst = t
            .cell(0, col("Institutions"))
            .unwrap()
            .refs()
            .unwrap()
            .next()
            .unwrap();
        let (institutions, _) = tgdb.schema.node_type_by_name("Institutions").unwrap();
        let (to_authors, _) = tgdb
            .schema
            .outgoing_by_name(institutions, "Authors")
            .unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let (to_papers, _) = tgdb.schema.outgoing_by_name(authors, "Papers").unwrap();
        for a in g.neighbors(to_authors, inst) {
            assert!(
                kept.contains(&a) || g.degree(to_papers, a) == 0,
                "{papers}: {a}"
            );
        }
    }
}

/// A page of task 4's chain pivoted on to Conferences walks each row's
/// pattern tree once: showing its Papers, Authors and Institutions
/// columns visits exactly the neighbors showing Institutions alone visits
/// (its walk passes through the other two), and showing Papers alone
/// visits fewer.
#[test]
fn a_page_walks_each_hop_once_a_row() {
    let opts = RenderOptions::default();
    for papers in [3_000, 12_000] {
        let (mut s, _) = task4(papers);
        s.pivot("Conferences").unwrap();
        let visits = |s: &mut Session, hidden: &[&str]| {
            hidden.iter().for_each(|c| s.hide(c).unwrap());
            let t = s.etable().unwrap();
            let w = work_of(|| drop(render_etable(&t, &opts)));
            hidden.iter().for_each(|c| s.show(c).unwrap());
            w.walk_visits
        };
        let all = visits(&mut s, &[]);
        let institutions = visits(&mut s, &["Papers", "Authors"]);
        let papers_only = visits(&mut s, &["Authors", "Institutions"]);
        assert_eq!(all, institutions, "{papers} papers");
        assert!(
            0 < papers_only && papers_only < all,
            "{papers}: {papers_only} of {all}"
        );
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

/// The instance graph reads the epoch's foreign-key indexes in place: a
/// translation and a re-pin after a one-row write build no reverse index;
/// the first lookup along the written edge type builds the one reverse
/// index its direction reads, a pivot along the edge type then builds only
/// the other direction's, and a SQL join along the same keys builds none,
/// because the graph and the join share each key's one reverse index.
#[test]
fn the_graph_and_sql_share_each_keys_reverse_index() {
    let db = generate(&GenConfig::medium().with_papers(3_000));
    let mut tgdb = None;
    let w = sql_work(|| tgdb = Some(translate(&db, &TranslateOptions::default()).unwrap()));
    assert_eq!(w.reverse_builds, 0, "translate: {w:?}");
    let tgdb = tgdb.unwrap();
    // The first author paper 1 does not have yet.
    let next = (1..)
        .find_map(|author| {
            let mut next = (**tgdb.database()).clone();
            let insert = format!("INSERT INTO Paper_Authors VALUES (1, {author}, 99)");
            execute(&mut next, &insert).ok().map(|_| Arc::new(next))
        })
        .unwrap();
    let mut at = None;
    let w = sql_work(|| at = Some(Arc::new(tgdb.at(next).unwrap())));
    assert_eq!(w.reverse_builds, 0, "Tgdb::at: {w:?}");
    let at = at.unwrap();

    let (papers, _) = at.schema.node_type_by_name("Papers").unwrap();
    let (et, def) = at.schema.outgoing_by_name(papers, "Authors").unwrap();
    let paper = at.node_by_key(papers, &1.into()).unwrap();
    let g = &at.instances;
    let mut authors = Vec::new();
    let w = sql_work(|| authors = g.neighbors(et, paper).collect());
    assert_eq!(w.reverse_builds, 1, "Papers -> Authors: {w:?}");
    let w = sql_work(|| assert_eq!(g.degree(et, paper), authors.len()));
    assert_eq!(w.reverse_builds, 0, "again: {w:?}");

    let mut s = Session::new(Arc::clone(&at));
    let w = sql_work(|| {
        s.open_by_name("Papers").unwrap();
        s.pivot("Authors").unwrap();
        drop(show(&mut s));
    });
    assert_eq!(w.reverse_builds, 1, "pivot to Authors: {w:?}");
    let w = sql_work(|| assert!(g.neighbors(def.reverse, authors[0]).any(|p| p == paper)));
    assert_eq!(w.reverse_builds, 0, "Authors -> Papers: {w:?}");

    let Ok(Statement::Select(q)) = parse_statement(
        "SELECT a.name FROM Papers p, Paper_Authors pa, Authors a \
         WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.id = 1",
    ) else {
        panic!("a SELECT");
    };
    let w = sql_work(|| {
        assert_eq!(
            execute_query(at.database(), &q).unwrap().len(),
            authors.len()
        )
    });
    assert!(w.reverse_walks >= 1, "Papers ⋈ Paper_Authors: {w:?}");
    assert_eq!(w.reverse_builds, 0, "Papers ⋈ Paper_Authors: {w:?}");
}
