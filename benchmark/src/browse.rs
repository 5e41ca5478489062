//! The browse workloads: user actions through `Session`, in process.
//!
//! An *operation* is one action as the user experiences it: the
//! `Session` verb, then `Session::etable()`, then `render_etable`. Its
//! latency is the wall time of those three calls; a *pass* is the sum of
//! the latencies of a fixed list of operations, so harness work between
//! operations (answer checks, shadow calls) is in neither.

use crate::report::Report;
use crate::setup::Deployment;
use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{self, Answer, Lit, Pools, Revisit, Script, Step, Verb};
use crate::{ms, overhead_pct, per, us, Budget, Options, Summary, Tally};
use etable_core::actions::{self, UserAction};
use etable_core::etable::EnrichedTable;
use etable_core::matching::{match_primary, MatchResult};
use etable_core::pattern::{NodeFilter, QueryPattern};
use etable_core::render::{render_etable, RenderOptions};
use etable_core::session::Session;
use etable_core::transform::transform;
use etable_datagen::{ground_truth, task_set, TaskSet};
use etable_relational::database::Database;
use etable_relational::sql;
use etable_tgm::Tgdb;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// What a measured phase produced.
#[derive(Debug, Default)]
struct Measured {
    /// Per pass: the sum of its operations' latencies, in ms.
    pass_ms: Vec<f64>,
    /// Per operation: its verb and latency in ms.
    ops: Vec<(Verb, f64)>,
    /// Operations begun, and which of them failed or answered wrongly.
    tally: Tally,
    /// Wall time of the phase in seconds, harness work included.
    wall_s: f64,
}

/// The ground truth of one script, computed once at set-up.
#[derive(Debug, Clone)]
struct Truth {
    /// First column of the script's ground-truth SQL.
    answer: BTreeSet<String>,
    /// For top-k scripts: every candidate's count.
    counts: Option<Vec<(String, i64)>>,
}

/// Runs every script's ground-truth SQL through `sql::execute`. The
/// paper's sets A and B must also agree with `datagen::ground_truth`.
fn truths(db: &Database, scripts: &[Script]) -> Result<Vec<Truth>, String> {
    let mut sqldb = db.clone();
    let mut out = Vec::with_capacity(scripts.len());
    for s in scripts {
        let rel = sql::execute(&mut sqldb, &s.truth_sql).map_err(|e| e.to_string())?;
        let answer: BTreeSet<String> = rel.rows.iter().map(|r| r[0].to_string()).collect();
        if let Some(set) = [TaskSet::A, TaskSet::B].get(s.set) {
            let theirs = ground_truth(db, &task_set(*set)[s.task - 1]);
            if theirs != answer {
                return Err(format!(
                    "task {} of set {}: datagen's ground truth {theirs:?} is not {answer:?}",
                    s.task, s.set
                ));
            }
        }
        let counts = match &s.counts_sql {
            None => None,
            Some(q) => {
                let rel = sql::execute(&mut sqldb, q).map_err(|e| e.to_string())?;
                Some(
                    rel.rows
                        .iter()
                        .map(|r| (r[0].to_string(), r[1].as_int().unwrap_or(-1)))
                        .collect(),
                )
            }
        };
        out.push(Truth { answer, counts });
    }
    Ok(out)
}

/// Reads a script's answer off its final table.
fn read_answer(t: &EnrichedTable, how: Answer) -> Result<BTreeSet<String>, String> {
    let column = |name: &str, rows: usize| -> Result<BTreeSet<String>, String> {
        let i = t
            .column_index(name)
            .ok_or_else(|| format!("final table has no `{name}` column"))?;
        t.rows
            .iter()
            .take(rows)
            .map(|r| {
                r.cells[i]
                    .value()
                    .map(|v| v.to_string())
                    .ok_or_else(|| format!("`{name}` is not an attribute column"))
            })
            .collect()
    };
    match how {
        Answer::Column(name) => column(name, usize::MAX),
        Answer::TopNames(k) => column("name", k),
        Answer::FirstColumn => t
            .rows
            .iter()
            .map(|r| {
                r.cells
                    .first()
                    .and_then(|c| c.value())
                    .map(|v| v.to_string())
                    .ok_or_else(|| "first column is not an attribute".to_string())
            })
            .collect(),
    }
}

/// An answer is right when it is the SQL's; a top-k answer is also right
/// when its members' counts are the k highest counts (ties at the cut).
fn check_answer(got: &BTreeSet<String>, truth: &Truth) -> Result<(), String> {
    if *got == truth.answer {
        return Ok(());
    }
    if let Some(counts) = &truth.counts {
        let by_name: BTreeMap<&str, i64> = counts.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        let mut mine: Vec<i64> = got
            .iter()
            .map(|n| by_name.get(n.as_str()).copied().unwrap_or(-1))
            .collect();
        mine.sort_unstable_by(|a, b| b.cmp(a));
        let top: Vec<i64> = counts
            .iter()
            .take(truth.answer.len())
            .map(|c| c.1)
            .collect();
        if mine == top {
            return Ok(());
        }
    }
    Err(format!("answered {got:?}, ground truth {:?}", truth.answer))
}

/// A step made concrete against the table the user is looking at.
enum Resolved {
    Change(UserAction),
    Sort(String, bool),
    Hide(String),
    Show(String),
    Focus(usize),
    Revert(usize),
}

/// One session with what the harness mirrors of it.
struct Live {
    session: Session,
    /// The sort the session applies (cleared by every new history step).
    sort: Option<(String, bool)>,
    /// The table and text the last operation showed.
    shown: Option<(EnrichedTable, String)>,
    /// Traced runs: matching results by canonical key, so a shadow
    /// transform has its input without a second timed matching.
    shadow: HashMap<String, Arc<MatchResult>>,
}

/// Drives sessions over one deployment; with a trace, shadows every
/// operation (see [`crate::trace`]).
struct Browser<'a> {
    tgdb: &'a Arc<Tgdb>,
    opts: RenderOptions,
    trace: Option<&'a mut Trace>,
    next_op: u64,
}

impl<'a> Browser<'a> {
    /// A browser over `tgdb`; pass a trace to shadow operations.
    fn new(tgdb: &'a Arc<Tgdb>, trace: Option<&'a mut Trace>) -> Self {
        Browser {
            tgdb,
            opts: RenderOptions::default(),
            trace,
            next_op: 0,
        }
    }

    fn live(&self) -> Live {
        Live {
            session: Session::new(Arc::clone(self.tgdb)),
            sort: None,
            shown: None,
            shadow: HashMap::new(),
        }
    }

    fn resolve(&self, live: &Live, step: &Step) -> Result<Resolved, String> {
        let filter = |attr: &str, op, value: &Lit| match value {
            Lit::Text(s) => NodeFilter::cmp(attr, op, s.as_str()),
            Lit::Int(i) => NodeFilter::cmp(attr, op, *i),
        };
        Ok(match step {
            Step::Open(table) => {
                let (node_type, _) = self
                    .tgdb
                    .schema
                    .node_type_by_name(table)
                    .ok_or_else(|| format!("no table `{table}`"))?;
                Resolved::Change(UserAction::Open { node_type })
            }
            Step::Filter { attr, op, value } => Resolved::Change(UserAction::Filter {
                filter: filter(attr, *op, value),
            }),
            Step::FilterLike { attr, pattern } => Resolved::Change(UserAction::Filter {
                filter: NodeFilter::like(*attr, pattern.as_str()),
            }),
            Step::Pivot(column) => Resolved::Change(UserAction::Pivot {
                column: column.to_string(),
            }),
            Step::SeeallFirst(column) => {
                let row = live
                    .shown
                    .as_ref()
                    .and_then(|(t, _)| t.rows.first())
                    .ok_or_else(|| format!("no row to click `{column}` on"))?;
                Resolved::Change(UserAction::Seeall {
                    row: row.node,
                    column: column.to_string(),
                })
            }
            Step::Sort { column, descending } => Resolved::Sort(column.to_string(), *descending),
            Step::Hide(column) => Resolved::Hide(column.to_string()),
            Step::Show(column) => Resolved::Show(column.to_string()),
            Step::FocusTop(k) => Resolved::Focus(*k),
            Step::Revert(i) => Resolved::Revert(*i),
            Step::RevertBack(n) => Resolved::Revert(
                live.session
                    .history()
                    .len()
                    .checked_sub(*n)
                    .ok_or_else(|| format!("no history step {n} back"))?,
            ),
        })
    }

    /// Performs one operation; returns its latency in ms.
    fn act(&mut self, live: &mut Live, step: &Step) -> Result<f64, String> {
        let resolved = self.resolve(live, step)?;
        if let Resolved::Sort(column, _) | Resolved::Hide(column) = &resolved {
            let known = live
                .shown
                .as_ref()
                .and_then(|(t, _)| t.column_index(column));
            if known.is_none() {
                return Err(format!("the table shown has no `{column}` column"));
            }
        }
        let before = self.trace.is_some().then(|| {
            (
                live.session.current_pattern().cloned(),
                live.session.cache_stats(),
            )
        });

        let session = &mut live.session;
        let start = Instant::now();
        let done = match &resolved {
            Resolved::Change(UserAction::Open { node_type }) => session.open(*node_type),
            Resolved::Change(UserAction::Filter { filter }) => session.filter(filter.clone()),
            Resolved::Change(UserAction::Pivot { column }) => session.pivot(column),
            Resolved::Change(UserAction::Seeall { row, column }) => session.seeall(*row, column),
            Resolved::Change(UserAction::Single { node }) => session.single(*node),
            Resolved::Sort(column, descending) => {
                session.sort(column, *descending);
                Ok(())
            }
            Resolved::Hide(column) => {
                session.hide(column);
                Ok(())
            }
            Resolved::Show(column) => {
                session.show(column);
                Ok(())
            }
            Resolved::Focus(k) => session.focus_top_columns(*k).map(|_| ()),
            Resolved::Revert(i) => session.revert(*i),
        };
        let shown = done.and_then(|()| session.etable()).map(|table| {
            let text = render_etable(&table, &self.opts);
            (table, text)
        });
        let end = Instant::now();
        let (table, text) = shown.map_err(|e| format!("{step:?}: {e}"))?;

        match &resolved {
            Resolved::Sort(column, descending) => live.sort = Some((column.clone(), *descending)),
            Resolved::Change(_) | Resolved::Revert(_) => live.sort = None,
            Resolved::Hide(_) | Resolved::Show(_) | Resolved::Focus(_) => {}
        }
        if let Some((previous, stats)) = before {
            self.shadow(live, &resolved, previous, stats, &table, (start, end))?;
        }
        live.shown = Some((table, text));
        Ok((end - start).as_secs_f64() * 1e3)
    }

    /// Calls each layer's public function on the operation's own input,
    /// as often as the session called it, under child spans of the root.
    fn shadow(
        &mut self,
        live: &mut Live,
        resolved: &Resolved,
        previous: Option<QueryPattern>,
        (hits0, misses0): (u64, u64),
        table: &EnrichedTable,
        (start, end): (Instant, Instant),
    ) -> Result<(), String> {
        let Some(tr) = self.trace.as_deref_mut() else {
            return Ok(());
        };
        let tgdb: &Tgdb = self.tgdb;
        let op = self.next_op;
        self.next_op += 1;
        let root = tr.record(op, "session.action", None, start, end);
        let (hits1, misses1) = live.session.cache_stats();
        let mut lookups = (hits1 + misses1) - (hits0 + misses0);
        let mut misses = misses1 - misses0;
        tr.count("cache.lookups", lookups);
        tr.count("cache.hits", hits1 - hits0);
        let current = live
            .session
            .current_pattern()
            .cloned()
            .ok_or("no pattern after an operation")?;

        // One cache lookup and one transform, as `Session` does per table.
        let mut show = |tr: &mut Trace, pattern: &QueryPattern, timed_match: bool| {
            let (key, _) = tr.time(op, "cache.key", Some(root), || pattern.canonical_key(tgdb));
            let m = match live.shadow.get(&key) {
                Some(m) if !timed_match => Arc::clone(m),
                _ => {
                    let m = if timed_match {
                        let (m, _) =
                            tr.time(op, "matching", Some(root), || match_primary(tgdb, pattern));
                        let m = m.map_err(|e| e.to_string())?;
                        tr.count("matching.rows_out", m.rows().len() as u64);
                        m
                    } else {
                        match_primary(tgdb, pattern).map_err(|e| e.to_string())?
                    };
                    let m = Arc::new(m);
                    live.shadow.insert(key, Arc::clone(&m));
                    m
                }
            };
            let (t, _) = tr.time(op, "transform", Some(root), || transform(tgdb, &m));
            let t = t.map_err(|e| e.to_string())?;
            tr.count("transform.rows_out", t.len() as u64);
            tr.count("transform.refs_out", t.total_refs() as u64);
            Ok::<EnrichedTable, String>(t)
        };

        if let Resolved::Change(action) = resolved {
            // `Session::push` shows the previous table to apply the
            // action to it.
            let shown = match &previous {
                Some(p) => {
                    lookups = lookups.saturating_sub(1);
                    Some(show(tr, p, false)?)
                }
                None => None,
            };
            let (outcome, _) = tr.time(op, "actions.apply", Some(root), || {
                actions::apply(tgdb, previous.as_ref(), shown.as_ref(), action)
            });
            outcome.map_err(|e| e.to_string())?;
        }
        for _ in 0..lookups {
            let timed_match = misses > 0;
            misses = misses.saturating_sub(1);
            let mut t = show(tr, &current, timed_match)?;
            if let Some((column, descending)) = &live.sort {
                if let Some(i) = t.column_index(column) {
                    tr.time(op, "etable.sort", Some(root), || {
                        t.sort_by_column(i, *descending)
                    });
                }
            }
        }
        let (text, _) = tr.time(op, "render", Some(root), || {
            render_etable(table, &self.opts)
        });
        tr.count("render.bytes", text.len() as u64);
        tr.count("render.rows", table.len().min(self.opts.max_rows) as u64);
        Ok(())
    }

    /// Traced runs only: runs `f` under a span of its own operation id.
    fn timed_aside(&mut self, name: &'static str, f: impl FnOnce()) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.time(self.next_op, name, None, f);
            self.next_op += 1;
        }
    }
}

/// `browse_tasks`: every script on a fresh session, passes until the
/// budget is spent. With a trace, each script's ground-truth SQL is
/// also timed in process (`task.sql`), for `session.task_over_sql_x`.
fn run_tasks(
    browser: &mut Browser<'_>,
    db: &Database,
    scripts: &[Script],
    truths: &[Truth],
    budget: Budget,
) -> Measured {
    let mut out = Measured::default();
    let mut sqldb = db.clone();
    let started = Instant::now();
    loop {
        let mut pass = 0.0;
        for (script, truth) in scripts.iter().zip(truths) {
            let mut live = browser.live();
            let mut broke = false;
            for step in &script.steps {
                out.tally.attempted += 1;
                match browser.act(&mut live, step) {
                    Ok(ms) => {
                        pass += ms;
                        out.ops.push((step.verb(), ms));
                    }
                    Err(e) => {
                        out.tally
                            .fail(format!("task {} set {}: {e}", script.task, script.set));
                        broke = true;
                        break;
                    }
                }
            }
            if !broke {
                let verdict = live
                    .shown
                    .as_ref()
                    .ok_or_else(|| "script showed nothing".to_string())
                    .and_then(|(t, _)| read_answer(t, script.answer))
                    .and_then(|got| check_answer(&got, truth));
                if let Err(e) = verdict {
                    out.tally
                        .fail(format!("task {} set {}: {e}", script.task, script.set));
                }
            }
            browser.timed_aside("task.sql", || {
                std::hint::black_box(sql::execute(&mut sqldb, &script.truth_sql).is_ok());
            });
        }
        out.pass_ms.push(pass);
        if budget.spent(started, out.pass_ms.len()) {
            break;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// One long-lived session for `browse_revisit`, with the text every
/// state showed the first time.
struct RevisitSession {
    live: Live,
    /// Per lap position: what the warm-up lap rendered.
    expected: Vec<String>,
}

/// Walks the trail (untimed) and one warm-up lap, recording what each
/// state renders; a revert must already render what the trail showed.
fn start_revisit(browser: &mut Browser<'_>, plan: &Revisit) -> Result<RevisitSession, String> {
    let mut live = browser.live();
    let mut trail_text = Vec::with_capacity(plan.trail.len());
    for step in &plan.trail {
        browser.act(&mut live, step)?;
        trail_text.push(live.shown.as_ref().map(|s| s.1.clone()).unwrap_or_default());
    }
    let mut expected = Vec::with_capacity(plan.lap.len());
    for step in &plan.lap {
        browser.act(&mut live, step)?;
        let text = live.shown.as_ref().map(|s| s.1.clone()).unwrap_or_default();
        if let Step::Revert(i) = step {
            if text != trail_text[*i] {
                return Err(format!("revert to step {i} renders another table"));
            }
        }
        expected.push(text);
    }
    Ok(RevisitSession { live, expected })
}

/// `browse_revisit`: laps over the started session until the budget is
/// spent; every operation must render byte for byte what it rendered
/// the first time.
fn run_revisit(
    browser: &mut Browser<'_>,
    s: &mut RevisitSession,
    plan: &Revisit,
    budget: Budget,
) -> Measured {
    let mut out = Measured::default();
    let started = Instant::now();
    loop {
        let mut pass = 0.0;
        for (step, expected) in plan.lap.iter().zip(&s.expected) {
            out.tally.attempted += 1;
            match browser.act(&mut s.live, step) {
                Ok(ms) => {
                    pass += ms;
                    out.ops.push((step.verb(), ms));
                    if s.live.shown.as_ref().map(|t| &t.1) != Some(expected) {
                        out.tally.fail(format!(
                            "{step:?} rendered another table than the first time"
                        ));
                    }
                }
                Err(e) => out.tally.fail(e),
            }
        }
        out.pass_ms.push(pass);
        if budget.spent(started, out.pass_ms.len()) {
            break;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// The per-layer metrics of a traced browse phase.
fn layers(r: &mut Report, tr: &Trace, m: &Measured, reference: &[f64]) {
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let count = |name: &str| tr.counts.get(name).copied().unwrap_or(0);
    let root = total("session.action");
    let n = root.calls;
    r.set("trace.ops", n as f64);
    for (metric, span) in [
        ("actions.apply_ms_per_op", "actions.apply"),
        ("matching.ms_per_op", "matching"),
        ("transform.ms_per_op", "transform"),
        ("etable.sort_ms_per_op", "etable.sort"),
        ("render.ms_per_op", "render"),
    ] {
        r.set(metric, per(ms(total(span).total_ns), n));
    }
    r.set(
        "cache.key_us_per_op",
        per(us(total("cache.key").total_ns), n),
    );
    r.set("session.other_ms_per_op", per(ms(root.self_ns), n));
    r.set("matching.calls", total("matching").calls as f64);
    for (metric, counted) in [
        ("matching.rows_out_per_op", "matching.rows_out"),
        ("transform.rows_out_per_op", "transform.rows_out"),
        ("transform.refs_out_per_op", "transform.refs_out"),
        ("render.bytes_per_op", "render.bytes"),
    ] {
        r.set(metric, per(count(counted) as f64, n));
    }
    r.set(
        "cache.hit_ratio",
        per(count("cache.hits") as f64, count("cache.lookups")),
    );
    r.set(
        "transform.rendered_row_ratio",
        per(count("render.rows") as f64, count("transform.rows_out")),
    );
    for (verb, metric) in [
        (Verb::Open, "session.open_ms_p50"),
        (Verb::Filter, "session.filter_ms_p50"),
        (Verb::Pivot, "session.pivot_ms_p50"),
        (Verb::Seeall, "session.seeall_ms_p50"),
        (Verb::Sort, "session.sort_ms_p50"),
        (Verb::Revert, "session.revert_ms_p50"),
    ] {
        let of: Vec<f64> = m.ops.iter().filter(|o| o.0 == verb).map(|o| o.1).collect();
        r.set(metric, median(&of).unwrap_or(0.0));
    }
    let slow = m.ops.iter().filter(|o| o.1 > 100.0).count();
    r.set(
        "session.over_100ms_pct",
        per(100.0 * slow as f64, m.ops.len() as u64),
    );
    let sql_ns = total("task.sql").total_ns;
    if sql_ns > 0 {
        r.set(
            "session.task_over_sql_x",
            root.total_ns as f64 / sql_ns as f64,
        );
    }
    r.set("trace.overhead_pct", overhead_pct(reference, &m.pass_ms));
}

/// Runs a browse workload on a started deployment: oracle, warm-up,
/// then the measured phase — on a traced run a quarter of it untraced
/// as the reference, the rest shadowed.
pub(crate) fn run(
    r: &mut Report,
    dep: &Deployment,
    pools: &Pools,
    opts: &Options,
    budget: Budget,
) -> Result<(Summary, Option<Trace>), String> {
    let scripts = workload::browse_tasks(pools, opts.seed);
    let truths = truths(&dep.db, &scripts)?;
    let plan = workload::browse_revisit(pools, opts.seed);
    let mut plain = Browser::new(&dep.tgdb, None);
    let mut revisit = None;
    if opts.workload == "browse_tasks" {
        run_tasks(&mut plain, &dep.db, &scripts, &truths, Budget::one_pass())
            .tally
            .clean_warm_up()?;
    } else {
        revisit = Some(start_revisit(&mut plain, &plan)?);
    }
    let mut phase = |browser: &mut Browser<'_>, budget: Budget| match &mut revisit {
        None => run_tasks(browser, &dep.db, &scripts, &truths, budget),
        Some(s) => run_revisit(browser, s, &plan, budget),
    };
    let mut trace = opts.trace.then(|| Trace::new(Instant::now()));
    let mut m = match &mut trace {
        None => phase(&mut plain, budget),
        Some(tr) => {
            let (first, rest) = budget.split();
            let reference = phase(&mut plain, first);
            let mut m = phase(&mut Browser::new(&dep.tgdb, Some(tr)), rest);
            layers(r, tr, &m, &reference.pass_ms);
            m.tally.absorb(reference.tally);
            m
        }
    };
    let summary = Summary {
        op_ms: m.ops.iter().map(|o| o.1).collect(),
        pass_ms: std::mem::take(&mut m.pass_ms),
        wall_s: m.wall_s,
        tally: m.tally,
    };
    Ok((summary, trace))
}
