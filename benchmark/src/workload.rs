//! Workload generation: everything the program is asked to do, made
//! from the data and `--seed` before any clock starts. The program only
//! ever sees the generated actions and statements; the same seed gives
//! the same lists, another seed other ones.

use etable_datagen::{params, TaskSet};
use etable_relational::database::Database;
use etable_relational::expr::CmpOp;
use etable_relational::sql;
use etable_server::ACADEMIC_QUERIES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A literal in a filter condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Text value.
    Text(String),
    /// Integer value.
    Int(i64),
}

/// One user action. Each is followed by `Session::etable()` and
/// `render_etable` — what the user waits for after the click.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Click a table in the default table list.
    Open(&'static str),
    /// Type a condition into a column header popup.
    Filter {
        /// Attribute of the primary node type.
        attr: &'static str,
        /// Comparison.
        op: CmpOp,
        /// Right-hand side.
        value: Lit,
    },
    /// `attr LIKE pattern` through the same popup.
    FilterLike {
        /// Attribute of the primary node type.
        attr: &'static str,
        /// SQL LIKE pattern.
        pattern: String,
    },
    /// Pivot on a column.
    Pivot(&'static str),
    /// Click the reference count in this column of the first row shown.
    SeeallFirst(&'static str),
    /// Sort by a column (attribute value, or reference count).
    Sort {
        /// Column display name.
        column: &'static str,
        /// Largest first.
        descending: bool,
    },
    /// Hide a column.
    Hide(&'static str),
    /// Show it again.
    Show(&'static str),
    /// Keep only the `k` most informative columns.
    FocusTop(usize),
    /// Click history step `i` (0-based).
    Revert(usize),
    /// Click the history step `n` before the end (task 4's detour).
    RevertBack(usize),
}

/// The interface verb a step belongs to, for per-verb medians.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    /// Open a table.
    Open,
    /// Filter the current table.
    Filter,
    /// Pivot on a column.
    Pivot,
    /// See all references of a cell.
    Seeall,
    /// Re-sort.
    Sort,
    /// Revert to a history step.
    Revert,
    /// Hide, show or focus columns.
    Present,
}

impl Step {
    /// The step's verb.
    pub fn verb(&self) -> Verb {
        match self {
            Step::Open(_) => Verb::Open,
            Step::Filter { .. } | Step::FilterLike { .. } => Verb::Filter,
            Step::Pivot(_) => Verb::Pivot,
            Step::SeeallFirst(_) => Verb::Seeall,
            Step::Sort { .. } => Verb::Sort,
            Step::Revert(_) | Step::RevertBack(_) => Verb::Revert,
            Step::Hide(_) | Step::Show(_) | Step::FocusTop(_) => Verb::Present,
        }
    }
}

fn eq(attr: &'static str, text: &str) -> Step {
    Step::Filter {
        attr,
        op: CmpOp::Eq,
        value: Lit::Text(text.to_string()),
    }
}

fn sort(column: &'static str, descending: bool) -> Step {
    Step::Sort { column, descending }
}

/// The parameter values of one Table 2 task set (the paper's sets A and
/// B, or a set drawn from the data).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskParams {
    /// Paper title for task 1.
    pub title1: String,
    /// Paper title for task 2.
    pub title2: String,
    /// Author for task 3.
    pub author: String,
    /// Year threshold for task 3.
    pub year: i64,
    /// Institution for task 4.
    pub institution: String,
    /// Conference for task 4.
    pub conf_filter: String,
    /// Country for task 5.
    pub country: String,
    /// Conference for task 6.
    pub conf_agg: String,
}

impl TaskParams {
    /// One of the paper's two matched sets.
    pub fn paper_set(set: TaskSet) -> TaskParams {
        let p = params(set);
        TaskParams {
            title1: p.title1.into(),
            title2: p.title2.into(),
            author: p.author.into(),
            year: p.year,
            institution: p.institution.into(),
            conf_filter: p.conf_filter.into(),
            country: "South Korea".into(),
            conf_agg: p.conf_agg.into(),
        }
    }
}

/// Seeded draws of a parameter that decides how much work a script is
/// (an institution's size, a conference's, a letter's share of names)
/// choose among the `BAND` candidates nearest the median in size, so
/// that runs with different seeds are replicates of one workload, not
/// different workloads.
pub const BAND: usize = 4;

/// Fisher–Yates (the rand shim has no `SliceRandom`).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn band<T: Clone + Ord>(sized: &[(T, i64)]) -> Vec<T> {
    let mut sizes: Vec<i64> = sized.iter().map(|s| s.1).collect();
    sizes.sort_unstable();
    let median = sizes.get(sizes.len() / 2).copied().unwrap_or(0);
    let mut nearest = sized.to_vec();
    nearest.sort_by_key(|(item, n)| ((n - median).abs(), item.clone()));
    let mut out: Vec<T> = nearest.into_iter().take(BAND).map(|s| s.0).collect();
    out.sort();
    out
}

/// What the seeded draws choose from, read off the database once.
#[derive(Debug, Clone, PartialEq)]
pub struct Pools {
    /// Paper titles (unique in the generated corpus).
    pub titles: Vec<String>,
    /// Names of authors with at least one paper (unique).
    pub authors: Vec<String>,
    /// The [`BAND`] institutions of median author count.
    pub institutions: Vec<String>,
    /// The [`BAND`] conferences of median paper count.
    pub conferences: Vec<String>,
    /// The [`BAND`] initials of median share among author names.
    pub initials: Vec<char>,
    /// Countries with an institution that has authors.
    pub countries: Vec<String>,
    /// First and last publication year.
    pub years: (i64, i64),
    /// Rows in Conferences (their ids are 1..=this).
    pub conference_count: i64,
}

impl Pools {
    /// Reads the pools with plain SQL, in a stable order.
    pub fn read(db: &Database) -> Result<Pools, String> {
        let mut db = db.clone();
        let mut rows = |q: &str| -> Result<Vec<Vec<String>>, String> {
            let rel = sql::execute(&mut db, q).map_err(|e| format!("{q}: {e}"))?;
            Ok(rel
                .rows
                .iter()
                .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>())
                // Values are spliced into SQL text below.
                .filter(|r| !r[0].contains('\''))
                .collect())
        };
        let column = |rows: Vec<Vec<String>>| -> Vec<String> {
            rows.into_iter().map(|mut r| r.swap_remove(0)).collect()
        };
        let sized = |rows: Vec<Vec<String>>| -> Result<Vec<(String, i64)>, String> {
            rows.into_iter()
                .map(|r| {
                    Ok((
                        r[0].clone(),
                        r[1].parse::<i64>().map_err(|e| e.to_string())?,
                    ))
                })
                .collect()
        };
        let number = |rows: Vec<Vec<String>>| -> Result<i64, String> {
            rows.first()
                .and_then(|r| r[0].parse().ok())
                .ok_or_else(|| "expected one number".to_string())
        };
        let authors = column(rows(
            "SELECT a.name FROM Authors a, Paper_Authors pa WHERE a.id = pa.author_id \
             GROUP BY a.name ORDER BY a.name",
        )?);
        let mut initials: std::collections::BTreeMap<char, i64> = Default::default();
        for c in authors.iter().filter_map(|a| a.chars().next()) {
            *initials.entry(c).or_insert(0) += 1;
        }
        Ok(Pools {
            titles: column(rows("SELECT title FROM Papers ORDER BY id")?),
            institutions: band(&sized(rows(
                "SELECT i.name, COUNT(*) AS n FROM Institutions i, Authors a \
                 WHERE a.institution_id = i.id GROUP BY i.name ORDER BY i.name",
            )?)?),
            conferences: band(&sized(rows(
                "SELECT c.acronym, COUNT(*) AS n FROM Conferences c, Papers p \
                 WHERE p.conference_id = c.id GROUP BY c.acronym ORDER BY c.acronym",
            )?)?),
            initials: band(&initials.into_iter().collect::<Vec<_>>()),
            countries: column(rows(
                "SELECT i.country FROM Institutions i, Authors a WHERE a.institution_id = i.id \
                 GROUP BY i.country ORDER BY i.country",
            )?),
            years: (
                number(rows("SELECT MIN(year) FROM Papers")?)?,
                number(rows("SELECT MAX(year) FROM Papers")?)?,
            ),
            conference_count: number(rows("SELECT COUNT(*) FROM Conferences")?)?,
            authors,
        })
    }

    fn draw(&self, rng: &mut StdRng) -> TaskParams {
        let pick = |rng: &mut StdRng, pool: &[String]| pool[rng.gen_range(0..pool.len())].clone();
        TaskParams {
            title1: pick(rng, &self.titles),
            title2: pick(rng, &self.titles),
            author: pick(rng, &self.authors),
            year: rng.gen_range(self.years.0..=self.years.1),
            institution: pick(rng, &self.institutions),
            conf_filter: pick(rng, &self.conferences),
            country: pick(rng, &self.countries),
            conf_agg: pick(rng, &self.conferences),
        }
    }
}

/// How a script's answer is read off the final table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// Every row's value in this attribute column.
    Column(&'static str),
    /// Every row's value in the first column.
    FirstColumn,
    /// The `name` of the first `k` rows (a top-k after a count sort).
    TopNames(usize),
}

/// One Table 2 task as an action script with its ground-truth SQL.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Task number, 1–6.
    pub task: usize,
    /// Parameter set, 0–3 (A, B, and the two seeded ones).
    pub set: usize,
    /// The actions, in order.
    pub steps: Vec<Step>,
    /// How the answer is read.
    pub answer: Answer,
    /// Ground truth: the `datagen::tasks` template with this set's values.
    pub truth_sql: String,
    /// For top-k tasks: every candidate with its count, so that a tie at
    /// the cut is not mistaken for a wrong answer.
    pub counts_sql: Option<String>,
}

/// The six Table 2 scripts for one parameter set: the action sequences
/// of `study::scripts::run_etable_task`, as data.
pub fn task_scripts(set: usize, p: &TaskParams) -> Vec<Script> {
    let TaskParams {
        title1,
        title2,
        author,
        year,
        institution,
        conf_filter,
        country,
        conf_agg,
    } = p;
    let script = |task, steps, answer, truth_sql: String, counts_sql| Script {
        task,
        set,
        steps,
        answer,
        truth_sql,
        counts_sql,
    };
    vec![
        script(
            1,
            vec![Step::Open("Papers"), eq("title", title1)],
            Answer::Column("year"),
            format!("SELECT year FROM Papers WHERE title = '{title1}'"),
            None,
        ),
        script(
            2,
            vec![
                Step::Open("Papers"),
                eq("title", title2),
                Step::SeeallFirst("Paper_Keywords: keyword"),
            ],
            Answer::FirstColumn,
            format!(
                "SELECT pk.keyword FROM Papers p, Paper_Keywords pk \
                 WHERE pk.paper_id = p.id AND p.title = '{title2}' ORDER BY pk.keyword"
            ),
            None,
        ),
        script(
            3,
            vec![
                Step::Open("Authors"),
                eq("name", author),
                Step::SeeallFirst("Papers"),
                Step::Filter {
                    attr: "year",
                    op: CmpOp::Ge,
                    value: Lit::Int(*year),
                },
            ],
            Answer::Column("title"),
            format!(
                "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a \
                 WHERE p.id = pa.paper_id AND pa.author_id = a.id \
                 AND a.name = '{author}' AND p.year >= {year} ORDER BY p.title"
            ),
            None,
        ),
        script(
            4,
            vec![
                Step::Open("Institutions"),
                eq("name", institution),
                Step::Pivot("Authors"),
                Step::Pivot("Papers"),
                // The detour the paper reports: onto the citation column
                // by mistake, then back through the history view.
                Step::Pivot("Papers (referenced)"),
                Step::RevertBack(2),
                Step::Pivot("Conferences"),
                eq("acronym", conf_filter),
                Step::Pivot("Papers"),
            ],
            Answer::Column("title"),
            format!(
                "SELECT DISTINCT p.title FROM Papers p, Paper_Authors pa, Authors a, \
                 Institutions i, Conferences c \
                 WHERE p.id = pa.paper_id AND pa.author_id = a.id \
                 AND a.institution_id = i.id AND p.conference_id = c.id \
                 AND i.name = '{institution}' AND c.acronym = '{conf_filter}' ORDER BY p.title"
            ),
            None,
        ),
        script(
            5,
            vec![
                Step::Open("Institutions"),
                eq("country", country),
                sort("Authors", true),
            ],
            Answer::TopNames(1),
            format!(
                "SELECT i.name FROM Institutions i, Authors a \
                 WHERE a.institution_id = i.id AND i.country = '{country}' \
                 GROUP BY i.name ORDER BY COUNT(*) DESC, i.name LIMIT 1"
            ),
            Some(format!(
                "SELECT i.name, COUNT(*) AS n FROM Institutions i, Authors a \
                 WHERE a.institution_id = i.id AND i.country = '{country}' \
                 GROUP BY i.name ORDER BY n DESC, i.name"
            )),
        ),
        script(
            6,
            vec![
                Step::Open("Conferences"),
                eq("acronym", conf_agg),
                Step::Pivot("Papers"),
                Step::Pivot("Authors"),
                sort("name", false),
                sort("Papers", true),
            ],
            Answer::TopNames(3),
            format!(
                "SELECT a.name FROM Papers p, Paper_Authors pa, Authors a, Conferences c \
                 WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.conference_id = c.id \
                 AND c.acronym = '{conf_agg}' GROUP BY a.name \
                 ORDER BY COUNT(*) DESC, a.name LIMIT 3"
            ),
            Some(format!(
                "SELECT a.name, COUNT(*) AS n FROM Papers p, Paper_Authors pa, Authors a, \
                 Conferences c WHERE p.id = pa.paper_id AND pa.author_id = a.id \
                 AND p.conference_id = c.id AND c.acronym = '{conf_agg}' \
                 GROUP BY a.name ORDER BY n DESC, a.name"
            )),
        ),
    ]
}

/// One `browse_tasks` pass: the six scripts over the paper's sets A and
/// B plus two sets drawn by `seed` — 24 scripts, 108 actions.
pub fn browse_tasks(pools: &Pools, seed: u64) -> Vec<Script> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7461_736b);
    let sets = [
        TaskParams::paper_set(TaskSet::A),
        TaskParams::paper_set(TaskSet::B),
        pools.draw(&mut rng),
        pools.draw(&mut rng),
    ];
    sets.iter()
        .enumerate()
        .flat_map(|(i, p)| task_scripts(i, p))
        .collect()
}

/// The `browse_revisit` workload: a trail that builds the session's
/// history once, then the lap that is measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Revisit {
    /// Pattern-changing actions, each a new pattern (14 ≤ the 64-entry
    /// `QueryCache`), over Conferences, Authors, Papers and Institutions.
    pub trail: Vec<Step>,
    /// Presentation and history actions only; every pattern they show is
    /// already cached.
    pub lap: Vec<Step>,
}

/// Builds the trail from seeded parameters and the lap from seeded block
/// order. The two tables that cost most to show (all Papers, all
/// Authors) are in every trail, so laps of different seeds cost alike.
pub fn browse_revisit(pools: &Pools, seed: u64) -> Revisit {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_7669);
    let p = pools.draw(&mut rng);
    let year2 = rng.gen_range(pools.years.0..=pools.years.1);
    let initial = pools.initials[rng.gen_range(0..pools.initials.len())];
    let seen_filter = Step::Filter {
        attr: "year",
        op: CmpOp::Eq,
        value: Lit::Int(year2),
    };
    let trail = vec![
        Step::Open("Conferences"), // 0
        eq("acronym", &p.conf_agg),
        Step::Pivot("Papers"), // 2
        Step::Filter {
            attr: "year",
            op: CmpOp::Eq,
            value: Lit::Int(p.year),
        },
        Step::Pivot("Authors"), // 4
        Step::Open("Authors"),  // 5
        Step::FilterLike {
            attr: "name",
            pattern: format!("{initial}%"),
        },
        Step::Pivot("Papers"), // 7
        Step::Open("Papers"),  // 8
        seen_filter.clone(),
        Step::Pivot("Conferences"), // 10
        Step::Open("Institutions"), // 11
        eq("country", &p.country),
        Step::Pivot("Authors"), // 13
    ];
    let mut blocks: Vec<Vec<Step>> = vec![
        vec![
            Step::Revert(8),
            sort("year", true),
            sort("Authors", true),
            Step::Hide("Papers (referencing)"),
            Step::Show("Papers (referencing)"),
        ],
        vec![Step::Revert(5), sort("name", false), sort("Papers", true)],
        vec![
            Step::Revert(2),
            sort("title", false),
            sort("Papers (referenced)", true),
            Step::FocusTop(4),
        ],
        vec![Step::Revert(0), Step::Revert(1)],
        vec![Step::Revert(3), sort("year", false), sort("Authors", true)],
        vec![Step::Revert(4), sort("Papers", true), Step::Hide("id")],
        vec![Step::Revert(6), sort("name", true)],
        vec![
            Step::Revert(7),
            sort("Authors", true),
            Step::Hide("page_start"),
            Step::Show("page_start"),
        ],
        vec![Step::Revert(9), sort("page_start", false)],
        vec![Step::Revert(10), sort("Papers", true)],
        vec![Step::Revert(11), sort("Authors", true), Step::Revert(12)],
        vec![Step::Revert(13), sort("name", false)],
        // Re-applying a filter already seen: a pattern-changing verb
        // whose pattern is step 9's, so it must hit the cache.
        vec![Step::Revert(8), seen_filter],
    ];
    shuffle(&mut rng, &mut blocks);
    Revisit {
        trail,
        lap: blocks.into_iter().flatten().collect(),
    }
}

/// Statement classes of the wire read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Selective lookups and dimension scans: parse/analyze/transport
    /// are a large share of the round trip.
    Point,
    /// Joins, grouping, ordering: the executor does the work.
    Analytic,
    /// Unlimited selections of more than ten thousand rows at paper
    /// scale: RESULT encode/decode do the work.
    Bulk,
}

/// One read statement of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Its class.
    pub class: Class,
    /// The SQL text sent.
    pub sql: String,
}

/// The 16-statement read mix: Table 2's ground-truth SQL (set A), the
/// load harness's academic queries, and two bulk selections.
pub fn read_mix() -> Vec<Statement> {
    let a = task_scripts(0, &TaskParams::paper_set(TaskSet::A));
    let task = |n: usize| a[n - 1].truth_sql.clone();
    let load = |i: usize| ACADEMIC_QUERIES[i].to_string();
    let mix = [
        (Class::Point, task(1)),
        (Class::Point, task(2)),
        (Class::Point, task(5)),
        (Class::Point, load(0)),
        (Class::Point, load(1)),
        (Class::Point, load(6)),
        (Class::Analytic, load(2)),
        (Class::Analytic, load(3)),
        (Class::Analytic, load(4)),
        (Class::Analytic, load(5)),
        (Class::Analytic, load(8)),
        (Class::Analytic, task(3)),
        (Class::Analytic, task(4)),
        (Class::Analytic, task(6)),
        (
            Class::Bulk,
            "SELECT id, title, year FROM Papers WHERE year >= 2008".to_string(),
        ),
        (
            Class::Bulk,
            "SELECT p.id, c.acronym, p.year FROM Papers p JOIN Conferences c \
             ON p.conference_id = c.id WHERE p.year < 2006"
                .to_string(),
        ),
    ];
    mix.into_iter()
        .map(|(class, sql)| Statement { class, sql })
        .collect()
}

/// The wire workloads' inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// The read mix.
    pub mix: Vec<Statement>,
    /// Per reader connection: the order it cycles the mix in.
    pub orders: Vec<Vec<usize>>,
    /// The writer's cycle — insert one Papers row, update it, delete it —
    /// which leaves the database in exactly three states, in this order
    /// after the base state.
    pub write_cycle: [String; 3],
}

/// Builds the wire inputs: seeded per-connection orders, and a seeded
/// row for the write cycle whose id no generated paper has.
pub fn wire(pools: &Pools, seed: u64, readers: usize) -> Wire {
    let mix = read_mix();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7769_7265);
    let orders = (0..readers)
        .map(|_| {
            let mut order: Vec<usize> = (0..mix.len()).collect();
            shuffle(&mut rng, &mut order);
            order
        })
        .collect();
    let id = 10_000_000 + (seed % 1_000_000) as i64;
    let conference = rng.gen_range(1..=pools.conference_count);
    // Inside both bulk statements' year ranges in turn: inserted it is
    // in the first, and the update moves it past every generated year.
    let year = rng.gen_range(2008..=pools.years.1.max(2008));
    let page = rng.gen_range(1..1800i64);
    Wire {
        mix,
        orders,
        write_cycle: [
            format!(
                "INSERT INTO Papers VALUES ({id}, {conference}, \
                 'benchmark data row {seed}', {year}, {page}, {})",
                page + 8
            ),
            format!(
                "UPDATE Papers SET year = {} WHERE id = {id}",
                pools.years.1 + 1
            ),
            format!("DELETE FROM Papers WHERE id = {id}"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etable_datagen::{generate, task_set, GenConfig};

    fn pools() -> Pools {
        Pools::read(&generate(&GenConfig::small())).unwrap()
    }

    #[test]
    fn same_seed_same_operations_other_seed_other_operations() {
        let pools = pools();
        assert_eq!(browse_tasks(&pools, 7), browse_tasks(&pools, 7));
        assert_ne!(browse_tasks(&pools, 7), browse_tasks(&pools, 8));
        assert_eq!(browse_revisit(&pools, 7), browse_revisit(&pools, 7));
        assert_ne!(browse_revisit(&pools, 7), browse_revisit(&pools, 8));
        assert_eq!(wire(&pools, 7, 2), wire(&pools, 7, 2));
        assert_ne!(wire(&pools, 7, 2), wire(&pools, 8, 2));
    }

    #[test]
    fn a_pass_is_24_scripts_and_108_actions_with_sets_a_and_b_first() {
        let pools = pools();
        for seed in [1, 2, 3] {
            let pass = browse_tasks(&pools, seed);
            assert_eq!(pass.len(), 24);
            assert_eq!(pass.iter().map(|s| s.steps.len()).sum::<usize>(), 108);
            // The templates are datagen's: instantiated with the paper's
            // values they give its SQL text, letter for letter.
            for (set_no, set) in [TaskSet::A, TaskSet::B].into_iter().enumerate() {
                for (script, task) in pass[set_no * 6..].iter().zip(task_set(set)) {
                    assert_eq!(script.set, set_no);
                    assert_eq!(script.task, task.number);
                    assert_eq!(script.truth_sql, task.sql);
                }
            }
        }
    }

    #[test]
    fn the_lap_only_revisits_and_the_trail_fits_the_cache() {
        let r = browse_revisit(&pools(), 5);
        assert!(r.trail.len() <= 24);
        let changing = r
            .lap
            .iter()
            .filter(|s| !matches!(s.verb(), Verb::Sort | Verb::Revert | Verb::Present))
            .count();
        assert_eq!(
            changing, 1,
            "only the re-applied filter changes the pattern"
        );
        assert!(r.lap.len() >= 36, "{}", r.lap.len());
        for s in &r.lap {
            if let Step::Revert(i) = s {
                assert!(*i < r.trail.len());
            }
        }
    }

    #[test]
    fn the_read_mix_has_16_statements_in_three_classes() {
        let w = wire(&pools(), 3, 2);
        assert_eq!(w.mix.len(), 16);
        let of = |c| w.mix.iter().filter(|s| s.class == c).count();
        assert_eq!(
            (of(Class::Point), of(Class::Analytic), of(Class::Bulk)),
            (6, 8, 2)
        );
        assert_eq!(w.orders.len(), 2);
        for order in &w.orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        }
    }
}
