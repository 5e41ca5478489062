//! Seeded synthetic generator for the academic database.
//!
//! Reproduces the *statistical shape* of the paper's DBLP/ACM crawl: ~38k
//! papers at 19 conferences since 2000, skewed authorship and citation
//! distributions, and multi-keyword papers. Entities the Table 2 tasks and
//! the Figure 1/6/7 example queries refer to are planted deterministically
//! so every experiment has a non-trivial answer (see DESIGN.md,
//! "Substitutions").

use crate::names;
use crate::schema::academic_schema;
use etable_relational::database::Database;
use etable_relational::table::Row;
use etable_relational::value::Value;
use etable_relational::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed; equal seeds produce identical databases.
    pub seed: u64,
    /// Number of papers.
    pub papers: usize,
    /// Number of authors.
    pub authors: usize,
    /// Publication year range (inclusive).
    pub years: (i64, i64),
    /// Mean authors per paper (skewed; clamped to `1..=12`).
    pub mean_authors: f64,
    /// Mean keywords per paper (skewed; clamped to `1..=10`).
    pub mean_keywords: f64,
    /// Mean references per paper (skewed; clamped to `0..=30`).
    pub mean_refs: f64,
}

impl GenConfig {
    /// A small configuration for unit tests (hundreds of rows).
    pub fn small() -> Self {
        GenConfig {
            seed: 42,
            papers: 300,
            authors: 220,
            years: (2000, 2015),
            mean_authors: 2.8,
            mean_keywords: 4.0,
            mean_refs: 5.0,
        }
    }

    /// The default medium configuration (a few thousand rows, fast enough
    /// for integration tests and examples).
    pub fn medium() -> Self {
        GenConfig {
            papers: 3000,
            authors: 2000,
            ..Self::small()
        }
    }

    /// The paper-scale configuration: ~38,000 papers (§7.1).
    pub fn paper_scale() -> Self {
        GenConfig {
            papers: 38_000,
            authors: 24_000,
            ..Self::small()
        }
    }

    /// A copy with a different number of papers (authors scale along),
    /// used by benchmark sweeps.
    pub fn with_papers(&self, papers: usize) -> Self {
        GenConfig {
            papers,
            authors: (papers * 2 / 3).max(30),
            ..self.clone()
        }
    }

    /// Like [`GenConfig::with_papers`], but validates the scale up front so
    /// user-facing entry points (`ETABLE_SCALE`) can report a friendly error
    /// instead of hitting the generator's internal assertion.
    pub fn try_with_papers(&self, papers: usize) -> std::result::Result<Self, String> {
        if papers < MIN_PAPERS {
            return Err(format!(
                "scale {papers} is too small: the generator needs at least {MIN_PAPERS} papers \
                 to plant the Table 2 task entities (try ETABLE_SCALE={MIN_PAPERS} or larger)"
            ));
        }
        Ok(self.with_papers(papers))
    }

    /// Applies the `ETABLE_SCALE` environment variable: returns `self`
    /// unchanged when it is unset, the resized configuration when it names
    /// a valid paper count, and a friendly error message otherwise. The
    /// single source of the scale-validation contract shared by every
    /// user-facing entry point (CLI, figure binaries).
    pub fn with_scale_from_env(&self) -> std::result::Result<Self, String> {
        let Ok(scale) = std::env::var("ETABLE_SCALE") else {
            return Ok(self.clone());
        };
        let n = scale
            .parse::<usize>()
            .map_err(|_| format!("ETABLE_SCALE must be a number of papers, got `{scale}`"))?;
        self.try_with_papers(n)
    }
}

/// The smallest paper count the generator supports: below this the planted
/// Table 2 entities (two target papers, the Madden/CMU/SNU clusters) would
/// not fit.
pub const MIN_PAPERS: usize = 20;

/// Revision stamp of the generator's *output*, folded into the snapshot
/// cache key ([`crate::snapshot::snapshot_key`]). Bump this whenever a
/// change to this module (or [`crate::names`]/[`crate::schema`]) alters
/// the database produced for an identical [`GenConfig`], so stale cached
/// corpora can never be served.
pub const GENERATOR_REV: u32 = 1;

impl Default for GenConfig {
    fn default() -> Self {
        Self::medium()
    }
}

/// Draws a skewed (exponential) count with the given mean, clamped.
fn skewed_count(rng: &mut StdRng, mean: f64, min: usize, max: usize) -> usize {
    let u: f64 = rng.gen_range(0.0_f64..1.0).max(1e-12);
    let x = (-mean * u.ln()).round() as usize;
    x.clamp(min, max)
}

/// Samples an index with Zipf-like weights `1/(i+1)` over `n` items.
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    // Inverse-CDF on the harmonic distribution, approximated by
    // exp-distributed rank.
    let u: f64 = rng.gen_range(0.0_f64..1.0);
    let h = ((n as f64).ln_1p()).exp(); // ~ n+1
    let r = (h.powf(u) - 1.0) as usize;
    r.min(n - 1)
}

/// IDs of the planted entities (stable across seeds).
pub mod planted {
    /// Paper id of "Making database systems usable" (task 1 target).
    pub const USABLE_PAPER: i64 = 1;
    /// Paper id of "Collaborative filtering with temporal dynamics" (task 2).
    pub const CF_PAPER: i64 = 2;
    /// Author id of Samuel Madden (task 3).
    pub const MADDEN: i64 = 1;
    /// Conference id of SIGMOD (pool position 1).
    pub const SIGMOD: i64 = 1;
    /// Conference id of KDD (pool position 7).
    pub const KDD: i64 = 7;
    /// Institution id of Carnegie Mellon University (task 4).
    pub const CMU: i64 = 1;
    /// Institution id of Seoul National University (task 5 winner).
    pub const SNU: i64 = 11;
}

/// Generates the synthetic academic database.
pub fn generate(cfg: &GenConfig) -> Database {
    assert!(
        cfg.papers >= MIN_PAPERS,
        "need at least {MIN_PAPERS} papers (see GenConfig::try_with_papers)"
    );
    assert!(cfg.authors >= 20, "need at least 20 authors");
    build(cfg).expect("generated rows fit the Figure 3 schema")
}

/// [`generate`]'s rows, appended batch by batch in dependency order.
fn build(cfg: &GenConfig) -> Result<Database> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = academic_schema();

    // --- Conferences ------------------------------------------------------
    db.append_rows(
        "Conferences",
        names::CONFERENCES
            .iter()
            .enumerate()
            .map(|(i, (acr, title))| vec![(i as i64 + 1).into(), (*acr).into(), (*title).into()]),
    )?;
    let n_conf = names::CONFERENCES.len() as i64;

    // --- Institutions -----------------------------------------------------
    db.append_rows(
        "Institutions",
        names::INSTITUTIONS
            .iter()
            .enumerate()
            .map(|(i, (name, country))| {
                vec![(i as i64 + 1).into(), (*name).into(), (*country).into()]
            }),
    )?;
    let n_inst = names::INSTITUTIONS.len() as i64;

    // --- Authors ----------------------------------------------------------
    // Author 1 is Samuel Madden (planted, at MIT = institution 2).
    let mut used_names: HashSet<String> = HashSet::new();
    used_names.insert("Samuel Madden".into());
    let mut author_rows: Vec<Row> = Vec::with_capacity(cfg.authors);
    author_rows.push(vec![
        planted::MADDEN.into(),
        "Samuel Madden".into(),
        2.into(),
    ]);
    // Authors 2..=6 are planted at CMU so task 4 has answers.
    for id in 2..=6i64 {
        let name = fresh_name(&mut rng, &mut used_names);
        author_rows.push(vec![id.into(), name.into(), planted::CMU.into()]);
    }
    // A cluster of authors is planted at Seoul National University so
    // task 5 ("which South Korean institution has the most authors?")
    // has a unique winner on every seed. The Zipf tail is nearly flat
    // across the five South Korean schools (ranks 11-15), so the winner
    // must be structural, not left to the draws — and the margin must
    // scale with the population: each school's Zipf count grows linearly
    // in `authors` with binomial noise, so a fixed plant would drown at
    // medium/paper scale. 2% of authors (min 8) stays well clear of the
    // noise at every configuration.
    let snu_cluster = (cfg.authors / 50).max(8) as i64;
    for id in 7..7 + snu_cluster {
        let name = fresh_name(&mut rng, &mut used_names);
        author_rows.push(vec![id.into(), name.into(), planted::SNU.into()]);
    }
    for id in (7 + snu_cluster)..=cfg.authors as i64 {
        let name = fresh_name(&mut rng, &mut used_names);
        // ~4% of authors have no recorded institution (nullable FK).
        let inst: Value = if rng.gen_ratio(1, 25) {
            Value::Null
        } else {
            // Zipf over institutions: big schools dominate.
            (zipf(&mut rng, n_inst as usize) as i64 + 1).into()
        };
        author_rows.push(vec![id.into(), name.into(), inst]);
    }
    db.append_rows("Authors", author_rows)?;

    // --- Papers -----------------------------------------------------------
    let mut used_titles: HashSet<String> = HashSet::new();
    let mut paper_rows: Vec<Row> = Vec::with_capacity(cfg.papers);
    let mut paper_year: Vec<i64> = Vec::with_capacity(cfg.papers);
    let mut paper_conf: Vec<i64> = Vec::with_capacity(cfg.papers);
    for id in 1..=cfg.papers as i64 {
        let (title, conf, year) = if id == planted::USABLE_PAPER {
            (
                "Making database systems usable".to_string(),
                planted::SIGMOD,
                2007,
            )
        } else if id == planted::CF_PAPER {
            (
                "Collaborative filtering with temporal dynamics".to_string(),
                planted::KDD,
                2009,
            )
        } else {
            let title = fresh_title(&mut rng, &mut used_titles);
            let conf = zipf(&mut rng, n_conf as usize) as i64 + 1;
            let year = rng.gen_range(cfg.years.0..=cfg.years.1);
            (title, conf, year)
        };
        used_titles.insert(title.clone());
        let page_start = rng.gen_range(1..1800i64);
        let page_len = rng.gen_range(2..14i64);
        paper_rows.push(vec![
            id.into(),
            conf.into(),
            title.into(),
            year.into(),
            page_start.into(),
            (page_start + page_len).into(),
        ]);
        paper_year.push(year);
        paper_conf.push(conf);
    }
    db.append_rows("Papers", paper_rows)?;

    // --- Paper_Authors (preferential attachment over authors) -------------
    // Tickets: an author's chance of being picked grows with each paper,
    // yielding the power-law paper counts real bibliographies show.
    let mut tickets: Vec<i64> = (1..=cfg.authors as i64).collect();
    let mut pa_rows: Vec<(i64, i64, i64)> = Vec::new();
    for pid in 1..=cfg.papers as i64 {
        let mut count = skewed_count(&mut rng, cfg.mean_authors, 1, 12);
        if pid == planted::USABLE_PAPER {
            count = 7; // the paper's running example shows 7 authors
        }
        let mut chosen: Vec<i64> = Vec::with_capacity(count);
        let mut guard = 0;
        while chosen.len() < count && guard < 200 {
            let a = tickets[rng.gen_range(0..tickets.len())];
            if !chosen.contains(&a) {
                chosen.push(a);
            }
            guard += 1;
        }
        for (ord, a) in chosen.iter().enumerate() {
            pa_rows.push((pid, *a, ord as i64 + 1));
            tickets.push(*a);
        }
    }
    // Planted guarantees:
    // * Samuel Madden authored at least three papers from 2013 on (task 3)
    //   and one earlier paper (so the year filter is non-trivial).
    let mut madden_recent = 0;
    let mut madden_old = 0;
    for (pid, a, _) in &pa_rows {
        if *a == planted::MADDEN {
            if paper_year[(*pid - 1) as usize] >= 2013 {
                madden_recent += 1;
            } else {
                madden_old += 1;
            }
        }
    }
    let add_author = |pa_rows: &mut Vec<(i64, i64, i64)>, pid: i64, a: i64| {
        if !pa_rows.iter().any(|(p, x, _)| *p == pid && *x == a) {
            let ord = pa_rows.iter().filter(|(p, _, _)| *p == pid).count() as i64 + 1;
            pa_rows.push((pid, a, ord));
        }
    };
    {
        let recent: Vec<i64> = (1..=cfg.papers as i64)
            .filter(|&p| paper_year[(p - 1) as usize] >= 2013)
            .take(6)
            .collect();
        let old: Vec<i64> = (1..=cfg.papers as i64)
            .filter(|&p| paper_year[(p - 1) as usize] < 2013)
            .take(3)
            .collect();
        for &p in recent.iter().take((3 - madden_recent.min(3)) as usize + 1) {
            add_author(&mut pa_rows, p, planted::MADDEN);
        }
        for &p in old.iter().take((1 - madden_old.min(1)) as usize) {
            add_author(&mut pa_rows, p, planted::MADDEN);
        }
        // * CMU researchers (authors 2..=6) published at KDD (task 4).
        let kdd_papers: Vec<i64> = (1..=cfg.papers as i64)
            .filter(|&p| paper_conf[(p - 1) as usize] == planted::KDD)
            .take(4)
            .collect();
        for (i, &p) in kdd_papers.iter().enumerate() {
            add_author(&mut pa_rows, p, 2 + (i as i64 % 5));
        }
    }
    pa_rows.sort();
    pa_rows.dedup_by_key(|(p, a, _)| (*p, *a));
    db.append_rows(
        "Paper_Authors",
        pa_rows
            .iter()
            .map(|(pid, a, ord)| vec![(*pid).into(), (*a).into(), (*ord).into()]),
    )?;

    // --- Paper_Keywords ----------------------------------------------------
    let mut kw_rows: Vec<Row> = Vec::new();
    for pid in 1..=cfg.papers as i64 {
        let mut kws: Vec<&str> = Vec::new();
        if pid == planted::USABLE_PAPER {
            kws = vec![
                "user interfaces",
                "human factors",
                "usability",
                "design",
                "databases",
                "sql",
            ];
        } else if pid == planted::CF_PAPER {
            kws = vec![
                "recommendation",
                "user preferences",
                "machine learning",
                "clustering",
            ];
        } else {
            let count = skewed_count(&mut rng, cfg.mean_keywords, 1, 10);
            let mut guard = 0;
            while kws.len() < count && guard < 100 {
                let k = names::KEYWORDS[zipf(&mut rng, names::KEYWORDS.len())];
                if !kws.contains(&k) {
                    kws.push(k);
                }
                guard += 1;
            }
        }
        for k in kws {
            kw_rows.push(vec![pid.into(), k.into()]);
        }
    }
    db.append_rows("Paper_Keywords", kw_rows)?;

    // --- Paper_References (preferential attachment over earlier papers) ---
    let mut cite_tickets: Vec<i64> = Vec::new();
    let mut ref_rows: Vec<Row> = Vec::new();
    for pid in 2..=cfg.papers as i64 {
        cite_tickets.push(pid - 1);
        let count = skewed_count(&mut rng, cfg.mean_refs, 0, 30);
        let mut refs: Vec<i64> = Vec::new();
        let mut guard = 0;
        while refs.len() < count && guard < 200 {
            let r = cite_tickets[rng.gen_range(0..cite_tickets.len())];
            if r != pid && !refs.contains(&r) {
                refs.push(r);
            }
            guard += 1;
        }
        for r in &refs {
            ref_rows.push(vec![pid.into(), (*r).into()]);
            cite_tickets.push(*r);
        }
    }
    db.append_rows("Paper_References", ref_rows)?;
    Ok(db)
}

fn fresh_name(rng: &mut StdRng, used: &mut HashSet<String>) -> String {
    loop {
        let first = names::FIRST_NAMES[rng.gen_range(0..names::FIRST_NAMES.len())];
        let last = names::LAST_NAMES[rng.gen_range(0..names::LAST_NAMES.len())];
        let mut name = format!("{first} {last}");
        let mut suffix = 2;
        while used.contains(&name) {
            name = format!("{first} {last} {}", roman(suffix));
            suffix += 1;
            if suffix > 30 {
                break;
            }
        }
        if used.insert(name.clone()) {
            return name;
        }
    }
}

fn fresh_title(rng: &mut StdRng, used: &mut HashSet<String>) -> String {
    loop {
        let head = names::TITLE_HEADS[rng.gen_range(0..names::TITLE_HEADS.len())];
        let subj = names::TITLE_SUBJECTS[rng.gen_range(0..names::TITLE_SUBJECTS.len())];
        let tail = names::TITLE_TAILS[rng.gen_range(0..names::TITLE_TAILS.len())];
        let mut title = format!("{head} {subj} {tail}");
        let mut n = 2;
        while used.contains(&title) {
            title = format!("{head} {subj} {tail}, part {n}");
            n += 1;
        }
        if used.insert(title.clone()) {
            return title;
        }
    }
}

fn roman(mut n: usize) -> String {
    let table = [(10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I")];
    let mut out = String::new();
    for (v, s) in table {
        while n >= v {
            out.push_str(s);
            n -= v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etable_relational::sql::execute;

    fn small_db() -> Database {
        generate(&GenConfig::small())
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = generate(&GenConfig::small());
        let b = generate(&GenConfig::small());
        assert_eq!(a.total_rows(), b.total_rows());
        let ta = a.table("Papers").unwrap();
        let tb = b.table("Papers").unwrap();
        assert_eq!(ta.to_rows(), tb.to_rows());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GenConfig::small());
        let b = generate(&GenConfig {
            seed: 43,
            ..GenConfig::small()
        });
        assert_ne!(
            a.table("Papers").unwrap().to_rows(),
            b.table("Papers").unwrap().to_rows()
        );
    }

    #[test]
    fn referential_integrity_holds() {
        small_db().check_integrity().unwrap();
    }

    #[test]
    fn row_counts_match_config() {
        let db = small_db();
        assert_eq!(db.table("Papers").unwrap().len(), 300);
        assert_eq!(db.table("Authors").unwrap().len(), 220);
        assert_eq!(db.table("Conferences").unwrap().len(), 19);
    }

    #[test]
    fn task1_answer_planted() {
        let mut db = small_db();
        let r = execute(
            &mut db,
            "SELECT year FROM Papers WHERE title = 'Making database systems usable'",
        )
        .unwrap();
        assert_eq!(r.get(0, 0), Value::Int(2007));
    }

    #[test]
    fn task2_answer_planted() {
        let mut db = small_db();
        let r = execute(
            &mut db,
            "SELECT pk.keyword FROM Papers p, Paper_Keywords pk \
             WHERE pk.paper_id = p.id AND p.title = 'Collaborative filtering with temporal dynamics'",
        )
        .unwrap();
        assert!(r.len() >= 3);
    }

    #[test]
    fn task3_answer_nonempty() {
        let mut db = small_db();
        let r = execute(
            &mut db,
            "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id \
             AND a.name = 'Samuel Madden' AND p.year >= 2013",
        )
        .unwrap();
        assert!(r.len() >= 3, "only {} Madden papers >= 2013", r.len());
        // And he has older papers too, so the filter matters.
        let all = execute(
            &mut db,
            "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id AND a.name = 'Samuel Madden'",
        )
        .unwrap();
        assert!(all.len() > r.len());
    }

    #[test]
    fn task4_answer_nonempty() {
        let mut db = small_db();
        let r = execute(
            &mut db,
            "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a, Institutions i, Conferences c \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id AND a.institution_id = i.id \
             AND p.conference_id = c.id AND i.name = 'Carnegie Mellon University' \
             AND c.acronym = 'KDD'",
        )
        .unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn task5_answer_well_defined() {
        // The planted SNU cluster must make the winner unique AND be the
        // winner itself, at every scale the tests exercise — a unique
        // winner keeps the task answerable, and pinning *which* school
        // wins guards the `planted::SNU` invariant the cluster pays for.
        for cfg in [GenConfig::small(), GenConfig::medium()] {
            let mut db = generate(&cfg);
            let r = execute(
                &mut db,
                "SELECT i.name, COUNT(*) AS n FROM Institutions i, Authors a \
                 WHERE a.institution_id = i.id AND i.country = 'South Korea' \
                 GROUP BY i.name ORDER BY n DESC",
            )
            .unwrap();
            assert!(!r.is_empty());
            assert_eq!(
                r.get(0, 0).to_string(),
                "Seoul National University",
                "planted cluster must win at {} authors",
                cfg.authors
            );
            if r.len() >= 2 {
                assert_ne!(
                    r.get(0, 1),
                    r.get(1, 1),
                    "task 5 has a tie at {} authors",
                    cfg.authors
                );
            }
        }
    }

    #[test]
    fn task6_answer_nonempty() {
        let mut db = small_db();
        let r = execute(
            &mut db,
            "SELECT a.name, COUNT(*) AS n FROM Papers p, Paper_Authors pa, Authors a, Conferences c \
             WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.conference_id = c.id \
             AND c.acronym = 'SIGMOD' GROUP BY a.name ORDER BY n DESC, a.name LIMIT 3",
        )
        .unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn authorship_distribution_is_skewed() {
        let mut db = small_db();
        let r = execute(
            &mut db,
            "SELECT pa.author_id, COUNT(*) AS n FROM Paper_Authors pa \
             GROUP BY pa.author_id ORDER BY n DESC",
        )
        .unwrap();
        let top = r.get(0, 1).as_int().unwrap();
        let median = r.get(r.len() / 2, 1).as_int().unwrap();
        assert!(
            top >= median * 3,
            "expected skew: top {top} vs median {median}"
        );
    }

    #[test]
    fn figure1_workload_nonempty() {
        // SIGMOD papers with a keyword containing 'user' exist.
        let mut db = small_db();
        let r = execute(
            &mut db,
            "SELECT DISTINCT p.id FROM Papers p, Paper_Keywords pk, Conferences c \
             WHERE pk.paper_id = p.id AND p.conference_id = c.id \
             AND pk.keyword LIKE '%user%' AND c.acronym = 'SIGMOD'",
        )
        .unwrap();
        assert!(r.len() >= 2);
    }

    #[test]
    fn scaling_config_scales() {
        let cfg = GenConfig::small().with_papers(600);
        let db = generate(&cfg);
        assert_eq!(db.table("Papers").unwrap().len(), 600);
        assert_eq!(db.table("Authors").unwrap().len(), 400);
    }

    #[test]
    fn tiny_scale_is_a_friendly_error() {
        let err = GenConfig::medium().try_with_papers(5).unwrap_err();
        assert!(err.contains("at least 20 papers"), "{err}");
        assert!(GenConfig::medium().try_with_papers(MIN_PAPERS).is_ok());
    }
}
