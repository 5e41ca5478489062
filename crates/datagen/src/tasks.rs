//! The six user-study tasks (paper Table 2), with ground-truth SQL.
//!
//! The paper used two matched task sets differing only in parameter values;
//! both sets are provided. Categories: finding attribute values (1–2),
//! filtering (3–4), aggregation (5–6).

use etable_relational::database::Database;
use etable_relational::sql::{execute_read, parse_statement};
use std::collections::BTreeSet;

/// Task category (Table 2's middle column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskCategory {
    /// Retrieve attribute values (tasks 1–2).
    Attribute,
    /// Filter entities (tasks 3–4).
    Filter,
    /// Perform aggregation (tasks 5–6).
    Aggregate,
}

impl std::fmt::Display for TaskCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskCategory::Attribute => write!(f, "Attribute"),
            TaskCategory::Filter => write!(f, "Filter"),
            TaskCategory::Aggregate => write!(f, "Aggregate"),
        }
    }
}

/// One study task.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task number (1–6).
    pub number: usize,
    /// Natural-language statement, as shown to participants.
    pub description: String,
    /// Category.
    pub category: TaskCategory,
    /// Number of relations a relational formulation must touch (Table 2's
    /// `#Relations` column).
    pub relations: usize,
    /// Ground-truth SQL over the Figure 3 schema.
    pub sql: String,
}

/// Which of the two matched task sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSet {
    /// The set printed in Table 2.
    A,
    /// The matched set with different parameters.
    B,
}

/// The parameter values that differ between the two matched task sets.
#[derive(Debug, Clone)]
pub struct TaskParams {
    /// Target paper title for task 1.
    pub title1: &'static str,
    /// Target paper title for task 2.
    pub title2: &'static str,
    /// Target author for task 3.
    pub author: &'static str,
    /// Year threshold for task 3.
    pub year: i64,
    /// Target institution for task 4.
    pub institution: &'static str,
    /// Conference for the aggregation task 6.
    pub conf_agg: &'static str,
    /// Conference for the filter task 4.
    pub conf_filter: &'static str,
}

/// The parameters of a task set.
pub fn params(set: TaskSet) -> TaskParams {
    match set {
        TaskSet::A => TaskParams {
            title1: "Making database systems usable",
            title2: "Collaborative filtering with temporal dynamics",
            author: "Samuel Madden",
            year: 2013,
            institution: "Carnegie Mellon University",
            conf_agg: "SIGMOD",
            conf_filter: "KDD",
        },
        TaskSet::B => TaskParams {
            title1: "Collaborative filtering with temporal dynamics",
            title2: "Making database systems usable",
            author: "Samuel Madden",
            year: 2010,
            institution: "Carnegie Mellon University",
            conf_agg: "KDD",
            conf_filter: "KDD",
        },
    }
}

/// Builds a task set (Table 2 for [`TaskSet::A`]; the matched variant for
/// [`TaskSet::B`]).
pub fn task_set(set: TaskSet) -> Vec<Task> {
    let TaskParams {
        title1: t1,
        title2: t2,
        author,
        year,
        institution: inst,
        conf_agg,
        conf_filter,
    } = params(set);
    vec![
        Task {
            number: 1,
            description: format!("Find the year that the paper titled '{t1}' was published in."),
            category: TaskCategory::Attribute,
            relations: 1,
            sql: format!("SELECT year FROM Papers WHERE title = '{t1}'"),
        },
        Task {
            number: 2,
            description: format!("Find all the keywords of the paper titled '{t2}'."),
            category: TaskCategory::Attribute,
            relations: 2,
            sql: format!(
                "SELECT pk.keyword FROM Papers p, Paper_Keywords pk \
                 WHERE pk.paper_id = p.id AND p.title = '{t2}' ORDER BY pk.keyword"
            ),
        },
        Task {
            number: 3,
            description: format!(
                "Find all the papers that were written by '{author}' and published in {year} or after."
            ),
            category: TaskCategory::Filter,
            relations: 3,
            sql: format!(
                "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a \
                 WHERE p.id = pa.paper_id AND pa.author_id = a.id \
                 AND a.name = '{author}' AND p.year >= {year} ORDER BY p.title"
            ),
        },
        Task {
            number: 4,
            description: format!(
                "Find all the papers written by researchers at '{inst}' and published at the {conf_filter} conference."
            ),
            category: TaskCategory::Filter,
            relations: 5,
            sql: format!(
                "SELECT DISTINCT p.title FROM Papers p, Paper_Authors pa, Authors a, \
                 Institutions i, Conferences c \
                 WHERE p.id = pa.paper_id AND pa.author_id = a.id \
                 AND a.institution_id = i.id AND p.conference_id = c.id \
                 AND i.name = '{inst}' AND c.acronym = '{conf_filter}' ORDER BY p.title"
            ),
        },
        Task {
            number: 5,
            description: "Which institution in South Korea has the largest number of researchers?"
                .to_string(),
            category: TaskCategory::Aggregate,
            relations: 2,
            sql: "SELECT i.name FROM Institutions i, Authors a \
                  WHERE a.institution_id = i.id AND i.country = 'South Korea' \
                  GROUP BY i.name ORDER BY COUNT(*) DESC, i.name LIMIT 1"
                .to_string(),
        },
        Task {
            number: 6,
            description: format!(
                "Find the top 3 researchers who have published the most papers in the {conf_agg} conference."
            ),
            category: TaskCategory::Aggregate,
            relations: 4,
            sql: format!(
                "SELECT a.name FROM Papers p, Paper_Authors pa, Authors a, Conferences c \
                 WHERE p.id = pa.paper_id AND pa.author_id = a.id AND p.conference_id = c.id \
                 AND c.acronym = '{conf_agg}' GROUP BY a.name \
                 ORDER BY COUNT(*) DESC, a.name LIMIT 3"
            ),
        },
    ]
}

/// Computes a task's ground-truth answer as a set of strings (first output
/// column of its SQL), read from `db` in place: the SQL is one read-only
/// statement, parsed once.
pub fn ground_truth(db: &Database, task: &Task) -> BTreeSet<String> {
    let rel = parse_statement(&task.sql).and_then(|stmt| execute_read(db, &stmt));
    let rel = rel.expect("task SQL is valid");
    rel.column(0).iter().map(ToString::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};

    #[test]
    fn table2_shape() {
        let tasks = task_set(TaskSet::A);
        assert_eq!(tasks.len(), 6);
        assert_eq!(
            tasks.iter().map(|t| t.relations).collect::<Vec<_>>(),
            vec![1, 2, 3, 5, 2, 4]
        );
        assert_eq!(tasks[0].category, TaskCategory::Attribute);
        assert_eq!(tasks[3].category, TaskCategory::Filter);
        assert_eq!(tasks[5].category, TaskCategory::Aggregate);
    }

    #[test]
    fn all_tasks_have_nonempty_answers_in_both_sets() {
        let db = generate(&GenConfig::small());
        for set in [TaskSet::A, TaskSet::B] {
            for task in task_set(set) {
                let answer = ground_truth(&db, &task);
                assert!(
                    !answer.is_empty(),
                    "task {} of {set:?} has an empty answer",
                    task.number
                );
            }
        }
    }

    #[test]
    fn task_sets_are_matched_but_different() {
        let a = task_set(TaskSet::A);
        let b = task_set(TaskSet::B);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.category, tb.category);
        }
        assert_ne!(a[0].description, b[0].description);
    }
}
