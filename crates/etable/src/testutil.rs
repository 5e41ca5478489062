//! Shared test fixture: a miniature version of the paper's academic
//! database (Figure 3 schema) with hand-picked instances, small enough to
//! verify results by eye but covering every relationship category.

#![allow(missing_docs)]

use etable_relational::database::Database;
use etable_relational::schema::{Column, ForeignKey, TableSchema};
use etable_relational::value::{DataType, Value};
use etable_relational::Result;
use etable_tgm::{translate, Tgdb, TranslateOptions};

/// `match_primary` with its down pass forced to re-check every row a node
/// holds: the reference the down pass's candidate rule is compared with.
pub fn match_rechecking_every_row(
    tgdb: &Tgdb,
    q: &crate::pattern::QueryPattern,
) -> crate::Result<crate::matching::MatchResult> {
    use crate::matching::{match_with, Recheck};
    match_with(tgdb, q, None, Some(Recheck::All))
}

/// Builds the relational form of the mini academic database.
///
/// Contents:
/// * Conferences: SIGMOD(1), KDD(2)
/// * Institutions: Univ. of Michigan (USA), Seoul National Univ. (South
///   Korea), Univ. of Washington (USA)
/// * Authors: Jagadish(MI), Nandi(MI), Kim(SNU), Kwon(UW)
/// * Papers: 10 "Making database systems usable" (SIGMOD 2007, authors
///   Jagadish+Nandi, keywords usability+user interface),
///   11 "SkewTune" (SIGMOD 2012, authors Kwon, keyword skew, cites 10),
///   12 "Guided interaction" (KDD 2011, authors Nandi+Kim, keyword user
///   interface, cites 10),
///   13 "Deep stuff" (KDD 2014, author Kim, keyword deep learning, cites 11
///   and 12)
pub fn academic_db() -> Database {
    build().expect("the academic fixture is consistent")
}

/// The mini academic database translated into a TGDB with default
/// options; [`Tgdb::database`] is [`academic_db`].
pub fn academic_tgdb() -> Tgdb {
    translate(&academic_db(), &TranslateOptions::default())
        .expect("the academic fixture translates")
}

fn build() -> Result<Database> {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "Conferences",
            vec![
                Column::new("id", DataType::Int),
                Column::new("acronym", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )?;
    db.create_table(
        TableSchema::new(
            "Institutions",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("country", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )?;
    db.create_table(
        TableSchema::new(
            "Authors",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("institution_id", DataType::Int),
            ],
        )
        .with_primary_key(&["id"])
        .with_foreign_key(ForeignKey::single("institution_id", "Institutions", "id")),
    )?;
    db.create_table(
        TableSchema::new(
            "Papers",
            vec![
                Column::new("id", DataType::Int),
                Column::new("conference_id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("year", DataType::Int),
            ],
        )
        .with_primary_key(&["id"])
        .with_foreign_key(ForeignKey::single("conference_id", "Conferences", "id")),
    )?;
    db.create_table(
        TableSchema::new(
            "Paper_Authors",
            vec![
                Column::new("paper_id", DataType::Int),
                Column::new("author_id", DataType::Int),
                Column::new("ord", DataType::Int),
            ],
        )
        .with_primary_key(&["paper_id", "author_id"])
        .with_foreign_key(ForeignKey::single("paper_id", "Papers", "id"))
        .with_foreign_key(ForeignKey::single("author_id", "Authors", "id")),
    )?;
    db.create_table(
        TableSchema::new(
            "Paper_Keywords",
            vec![
                Column::new("paper_id", DataType::Int),
                Column::new("keyword", DataType::Text),
            ],
        )
        .with_primary_key(&["paper_id", "keyword"])
        .with_foreign_key(ForeignKey::single("paper_id", "Papers", "id")),
    )?;
    db.create_table(
        TableSchema::new(
            "Paper_References",
            vec![
                Column::new("paper_id", DataType::Int),
                Column::new("ref_paper_id", DataType::Int),
            ],
        )
        .with_primary_key(&["paper_id", "ref_paper_id"])
        .with_foreign_key(ForeignKey::single("paper_id", "Papers", "id"))
        .with_foreign_key(ForeignKey::single("ref_paper_id", "Papers", "id")),
    )?;

    let rows: &[(&str, Vec<Vec<Value>>)] = &[
        (
            "Conferences",
            vec![
                vec![1.into(), "SIGMOD".into()],
                vec![2.into(), "KDD".into()],
            ],
        ),
        (
            "Institutions",
            vec![
                vec![1.into(), "Univ. of Michigan".into(), "USA".into()],
                vec![
                    2.into(),
                    "Seoul National Univ.".into(),
                    "South Korea".into(),
                ],
                vec![3.into(), "Univ. of Washington".into(), "USA".into()],
            ],
        ),
        (
            "Authors",
            vec![
                vec![100.into(), "H. V. Jagadish".into(), 1.into()],
                vec![101.into(), "Arnab Nandi".into(), 1.into()],
                vec![102.into(), "Minsuk Kim".into(), 2.into()],
                vec![103.into(), "YongChul Kwon".into(), 3.into()],
            ],
        ),
        (
            "Papers",
            vec![
                vec![
                    10.into(),
                    1.into(),
                    "Making database systems usable".into(),
                    2007.into(),
                ],
                vec![11.into(), 1.into(), "SkewTune".into(), 2012.into()],
                vec![
                    12.into(),
                    2.into(),
                    "Guided interaction".into(),
                    2011.into(),
                ],
                vec![13.into(), 2.into(), "Deep stuff".into(), 2014.into()],
            ],
        ),
        (
            "Paper_Authors",
            vec![
                vec![10.into(), 100.into(), 1.into()],
                vec![10.into(), 101.into(), 2.into()],
                vec![11.into(), 103.into(), 1.into()],
                vec![12.into(), 101.into(), 1.into()],
                vec![12.into(), 102.into(), 2.into()],
                vec![13.into(), 102.into(), 1.into()],
            ],
        ),
        (
            "Paper_Keywords",
            vec![
                vec![10.into(), "usability".into()],
                vec![10.into(), "user interface".into()],
                vec![11.into(), "skew".into()],
                vec![12.into(), "user interface".into()],
                vec![13.into(), "deep learning".into()],
            ],
        ),
        (
            "Paper_References",
            vec![
                vec![11.into(), 10.into()],
                vec![12.into(), 10.into()],
                vec![13.into(), 11.into()],
                vec![13.into(), 12.into()],
            ],
        ),
    ];
    for (table, trows) in rows {
        for row in trows {
            db.insert(table, row.clone())?;
        }
    }
    db.check_integrity()?;
    Ok(db)
}
