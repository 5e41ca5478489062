//! The relational schema of the academic data set (paper Figure 3):
//! 7 relations, 7 foreign keys.

use etable_relational::database::Database;
use etable_relational::schema::{Column, ForeignKey, TableSchema};
use etable_relational::value::DataType;
use etable_relational::Result;

/// Creates an empty database with the Figure 3 schema.
///
/// Relations: `Conferences(id, acronym, title)`,
/// `Institutions(id, name, country)`, `Authors(id, name, institution_id)`,
/// `Papers(id, conference_id, title, year, page_start, page_end)`,
/// `Paper_Authors(paper_id, author_id, ord)`,
/// `Paper_Keywords(paper_id, keyword)`,
/// `Paper_References(paper_id, ref_paper_id)`.
pub fn academic_schema() -> Database {
    build().expect("the Figure 3 schema is consistent")
}

fn build() -> Result<Database> {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "Conferences",
            vec![
                Column::new("id", DataType::Int),
                Column::new("acronym", DataType::Text),
                Column::new("title", DataType::Text),
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
                Column::new("page_start", DataType::Int),
                Column::new("page_end", DataType::Int),
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
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etable_tgm::{classify, RelationCategory};

    #[test]
    fn seven_relations_seven_fks() {
        let db = academic_schema();
        assert_eq!(db.table_names().len(), 7);
        let fk_count: usize = db.tables().map(|t| t.schema().foreign_keys.len()).sum();
        assert_eq!(fk_count, 7);
    }

    #[test]
    fn classification_matches_paper_table1() {
        let db = academic_schema();
        let cats = classify(&db).unwrap();
        assert_eq!(cats["Conferences"], RelationCategory::Entity);
        assert_eq!(cats["Institutions"], RelationCategory::Entity);
        assert_eq!(cats["Authors"], RelationCategory::Entity);
        assert_eq!(cats["Papers"], RelationCategory::Entity);
        assert!(matches!(
            cats["Paper_Authors"],
            RelationCategory::Relationship { .. }
        ));
        assert!(matches!(
            cats["Paper_Keywords"],
            RelationCategory::MultiValuedAttr { .. }
        ));
        assert!(matches!(
            cats["Paper_References"],
            RelationCategory::Relationship { .. }
        ));
    }
}
