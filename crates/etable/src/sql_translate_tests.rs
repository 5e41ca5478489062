//! §8 both ways, against the engine: each direction's result equals the
//! pattern's own execution, and the round trips pattern → query → pattern
//! and SQL → pattern → query preserve it. These need [`crate::to_sql`] and
//! [`crate::from_sql`] together, so they belong to neither file; the module
//! keeps the path (`sql_translate::tests`) the suite has always reported
//! them under.

#[cfg(test)]
mod tests {
    use crate::from_sql::{from_query, from_sql};
    use crate::matching::match_primary;
    use crate::ops;
    use crate::pattern::{FilterAtom, NodeFilter, PatternNodeId, QueryPattern};
    use crate::testutil::academic_tgdb;
    use crate::to_sql::{to_primary_sql, to_query, to_sql};
    use etable_relational::database::Database;
    use etable_relational::expr::CmpOp;
    use etable_relational::sql::ast::{Query, SqlExpr};
    use etable_relational::sql::executor::execute_query;
    use etable_tgm::Tgdb;
    use std::collections::BTreeSet;

    /// Executes a pattern and returns the primary nodes' keys (pk for
    /// entities, value for value nodes) as strings.
    fn pattern_keys(tgdb: &Tgdb, pattern: &QueryPattern) -> BTreeSet<String> {
        let m = match_primary(tgdb, pattern).unwrap();
        m.rows().map(|n| tgdb.key_of(n).to_string()).collect()
    }

    /// Executes a translated query on the relational DB and returns
    /// column 0 as strings.
    fn query_keys(db: &Database, q: &Query) -> BTreeSet<String> {
        let r = execute_query(db, q).unwrap();
        r.rows.iter().map(|row| row[0].to_string()).collect()
    }

    fn korea_pattern(tgdb: &Tgdb) -> QueryPattern {
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = ops::initiate(tgdb, confs).unwrap();
        let q = ops::select(tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "KDD")).unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
        let q = ops::add(tgdb, &q, pe).unwrap();
        let papers_ty = q.primary_node().node_type;
        let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
        let q = ops::add(tgdb, &q, ae).unwrap();
        let authors_ty = q.primary_node().node_type;
        let (ie, _) = tgdb
            .schema
            .outgoing_by_name(authors_ty, "Institutions")
            .unwrap();
        let q = ops::add(tgdb, &q, ie).unwrap();
        let q = ops::select(tgdb, &q, NodeFilter::like("country", "%Korea%")).unwrap();
        ops::shift(&q, PatternNodeId(2)).unwrap()
    }

    #[test]
    fn to_sql_shows_paper_pattern() {
        let tgdb = academic_tgdb();
        let q = korea_pattern(&tgdb);
        let sql = to_sql(&tgdb, &q).unwrap();
        assert!(sql.starts_with("SELECT t2.*"), "{sql}");
        assert!(sql.contains("ent_list("), "{sql}");
        assert!(sql.contains("GROUP BY t2.id"), "{sql}");
        assert!(sql.contains("Paper_Authors"), "{sql}");
    }

    #[test]
    fn primary_sql_matches_pattern_execution() {
        let tgdb = academic_tgdb();
        let db = tgdb.database();
        let q = korea_pattern(&tgdb);
        let sql = to_query(&tgdb, &q).unwrap();
        assert_eq!(pattern_keys(&tgdb, &q), query_keys(db, &sql), "{sql}");
    }

    #[test]
    fn primary_sql_with_mva_primary() {
        // Keywords of papers published after 2011.
        let tgdb = academic_tgdb();
        let db = tgdb.database();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2011)).unwrap();
        let (ke, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Paper_Keywords: keyword")
            .unwrap();
        let q = ops::add(&tgdb, &q, ke).unwrap();
        let sql = to_query(&tgdb, &q).unwrap();
        assert_eq!(pattern_keys(&tgdb, &q), query_keys(db, &sql), "{sql}");
    }

    #[test]
    fn from_sql_builds_equivalent_pattern() {
        let tgdb = academic_tgdb();
        let sql = "SELECT p.id FROM Papers p, Paper_Authors pa, Authors a, Conferences c \
                   WHERE p.id = pa.paper_id AND pa.author_id = a.id \
                   AND p.conference_id = c.id AND c.acronym = 'SIGMOD' \
                   GROUP BY p.id";
        let pattern = from_sql(&tgdb, sql).unwrap();
        assert_eq!(pattern.len(), 3); // Papers, Authors, Conferences
        assert_eq!(
            tgdb.schema.node_type(pattern.primary_node().node_type).name,
            "Papers"
        );
        // SIGMOD papers with authors: 10 and 11.
        let keys = pattern_keys(&tgdb, &pattern);
        assert_eq!(keys, ["10", "11"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn from_sql_handles_mva_tables() {
        let tgdb = academic_tgdb();
        let sql = "SELECT p.id FROM Papers p, Paper_Keywords pk \
                   WHERE pk.paper_id = p.id AND pk.keyword LIKE '%user%' \
                   GROUP BY p.id";
        let pattern = from_sql(&tgdb, sql).unwrap();
        let keys = pattern_keys(&tgdb, &pattern);
        assert_eq!(keys, ["10", "12"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn round_trip_preserves_result() {
        // pattern -> SQL -> pattern yields the same primary set.
        let tgdb = academic_tgdb();
        let q = korea_pattern(&tgdb);
        let query = to_query(&tgdb, &q).unwrap();
        // Re-shape the DISTINCT query into the §8 GROUP BY form so
        // from_query can pick the primary.
        let grouped = Query {
            distinct: false,
            group_by: vec![SqlExpr::Column("t2.id".into())],
            ..query
        };
        let back = from_query(&tgdb, &grouped).unwrap();
        assert_eq!(pattern_keys(&tgdb, &q), pattern_keys(&tgdb, &back));
    }

    #[test]
    fn neighbor_label_filter_translates_to_semijoin() {
        // Papers whose Authors neighbor labels match '%Nandi%'.
        let tgdb = academic_tgdb();
        let db = tgdb.database();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::select(
            &tgdb,
            &q,
            NodeFilter::atom(FilterAtom::NeighborLabelLike {
                edge: ae,
                pattern: "%Nandi%".into(),
            }),
        )
        .unwrap();
        let sql = to_query(&tgdb, &q).unwrap();
        assert_eq!(pattern_keys(&tgdb, &q), query_keys(db, &sql), "{sql}");
    }

    #[test]
    fn a_null_neighbor_label_matches_no_like_pattern() {
        // `b` rows whose `a` neighbor's label (its name) is LIKE a pattern:
        // the neighbor of b 20 has a NULL name, which no pattern matches —
        // not even one that matches the text "NULL".
        use etable_relational::sql::{execute, naive::execute_query_naive};
        let mut db = Database::new();
        for stmt in [
            "CREATE TABLE a (id INT PRIMARY KEY, name TEXT)",
            "CREATE TABLE b (id INT PRIMARY KEY, a_id INT REFERENCES a(id))",
            "INSERT INTO a VALUES (1, 'alice'), (2, NULL)",
            "INSERT INTO b VALUES (10, 1), (20, 2)",
        ] {
            execute(&mut db, stmt).unwrap();
        }
        let tgdb = etable_tgm::translate(&db, &Default::default()).unwrap();
        let (b, _) = tgdb.schema.node_type_by_name("b").unwrap();
        let (to_a, _) = tgdb.schema.outgoing_by_name(b, "a").unwrap();
        let keys = |rows: &[&str]| rows.iter().map(|k| k.to_string()).collect::<BTreeSet<_>>();
        for (like, want) in [
            ("%null%", keys(&[])),
            ("%", keys(&["10"])),
            ("%LI%", keys(&["10"])),
        ] {
            let q = ops::initiate(&tgdb, b).unwrap();
            let label_like = FilterAtom::NeighborLabelLike {
                edge: to_a,
                pattern: like.into(),
            };
            let q = ops::select(&tgdb, &q, NodeFilter::atom(label_like)).unwrap();
            let sql = to_query(&tgdb, &q).unwrap();
            assert_eq!(pattern_keys(&tgdb, &q), want, "{like}");
            assert_eq!(query_keys(&db, &sql), want, "{sql}");
            let oracle = execute_query_naive(&db, &sql).unwrap();
            let oracle: BTreeSet<String> = oracle.rows.iter().map(|r| r[0].to_string()).collect();
            assert_eq!(oracle, want, "{sql}");
        }
    }

    #[test]
    fn self_join_via_citations_round_trips() {
        // "Papers citing a paper from before 2010": the Papers type occurs
        // twice, joined through the self-relationship table.
        let tgdb = academic_tgdb();
        let db = tgdb.database();
        let sql = "SELECT p1.id FROM Papers p1, Paper_References r, Papers p2 \
                   WHERE r.paper_id = p1.id AND r.ref_paper_id = p2.id \
                   AND p2.year < 2010 GROUP BY p1.id";
        let pattern = from_sql(&tgdb, sql).unwrap();
        assert_eq!(pattern.len(), 2);
        assert_eq!(pattern.nodes[0].node_type, pattern.nodes[1].node_type);
        // Papers citing the 2007 paper: 11 and 12.
        let keys = pattern_keys(&tgdb, &pattern);
        assert_eq!(keys, ["11", "12"].iter().map(|s| s.to_string()).collect());
        // And back to SQL.
        let back = to_query(&tgdb, &pattern).unwrap();
        assert_eq!(keys, query_keys(db, &back), "{back}");
    }

    #[test]
    fn from_sql_rejects_out_of_scope_queries() {
        let tgdb = academic_tgdb();
        // Global aggregate: no primary entity.
        assert!(from_sql(&tgdb, "SELECT COUNT(*) FROM Papers").is_err());
        // Non-FK join condition.
        assert!(from_sql(
            &tgdb,
            "SELECT p.id FROM Papers p, Authors a WHERE p.year = a.id"
        )
        .is_err());
        // Disconnected join graph.
        assert!(from_sql(&tgdb, "SELECT p.id FROM Papers p, Authors a").is_err());
    }

    #[test]
    fn node_is_filter_translates_to_pk_equality() {
        let tgdb = academic_tgdb();
        let db = tgdb.database();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::node_is(11)).unwrap();
        let sql = to_primary_sql(&tgdb, &q).unwrap();
        assert!(sql.contains("t0.id = 11"), "{sql}");
        let query = to_query(&tgdb, &q).unwrap();
        assert_eq!(pattern_keys(&tgdb, &q), query_keys(db, &query));
        // A value node is keyed by its value; a key no node holds matches
        // nothing on either side.
        let (keywords, _) = tgdb
            .schema
            .node_type_by_name("Paper_Keywords: keyword")
            .unwrap();
        for (key, want) in [("user interface", 1), ("no such keyword", 0)] {
            let q = ops::initiate(&tgdb, keywords).unwrap();
            let q = ops::select(&tgdb, &q, NodeFilter::node_is(key)).unwrap();
            let query = to_query(&tgdb, &q).unwrap();
            assert_eq!(pattern_keys(&tgdb, &q).len(), want, "{key}");
            assert_eq!(pattern_keys(&tgdb, &q), query_keys(db, &query), "{query}");
        }
    }
}
