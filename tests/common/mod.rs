//! The §8 contract shared by `prop_equivalence` and `session_fuzz`: a
//! pattern's SQL translation, executed as the AST it is, returns the
//! pattern's primary keys.

use etable_repro::core::pattern::QueryPattern;
use etable_repro::core::testutil::academic_tgdb;
use etable_repro::core::to_sql::to_query;
use etable_repro::relational::relation::Relation;
use etable_repro::relational::sql::executor::execute_query;
use etable_repro::relational::sql::naive::execute_query_naive;
use etable_repro::relational::sql::{parse_statement, Statement};
use etable_repro::tgm::{NodeId, Tgdb};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// The hand-sized academic fixture: small enough for the naive oracle's
/// cross product.
pub fn academic() -> &'static Arc<Tgdb> {
    static ENV: OnceLock<Arc<Tgdb>> = OnceLock::new();
    ENV.get_or_init(|| Arc::new(academic_tgdb()))
}

/// Case-count override: `PROPTEST_CASES`, else `default`.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// The keys of matched primary nodes as a translated query returns them:
/// the primary key of an entity, the value of a value node.
pub fn node_keys(tgdb: &Tgdb, nodes: impl IntoIterator<Item = NodeId>) -> BTreeSet<String> {
    (nodes.into_iter())
        .map(|n| tgdb.key_of(n).to_string())
        .collect()
}

fn result_keys(rel: &Relation) -> BTreeSet<String> {
    rel.rows.iter().map(|r| r[0].to_string()).collect()
}

/// Checks one pattern against `expected`, the keys of its matched primary
/// nodes: the translation prints to text that parses back to the same
/// AST, and the AST — executed as is, never re-lexed, on the graph's own
/// database — returns `expected` on the engine and, when `oracle` is set
/// and the cross product of the FROM list (which the naive evaluator
/// materializes) stays under `ORACLE_MAX_ROWS`, on the oracle. Returns
/// whether the oracle refereed.
pub fn check_translation(
    tgdb: &Tgdb,
    q: &QueryPattern,
    expected: &BTreeSet<String>,
    oracle: bool,
) -> Result<bool, String> {
    const ORACLE_MAX_ROWS: usize = 250_000;
    let db = tgdb.database();
    let query = to_query(tgdb, q).map_err(|e| e.to_string())?;
    let text = query.to_string();
    if parse_statement(&text) != Ok(Statement::Select(query.clone())) {
        return Err(format!(
            "printed query does not parse back to itself: {text}"
        ));
    }
    let got = result_keys(&execute_query(db, &query).map_err(|e| format!("{e}: {text}"))?);
    if *expected != got {
        return Err(format!("engine: {expected:?} != {got:?}: {text}"));
    }
    let cross = query
        .from
        .iter()
        .map(|t| db.table(&t.table).map_or(usize::MAX, |t| t.len()))
        .try_fold(1usize, |acc, n| acc.checked_mul(n));
    let referee = oracle && cross.is_some_and(|rows| rows <= ORACLE_MAX_ROWS);
    if referee {
        let got = result_keys(&execute_query_naive(db, &query).map_err(|e| e.to_string())?);
        if *expected != got {
            return Err(format!("oracle: {expected:?} != {got:?}: {text}"));
        }
    }
    Ok(referee)
}
