//! # etable-bench
//!
//! Harness binaries regenerating every table and figure of the ETable
//! paper (`src/bin/fig*.rs`, `src/bin/table*.rs`) and Criterion
//! micro-benchmarks for the performance/ablation studies listed in
//! DESIGN.md (`benches/`).
//!
//! Run a figure with e.g. `cargo run -p etable-bench --bin fig10`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use etable_datagen::{load_or_generate, GenConfig};
use etable_relational::database::Database;
use etable_tgm::{translate, Tgdb, TranslateOptions};
use std::sync::Arc;

/// Builds the default evaluation dataset (medium scale) and its TGDB.
pub fn default_dataset() -> (Database, Arc<Tgdb>) {
    dataset(&GenConfig::medium())
}

/// Parses benchmark SQL into a SELECT query, panicking on anything else —
/// the shared helper behind the `sql` and `join` bench families.
pub fn parse_select(sql: &str) -> etable_relational::sql::Query {
    match etable_relational::sql::parse_statement(sql).expect("benchmark SQL parses") {
        etable_relational::sql::Statement::Select(q) => q,
        other => panic!("benchmark SQL must be a SELECT, got {other:?}"),
    }
}

/// Builds a dataset at an arbitrary scale and its TGDB. The database
/// loads through the datagen snapshot cache (first run generates and
/// saves; later runs open the binary snapshot).
pub fn dataset(cfg: &GenConfig) -> (Database, Arc<Tgdb>) {
    let db = load_or_generate(cfg);
    let tgdb = translate(&db, &TranslateOptions::default()).expect("translation succeeds");
    (db, Arc::new(tgdb))
}

/// Reads `ETABLE_SCALE` (number of papers) from the environment, defaulting
/// to the medium configuration — lets figure binaries run at paper scale
/// with `ETABLE_SCALE=38000`.
///
/// Invalid or too-small scales abort with a friendly message instead of
/// tripping the generator's internal assertion (the validation contract
/// lives in [`GenConfig::with_scale_from_env`]).
pub fn scale_from_env() -> GenConfig {
    match GenConfig::medium().with_scale_from_env() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_dataset_translates() {
        let (db, tgdb) = default_dataset();
        assert_eq!(db.table("Papers").unwrap().len(), 3000);
        assert!(tgdb.schema.node_type_count() >= 4);
    }
}
