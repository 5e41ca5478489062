//! The CLI interpreter: applies parsed [`Command`]s to an ETable
//! [`Connection`] and produces the text to print. Fully testable without
//! a terminal.
//!
//! The engine owns its [`Connection`] — the same handle `etable-server`
//! gives every accepted socket — so the interpreter is identical whether
//! it is the only client (the embedded CLI) or one of many.

use crate::command::{parse_value, Command, ExportFormat, FilterOp, ParseError};
use etable_core::connection::Connection;
use etable_core::etable::Cell;
use etable_core::export;
use etable_core::pattern::{FilterAtom, NodeFilter};
use etable_core::render::{render_etable, RenderOptions};
use etable_core::to_sql;
use etable_core::transform;
use etable_relational::sql::explain::explain_query;

/// The interpreter state.
pub struct Engine {
    conn: Connection,
    /// Set once `quit` has been executed.
    pub done: bool,
}

/// Outcome of one command.
pub type CmdResult = Result<String, String>;

impl Engine {
    /// Creates an engine over a connection to a (possibly shared)
    /// deployment.
    pub fn new(conn: Connection) -> Self {
        Engine { conn, done: false }
    }

    /// The underlying connection (e.g. for opening sibling connections).
    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    /// Parses and executes one input line.
    pub fn eval_line(&mut self, line: &str) -> CmdResult {
        match crate::command::parse(line) {
            Ok(None) => Ok(String::new()),
            Ok(Some(cmd)) => self.eval(cmd),
            Err(ParseError(m)) => Err(m),
        }
    }

    /// Executes one parsed command.
    pub fn eval(&mut self, cmd: Command) -> CmdResult {
        match cmd {
            Command::Quit => {
                self.done = true;
                Ok("bye".into())
            }
            Command::Help => Ok(HELP.trim().to_string()),
            Command::Tables => {
                let names: Vec<String> = self
                    .conn
                    .session()
                    .default_table_list()
                    .into_iter()
                    .map(|(_, n)| n)
                    .collect();
                Ok(names.join("\n"))
            }
            Command::Open(name) => {
                self.conn
                    .session_mut()
                    .open_by_name(&name)
                    .map_err(|e| e.to_string())?;
                self.render_current(None)
            }
            Command::Filter { attr, op, value } => {
                let filter = match op {
                    FilterOp::Cmp(op) => NodeFilter::cmp(attr, op, parse_value(&value)),
                    FilterOp::Like => NodeFilter::like(attr, value),
                };
                self.conn
                    .session_mut()
                    .filter(filter)
                    .map_err(|e| e.to_string())?;
                self.render_current(None)
            }
            Command::FilterRef { column, pattern } => {
                // Resolve the column to an edge type of the primary. The
                // pattern borrow must end before the mutable filter call.
                let edge = {
                    let q = self
                        .conn
                        .session()
                        .current_pattern()
                        .ok_or("no table is open")?;
                    let primary_ty = q.primary_node().node_type;
                    let (edge, _) = self
                        .conn
                        .session()
                        .tgdb()
                        .schema
                        .outgoing_by_name(primary_ty, &column)
                        .ok_or_else(|| format!("no neighbor column `{column}`"))?;
                    edge
                };
                self.conn
                    .session_mut()
                    .filter(NodeFilter::atom(FilterAtom::NeighborLabelLike {
                        edge,
                        pattern,
                    }))
                    .map_err(|e| e.to_string())?;
                self.render_current(None)
            }
            Command::Pivot(column) => {
                self.conn
                    .session_mut()
                    .pivot(&column)
                    .map_err(|e| e.to_string())?;
                self.render_current(None)
            }
            Command::Single { row, column, index } => {
                let node = self.resolve_ref(row, &column, index)?;
                self.conn
                    .session_mut()
                    .single(node)
                    .map_err(|e| e.to_string())?;
                self.render_current(None)
            }
            Command::Seeall { row, column } => {
                let t = self.conn.etable().map_err(|e| e.to_string())?;
                let node = t
                    .node_at(row.checked_sub(1).ok_or("rows are numbered from 1")?)
                    .ok_or_else(|| format!("no row {row}"))?;
                self.conn
                    .session_mut()
                    .seeall(node, &column)
                    .map_err(|e| e.to_string())?;
                self.render_current(None)
            }
            Command::Sort { column, descending } => {
                self.check_column(&column)?;
                self.conn.session_mut().sort(&column, descending);
                self.render_current(None)
            }
            Command::Hide(c) => {
                self.check_column(&c)?;
                self.conn.session_mut().hide(&c);
                self.render_current(None)
            }
            Command::Show(c) => {
                self.check_column(&c)?;
                self.conn.session_mut().show(&c);
                self.render_current(None)
            }
            Command::Focus(k) => {
                let kept = self
                    .conn
                    .session_mut()
                    .focus_top_columns(k)
                    .map_err(|e| e.to_string())?;
                Ok(format!("keeping columns: {}", kept.join(", ")))
            }
            Command::Revert(step) => {
                // Steps are numbered from 1 at the prompt, from 0 in the
                // session; the message names the number that was typed.
                let session = self.conn.session_mut();
                if step == 0 || step > session.history().len() {
                    return Err(format!("history step {step} does not exist"));
                }
                session.revert(step - 1).map_err(|e| e.to_string())?;
                self.render_current(None)
            }
            Command::ShowTable(limit) => self.render_current(limit),
            Command::Schema => {
                let session = self.conn.session();
                let q = session.current_pattern().ok_or("no table is open")?;
                Ok(q.diagram(session.tgdb()))
            }
            Command::History => {
                let lines: Vec<String> = self
                    .conn
                    .session()
                    .history()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("{}. {}", i + 1, s.description))
                    .collect();
                Ok(lines.join("\n"))
            }
            Command::Sql => {
                let session = self.conn.session();
                let q = session.current_pattern().ok_or("no table is open")?;
                let display = to_sql::to_sql(session.tgdb(), q).map_err(|e| e.to_string())?;
                let exec = to_sql::to_primary_sql(session.tgdb(), q).map_err(|e| e.to_string())?;
                Ok(format!("{display}\n-- primary keys:\n{exec}"))
            }
            Command::Explain => {
                // One epoch answers: the plan runs on the database of the
                // graph the pattern was translated with.
                let session = self.conn.session();
                let q = session.current_pattern().ok_or("no table is open")?;
                let query = to_sql::to_query(session.tgdb(), q).map_err(|e| e.to_string())?;
                let lines =
                    explain_query(session.tgdb().database(), &query).map_err(|e| e.to_string())?;
                Ok(format!("{query}\n--\n{}", lines.join("\n")))
            }
            Command::Export(format) => {
                let t = self.conn.etable().map_err(|e| e.to_string())?;
                Ok(match format {
                    ExportFormat::Json => export::to_json(&t),
                    ExportFormat::Csv => export::to_csv(&t),
                })
            }
        }
    }

    /// Fails unless `column` names a column of the open table, hidden or
    /// not. Reads the table's header only; no rows are built.
    fn check_column(&self, column: &str) -> Result<(), String> {
        let session = self.conn.session();
        let q = session.current_pattern().ok_or("no table is open")?;
        let header = transform::header(session.tgdb(), q).map_err(|e| e.to_string())?;
        match header.column(column) {
            Some(_) => Ok(()),
            None => Err(etable_core::Error::UnknownColumn(column.into()).to_string()),
        }
    }

    fn render_current(&mut self, limit: Option<usize>) -> CmdResult {
        let t = self.conn.etable().map_err(|e| e.to_string())?;
        let opts = RenderOptions {
            max_rows: limit.unwrap_or(12),
            ..Default::default()
        };
        Ok(render_etable(&t, &opts))
    }

    fn resolve_ref(
        &mut self,
        row: usize,
        column: &str,
        index: usize,
    ) -> Result<etable_tgm::NodeId, String> {
        let t = self.conn.etable().map_err(|e| e.to_string())?;
        let r = row.checked_sub(1).ok_or("rows are numbered from 1")?;
        if r >= t.len() {
            return Err(format!("no row {row}"));
        }
        let ci = t
            .column_index(column)
            .ok_or_else(|| format!("no column `{column}`"))?;
        let cell = t.cell(r, ci);
        let refs = (cell.as_ref())
            .and_then(Cell::refs)
            .ok_or_else(|| format!("column `{column}` holds plain values, not references"))?;
        let at = index
            .checked_sub(1)
            .ok_or("references are numbered from 1")?;
        let found = (refs.clone().nth(at))
            .ok_or_else(|| format!("cell has only {} reference(s)", refs.len()));
        found
    }
}

/// Help text, kept next to the parser's grammar.
pub const HELP: &str = r#"
commands:
  tables                        list entity types
  open <table>                  open a table
  filter <attr> <op> <value>    filter rows (=, <>, <, <=, >, >=, like)
  filter-ref <column> <pattern> filter by neighbor labels
  pivot <column>                pivot on a column (join / change focus)
  single <row#> <column> <k>    follow the k-th reference in a cell
  seeall <row#> <column>        list all entities behind a cell's count
  sort <column> [asc|desc]      sort rows (ref columns sort by count)
  hide <column> / show <column> toggle columns
  focus <k>                     keep only the k best columns
  revert <step#>                go back to a history step
  show-table [n]                render the current table
  schema | history | sql        inspect the session
  explain                       show the engine's plan for the pattern's SQL
  export json|csv               dump the current table
  quit                          exit
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use etable_datagen::{generate, GenConfig};
    use etable_relational::shared::SharedDatabase;
    use etable_tgm::{translate, Tgdb, TranslateOptions};
    use std::sync::{Arc, OnceLock};

    fn env() -> &'static (SharedDatabase, Arc<Tgdb>) {
        static ENV: OnceLock<(SharedDatabase, Arc<Tgdb>)> = OnceLock::new();
        ENV.get_or_init(|| {
            let db = generate(&GenConfig::small());
            let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
            let tgdb = Arc::new(tgdb);
            (SharedDatabase::new(Arc::clone(tgdb.database())), tgdb)
        })
    }

    fn engine() -> Engine {
        let (db, tgdb) = env();
        Engine::new(Connection::connect(db, tgdb))
    }

    fn run(lines: &[&str]) -> Vec<CmdResult> {
        let mut engine = engine();
        lines.iter().map(|l| engine.eval_line(l)).collect()
    }

    #[test]
    fn full_browsing_session() {
        let out = run(&[
            "tables",
            "open Conferences",
            "filter acronym = SIGMOD",
            "pivot Papers",
            "filter year > 2005",
            "pivot Authors",
            "sort Papers desc",
            "history",
            "schema",
            "sql",
        ]);
        for (i, r) in out.iter().enumerate() {
            assert!(r.is_ok(), "command {i}: {r:?}");
        }
        assert!(out[0].as_ref().unwrap().contains("Papers"));
        assert!(out[7].as_ref().unwrap().contains("5. Pivot to 'Authors'"));
        assert!(out[8].as_ref().unwrap().contains("Authors *"));
        assert!(out[9].as_ref().unwrap().contains("GROUP BY"));
    }

    #[test]
    fn seeall_and_single_follow_references() {
        let out = run(&[
            "open Papers",
            "filter title = 'Making database systems usable'",
            "seeall 1 Authors",
        ]);
        let last = out.last().unwrap().as_ref().unwrap();
        assert!(last.contains("== Authors"), "{last}");
        // 7 planted authors on the usable paper.
        assert!(last.contains("| "), "{last}");

        let out = run(&[
            "open Papers",
            "filter title = 'Making database systems usable'",
            "single 1 Authors 1",
        ]);
        let last = out.last().unwrap().as_ref().unwrap();
        assert!(last.contains("== Authors"), "{last}");
    }

    #[test]
    fn filter_ref_is_the_keyword_subquery() {
        let out = run(&["open Papers", "filter-ref 'Paper_Keywords: keyword' %user%"]);
        assert!(out[1].is_ok(), "{:?}", out[1]);
        let text = out[1].as_ref().unwrap();
        assert!(text.contains("filtered by"), "{text}");
    }

    #[test]
    fn explain_shows_plan() {
        let out = run(&[
            "open Conferences",
            "filter acronym = SIGMOD",
            "pivot Papers",
            "explain",
        ]);
        let text = out.last().unwrap().as_ref().unwrap();
        assert!(text.contains("SELECT DISTINCT"), "{text}");
        assert!(text.contains("pushdown"), "{text}");
        assert!(text.contains("output:"), "{text}");
    }

    #[test]
    fn export_formats() {
        let out = run(&["open Conferences", "export json", "export csv"]);
        assert!(out[1]
            .as_ref()
            .unwrap()
            .starts_with("{\"primary\":\"Conferences\""));
        assert!(out[2].as_ref().unwrap().starts_with("id,acronym,title"));
    }

    #[test]
    fn errors_are_messages_not_panics() {
        let out = run(&[
            "pivot Authors", // nothing open
            "open Nope",     // unknown table
            "open Papers",
            "filter nope = 3",     // unknown attribute
            "pivot year",          // base column
            "seeall 9999 Authors", // bad row
            "single 1 title 1",    // atomic column
            "sort nosuch desc",    // presentation commands naming no column
            "hide nosuch",
            "show nosuch",
            "focus 0", // a table with no columns
            "gibberish",
            // Ill-typed filters (TEXT literal vs INT attribute, LIKE over
            // INT) — refused in the SQL analyzer's own words — then a
            // history step that does not exist.
            "filter year > abc",
            "filter year like 201%",
            "revert 99",
        ]);
        for (i, r) in out.iter().enumerate() {
            if i == 2 {
                assert!(r.is_ok());
            } else {
                assert!(r.is_err(), "command {i} should fail: {r:?}");
            }
        }
        let msg = |i: usize| out[i].as_ref().unwrap_err().to_string();
        assert!(msg(12).contains("`Papers.year` (INT)"), "{}", msg(12));
        assert!(msg(12).contains("(TEXT)"), "{}", msg(12));
        assert!(msg(13).contains("LIKE requires a TEXT"), "{}", msg(13));
        assert!(msg(13).contains("`Papers.year` (INT)"), "{}", msg(13));
        assert!(msg(14).contains("step 99"), "{}", msg(14));
    }

    #[test]
    fn focus_and_revert() {
        let out = run(&["open Papers", "focus 3", "show-table 2", "revert 1"]);
        assert!(out[1].as_ref().unwrap().starts_with("keeping columns:"));
        assert!(out[3].is_ok());
    }

    #[test]
    fn quit_sets_done() {
        let mut engine = engine();
        engine.eval_line("quit").unwrap();
        assert!(engine.done);
    }
}
