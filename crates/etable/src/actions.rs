//! User-level actions (§6.1): what a user does in the interface, and how
//! each action expands into the primitive operators of §5.3.
//!
//! | action   | operators (paper)                                     |
//! |----------|-------------------------------------------------------|
//! | Open     | `Initiate(τk)`                                        |
//! | Filter   | `Select(C, R)`                                        |
//! | Pivot    | `Add(ρl, R)` (neighbor col) / `Shift(τk, R)` (part.)  |
//! | Single   | `Select(C, Initiate(type(vk)))`, `C = {u | u = vk}`   |
//! | Seeall   | `Add(ρl, Select(C, R))` / `Shift(tl, Select(C, R))`   |
//!
//! Presentation-only actions (Sort, Hide/Show, Revert) do not change the
//! query pattern and are handled by [`crate::session::Session`].

use crate::etable::{ColumnKind, EnrichedTable};
use crate::ops;
use crate::pattern::{NodeFilter, QueryPattern};
use crate::{Error, Result};
use etable_tgm::{NodeId, NodeTypeId, Tgdb};

/// A pattern-changing user action.
#[derive(Debug, Clone, PartialEq)]
pub enum UserAction {
    /// Click a node type in the default table list.
    Open {
        /// The chosen node type.
        node_type: NodeTypeId,
    },
    /// Specify a filter condition on the current primary node type via the
    /// column-header popup.
    Filter {
        /// The condition (conjunction of predicates).
        filter: NodeFilter,
    },
    /// Click the pivot button on a column's context menu.
    Pivot {
        /// Display name of the column in the current ETable.
        column: String,
    },
    /// Click one entity reference.
    Single {
        /// The clicked node.
        node: NodeId,
    },
    /// Click the reference count in a cell: list all entities related to
    /// that row through that column.
    Seeall {
        /// The row's primary node.
        row: NodeId,
        /// Display name of the column.
        column: String,
    },
}

/// The outcome of applying an action: the new pattern plus a history label.
#[derive(Debug, Clone)]
pub struct ActionOutcome {
    /// The resulting query pattern.
    pub pattern: QueryPattern,
    /// Human-readable description for the history view (Figure 9).
    pub description: String,
}

/// Applies a user action.
///
/// `current`/`etable` are the pattern and result the user is looking at;
/// they are `None` only before the first `Open`/`Single`.
pub fn apply(
    tgdb: &Tgdb,
    current: Option<&QueryPattern>,
    etable: Option<&EnrichedTable>,
    action: &UserAction,
) -> Result<ActionOutcome> {
    match action {
        UserAction::Open { node_type } => {
            let pattern = ops::initiate(tgdb, *node_type)?;
            let name = &tgdb.schema.node_type(*node_type).name;
            Ok(ActionOutcome {
                pattern,
                description: format!("Open '{name}' table"),
            })
        }
        UserAction::Filter { filter } => {
            let q = require_pattern(current)?;
            let pattern = ops::select(tgdb, q, filter.clone())?;
            let primary = q.primary_node().node_type;
            let name = &tgdb.schema.node_type(primary).name;
            let desc = filter.display_with(tgdb, primary);
            Ok(ActionOutcome {
                pattern,
                description: format!("Filter '{name}' table by ({desc})"),
            })
        }
        UserAction::Pivot { column } => {
            let q = require_pattern(current)?;
            let t = require_etable(etable)?;
            let spec = t
                .column(column)
                .ok_or_else(|| Error::UnknownColumn(column.clone()))?;
            match &spec.kind {
                ColumnKind::Neighbor { edge } => {
                    let pattern = ops::add(tgdb, q, *edge)?;
                    Ok(ActionOutcome {
                        pattern,
                        description: format!("Pivot to '{column}' (add)"),
                    })
                }
                ColumnKind::Participating { node } => {
                    let pattern = ops::shift(q, *node)?;
                    Ok(ActionOutcome {
                        pattern,
                        description: format!("Pivot to '{column}' (shift)"),
                    })
                }
                ColumnKind::Base { .. } => Err(Error::InvalidAction(format!(
                    "cannot pivot on base attribute column `{column}`"
                ))),
            }
        }
        UserAction::Single { node } => {
            let ty = tgdb.instances.type_of(*node);
            let q = ops::initiate(tgdb, ty)?;
            // The clicked id is this graph's; its key holds at every epoch.
            let pattern = ops::select(tgdb, &q, NodeFilter::node_is(tgdb.key_of(*node)))?;
            let label = tgdb.instances.label(*node);
            Ok(ActionOutcome {
                pattern,
                description: format!("See '{label}'"),
            })
        }
        UserAction::Seeall { row, column } => {
            let q = require_pattern(current)?;
            let t = require_etable(etable)?;
            let spec = t
                .column(column)
                .ok_or_else(|| Error::UnknownColumn(column.clone()))?;
            // Select the clicked row first (C = {u | u = vk}).
            let selected = ops::select(tgdb, q, NodeFilter::node_is(tgdb.key_of(*row)))?;
            let label = tgdb.instances.label(*row);
            match &spec.kind {
                ColumnKind::Neighbor { edge } => {
                    let pattern = ops::add(tgdb, &selected, *edge)?;
                    Ok(ActionOutcome {
                        pattern,
                        description: format!("See all '{column}' of '{label}'"),
                    })
                }
                ColumnKind::Participating { node } => {
                    let pattern = ops::shift(&selected, *node)?;
                    Ok(ActionOutcome {
                        pattern,
                        description: format!("See all '{column}' of '{label}'"),
                    })
                }
                ColumnKind::Base { .. } => Err(Error::InvalidAction(format!(
                    "cannot expand base attribute column `{column}`"
                ))),
            }
        }
    }
}

fn require_pattern(p: Option<&QueryPattern>) -> Result<&QueryPattern> {
    p.ok_or_else(|| Error::InvalidAction("no table is open yet".into()))
}

fn require_etable(t: Option<&EnrichedTable>) -> Result<&EnrichedTable> {
    t.ok_or_else(|| Error::InvalidAction("no result to interact with".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::academic_tgdb;
    use crate::transform;
    use etable_relational::expr::CmpOp;

    #[test]
    fn open_then_filter() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let o = apply(&tgdb, None, None, &UserAction::Open { node_type: papers }).unwrap();
        assert_eq!(o.description, "Open 'Papers' table");
        let t = transform::execute(&tgdb, &o.pattern).unwrap();
        let f = apply(
            &tgdb,
            Some(&o.pattern),
            Some(&t),
            &UserAction::Filter {
                filter: NodeFilter::cmp("year", CmpOp::Gt, 2010),
            },
        )
        .unwrap();
        let t2 = transform::execute(&tgdb, &f.pattern).unwrap();
        assert_eq!(t2.len(), 3);
        assert!(f.description.contains("year > 2010"));
    }

    #[test]
    fn figure2_three_routes_to_authors() {
        // The three interactions of Figure 2 starting from a Papers table.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let open = apply(&tgdb, None, None, &UserAction::Open { node_type: papers }).unwrap();
        let t = transform::execute(&tgdb, &open.pattern).unwrap();
        let usable = tgdb.node_by_key(papers, &10.into()).unwrap();

        // (a) click an author's name -> single-row Authors table.
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let nandi = tgdb.node_by_label(authors, "Arnab Nandi").unwrap();
        let a = apply(
            &tgdb,
            Some(&open.pattern),
            Some(&t),
            &UserAction::Single { node: nandi },
        )
        .unwrap();
        let ta = transform::execute(&tgdb, &a.pattern).unwrap();
        assert_eq!(ta.len(), 1);
        assert_eq!(ta.primary_type_name, "Authors");

        // (b) click the author count -> all authors of that paper.
        let b = apply(
            &tgdb,
            Some(&open.pattern),
            Some(&t),
            &UserAction::Seeall {
                row: usable,
                column: "Authors".into(),
            },
        )
        .unwrap();
        let tb = transform::execute(&tgdb, &b.pattern).unwrap();
        assert_eq!(tb.primary_type_name, "Authors");
        assert_eq!(tb.len(), 2); // Jagadish + Nandi

        // (c) click the pivot button -> all authors of all rows.
        let c = apply(
            &tgdb,
            Some(&open.pattern),
            Some(&t),
            &UserAction::Pivot {
                column: "Authors".into(),
            },
        )
        .unwrap();
        let tc = transform::execute(&tgdb, &c.pattern).unwrap();
        assert_eq!(tc.primary_type_name, "Authors");
        assert_eq!(tc.len(), 4); // every author wrote some paper
    }

    #[test]
    fn pivot_on_participating_column_shifts() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let open = apply(&tgdb, None, None, &UserAction::Open { node_type: papers }).unwrap();
        let t = transform::execute(&tgdb, &open.pattern).unwrap();
        let piv = apply(
            &tgdb,
            Some(&open.pattern),
            Some(&t),
            &UserAction::Pivot {
                column: "Authors".into(),
            },
        )
        .unwrap();
        let t2 = transform::execute(&tgdb, &piv.pattern).unwrap();
        // Now pivot back on the participating Papers column -> shift.
        let back = apply(
            &tgdb,
            Some(&piv.pattern),
            Some(&t2),
            &UserAction::Pivot {
                column: "Papers".into(),
            },
        )
        .unwrap();
        assert!(back.description.contains("shift"));
        assert_eq!(back.pattern.len(), piv.pattern.len()); // no new node
        let t3 = transform::execute(&tgdb, &back.pattern).unwrap();
        assert_eq!(t3.primary_type_name, "Papers");
    }

    #[test]
    fn pivot_on_base_column_rejected() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let open = apply(&tgdb, None, None, &UserAction::Open { node_type: papers }).unwrap();
        let t = transform::execute(&tgdb, &open.pattern).unwrap();
        let err = apply(
            &tgdb,
            Some(&open.pattern),
            Some(&t),
            &UserAction::Pivot {
                column: "year".into(),
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn actions_require_open_table() {
        let tgdb = academic_tgdb();
        assert!(apply(
            &tgdb,
            None,
            None,
            &UserAction::Filter {
                filter: NodeFilter::cmp("year", CmpOp::Gt, 2000)
            }
        )
        .is_err());
    }

    #[test]
    fn unknown_column_rejected() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let open = apply(&tgdb, None, None, &UserAction::Open { node_type: papers }).unwrap();
        let t = transform::execute(&tgdb, &open.pattern).unwrap();
        assert!(apply(
            &tgdb,
            Some(&open.pattern),
            Some(&t),
            &UserAction::Pivot {
                column: "Nope".into()
            }
        )
        .is_err());
    }
}
