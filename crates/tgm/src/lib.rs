//! # etable-tgm
//!
//! The **Typed Graph Model** (TGM) of the ETable paper (§4): relational
//! databases are reverse engineered into a *schema graph* (node types and
//! bidirectional edge types) plus an *instance graph* (nodes, a label
//! column, edges read in place from the database's foreign-key indexes),
//! so that users can browse data at the entity-relationship level and the
//! ETable layer can answer neighbor lookups with two offset loads instead
//! of joins.
//!
//! The translation procedure implements the paper's Appendix A, covering
//! all five categories of Table 1: entity tables, one-to-many and
//! many-to-many relationships, multivalued attributes, and categorical
//! attributes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ids;
pub mod instance_graph;
pub mod schema_graph;
pub mod stats;
pub mod tgdb;
pub mod translate;

pub use ids::{EdgeTypeId, NodeId, NodeTypeId};
pub use instance_graph::{IdSlice, InstanceGraph, Span};
pub use schema_graph::{
    AttrDef, EdgeProvenance, EdgeType, EdgeTypeKind, NodeType, NodeTypeKind, SchemaGraph,
};
pub use tgdb::Tgdb;
pub use translate::{classify, translate, RelationCategory, TranslateOptions};

use std::fmt;

/// Errors produced during translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The relational schema does not satisfy the Appendix A assumptions.
    Unsupported(String),
    /// The relational instances violate referential integrity.
    Integrity(String),
    /// Underlying relational engine error.
    Relational(etable_relational::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Unsupported(m) => write!(f, "unsupported schema: {m}"),
            Error::Integrity(m) => write!(f, "integrity error: {m}"),
            Error::Relational(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<etable_relational::Error> for Error {
    fn from(e: etable_relational::Error) -> Self {
        Error::Relational(e)
    }
}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, Error>;
