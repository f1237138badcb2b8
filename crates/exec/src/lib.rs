//! # aim2-exec — the NF² query processor
//!
//! Evaluates the language of Section 3 against stored tables:
//!
//! * [`eval`] — the reference evaluator: nested-loop evaluation of
//!   SELECT-FROM-WHERE with correlated subqueries in the SELECT clause
//!   (nest, Fig 3), multi-binding FROM chains over inner tables (unnest,
//!   Example 4), EXISTS / ALL over subtables, cross-level joins (Figs
//!   4–5), list subscripts, `CONTAINS` masked text search, and `ASOF`;
//! * [`infer`] — result-structure inference: the SELECT clause describes
//!   the (possibly nested) result schema, computed before execution;
//! * [`analysis`] — referenced-path analysis driving *partial retrieval*:
//!   the facade reads only the subtables a query mentions (§4.1's third
//!   storage demand);
//! * [`provider`] — the [`provider::TableProvider`] abstraction the
//!   evaluator runs against (the facade implements it over the object
//!   store; [`provider::MemProvider`] serves tests);
//! * [`algebra`] — standalone nest/unnest operators (/Jae85a, Jae85b/);
//! * [`planner`] — §4.2 access-path selection: answering the paper's
//!   three index queries under each address scheme, with the access
//!   counters that reproduce its argument.

pub mod algebra;
pub mod analysis;
pub mod analyze;
pub mod deadline;
pub mod error;
pub mod eval;
pub mod infer;
pub mod plan;
pub mod planner;
pub mod provider;
pub mod value;

pub use analyze::{AnalyzedPlan, OpMetrics};
pub use deadline::Deadline;
pub use error::ExecError;
pub use eval::{Evaluator, RowSink};
pub use plan::{PhysOp, PhysicalPlan};
pub use provider::{
    MemProvider, ObjectCursor, ScanRequest, ScanSource, SharedRows, TableProvider, BATCH_ROWS,
};

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;
