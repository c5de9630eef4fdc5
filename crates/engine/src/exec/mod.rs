//! Plan execution: physical operators over row-id relations, a work-unit
//! accounting model, and the true-cardinality oracle.

pub mod batch;
pub(crate) mod compiled;
pub mod executor;
pub mod oracle;
pub mod parallel;
pub mod reference;
pub mod relation;
pub(crate) mod runner;
pub mod workunits;

pub use executor::{ExecConfig, ExecResult, Executor, WorkMeter};
pub use oracle::TrueCardOracle;
pub use parallel::{ExecMode, ParallelConfig};
pub use relation::{check_row_ids, keep_for_child, Relation, MAX_ROW_IDS};
pub use workunits::CostParams;
