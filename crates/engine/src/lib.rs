//! # lqo-engine
//!
//! The relational substrate for the `learned-qo` framework: an in-memory
//! columnar SPJ (select-project-join) engine with
//!
//! * typed columnar storage ([`table::Table`], [`column::Column`]),
//! * a catalog with primary/foreign-key metadata ([`catalog::Catalog`]),
//! * synthetic data generators modelled after IMDB/JOB, STATS/STATS-CEB and
//!   TPC-H ([`datagen`]),
//! * classical statistics — equi-depth histograms, most-common values,
//!   HyperLogLog distinct sketches, reservoir samples ([`stats`]),
//! * an SPJ query model with a small SQL-ish parser ([`query`]),
//! * logical join trees and physical plans ([`plan`]),
//! * a deterministic executor that counts *work units* alongside wall time
//!   and exposes true intermediate cardinalities ([`exec`]),
//! * and a Volcano-style cost-based optimizer with pluggable cardinality
//!   sources and Bao-style hint sets ([`optimizer`]).
//!
//! Everything downstream (learned cardinality estimators, learned cost
//! models, learned join-order search and end-to-end learned optimizers)
//! hooks into this crate through three seams, mirroring the three
//! components of a classical optimizer described in the paper:
//! [`optimizer::CardSource`] (cardinality estimation),
//! [`optimizer::cost`] (cost model) and [`optimizer::Optimizer`] /
//! [`optimizer::HintSet`] (plan enumeration).

#![warn(missing_docs)]

pub mod catalog;
pub mod column;
pub mod datagen;
pub mod error;
pub mod exec;
pub mod optimizer;
pub mod plan;
pub mod query;
pub mod schema;
pub mod stats;
pub mod table;
pub mod telemetry;
pub mod types;

pub use catalog::Catalog;
pub use error::{EngineError, Result};
pub use exec::{
    ExecConfig, ExecMode, ExecResult, Executor, ParallelConfig, Relation, TrueCardOracle, WorkMeter,
};
pub use optimizer::{
    enumerate_residual, residual_cost, CardSource, HintSet, Optimizer, ResidualChoice,
    ResidualLeaf, ResidualNode, TraditionalCardSource, TrueCardSource,
};
pub use plan::{JoinAlgo, JoinTree, PhysNode};
pub use query::{CmpOp, ColRef, JoinCond, Predicate, SpjQuery, SubqueryKey, TableRef, TableSet};
pub use stats::CatalogStats;
pub use table::Table;
pub use telemetry::{QueryScope, Telemetry};
pub use types::{DataType, Value};
