//! # lqo-testkit
//!
//! The differential correctness harness for the execution layer.
//!
//! Lehmann et al. ("Is Your Learned Query Optimizer Behaving As You
//! Expect?") show that LQO evaluations are routinely invalidated by
//! execution-layer noise; Balsa-style optimizers train directly on
//! executed latencies. A parallel executor that is merely "equal counts,
//! usually" would silently corrupt every learned-component feedback loop
//! in this repository. This crate therefore holds the engine to a much
//! stronger standard: **byte identity**. For every query, plan, thread
//! count, morsel size, and columnar batch size, every execution mode
//! must produce the same result rows in the same order, the same
//! intermediate cardinalities, and the *bit-identical* work-unit account
//! as the tuple-at-a-time reference evaluator
//! (`lqo_engine::exec::reference`).
//!
//! Pieces:
//!
//! * [`differential`] — run a (query, plan) through the reference and
//!   the serial, parallel and batched modes at multiple thread counts,
//!   morsel sizes, and batch sizes and compare everything
//!   ([`differential::diff_plan`]), plus workload sweeps.
//! * [`reopt_diff`] — the same standard for the checkpointed
//!   re-optimizing executor: byte identity when no checkpoint triggers,
//!   answer identity (normalized tuple multiset) after a sub-plan
//!   switch ([`reopt_diff::diff_reopt_plan`]).
//! * [`sqlgen`] — seeded random SPJ query and random physical-plan
//!   generators for property tests.
//! * [`golden`] — golden-file snapshots with a `BLESS=1` regeneration
//!   path.
//!
//! The integration tests under `tests/` are the test-archetype core:
//! differential sweeps over the bench workloads, proptest-driven random
//! SPJ properties, worker-fault chaos tests, and golden snapshots.

#![warn(missing_docs)]

pub mod differential;
pub mod golden;
pub mod reopt_diff;
pub mod sqlgen;

pub use differential::{
    batch_sizes_from_env, diff_plan, diff_workload, thread_counts_from_env, DiffConfig, DiffOutcome,
};
pub use golden::check_golden;
pub use reopt_diff::{diff_reopt_plan, diff_reopt_workload, ReoptDiffConfig, ReoptDiffOutcome};
pub use sqlgen::{random_plan, random_query, RandomQueryConfig};
