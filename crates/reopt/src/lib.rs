//! # lqo-reopt
//!
//! Mid-query adaptive re-optimization with checkpointed sub-plan
//! switching — the survey's answer to the observation that even the best
//! learned (or classical) estimator is sometimes wrong *at runtime*, and
//! the only unimpeachable cardinality is the one you just materialized.
//!
//! The [`ReoptExecutor`] drives a physical plan one operator at a time
//! through the engine's counting, slot-pruned step seam
//! ([`lqo_engine::Executor::exec_scan_step_keeping`] /
//! [`lqo_engine::Executor::exec_join_step_keeping`]) inside the
//! executor's one query wrapper ([`lqo_engine::Executor::run_query`]),
//! replicating the serial post-order exactly — same operators, same
//! work-unit charge sequence — so when nothing triggers, the result
//! (count, work bits, intermediates, error) is **identical** to
//! [`lqo_engine::Executor::execute`]'s. Each step keeps
//! `keep_for_child(query, step_tables, ∅)`: the positions with a join
//! condition leaving the step, which is exactly the keep `execute`
//! derives top-down at that node of *any* plan, so the root counts and
//! a re-planned residual can join already-executed sub-trees on the keys
//! they kept. Each intermediate is moved into its consumer and dropped
//! once that has run. After every operator (a materialization
//! checkpoint) it compares the observed cardinality with the estimate
//! the plan was built on. When the q-error crosses a configurable
//! threshold for a confirm-streak of consecutive checkpoints (mirroring
//! `lqo-watch` alarm debouncing), it re-optimizes only the *remaining*
//! sub-plan:
//!
//! * already-executed sub-trees become leaf inputs — exact rows, zero
//!   acquisition cost — to a fresh enumeration over the residual
//!   join graph ([`lqo_engine::enumerate_residual`]): the optimizer's
//!   own DP and greedy run over these leaves, under the configured
//!   hints' join algorithms and DP limit (`leading` and
//!   `left_deep_only` are dropped) and the optimizer's 20-leaf DP cap;
//! * estimates for not-yet-built sub-queries are calibrated by the
//!   observed/estimated ratios of the materialized anchors
//!   ([`CalibratedCardSource`]), memoized per pass through
//!   [`lqo_cache::OptMemo`];
//! * re-planning work is bounded by [`lqo_guard::ReoptGuard`]'s
//!   allowance carved from the query's remaining execution budget, and
//!   every failure mode — budget exhausted, enumeration error, a panic
//!   out of a faulty estimator — degrades to continuing the original
//!   plan as-is;
//! * a new sub-plan is spliced in only when it is strictly cheaper than
//!   re-costing the current one under the same calibrated estimates, and
//!   re-planned residual sub-plans are reused across queries through the
//!   epoch-tagged residual cache in [`lqo_cache::LqoCache`], keyed and
//!   tagged by the wrapped estimator's name (a session whose estimates
//!   are steered must not share one).
//!
//! Every checkpoint decision lands on the query trace as a
//! [`lqo_obs::trace::ReoptEvent`], on the `lqo.reopt.*` metrics and on
//! the flight ring. The [`ReoptReport`] names the plan actually executed
//! — the sub-trees that ran before a switch with the residual spliced in
//! over them — which is the evidence that a switch kept the answer.

#![warn(missing_docs)]

pub mod calibrate;
pub mod executor;

pub use calibrate::CalibratedCardSource;
pub use executor::{ReoptConfig, ReoptExecutor, ReoptReport};
