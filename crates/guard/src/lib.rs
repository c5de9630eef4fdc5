//! # lqo-guard
//!
//! The robustness layer of the learned-qo stack: *a broken model
//! degrades, never crashes*.
//!
//! The survey's deployment argument (and the reason systems like Bao
//! steer hints instead of emitting plans, and PilotScope interposes a
//! middleware boundary) is that a learned component must be unable to
//! take the database down with it. This crate makes that an enforced,
//! *testable* invariant with three layers:
//!
//! 1. **Deterministic fault injection** ([`fault`]) — a seeded
//!    [`FaultPlan`] drives [`FaultyCardSource`], which wraps any
//!    cardinality source and injects panics, NaN/∞/negative outputs,
//!    latency stalls, and wrong-by-10^k estimates on schedule, so
//!    robustness properties are reproducible offline.
//! 2. **Guarded invocation** ([`guarded`]) — model calls run under
//!    `catch_unwind`, outputs are validated (finite, non-negative,
//!    bounded), and a post-hoc per-call inference deadline plus a
//!    per-query plan-time budget, charged by every call, bound how much
//!    planning time learned code may consume.
//! 3. **Circuit breakers + a degradation ladder** ([`breaker`],
//!    [`guarded::GuardedCardSource`]) — per-component breakers (closed →
//!    open on K consecutive faults → half-open probe with exponential
//!    backoff, each opening reported by the call that caused it) step
//!    the optimizer down learned → hybrid → traditional → native; and at
//!    the execution layer a [`exec_guard::RegressionGuard`] cancels any
//!    plan that exceeds `k ×` the native plan's predicted work and
//!    re-executes with the native plan.
//!
//! The crate sees learned components only through the engine's
//! [`lqo_engine::optimizer::CardSource`] seam and so depends on no
//! learned crate. PilotScope drivers get the same breaker, deadline and
//! containment from `lqo-pilot`'s console, and serving tenants from
//! `lqo-serve`.
//!
//! Guard activity is observable through `lqo-obs`: `lqo.guard.*`
//! counters (faults by kind, fallbacks, breaker opens, replans), breaker
//! state and active-rung gauges, a `lqo.guard.deadline_ns` latency
//! histogram of every guarded call (overruns and panics included), and
//! per-query [`lqo_obs::trace::GuardEvent`]s.

#![warn(missing_docs)]

pub mod breaker;
pub mod exec_guard;
pub mod fault;
pub mod guarded;
pub mod reopt_guard;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use exec_guard::{GuardedExecution, RegressionGuard, RegressionGuardConfig};
pub use fault::{FaultConfig, FaultKind, FaultPlan, FaultyCardSource};
pub use guarded::{GuardConfig, GuardFault, GuardedCardSource, PlanBudget};
pub use reopt_guard::{ReoptGuard, ReoptGuardConfig};
