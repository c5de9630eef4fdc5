//! # lqo-serve — concurrent multi-query serving
//!
//! The serving layer a learned-optimizer deployment actually runs
//! behind: many sessions in flight at once, sharing one plan/inference
//! cache, one catalog, and one pool of execution workers — with
//! admission control in front and per-tenant isolation around it.
//!
//! ## Two-level scheduling
//!
//! The engine's morsel pool ([`lqo_engine::ExecMode::Parallel`])
//! parallelizes *within* one operator. This crate adds the level above:
//! each admitted query is decomposed into its serial post-order of
//! operator **steps** through the engine's counting, slot-pruned step
//! seam ([`lqo_engine::Executor::exec_scan_step_keeping`] /
//! [`lqo_engine::Executor::exec_join_step_keeping`]), and a shared worker pool
//! interleaves steps *across* queries. One query's steps never run
//! concurrently with each other (a task is owned by exactly one worker
//! at a time), so every query's rows, row order, and bit-exact f64 work
//! accounting are independent of the schedule — which is what makes
//! the differential contract below provable rather than statistical.
//!
//! ## The differential contract
//!
//! For any workload and any worker count, per-query outcomes (row
//! count, `work.to_bits()`, and budget-trip errors) are
//! **byte-identical** to a sequential replay of the same submissions.
//! `crates/testkit/tests/serving_diff.rs` enforces this at 2 and 8
//! workers against the 1-worker replay.
//!
//! The precondition is that admission itself is schedule-free: a
//! tenant breaker that opens while submissions are still arriving
//! rejects according to how far the workers got. A replay therefore
//! either disables the breakers (the differential does) or starts the
//! server with [`ServeConfig::hold`], so every submission is admitted
//! before the first step runs.
//!
//! ## Admission and isolation
//!
//! * **Bounded queue** — at most [`ServeConfig::queue_capacity`]
//!   admitted-but-incomplete queries; beyond that submissions are
//!   rejected with [`ServeError::QueueFull`] instead of piling latency
//!   onto everyone ([`LqoServer::submit`] never blocks).
//! * **Per-tenant quotas** — each tenant has a work-unit budget
//!   ([`ServeConfig::tenant_quota`]) charged with the *estimated* cost
//!   of each admitted plan, reusing the engine's
//!   [`lqo_engine::WorkMeter`] budget accumulator. Estimated cost is
//!   deterministic, so admission decisions replay exactly.
//! * **Per-tenant breakers** — a [`lqo_guard::CircuitBreaker`] per
//!   tenant records query outcomes; a tenant whose queries keep failing
//!   (budget trips included) gets rejected at admission with
//!   [`ServeError::TenantBreakerOpen`] while other tenants keep
//!   running. A breaker open flushes the shared plan cache through
//!   [`lqo_cache::LqoCache::on_breaker_open`].
//! * **Per-tenant drift state** — one shared
//!   [`lqo_watch::ModelHealthMonitor`] tracks a `tenant:<name>`
//!   component per tenant (predicted plan cost vs. actual work), so one
//!   tenant's drifting workload does not alarm the others.
//!
//! Session-scoped steering (hints, cardinality injections, scaling)
//! goes through the pilot's [`lqo_pilot::EngineInteractor`]: each
//! submission plans inside its own short-lived session whose estimator
//! stack layers over the shared cache-memoized base, exactly like an
//! interactive session would.
//!
//! ## Tickets and memory
//!
//! The server holds what is in flight, not what it has served.
//! [`LqoServer::submit`] parks each admitted query in a slot of a
//! ticket slab (reusing a freed slot when there is one) and returns a
//! [`Ticket`] naming the slot and its generation. [`LqoServer::wait`]
//! moves the outcome out and frees the slot, so a ticket redeems once:
//! waiting on it again panics, and it can never read the outcome of
//! the slot's next occupant. A ticket that is never redeemed keeps its
//! slot and outcome until the server drops. [`QueryOutcome::seq`] is
//! the admission sequence number, independent of slot reuse. The
//! per-tenant health series is capped ([`ServeConfig::watch`]), so the
//! monitor stays bounded on a server that runs indefinitely.
//!
//! The profiler attributes correctly under interleaving because phases
//! are keyed by query id ([`lqo_prof::ProfContext::begin_query_id`] /
//! [`lqo_prof::ProfContext::bind_query`]) — each worker binds the
//! task's query id for the duration of a step.

#![warn(missing_docs)]

mod harness;
mod scheduler;
mod server;

use lqo_engine::EngineError;

pub use harness::{percentile_ns, LoadReport, LoadRunner};
pub use scheduler::{QueryAnswer, QueryOutcome, Ticket};
pub use server::{LqoServer, ServeStats};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads stepping queries (clamped to ≥ 1).
    pub workers: usize,
    /// Maximum admitted-but-incomplete queries; submissions beyond this
    /// are rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant work-unit budget charged with each admitted plan's
    /// estimated cost; `None` = unlimited.
    pub tenant_quota: Option<f64>,
    /// Per-tenant circuit-breaker tuning.
    pub breaker: lqo_guard::BreakerConfig,
    /// Drift-monitor tuning for the per-tenant `tenant:<name>`
    /// components. The default keeps at most 4 096 series points, so a
    /// long-running server's health series thins out instead of growing
    /// (see [`lqo_watch::WatchConfig::max_series`]).
    pub watch: lqo_watch::WatchConfig,
    /// Execution mode *within* one operator step. Every mode runs the
    /// same operator bodies: [`lqo_engine::ExecMode::Serial`] (the
    /// default, batches of `DEFAULT_BATCH_SIZE` rows) and
    /// [`lqo_engine::ExecMode::Batched`] run a step's input ranges on the
    /// worker thread (the serving pool provides the concurrency);
    /// [`lqo_engine::ExecMode::Parallel`] runs them on a morsel pool per
    /// step. All modes are byte-identical per the engine's differential
    /// contract.
    pub step_mode: lqo_engine::ExecMode,
    /// Per-query work budget applied when a submission does not carry
    /// its own (`None` = unlimited).
    pub default_max_work: Option<f64>,
    /// Start with workers gated: admitted queries queue but do not
    /// execute until [`LqoServer::release`] — deterministic queue
    /// build-up for tests and load ramps.
    pub hold: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            tenant_quota: None,
            breaker: lqo_guard::BreakerConfig::default(),
            watch: lqo_watch::WatchConfig {
                max_series: 4_096,
                ..lqo_watch::WatchConfig::default()
            },
            step_mode: lqo_engine::ExecMode::Serial,
            default_max_work: None,
            hold: false,
        }
    }
}

/// One query submission: a tenant, a query, and optional session-scoped
/// steering applied while planning.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Tenant this query bills to.
    pub tenant: String,
    /// The query.
    pub query: lqo_engine::SpjQuery,
    /// Optimizer hints for this session.
    pub hints: lqo_engine::HintSet,
    /// Join-cardinality scaling for this session (1.0 = off).
    pub scaling: f64,
    /// Session-scoped cardinality injections `(sub-query set, rows)`.
    pub injections: Vec<(lqo_engine::TableSet, f64)>,
    /// Per-query work budget (`None` falls back to
    /// [`ServeConfig::default_max_work`]).
    pub max_work: Option<f64>,
}

impl SessionRequest {
    /// An unsteered request for `tenant`.
    pub fn new(tenant: impl Into<String>, query: lqo_engine::SpjQuery) -> SessionRequest {
        SessionRequest {
            tenant: tenant.into(),
            query,
            hints: lqo_engine::HintSet::default(),
            scaling: 1.0,
            injections: Vec::new(),
            max_work: None,
        }
    }

    /// Set this request's work budget.
    pub fn with_max_work(mut self, max_work: f64) -> SessionRequest {
        self.max_work = Some(max_work);
        self
    }

    /// Set this request's hint set.
    pub fn with_hints(mut self, hints: lqo_engine::HintSet) -> SessionRequest {
        self.hints = hints;
        self
    }

    /// Set this request's cardinality scaling.
    pub fn with_scaling(mut self, scaling: f64) -> SessionRequest {
        self.scaling = scaling;
        self
    }
}

/// Why a submission was rejected (or a serving call failed).
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The admission queue is at capacity.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The tenant's work-unit quota cannot cover this plan's estimated
    /// cost.
    QuotaExceeded {
        /// The rejected tenant.
        tenant: String,
        /// The configured quota.
        quota: f64,
    },
    /// The tenant's circuit breaker is open.
    TenantBreakerOpen {
        /// The rejected tenant.
        tenant: String,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// Planning failed.
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            ServeError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant '{tenant}' exceeded its work quota of {quota}")
            }
            ServeError::TenantBreakerOpen { tenant } => {
                write!(f, "tenant '{tenant}' circuit breaker is open")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Engine(e) => write!(f, "planning failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}
