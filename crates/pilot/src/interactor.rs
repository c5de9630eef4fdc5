//! The unified DB interactor interface: push/pull operators over sessions.

use std::sync::Arc;
use std::time::Duration;

use lqo_cache::LqoCache;
use lqo_engine::{ExecMode, HintSet, PhysNode, Result, SpjQuery, TableSet, Telemetry};
use lqo_reopt::ReoptConfig;

/// Identifier of one interaction session (one "database connection").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Actions a driver enforces on the database.
#[derive(Debug, Clone)]
pub enum PushAction {
    /// Replace the optimizer's cardinality for one sub-query (the batch
    /// injection interface of the learned-cardinality driver).
    InjectCardinality {
        /// The enclosing query.
        query: SpjQuery,
        /// Sub-query subset.
        set: TableSet,
        /// Injected estimate.
        card: f64,
    },
    /// Constrain the optimizer with a hint set (Bao steering).
    SetHints(HintSet),
    /// Scale join-cardinality estimates (Lero's tuning knob).
    SetCardScaling(f64),
    /// Drop all injected cardinalities of this session.
    ClearInjections,
    /// Reset hints and scaling to defaults.
    ResetSteering,
}

/// Data a driver acquires from the database.
#[derive(Debug, Clone)]
pub enum PullRequest {
    /// The plan the (steered) optimizer would pick for a query.
    Plan(SpjQuery),
    /// Execute a query under the session's current steering.
    Execute(SpjQuery),
    /// Execute a specific plan.
    ExecutePlan(SpjQuery, PhysNode),
    /// Row count of a table.
    TableRows(String),
    /// Exact cardinality of a sub-query (training-label acquisition).
    TrueCardinality(SpjQuery, TableSet),
}

/// Replies to [`PullRequest`]s.
#[derive(Debug, Clone)]
pub enum PullReply {
    /// A plan and its estimated cost.
    Plan {
        /// The chosen plan.
        plan: PhysNode,
        /// Estimated cost under the session's cardinalities.
        cost: f64,
    },
    /// An execution result.
    Execution {
        /// Count-star result.
        count: u64,
        /// Work units spent.
        work: f64,
        /// Wall-clock time.
        wall: Duration,
        /// The executed plan.
        plan: PhysNode,
    },
    /// A scalar.
    Scalar(f64),
}

/// The unified bridge between drivers and a database. Implemented once
/// per DBMS (here: [`crate::engine_impl::EngineInteractor`]); drivers only
/// ever see this trait.
pub trait DbInteractor: Send + Sync {
    /// Open a new session.
    fn open_session(&self) -> SessionId;

    /// Close a session, dropping its steering state.
    fn close_session(&self, session: SessionId);

    /// Enforce an action.
    fn push(&self, session: SessionId, action: PushAction) -> Result<()>;

    /// Acquire data.
    fn pull(&self, session: SessionId, request: PullRequest) -> Result<PullReply>;

    /// Attach telemetry: subsequent planning and execution report
    /// provenance and metrics to its obs context; record hierarchical
    /// phase timings (plan → enumerate → estimate → cost, execute →
    /// per-operator), work-unit charges and plan-cache hit/miss/bypass
    /// counters on its profiler; and publish span boundaries, guard
    /// faults, budget trips and worker-fault degrades onto its flight
    /// ring. Default: ignored, so interactors without instrumentation
    /// keep working unchanged.
    fn attach_telemetry(&self, _telemetry: &Telemetry) {}

    /// Select the execution mode (serial or morsel-driven parallel) for
    /// subsequent executions. The parallel path is verified byte-identical
    /// to serial by the differential harness in `crates/testkit`, so
    /// drivers and training loops may switch modes without perturbing
    /// learned-component feedback signals. Default: ignored, so
    /// interactors without a parallel engine keep working unchanged.
    fn set_exec_mode(&self, _mode: ExecMode) {}

    /// Attach a shared plan & inference cache: subsequent planning may
    /// memoize cardinality lookups across queries and reuse previously
    /// optimized plans for unsteered sessions. Caching is observationally
    /// transparent — plans and results are byte-identical to the uncached
    /// path (verified by the differential and golden harnesses). Attach
    /// before pushing steering state: implementations may rebuild session
    /// estimator stacks over the memoized base. Default: ignored, so
    /// interactors without caching keep working unchanged.
    fn attach_cache(&self, _cache: &Arc<LqoCache>) {}

    /// Enable (`Some`) or disable (`None`) mid-query adaptive
    /// re-optimization for subsequent executions: plans run under
    /// materialization checkpoints, and a confirmed cardinality
    /// misestimate re-plans the remaining sub-plan under the guard
    /// budget. Checkpointed execution is byte-identical to the plain
    /// path when nothing triggers, and answer-identical (same tuple
    /// multiset) after a switch. Default: ignored, so interactors
    /// without a checkpointed executor keep working unchanged.
    fn set_reopt(&self, _cfg: Option<ReoptConfig>) {}
}
