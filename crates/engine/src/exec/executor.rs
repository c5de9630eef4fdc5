//! The plan executor.
//!
//! Executes a [`PhysNode`] against a catalog, producing the count-star
//! result, the *work units* spent (the engine's deterministic latency), the
//! wall-clock time, and the true cardinality of every intermediate result —
//! the raw material for training learned components.
//!
//! # Counting vs collecting
//!
//! [`Executor::execute`] answers `COUNT(*)` and returns no tuples, so it
//! writes only what a later operator reads: each operator keeps the
//! row-id slots of the tables a later join condition touches (see
//! [`crate::exec::relation`]); a join that keeps the slots of one side
//! only stores each surviving tuple of that side once, weighted by its
//! matches; and an operator nothing reads — the root join, a child of a
//! cross product — stores nothing and only sums its output weights.
//! [`Executor::execute_collect`] materializes every slot of every
//! operator, unit-weighted, and returns the final relation. Both issue
//! the same work charges in the same order (charges read the logical
//! width and the logical tuple counts, never the stored slots or
//! tuples), so their [`ExecResult`]s — count, work bits, intermediates,
//! errors — are equal; the differential harness asserts it in every
//! cell it sweeps.
//!
//! # The step seam
//!
//! [`Executor::exec_scan_step_keeping`] /
//! [`Executor::exec_join_step_keeping`] run one operator against a
//! caller-owned [`WorkMeter`], keeping the slots of the tables the caller
//! names. Every production caller (serving, re-optimization) passes
//! `keep_for_child(query, step_tables, ∅)`: the positions with a join
//! condition leaving the step. That is the keep `execute` derives
//! top-down at that node of any plan, since a parent's keep is its own
//! leaving positions and those inside the child leave the child too; at
//! the root it is empty, so the root counts. A stepped plan therefore
//! prunes and counts exactly like `execute`. A step-wise driver that
//! wants the query wrapper — validation, spans, metrics, the
//! [`ExecResult`] — runs its steps inside [`Executor::run_query`]
//! through [`Executor::run_step`]. The full-width forms
//! ([`Executor::exec_scan_step`] / [`Executor::exec_join_step`]) are
//! one-line wrappers kept for tests and the benchmark's probe.
//!
//! # One walker, one body per operator, two runners
//!
//! Every mode runs through the same plan walker (`exec_node`) and the same
//! two operator entry points, `scan_op` and `join_op`, which the step seam
//! calls too. They validate the inputs once (`check_plan` and
//! `check_join`, which the reference evaluator shares) and run the one
//! body of the operator ([`crate::exec::batch`]) on a range runner
//! (`exec/runner.rs`): the query's morsel pool run
//! ([`crate::exec::parallel`]) when the mode has more than one worker,
//! otherwise in-thread batches of [`ExecMode::batch_size`] rows. A
//! contained worker fault re-runs that one operator in-thread from its
//! pre-operator work snapshot, and the rest of the query stays in-thread.
//! [`crate::exec::reference`] keeps the tuple-at-a-time evaluator every
//! mode is tested against.
//!
//! # Row-ordering contract
//!
//! Every operator produces its output tuples in a **canonical, fully
//! deterministic order**, so that two executions of the same plan — on any
//! execution mode, thread count, or morsel schedule — yield byte-identical
//! [`Relation`]s. The contract, operator by operator:
//!
//! * **Scan** emits qualifying row ids in ascending base-table row order.
//! * **HashJoin** emits in probe-side-major order: output tuples are
//!   ordered by the probe (right) tuple's index, and within one probe
//!   tuple by the build (left) tuples' insertion order, which is ascending
//!   left-input order.
//! * **NestedLoopJoin** (and cross products) emit in outer-major order:
//!   by left tuple index, then right tuple index.
//! * **MergeJoin** emits by ascending key group; within a group by left
//!   sort position then right sort position. Sort positions themselves are
//!   deterministic because sort keys are disambiguated by input index.
//! * A join **collapsed** onto one side emits that side's surviving
//!   tuples in its order above with the other side's index dropped:
//!   ascending input index for hash, nested-loop and cross joins (build
//!   or probe side alike), key group then sort position for merge. Its
//!   weights follow its tuples.
//!
//! Both runners preserve this order by running contiguous input ranges
//! and concatenating their outputs in range order; the differential
//! harness in `crates/testkit` asserts the equivalence with the reference
//! evaluator on every workload. Work-unit accounting follows the same
//! contract: the sequence of work charges is identical across modes, so
//! [`ExecResult::work`] is bit-identical too.

use std::time::{Duration, Instant};

use lqo_flight::{FlightEvent, Producer};
use lqo_obs::trace::{GuardEvent, OperatorEvent};
use serde::Serialize;

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::exec::batch::{self, join::JoinInputs};
use crate::exec::compiled::{compile_pred, Compiled, KeySide};
use crate::exec::parallel::{ExecMode, ParRun, ParallelConfig};
use crate::exec::relation::{self, keep_for_child, Projection, Relation};
use crate::exec::runner::Runner;
use crate::exec::workunits::CostParams;
use crate::plan::physical::{JoinAlgo, PhysNode};
use crate::query::expr::JoinCond;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;
use crate::telemetry::Telemetry;

/// Executor configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// Work-unit constants and runtime effects.
    pub params: CostParams,
    /// Abort execution when accumulated work exceeds this budget. Protects
    /// experiments from catastrophically bad candidate plans (a real system
    /// would time out). The parallel executor honours the same budget via
    /// cancellation-aware morsel dispatch.
    pub max_work: Option<f64>,
    /// Execution mode: how operator input ranges run (in-thread batches
    /// or the morsel pool).
    pub mode: ExecMode,
    /// Tuning and fault-injection knobs for the parallel mode.
    pub parallel: ParallelConfig,
}

/// Result of executing a plan.
#[derive(Debug, Clone, Serialize)]
pub struct ExecResult {
    /// The count-star answer, i.e. the query's true cardinality.
    pub count: u64,
    /// Total work units spent (deterministic latency).
    pub work: f64,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// True cardinality of every operator output, bottom-up.
    pub intermediates: Vec<(TableSet, u64)>,
}

/// Deterministic work accounting with an optional abort budget.
///
/// Public so step-wise drivers (serving, re-optimization) can thread the
/// same meter through a sequence of step-seam calls and reproduce the
/// exact charge sequence of [`Executor::execute`].
#[derive(Debug)]
pub struct WorkMeter {
    /// Accumulated work units.
    pub(crate) work: f64,
    /// Abort budget.
    pub(crate) limit: Option<f64>,
}

impl WorkMeter {
    /// A fresh meter with an optional abort budget.
    pub fn new(limit: Option<f64>) -> WorkMeter {
        WorkMeter { work: 0.0, limit }
    }

    /// Charge `w` work units; errors with
    /// [`EngineError::WorkLimitExceeded`] once the accumulated work
    /// exceeds the budget.
    pub fn add(&mut self, w: f64) -> Result<()> {
        self.work += w;
        match self.limit {
            Some(lim) if self.work > lim => Err(EngineError::WorkLimitExceeded { limit: lim }),
            _ => Ok(()),
        }
    }

    /// Accumulated work units.
    pub fn work(&self) -> f64 {
        self.work
    }

    /// The abort budget, if any.
    pub fn limit(&self) -> Option<f64> {
        self.limit
    }

    /// Budget still available (`limit - work`, floored at zero); `None`
    /// when the meter is unbudgeted.
    pub fn remaining(&self) -> Option<f64> {
        self.limit.map(|lim| (lim - self.work).max(0.0))
    }
}

/// One query's running account, which [`Executor::run_query`] hands to
/// the driver executing the query's operators. Their profiler phases
/// nest in the query's `execute` phase and follow its sampling decision
/// (see `lqo_prof`); their work is charged exactly either way.
#[derive(Debug)]
pub struct QueryRun {
    /// The query's work meter, budgeted by [`ExecConfig::max_work`].
    pub meter: WorkMeter,
    /// Output cardinality of every finished operator, in finish order.
    intermediates: Vec<(TableSet, u64)>,
    /// Operator events for the query trace (obs on only).
    events: Vec<OperatorEvent>,
}

/// The plan executor. Stateless across queries; cheap to construct.
pub struct Executor<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) config: ExecConfig,
    pub(crate) telemetry: Telemetry,
}

impl<'a> Executor<'a> {
    /// Create an executor over a catalog.
    pub fn new(catalog: &'a Catalog, config: ExecConfig) -> Executor<'a> {
        Executor {
            catalog,
            config,
            telemetry: Telemetry::default(),
        }
    }

    /// Executor with default configuration.
    pub fn with_defaults(catalog: &'a Catalog) -> Executor<'a> {
        Executor::new(catalog, ExecConfig::default())
    }

    /// Attach telemetry: per-operator events (true rows, work units)
    /// and execution metrics land on the obs context's current query
    /// trace; execution runs under a profiler `execute` phase with one
    /// nested phase per operator (mirroring the plan tree) carrying exact
    /// wall clock and work-unit charges, the parallel path attributing
    /// per-morsel and per-worker busy/idle time under the operator that
    /// dispatched them; and execution span boundaries, work-budget trips
    /// and contained worker-fault degrades are published onto the flight
    /// ring.
    pub fn with_telemetry(mut self, telemetry: impl Into<Telemetry>) -> Executor<'a> {
        self.telemetry = telemetry.into();
        self
    }

    /// The configured cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.config.params
    }

    /// The configured execution mode.
    pub fn mode(&self) -> ExecMode {
        self.config.mode
    }

    /// Execute `plan` for `query`, counting the answer: operators keep
    /// only the slots later joins read and the root counts its output
    /// (see the module docs). The result equals
    /// [`Executor::execute_collect`]'s.
    pub fn execute(&self, query: &SpjQuery, plan: &PhysNode) -> Result<ExecResult> {
        self.run(query, plan, TableSet::EMPTY).map(|(r, _)| r)
    }

    /// Execute `plan` for `query`, also returning the final output
    /// relation (tuples of base-table row ids in the canonical operator
    /// order documented on this module), every operator materializing
    /// every slot. This is the interface of the differential correctness
    /// harness: two executions are equivalent iff their [`ExecResult`]s
    /// and final relations are byte-identical.
    pub fn execute_collect(
        &self,
        query: &SpjQuery,
        plan: &PhysNode,
    ) -> Result<(ExecResult, Relation)> {
        self.run(query, plan, query.all_tables())
    }

    /// Execute `plan`, keeping the slots of the tables in `keep` in the
    /// final relation (and whatever later joins read below it).
    fn run(
        &self,
        query: &SpjQuery,
        plan: &PhysNode,
        keep: TableSet,
    ) -> Result<(ExecResult, Relation)> {
        self.run_query(query, plan, |run| {
            self.with_pool(|par| self.exec_node(query, plan, keep, par, run))
        })
    }

    /// The one query wrapper: check `plan`, then run `drive` — which
    /// executes the plan's operators against the [`QueryRun`] it is
    /// handed and returns the root relation — inside the `exec.query`
    /// span (obs and flight ring) and the profiler `execute` phase.
    /// Publishes a work-budget trip onto the flight ring, records the
    /// `lqo.exec.*` metrics and the operator events on the query trace,
    /// and builds the [`ExecResult`] from the root relation's count.
    /// [`Executor::execute`] drives the plan walker through it; a
    /// step-wise driver runs each operator with [`Executor::run_step`].
    pub fn run_query(
        &self,
        query: &SpjQuery,
        plan: &PhysNode,
        drive: impl FnOnce(&mut QueryRun) -> Result<Relation>,
    ) -> Result<(ExecResult, Relation)> {
        check_plan(query, plan)?;
        let _span = self.telemetry.obs.span("exec.query");
        let _prof_exec = self.telemetry.prof.phase("execute");
        if self.telemetry.flight.is_enabled() {
            self.telemetry.flight.publish(
                Producer::Exec,
                FlightEvent::Span {
                    name: "exec.query".to_string(),
                    begin: true,
                },
            );
        }
        let start = Instant::now();
        let mut run = QueryRun {
            meter: WorkMeter::new(self.config.max_work),
            intermediates: Vec::new(),
            events: Vec::new(),
        };
        let attempt = drive(&mut run);
        if self.telemetry.flight.is_enabled() {
            if let Err(EngineError::WorkLimitExceeded { limit }) = &attempt {
                self.telemetry.flight.publish(
                    Producer::Exec,
                    FlightEvent::BudgetTrip {
                        component: "exec".to_string(),
                        budget: *limit,
                    },
                );
            }
            self.telemetry.flight.publish(
                Producer::Exec,
                FlightEvent::Span {
                    name: "exec.query".to_string(),
                    begin: false,
                },
            );
        }
        match attempt {
            Ok(rel) => {
                if self.telemetry.obs.is_enabled() {
                    self.telemetry.obs.count("lqo.exec.queries", 1);
                    self.telemetry
                        .obs
                        .observe("lqo.exec.work_units", run.meter.work);
                    self.telemetry
                        .obs
                        .with_query(|t| t.exec.operators.extend(run.events));
                }
                let result = ExecResult {
                    count: rel.len() as u64,
                    work: run.meter.work,
                    wall: start.elapsed(),
                    intermediates: run.intermediates,
                };
                Ok((result, rel))
            }
            Err(e) => {
                if self.telemetry.obs.is_enabled() {
                    if matches!(e, EngineError::WorkLimitExceeded { .. }) {
                        self.telemetry.obs.count("lqo.exec.timeouts", 1);
                        self.telemetry.obs.with_query(|t| {
                            t.exec.timeout = true;
                            t.exec.operators.extend(run.events);
                        });
                    }
                    self.telemetry.obs.count("lqo.exec.errors", 1);
                }
                Err(e)
            }
        }
    }

    /// Run one step-seam operator `op` of a query driven through
    /// [`Executor::run_query`], under a profiler phase `label`, and
    /// account it as the plan walker accounts its operators.
    pub fn run_step(
        &self,
        run: &mut QueryRun,
        label: &'static str,
        op: impl FnOnce(&mut WorkMeter) -> Result<Relation>,
    ) -> Result<Relation> {
        let _p = self.telemetry.prof.phase(label);
        let before = run.meter.work;
        let rel = op(&mut run.meter)?;
        self.record_op(run, label, &rel, run.meter.work - before);
        Ok(rel)
    }

    /// Account one finished operator of `run`: its intermediate, its own
    /// work as a profiler charge, and (obs on) its operator event.
    fn record_op(&self, run: &mut QueryRun, op: &'static str, rel: &Relation, own_work: f64) {
        run.intermediates.push((rel.tables(), rel.len() as u64));
        self.telemetry.prof.charge(own_work);
        if self.telemetry.obs.is_enabled() {
            run.events.push(OperatorEvent {
                op: op.to_string(),
                tables: rel.tables().0,
                true_rows: rel.len() as u64,
                est_rows: None,
                work: own_work,
            });
        }
    }

    /// Execute a single scan operator as a standalone step, charging
    /// `meter` exactly as [`Executor::execute`] would (same charge
    /// sequence, same row-ordering contract), and materialize its full
    /// width: the test-and-probe form of
    /// [`Executor::exec_scan_step_keeping`].
    pub fn exec_scan_step(
        &self,
        query: &SpjQuery,
        pos: usize,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        self.exec_scan_step_keeping(query, pos, TableSet::singleton(pos), meter)
    }

    /// Execute a single scan operator as a standalone step (see the
    /// module docs on the step seam), keeping the slots of the tables in
    /// `keep`: a scan no later join reads (`keep` without `pos`) counts
    /// instead of materializing. Charges read the logical width, so the
    /// meter ends where `execute`'s does.
    pub fn exec_scan_step_keeping(
        &self,
        query: &SpjQuery,
        pos: usize,
        keep: TableSet,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        self.with_pool(|par| self.scan_op(query, pos, keep, par, meter))
    }

    /// Execute a single join operator over two already-materialized
    /// inputs as a standalone step, materializing every stored slot of
    /// both: the test-and-probe form of
    /// [`Executor::exec_join_step_keeping`].
    pub fn exec_join_step(
        &self,
        query: &SpjQuery,
        algo: JoinAlgo,
        left: Relation,
        right: Relation,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let keep = left.tables().union(right.tables());
        self.exec_join_step_keeping(query, algo, left, right, keep, meter)
    }

    /// Execute a single join operator over two inputs as a standalone
    /// step, keeping the slots of the tables in `keep` (see
    /// [`Executor::exec_scan_step_keeping`]); an empty `keep` counts the
    /// matches. The inputs are consumed.
    pub fn exec_join_step_keeping(
        &self,
        query: &SpjQuery,
        algo: JoinAlgo,
        left: Relation,
        right: Relation,
        keep: TableSet,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        self.with_pool(|par| self.join_op(query, algo, left, right, keep, par, meter))
    }

    /// Run `f` with the morsel pool run of one query (or one step): a run
    /// when the mode has more than one worker, `None` otherwise. One run
    /// spans every operator `f` executes, so its morsel sequence,
    /// approximate budget and utilization cover the whole query.
    fn with_pool<T>(&self, f: impl FnOnce(Option<&ParRun<'_>>) -> T) -> T {
        if self.config.mode.threads() == 1 {
            return f(None);
        }
        let run = ParRun::new(self);
        let out = f(Some(&run));
        run.finish();
        out
    }

    /// Run the operator body `op` on the pool run `par` while it is
    /// live, else on the in-thread runner. A contained worker fault is
    /// logged and rewinds the meter to its pre-operator value, and `op`
    /// re-runs in-thread, replaying the same charges. A faulted run stays
    /// cancelled, so the rest of the query runs in-thread too.
    fn on_runner(
        &self,
        par: Option<&ParRun<'_>>,
        meter: &mut WorkMeter,
        op: impl Fn(&Runner<'_>, &mut WorkMeter) -> Result<Relation>,
    ) -> Result<Relation> {
        if let Some(run) = par.filter(|run| !run.shared.is_cancelled()) {
            let before = meter.work;
            match op(&Runner::Pool(run), meter) {
                Err(EngineError::WorkerFault { op }) => {
                    self.record_degrade(&op);
                    meter.work = before;
                }
                done => return done,
            }
        }
        op(&Runner::InThread(self.config.mode.batch_size()), meter)
    }

    /// Note a contained parallel worker fault and the in-thread retry.
    fn record_degrade(&self, op: &str) {
        if self.telemetry.flight.is_enabled() {
            self.telemetry.flight.publish(
                Producer::Exec,
                FlightEvent::WorkerFault {
                    op: op.to_string(),
                    action: "fallback:serial".to_string(),
                },
            );
        }
        if !self.telemetry.obs.is_enabled() {
            return;
        }
        self.telemetry.obs.count("lqo.exec.parallel.degraded", 1);
        let op = op.to_string();
        self.telemetry.obs.with_query(|t| {
            t.push_guard(GuardEvent {
                component: "exec:parallel".to_string(),
                fault: format!("worker-panic:{op}"),
                action: "fallback:serial".to_string(),
            });
        });
    }

    /// Execute the subtree `node`, keeping the slots of the tables in
    /// `keep` (a subset of `node`'s tables) in its output; operators go to
    /// the pool run `par` when there is one.
    pub(crate) fn exec_node(
        &self,
        query: &SpjQuery,
        node: &PhysNode,
        keep: TableSet,
        par: Option<&ParRun<'_>>,
        run: &mut QueryRun,
    ) -> Result<Relation> {
        // `meter.work` snapshots bracket only this node's own operator
        // (children account for themselves first), so per-operator work
        // attribution is exact even for bushy plans. The profiler phase
        // opens before recursing, so the phase tree mirrors the plan
        // tree (`execute;HashJoin;Scan`).
        let label = match node {
            PhysNode::Scan { .. } => "Scan",
            PhysNode::Join { algo, .. } => algo.label(),
        };
        let _prof_op = self.telemetry.prof.phase(label);
        let (rel, own_work) = match node {
            PhysNode::Scan { pos } => {
                let before = run.meter.work;
                let rel = self.scan_op(query, *pos, keep, par, &mut run.meter)?;
                (rel, run.meter.work - before)
            }
            PhysNode::Join { algo, left, right } => {
                let lkeep = keep_for_child(query, left.tables(), keep);
                let rkeep = keep_for_child(query, right.tables(), keep);
                let l = self.exec_node(query, left, lkeep, par, run)?;
                let r = self.exec_node(query, right, rkeep, par, run)?;
                let before = run.meter.work;
                let rel = self.join_op(query, *algo, l, r, keep, par, &mut run.meter)?;
                (rel, run.meter.work - before)
            }
        };
        self.record_op(run, label, &rel, own_work);
        Ok(rel)
    }

    /// The scan operator of every mode and of the step seam. A scan
    /// whose table `keep` does not name is reduced to its count.
    pub(crate) fn scan_op(
        &self,
        query: &SpjQuery,
        pos: usize,
        keep: TableSet,
        par: Option<&ParRun<'_>>,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let rel = self.on_runner(par, meter, |runner, meter| {
            batch::scan(self, query, pos, runner, meter)
        })?;
        Ok(if keep.contains(pos) {
            rel
        } else {
            rel.into_count()
        })
    }

    /// Compile the filter predicates of the scan at `pos`.
    pub(crate) fn compile_scan<'b>(
        &'b self,
        query: &SpjQuery,
        pos: usize,
    ) -> Result<(usize, Vec<Compiled<'b>>)> {
        let table = self.catalog.table(&query.tables[pos].table)?;
        let preds = query.predicates_on(pos);
        let mut compiled = Vec::with_capacity(preds.len());
        for p in &preds {
            let col = table.column_by_name(&p.col.column)?;
            compiled.push(compile_pred(col, p));
        }
        relation::check_row_ids(table.nrows(), "scan")?;
        Ok((table.nrows(), compiled))
    }

    /// Resolve the key columns of `conds` on one side of a join.
    pub(crate) fn key_side<'b>(
        &'b self,
        query: &SpjQuery,
        rel: &Relation,
        conds: &[&JoinCond],
    ) -> Result<KeySide<'b>> {
        let tables = rel.tables();
        let mut cols = Vec::with_capacity(conds.len());
        for cond in conds {
            let (col_ref, pos) = {
                let lp = query.col_pos(&cond.left)?;
                if tables.contains(lp) {
                    (&cond.left, lp)
                } else {
                    let rp = query.col_pos(&cond.right)?;
                    if !tables.contains(rp) {
                        return Err(EngineError::InvalidPlan(format!(
                            "join condition {cond} does not touch relation {tables}"
                        )));
                    }
                    (&cond.right, rp)
                }
            };
            let slot = rel.slot_of(pos).ok_or_else(|| {
                EngineError::InvalidPlan(format!("table position {pos} missing from relation"))
            })?;
            let table = self.catalog.table(&query.tables[pos].table)?;
            let column = table.column_by_name(&col_ref.column)?;
            let data = column.as_int().ok_or_else(|| EngineError::TypeMismatch {
                expected: "INT join key",
                found: column.dtype().to_string(),
            })?;
            cols.push((slot, data));
        }
        Ok(KeySide { cols })
    }

    /// The join operator of every mode and of the step seam: checks the
    /// inputs, then runs the join's body, keeping the slots of the tables
    /// in `keep` in the output (the root of a counting execution keeps
    /// none).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join_op(
        &self,
        query: &SpjQuery,
        algo: JoinAlgo,
        left: Relation,
        right: Relation,
        keep: TableSet,
        par: Option<&ParRun<'_>>,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let conds = check_join(query, algo, &left, &right)?;
        let proj = Projection::new(&left, &right, keep);
        let inputs = JoinInputs {
            ex: self,
            query,
            conds: &conds,
            left: &left,
            right: &right,
            proj: &proj,
        };
        self.on_runner(par, meter, |runner, meter| {
            batch::join::join(algo, &inputs, runner, meter)
        })
    }

    /// The hash-join "spill" multiplier for a build side of `build_rows`.
    pub(crate) fn hash_spill(&self, build_rows: usize) -> f64 {
        if build_rows > self.config.params.hash_mem_rows {
            self.config.params.spill_factor
        } else {
            1.0
        }
    }

    /// The nested-loop cache discount for an inner side of `inner_rows`.
    pub(crate) fn nl_discount(&self, inner_rows: usize) -> f64 {
        if inner_rows <= self.config.params.nl_cache_rows {
            self.config.params.nl_cache_discount
        } else {
            1.0
        }
    }
}

/// The plan must cover every table of `query` exactly once.
pub(crate) fn check_plan(query: &SpjQuery, plan: &PhysNode) -> Result<()> {
    let mut leaves = 0usize;
    plan.visit_bottom_up(&mut |n| {
        if matches!(n, PhysNode::Scan { .. }) {
            leaves += 1;
        }
    });
    if plan.tables() != query.all_tables() || leaves != query.num_tables() {
        return Err(EngineError::InvalidPlan(format!(
            "plan covers {} with {} scans; query has {} tables",
            plan.tables(),
            leaves,
            query.num_tables()
        )));
    }
    Ok(())
}

/// Check the inputs of a join and return the conditions between them:
/// row ids must fit the `u32` domain, the inputs must cover disjoint
/// tables, and only a nested-loop join may run without a condition (a
/// cross product).
///
/// The row-id check reads each input's **physical** length, its stored
/// tuples: those are what the bodies' `u32` indexes (chain links, sort
/// pairs) address. A weighted input of few stored tuples may stand for
/// more than `u32::MAX` logical ones and still joins; its logical count
/// is bounded by `usize` instead (`EngineError::CountOverflow`). The
/// full-width unit relations of `execute_collect` and the reference
/// store every logical tuple, so for them the two checks coincide; only
/// an input beyond `u32::MAX` logical tuples — 16 GiB of row ids to
/// collect — is answered by `execute` where they fail.
pub(crate) fn check_join<'q>(
    query: &'q SpjQuery,
    algo: JoinAlgo,
    left: &Relation,
    right: &Relation,
) -> Result<Vec<&'q JoinCond>> {
    relation::check_row_ids(left.physical_len(), "join left input")?;
    relation::check_row_ids(right.physical_len(), "join right input")?;
    let shared = left.tables().intersect(right.tables());
    if !shared.is_empty() {
        return Err(EngineError::InvalidPlan(format!(
            "{algo} inputs overlap on {shared}"
        )));
    }
    let conds = query.joins_between(left.tables(), right.tables());
    if conds.is_empty() && algo != JoinAlgo::NestedLoop {
        return Err(EngineError::InvalidPlan(format!(
            "{algo} requires at least one equi-join condition (cross products \
             must use NestedLoopJoin)"
        )));
    }
    Ok(conds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::reference;
    use crate::exec::relation::MAX_ROW_IDS;
    use crate::query::expr::{CmpOp, ColRef, Predicate, TableRef};
    use crate::table::TableBuilder;
    use crate::types::Value;
    use lqo_obs::ObsContext;
    use lqo_prof::ProfContext;

    /// Two tables: `a(id)` with ids 0..10, `b(id, a_id)` where each a-row
    /// has 2 matching b-rows, plus one dangling b-row.
    fn fixture() -> (Catalog, SpjQuery) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..10).collect())
                .int("v", (0..10).map(|i| i * 10).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let mut a_ids: Vec<i64> = (0..10).flat_map(|i| [i, i]).collect();
        a_ids.push(999); // dangling FK
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..21).collect())
                .int("a_id", a_ids)
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
            vec![JoinCond::new(
                ColRef::new("a", "id"),
                ColRef::new("b", "a_id"),
            )],
            vec![],
        );
        (c, q)
    }

    fn join_plan(algo: JoinAlgo) -> PhysNode {
        PhysNode::join(algo, PhysNode::scan(0), PhysNode::scan(1))
    }

    #[test]
    fn all_join_algorithms_agree() {
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        for algo in JoinAlgo::ALL {
            let r = ex.execute(&q, &join_plan(algo)).unwrap();
            assert_eq!(r.count, 20, "algo {algo}");
        }
    }

    #[test]
    fn join_sides_are_symmetric() {
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        let flipped = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(1), PhysNode::scan(0));
        assert_eq!(ex.execute(&q, &flipped).unwrap().count, 20);
    }

    #[test]
    fn predicates_filter_scans() {
        let (c, mut q) = fixture();
        q.predicates.push(Predicate::new(
            ColRef::new("a", "v"),
            CmpOp::Lt,
            Value::Int(30),
        ));
        let ex = Executor::with_defaults(&c);
        // a rows with v < 30: ids 0,1,2 -> 6 join results.
        let r = ex.execute(&q, &join_plan(JoinAlgo::Hash)).unwrap();
        assert_eq!(r.count, 6);
    }

    #[test]
    fn intermediates_recorded_bottom_up() {
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        let r = ex.execute(&q, &join_plan(JoinAlgo::Hash)).unwrap();
        assert_eq!(r.intermediates.len(), 3);
        assert_eq!(r.intermediates[0], (TableSet::singleton(0), 10));
        assert_eq!(r.intermediates[1], (TableSet::singleton(1), 21));
        assert_eq!(r.intermediates[2], (TableSet::full(2), 20));
    }

    #[test]
    fn work_limit_aborts() {
        let (c, q) = fixture();
        let ex = Executor::new(
            &c,
            ExecConfig {
                max_work: Some(5.0),
                ..Default::default()
            },
        );
        let err = ex.execute(&q, &join_plan(JoinAlgo::Hash)).unwrap_err();
        assert!(matches!(err, EngineError::WorkLimitExceeded { .. }));
    }

    #[test]
    fn invalid_plan_rejected() {
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        // Missing table 1.
        assert!(ex.execute(&q, &PhysNode::scan(0)).is_err());
        // Duplicate table 0.
        let dup = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(0));
        assert!(ex.execute(&q, &dup).is_err());
    }

    #[test]
    fn join_step_rejects_overlapping_inputs() {
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        let mut meter = WorkMeter::new(None);
        let scan = |meter: &mut WorkMeter| ex.exec_scan_step(&q, 0, meter).unwrap();
        let (l, r) = (scan(&mut meter), scan(&mut meter));
        for algo in JoinAlgo::ALL {
            let err = ex
                .exec_join_step(&q, algo, l.clone(), r.clone(), &mut meter)
                .unwrap_err();
            assert!(matches!(err, EngineError::InvalidPlan(_)), "{algo}: {err}");
        }
    }

    #[test]
    fn cross_product_requires_nested_loop() {
        let (c, mut q) = fixture();
        q.joins.clear();
        let ex = Executor::with_defaults(&c);
        assert!(ex.execute(&q, &join_plan(JoinAlgo::Hash)).is_err());
        let r = ex.execute(&q, &join_plan(JoinAlgo::NestedLoop)).unwrap();
        assert_eq!(r.count, 10 * 21);
    }

    #[test]
    fn nl_joins_cost_more_than_hash() {
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        let hash = ex.execute(&q, &join_plan(JoinAlgo::Hash)).unwrap();
        let nl = ex.execute(&q, &join_plan(JoinAlgo::NestedLoop)).unwrap();
        assert!(nl.work > hash.work);
    }

    #[test]
    fn multi_condition_join() {
        // Join on two columns simultaneously.
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("x")
                .int("k1", vec![1, 1, 2])
                .int("k2", vec![1, 2, 1])
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("y")
                .int("k1", vec![1, 2])
                .int("k2", vec![2, 1])
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![TableRef::bare("x"), TableRef::bare("y")],
            vec![
                JoinCond::new(ColRef::new("x", "k1"), ColRef::new("y", "k1")),
                JoinCond::new(ColRef::new("x", "k2"), ColRef::new("y", "k2")),
            ],
            vec![],
        );
        let ex = Executor::with_defaults(&c);
        for algo in JoinAlgo::ALL {
            let r = ex.execute(&q, &join_plan(algo)).unwrap();
            assert_eq!(r.count, 2, "algo {algo}");
        }
    }

    #[test]
    fn three_way_join_bushy_and_left_deep_agree() {
        let (mut c, _) = fixture();
        c.add_table(
            TableBuilder::new("d")
                .int("id", vec![0, 1])
                .int("a_id", vec![0, 0])
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("d", "d"),
            ],
            vec![
                JoinCond::new(ColRef::new("a", "id"), ColRef::new("b", "a_id")),
                JoinCond::new(ColRef::new("a", "id"), ColRef::new("d", "a_id")),
            ],
            vec![],
        );
        let ex = Executor::with_defaults(&c);
        let left_deep = PhysNode::join(
            JoinAlgo::Hash,
            PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1)),
            PhysNode::scan(2),
        );
        let other = PhysNode::join(
            JoinAlgo::Hash,
            PhysNode::join(JoinAlgo::Merge, PhysNode::scan(0), PhysNode::scan(2)),
            PhysNode::scan(1),
        );
        let a = ex.execute(&q, &left_deep).unwrap();
        let b = ex.execute(&q, &other).unwrap();
        // a.id = 0 matches 2 b-rows and 2 d-rows -> 4; other a ids contribute
        // 2 b-rows * 0 d-rows.
        assert_eq!(a.count, 4);
        assert_eq!(a.count, b.count);
    }

    #[test]
    fn text_predicate_on_scan() {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t")
                .int("id", vec![0, 1, 2])
                .text("s", vec!["x".into(), "y".into(), "x".into()])
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![TableRef::bare("t")],
            vec![],
            vec![Predicate::new(
                ColRef::new("t", "s"),
                CmpOp::Eq,
                Value::Text("x".into()),
            )],
        );
        let ex = Executor::with_defaults(&c);
        assert_eq!(ex.execute(&q, &PhysNode::scan(0)).unwrap().count, 2);

        // Unknown literal matches nothing (Eq) / everything (Neq).
        let mut q2 = q.clone();
        q2.predicates[0].value = Value::Text("zzz".into());
        assert_eq!(ex.execute(&q2, &PhysNode::scan(0)).unwrap().count, 0);
        q2.predicates[0].op = CmpOp::Neq;
        assert_eq!(ex.execute(&q2, &PhysNode::scan(0)).unwrap().count, 3);
    }

    #[test]
    fn parallel_mode_matches_reference_byte_for_byte() {
        let (c, q) = fixture();
        let serial = Executor::with_defaults(&c);
        for algo in JoinAlgo::ALL {
            let plan = join_plan(algo);
            let (sr, srel) = reference::execute(&serial, &q, &plan).unwrap();
            for threads in [2, 4] {
                let par = Executor::new(
                    &c,
                    ExecConfig {
                        mode: ExecMode::Parallel { threads },
                        parallel: ParallelConfig {
                            morsel_rows: 4,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                );
                let (pr, prel) = par.execute_collect(&q, &plan).unwrap();
                assert_eq!(sr.count, pr.count, "{algo} x{threads}");
                assert_eq!(sr.work.to_bits(), pr.work.to_bits(), "{algo} x{threads}");
                assert_eq!(sr.intermediates, pr.intermediates, "{algo} x{threads}");
                assert_eq!(srel.slots(), prel.slots(), "{algo} x{threads}");
                assert_eq!(srel.rows(), prel.rows(), "{algo} x{threads}");
            }
        }
    }

    #[test]
    fn profiler_attributes_operators_morsels_and_workers() {
        let (c, q) = fixture();
        let plan = join_plan(JoinAlgo::Hash);
        // Serial: operator phases mirror the plan tree, units match the
        // per-operator work the meter accounted.
        let stel = Telemetry::from(ProfContext::enabled());
        let serial = Executor::with_defaults(&c).with_telemetry(stel.clone());
        let scope = stel.begin_query("prof-serial");
        let (sr, _) = serial.execute_collect(&q, &plan).unwrap();
        let sq = scope.finish(|_| {}).1.unwrap();
        let sf = &sq.profile.frames;
        assert!(sf.contains_key("execute"));
        assert_eq!(sf["execute;HashJoin"].calls, 1);
        assert_eq!(sf["execute;HashJoin;Scan"].calls, 2);
        let charged: f64 = sf.values().map(|s| s.units).sum();
        assert!(
            (charged - sr.work).abs() < 1e-9,
            "operator charges {charged} != meter {}",
            sr.work
        );

        // Parallel: same operator tree, plus morsel and per-worker
        // busy/idle attribution under the dispatching operator.
        let ptel = Telemetry::from(ProfContext::enabled());
        let par = Executor::new(
            &c,
            ExecConfig {
                mode: ExecMode::Parallel { threads: 2 },
                parallel: ParallelConfig {
                    morsel_rows: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .with_telemetry(ptel.clone());
        let scope = ptel.begin_query("prof-parallel");
        let (pr, _) = par.execute_collect(&q, &plan).unwrap();
        let pq = scope.finish(|_| {}).1.unwrap();
        let pf = &pq.profile.frames;
        assert!(pf.contains_key("execute;HashJoin;Scan"));
        assert!(pf.keys().any(|k| k.ends_with(";morsel")), "{pf:?}");
        assert!(pf.keys().any(|k| k.ends_with("worker0_busy")), "{pf:?}");
        assert!(pf.keys().any(|k| k.ends_with("worker0_idle")), "{pf:?}");
        // Dual accounting is mode-independent even though wall differs.
        let pcharged: f64 = pf.values().map(|s| s.units).sum();
        assert_eq!(pr.work.to_bits(), sr.work.to_bits());
        assert!((pcharged - charged).abs() < 1e-9);
    }

    #[test]
    fn sampled_parallel_profile_counts_match_the_exact_one() {
        // Stride 4 over 4 × 3 runs of one query records 3 of them in
        // full, each weighted 4, so every frame's call count — the
        // pool's `morsel` and worker frames as much as the operator
        // that dispatched them — equals the exact profile's.
        let (c, q) = fixture();
        let plan = join_plan(JoinAlgo::Hash);
        let calls = |prof: ProfContext| {
            let config = ExecConfig {
                mode: ExecMode::Parallel { threads: 2 },
                parallel: ParallelConfig {
                    morsel_rows: 4,
                    ..Default::default()
                },
                ..Default::default()
            };
            let ex = Executor::new(&c, config).with_telemetry(prof.clone());
            for _ in 0..4 * 3 {
                ex.execute(&q, &plan).unwrap();
            }
            let frames = prof.total().frames;
            frames
                .into_iter()
                .map(|(path, s)| (path, s.calls))
                .collect::<Vec<_>>()
        };
        let exact = calls(ProfContext::enabled());
        assert!(exact.iter().any(|(path, _)| path.ends_with(";morsel")));
        assert_eq!(calls(ProfContext::sampling(4)), exact);
    }

    #[test]
    fn parallel_fault_at_any_morsel_reruns_only_that_operator() {
        // `a` (10 rows) and `b` (21 rows) in 4-row morsels: the scans
        // dispatch morsels 0..=2 and 3..=8, the hash join's build 9..=11
        // and its probe 12..=17. A fault anywhere re-runs the faulting
        // operator in-thread and the rest of the query stays there; the
        // account, the intermediates and the operator events are the
        // serial ones, each operator recorded once, and the degrade is
        // visible in metrics and as a guard event.
        let (c, q) = fixture();
        let plan = join_plan(JoinAlgo::Hash);
        let (sr, srel) = Executor::with_defaults(&c)
            .execute_collect(&q, &plan)
            .unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for seq in 0..20u64 {
            let obs = ObsContext::enabled();
            let ex = Executor::new(
                &c,
                ExecConfig {
                    mode: ExecMode::Parallel { threads: 2 },
                    parallel: ParallelConfig {
                        morsel_rows: 4,
                        panic_on_morsel: Some(seq),
                    },
                    ..Default::default()
                },
            )
            .with_telemetry(obs.clone());
            obs.begin_query("fault-sweep");
            let (pr, prel) = ex.execute_collect(&q, &plan).unwrap();
            let trace = obs.end_query().unwrap();
            assert_eq!(pr.work.to_bits(), sr.work.to_bits(), "seq {seq}");
            assert_eq!(pr.intermediates, sr.intermediates, "seq {seq}");
            assert_eq!(prel.rows(), srel.rows(), "seq {seq}");
            assert_eq!(trace.exec.operators.len(), 3, "seq {seq}");
            let degraded = obs
                .metrics()
                .unwrap()
                .snapshot()
                .counter("lqo.exec.parallel.degraded");
            assert_eq!(degraded, (seq < 18).then_some(1), "seq {seq}");
            let logged = trace
                .guard
                .iter()
                .any(|g| g.component == "exec:parallel" && g.action == "fallback:serial");
            assert_eq!(logged, seq < 18, "seq {seq}");
        }
        std::panic::set_hook(prev);
    }

    /// `a` row 3 (id 3) weighted `wa` on the left, the two `b` rows with
    /// `a_id` 3 weighted `wb` each on the right.
    fn weighted_pair(c: &Catalog, q: &SpjQuery, wa: u64, wb: u64) -> (Relation, Relation) {
        let ex = Executor::with_defaults(c);
        let mut meter = WorkMeter::new(None);
        let b = ex.exec_scan_step(q, 1, &mut meter).unwrap();
        let b_rows: Vec<u32> = (0..b.len())
            .map(|i| b.tuple(i)[0])
            .filter(|&r| r / 2 == 3 && r < 20)
            .collect();
        assert_eq!(b_rows.len(), 2);
        let left = Relation::from_scan(0, vec![3]).with_weights(vec![wa]);
        let right = Relation::from_scan(1, b_rows).with_weights(vec![wb, wb]);
        (left, right)
    }

    #[test]
    fn row_id_check_reads_stored_tuples_not_logical_ones() {
        // One stored tuple standing for more than u32::MAX logical ones is
        // within the u32 row-id domain of every join body: it joins, and
        // its logical count is charged and reported. (The same input
        // stored unit would have to be rejected.)
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        let huge = MAX_ROW_IDS as u64 + 1;
        for algo in JoinAlgo::ALL {
            for keep in [TableSet::EMPTY, TableSet::singleton(0), TableSet::full(2)] {
                let (l, r) = weighted_pair(&c, &q, huge, 1);
                assert!(l.len() > MAX_ROW_IDS && l.physical_len() == 1);
                let mut meter = WorkMeter::new(None);
                let out = ex
                    .exec_join_step_keeping(&q, algo, l, r, keep, &mut meter)
                    .unwrap();
                assert_eq!(out.len() as u64, 2 * huge, "{algo} keep {keep}");
                assert_eq!(out.physical_len(), [0, 1, 2][keep.len()], "{algo}");
                let p = ex.params();
                assert!(meter.work() >= p.output_work(2.0 * huge as f64, 2));
            }
        }
        assert!(relation::check_row_ids(MAX_ROW_IDS + 1, "join left input").is_err());
    }

    #[test]
    fn weight_products_and_sums_beyond_usize_fail_typed() {
        let (c, q) = fixture();
        let ex = Executor::with_defaults(&c);
        let join = |algo, (l, r): (Relation, Relation), keep| {
            ex.exec_join_step_keeping(&q, algo, l, r, keep, &mut WorkMeter::new(None))
        };
        for algo in JoinAlgo::ALL {
            for keep in [
                TableSet::EMPTY,
                TableSet::singleton(0),
                TableSet::singleton(1),
                TableSet::full(2),
            ] {
                // 2 × 2^20 × 2^19 = 2^40: the exact count. (Counts near
                // 2^64 fit too, but their output charges take 2^48
                // cadence blocks.)
                let ok = join(algo, weighted_pair(&c, &q, 1 << 20, 1 << 19), keep).unwrap();
                assert_eq!(ok.len(), 1 << 40, "{algo} keep {keep}");
                // 2^40 × 2^40 overflows in the product.
                let err = join(algo, weighted_pair(&c, &q, 1 << 40, 1 << 40), keep).unwrap_err();
                assert_eq!(
                    err,
                    EngineError::CountOverflow { op: algo.label() },
                    "{keep}"
                );
                // 2 × 2^32 × 2^31 = 2^64: each product fits, their sum
                // (one lump at the default batch size) does not.
                let err = join(algo, weighted_pair(&c, &q, 1 << 32, 1 << 31), keep).unwrap_err();
                assert_eq!(
                    err,
                    EngineError::CountOverflow { op: algo.label() },
                    "{keep}"
                );
            }
        }
        // A cross product's count is the product of its input counts.
        let mut cross = q.clone();
        cross.joins.clear();
        let (l, r) = weighted_pair(&c, &q, 1 << 40, 1 << 40);
        let err = ex
            .exec_join_step_keeping(
                &cross,
                JoinAlgo::NestedLoop,
                l,
                r,
                TableSet::EMPTY,
                &mut WorkMeter::new(None),
            )
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::CountOverflow {
                op: "NestedLoopJoin"
            }
        );
        assert!(err.to_string().contains("NestedLoopJoin"));
    }

    #[test]
    fn parallel_respects_work_budget() {
        let (c, q) = fixture();
        let ex = Executor::new(
            &c,
            ExecConfig {
                max_work: Some(5.0),
                mode: ExecMode::Parallel { threads: 2 },
                ..Default::default()
            },
        );
        let err = ex.execute(&q, &join_plan(JoinAlgo::Hash)).unwrap_err();
        assert!(matches!(err, EngineError::WorkLimitExceeded { .. }));
    }

    /// Every execution mode, with morsels small enough to split the
    /// fixtures across workers.
    fn all_modes() -> Vec<ExecConfig> {
        [
            ExecMode::Serial,
            ExecMode::Batched { batch_size: 1 },
            ExecMode::Batched { batch_size: 7 },
            ExecMode::Parallel { threads: 2 },
        ]
        .into_iter()
        .map(|mode| ExecConfig {
            mode,
            parallel: ParallelConfig {
                morsel_rows: 3,
                ..Default::default()
            },
            ..Default::default()
        })
        .collect()
    }

    /// `execute` (pruned slots, counting root) must report exactly what
    /// `execute_collect` (every slot materialized) reports, in every
    /// mode: count, work bits, intermediates. Returns the count.
    fn assert_counting_matches_collect(c: &Catalog, q: &SpjQuery, plan: &PhysNode) -> u64 {
        let (reference, _) = reference::execute(&Executor::with_defaults(c), q, plan).unwrap();
        for config in all_modes() {
            let mode = config.mode;
            let ex = Executor::new(c, config);
            let (collected, _) = ex.execute_collect(q, plan).unwrap();
            let counted = ex.execute(q, plan).unwrap();
            for r in [&collected, &counted] {
                assert_eq!(r.count, reference.count, "{mode}");
                assert_eq!(r.work.to_bits(), reference.work.to_bits(), "{mode}");
                assert_eq!(r.intermediates, reference.intermediates, "{mode}");
            }
        }
        reference.count
    }

    /// The relation `execute` ends with, for inspecting what it stored.
    fn counted_root(c: &Catalog, q: &SpjQuery, plan: &PhysNode) -> Relation {
        let ex = Executor::with_defaults(c);
        let mut run = QueryRun {
            meter: WorkMeter::new(None),
            intermediates: Vec::new(),
            events: Vec::new(),
        };
        ex.exec_node(q, plan, TableSet::EMPTY, None, &mut run)
            .unwrap()
    }

    /// A chain `w - x - y - z` of many-to-one links with fan-out 2
    /// (32 answers), and a pair `u - v` joined to nothing else.
    fn chain_fixture() -> Catalog {
        let mut c = Catalog::new();
        let child = |name: &str, n: i64, fk: &str| {
            TableBuilder::new(name)
                .int("id", (0..n).collect())
                .int(fk, (0..n).map(|i| i / 2).collect())
                .build()
                .unwrap()
        };
        c.add_table(
            TableBuilder::new("w")
                .int("id", (0..4).collect())
                .build()
                .unwrap(),
        );
        c.add_table(child("x", 8, "w_id"));
        c.add_table(child("y", 16, "x_id"));
        c.add_table(child("z", 32, "y_id"));
        c.add_table(
            TableBuilder::new("u")
                .int("id", (0..3).collect())
                .build()
                .unwrap(),
        );
        c.add_table(child("v", 6, "u_id"));
        c
    }

    fn cond(l: (&str, &str), r: (&str, &str)) -> JoinCond {
        JoinCond::new(ColRef::new(l.0, l.1), ColRef::new(r.0, r.1))
    }

    #[test]
    fn nl_and_merge_above_pruned_children_charge_logical_width() {
        let c = chain_fixture();
        let q = SpjQuery::new(
            ["w", "x", "y", "z"].map(TableRef::bare).to_vec(),
            vec![
                cond(("w", "id"), ("x", "w_id")),
                cond(("x", "id"), ("y", "x_id")),
                cond(("y", "id"), ("z", "y_id")),
            ],
            vec![],
        );
        let (w, x, y, z) = (0, 1, 2, 3);
        let join = |a, l, r| PhysNode::join(a, l, r);
        let wx = || join(JoinAlgo::Hash, PhysNode::scan(w), PhysNode::scan(x));
        // Under a counting root, `w ⋈ x` stores only x (w is read by
        // nothing later), yet every join above it covers w and must charge
        // its output at the logical width.
        let plans = [
            // Bushy: a merge / NL root over two pruned children.
            join(
                JoinAlgo::Merge,
                wx(),
                join(JoinAlgo::NestedLoop, PhysNode::scan(y), PhysNode::scan(z)),
            ),
            join(
                JoinAlgo::NestedLoop,
                wx(),
                join(JoinAlgo::Hash, PhysNode::scan(y), PhysNode::scan(z)),
            ),
            // Left-deep: a non-root NL / merge over a pruned child.
            join(
                JoinAlgo::Hash,
                join(JoinAlgo::NestedLoop, wx(), PhysNode::scan(y)),
                PhysNode::scan(z),
            ),
            join(
                JoinAlgo::Hash,
                join(JoinAlgo::Merge, wx(), PhysNode::scan(y)),
                PhysNode::scan(z),
            ),
        ];
        for plan in &plans {
            assert_eq!(
                assert_counting_matches_collect(&c, &q, plan),
                32,
                "{plan:?}"
            );
            let root = counted_root(&c, &q, plan);
            assert_eq!((root.len(), root.width()), (32, 0), "the root only counts");
            assert_eq!(root.tables(), q.all_tables());
        }
    }

    #[test]
    fn cross_products_of_zero_slot_children_count_correctly() {
        let c = chain_fixture();
        // Two components with no condition between them: `w ⋈ x` (8
        // tuples) and `u ⋈ v` (6). A counting root keeps nothing of
        // either side.
        let q = SpjQuery::new(
            ["w", "x", "u", "v"].map(TableRef::bare).to_vec(),
            vec![
                cond(("w", "id"), ("x", "w_id")),
                cond(("u", "id"), ("v", "u_id")),
            ],
            vec![],
        );
        let wx = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let uv = PhysNode::join(JoinAlgo::Merge, PhysNode::scan(2), PhysNode::scan(3));
        let cross = PhysNode::join(JoinAlgo::NestedLoop, wx, uv);
        assert_eq!(assert_counting_matches_collect(&c, &q, &cross), 48);
        assert_eq!(counted_root(&c, &q, &cross).width(), 0);
        // A cross product of two bare scans: both scans keep no slot.
        let scans = SpjQuery::new(["w", "u"].map(TableRef::bare).to_vec(), vec![], vec![]);
        let plan = PhysNode::join(JoinAlgo::NestedLoop, PhysNode::scan(0), PhysNode::scan(1));
        assert_eq!(assert_counting_matches_collect(&c, &scans, &plan), 12);
        // A cross product below a join keeps the slot the join reads.
        let plan = PhysNode::join(
            JoinAlgo::Hash,
            PhysNode::join(
                JoinAlgo::Hash,
                PhysNode::join(JoinAlgo::NestedLoop, PhysNode::scan(0), PhysNode::scan(2)),
                PhysNode::scan(1),
            ),
            PhysNode::scan(3),
        );
        assert_eq!(assert_counting_matches_collect(&c, &q, &plan), 48);
    }
}
