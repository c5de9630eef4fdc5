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
//! [`crate::exec::relation`]), and an operator nothing reads — the root
//! join, a child of a cross product — counts its matches instead of
//! materializing them. [`Executor::execute_collect`] materializes every
//! slot of every operator and returns the final relation. Both issue the
//! same work charges in the same order (charges read the logical width
//! and the counted tuples, never the stored slots), so their
//! [`ExecResult`]s — count, work bits, intermediates, errors — are equal;
//! the differential harness asserts it in every cell it sweeps. The step
//! seam ([`Executor::exec_scan_step`] / [`Executor::exec_join_step`])
//! always materializes full width.
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
//!
//! The parallel executor ([`crate::exec::parallel`]) preserves this order
//! by assigning contiguous input ranges (morsels) to workers and
//! concatenating per-morsel outputs in morsel index order; the
//! differential harness in `crates/testkit` asserts the equivalence on
//! every workload. Work-unit accounting follows the same contract: the
//! sequence of work charges is identical across modes, so
//! [`ExecResult::work`] is bit-identical too.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lqo_flight::{FlightContext, FlightEvent, Producer};
use lqo_obs::trace::{GuardEvent, OperatorEvent};
use lqo_obs::ObsContext;
use lqo_prof::ProfContext;
use serde::Serialize;

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::exec::batch;
use crate::exec::compiled::{compile_pred, Compiled, KeySide};
use crate::exec::parallel::{self, ExecMode, ParallelConfig};
use crate::exec::relation::{self, Projection, Relation};
use crate::exec::workunits::{ChargeCadence, CostParams};
use crate::plan::physical::{JoinAlgo, PhysNode};
use crate::query::expr::JoinCond;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

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
    /// Execution mode: serial (default) or morsel-driven parallel.
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
/// Public so step-wise drivers (the adaptive re-optimization executor)
/// can thread the same meter through a sequence of
/// [`Executor::exec_scan_step`] / [`Executor::exec_join_step`] calls and
/// reproduce the exact serial charge sequence.
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

pub(crate) fn join_label(algo: JoinAlgo) -> &'static str {
    match algo {
        JoinAlgo::Hash => "HashJoin",
        JoinAlgo::NestedLoop => "NestedLoopJoin",
        JoinAlgo::Merge => "MergeJoin",
    }
}

/// The plan executor. Stateless across queries; cheap to construct.
pub struct Executor<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) config: ExecConfig,
    pub(crate) obs: ObsContext,
    pub(crate) prof: ProfContext,
    pub(crate) flight: FlightContext,
}

impl<'a> Executor<'a> {
    /// Create an executor over a catalog.
    pub fn new(catalog: &'a Catalog, config: ExecConfig) -> Executor<'a> {
        Executor {
            catalog,
            config,
            obs: ObsContext::disabled(),
            prof: ProfContext::disabled(),
            flight: FlightContext::disabled(),
        }
    }

    /// Executor with default configuration.
    pub fn with_defaults(catalog: &'a Catalog) -> Executor<'a> {
        Executor::new(catalog, ExecConfig::default())
    }

    /// Attach an observability context; per-operator events (true rows,
    /// work units) and execution metrics are recorded on the context's
    /// current query trace.
    pub fn with_obs(mut self, obs: ObsContext) -> Executor<'a> {
        self.obs = obs;
        self
    }

    /// Attach a profiling context: execution runs under an `execute`
    /// phase with one nested phase per operator (mirroring the plan
    /// tree) carrying exact wall clock and work-unit charges, and the
    /// parallel path attributes per-morsel and per-worker busy/idle
    /// time under the operator that dispatched them.
    pub fn with_prof(mut self, prof: ProfContext) -> Executor<'a> {
        self.prof = prof;
        self
    }

    /// Attach a flight recorder; execution span boundaries, work-budget
    /// trips, and contained worker-fault degrades are published onto the
    /// black-box ring.
    pub fn with_flight(mut self, flight: FlightContext) -> Executor<'a> {
        self.flight = flight;
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
        // The plan must cover every table exactly once.
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
        let _span = self.obs.span("exec.query");
        let _prof_exec = self.prof.phase("execute");
        if self.flight.is_enabled() {
            self.flight.publish(
                Producer::Exec,
                FlightEvent::Span {
                    name: "exec.query".to_string(),
                    begin: true,
                },
            );
        }
        // One detail decision per query: per-operator phases are only
        // opened on sampled queries (weighted by the stride), keeping
        // sampling-mode overhead flat. Work charges stay exact either
        // way — on unsampled queries they attribute to `execute`.
        let detail = self.prof.sample_detail();
        let start = Instant::now();
        let mut meter = WorkMeter::new(self.config.max_work);
        let mut intermediates = Vec::new();
        let mut events = Vec::new();
        // Single-threaded modes (Serial, Batched, and either parallel
        // mode clamped to one worker) run in-thread through `exec_node`,
        // which dispatches per-operator between the tuple-at-a-time and
        // batched kernels; multi-worker modes go through the morsel pool.
        let attempt = if self.config.mode.threads() > 1 {
            match parallel::exec_plan(
                self,
                query,
                plan,
                keep,
                detail,
                &mut meter,
                &mut intermediates,
                &mut events,
            ) {
                Err(EngineError::WorkerFault { op }) if self.config.parallel.fallback_serial => {
                    // A worker died mid-morsel: degrade the query to the
                    // in-thread path rather than fail it. The retry
                    // restarts accounting from zero.
                    self.record_degrade(&op);
                    meter = WorkMeter::new(self.config.max_work);
                    intermediates.clear();
                    events.clear();
                    self.exec_node(
                        query,
                        plan,
                        keep,
                        detail,
                        &mut meter,
                        &mut intermediates,
                        &mut events,
                    )
                }
                other => other,
            }
        } else {
            self.exec_node(
                query,
                plan,
                keep,
                detail,
                &mut meter,
                &mut intermediates,
                &mut events,
            )
        };
        if self.flight.is_enabled() {
            if let Err(EngineError::WorkLimitExceeded { limit }) = &attempt {
                self.flight.publish(
                    Producer::Exec,
                    FlightEvent::BudgetTrip {
                        component: "exec".to_string(),
                        budget: *limit,
                    },
                );
            }
            self.flight.publish(
                Producer::Exec,
                FlightEvent::Span {
                    name: "exec.query".to_string(),
                    begin: false,
                },
            );
        }
        match attempt {
            Ok(rel) => {
                if self.obs.is_enabled() {
                    self.obs.count("lqo.exec.queries", 1);
                    self.obs.observe("lqo.exec.work_units", meter.work);
                    self.obs.with_query(|t| t.exec.operators.extend(events));
                }
                let result = ExecResult {
                    count: rel.len() as u64,
                    work: meter.work,
                    wall: start.elapsed(),
                    intermediates,
                };
                Ok((result, rel))
            }
            Err(e) => {
                if self.obs.is_enabled() {
                    if matches!(e, EngineError::WorkLimitExceeded { .. }) {
                        self.obs.count("lqo.exec.timeouts", 1);
                        self.obs.with_query(|t| {
                            t.exec.timeout = true;
                            t.exec.operators.extend(events);
                        });
                    }
                    self.obs.count("lqo.exec.errors", 1);
                }
                Err(e)
            }
        }
    }

    /// Execute a single scan operator as a standalone step, charging
    /// `meter` exactly as [`Executor::execute`] would (same charge
    /// sequence, same row-ordering contract). This is the materialization
    /// checkpoint seam used by adaptive re-optimization: a step-wise
    /// driver runs one operator at a time in the serial post-order and
    /// inspects each materialized intermediate before continuing. The
    /// monolithic path never calls it, so the seam costs nothing when
    /// re-optimization is disabled.
    pub fn exec_scan_step(
        &self,
        query: &SpjQuery,
        pos: usize,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        if self.config.mode.threads() > 1 {
            let before = meter.work;
            match parallel::exec_scan_step(self, query, pos, meter) {
                Err(EngineError::WorkerFault { op }) if self.config.parallel.fallback_serial => {
                    // A worker died mid-morsel: degrade this operator to
                    // the in-thread path. The retry restores the meter to
                    // the pre-operator snapshot, so the charge sequence
                    // stays byte-identical to serial.
                    self.record_degrade(&op);
                    meter.work = before;
                    self.scan_dispatch(query, pos, meter)
                }
                other => other,
            }
        } else {
            self.scan_dispatch(query, pos, meter)
        }
    }

    /// Execute a single join operator over two already-materialized
    /// inputs as a standalone step (see [`Executor::exec_scan_step`]).
    pub fn exec_join_step(
        &self,
        query: &SpjQuery,
        algo: JoinAlgo,
        left: Relation,
        right: Relation,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let keep = left.tables().union(right.tables());
        if self.config.mode.threads() > 1 {
            let before = meter.work;
            match parallel::exec_join_step(
                self,
                query,
                algo,
                left.clone(),
                right.clone(),
                keep,
                meter,
            ) {
                Err(EngineError::WorkerFault { op }) if self.config.parallel.fallback_serial => {
                    self.record_degrade(&op);
                    meter.work = before;
                    self.exec_join(query, algo, left, right, keep, meter)
                }
                other => other,
            }
        } else {
            self.exec_join(query, algo, left, right, keep, meter)
        }
    }

    /// Note a contained parallel worker fault and the serial retry.
    fn record_degrade(&self, op: &str) {
        if self.flight.is_enabled() {
            self.flight.publish(
                Producer::Exec,
                FlightEvent::WorkerFault {
                    op: op.to_string(),
                    action: "fallback:serial".to_string(),
                },
            );
        }
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.count("lqo.exec.parallel.degraded", 1);
        let op = op.to_string();
        self.obs.with_query(|t| {
            t.push_guard(GuardEvent {
                component: "exec:parallel".to_string(),
                fault: format!("worker-panic:{op}"),
                action: "fallback:serial".to_string(),
            });
        });
    }

    /// Execute the subtree `node`, keeping the slots of the tables in
    /// `keep` (a subset of `node`'s tables) in its output.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_node(
        &self,
        query: &SpjQuery,
        node: &PhysNode,
        keep: TableSet,
        detail: bool,
        meter: &mut WorkMeter,
        intermediates: &mut Vec<(TableSet, u64)>,
        events: &mut Vec<OperatorEvent>,
    ) -> Result<Relation> {
        // `meter.work` snapshots bracket only this node's own operator
        // (children account for themselves first), so per-operator work
        // attribution is exact even for bushy plans. The profiler phase
        // opens before recursing, so the phase tree mirrors the plan
        // tree (`execute;HashJoin;Scan`).
        let _prof_op = detail.then(|| {
            self.prof.phase_sampled(match node {
                PhysNode::Scan { .. } => "Scan",
                PhysNode::Join { algo, .. } => join_label(*algo),
            })
        });
        let (rel, op, own_work) = match node {
            PhysNode::Scan { pos } => {
                let before = meter.work;
                let rel = self.scan_dispatch(query, *pos, meter)?;
                let rel = if keep.contains(*pos) {
                    rel
                } else {
                    rel.into_count()
                };
                (rel, "Scan", meter.work - before)
            }
            PhysNode::Join { algo, left, right } => {
                let lkeep = relation::keep_for_child(query, left.tables(), keep);
                let rkeep = relation::keep_for_child(query, right.tables(), keep);
                let l = self.exec_node(query, left, lkeep, detail, meter, intermediates, events)?;
                let r =
                    self.exec_node(query, right, rkeep, detail, meter, intermediates, events)?;
                let before = meter.work;
                let rel = self.exec_join(query, *algo, l, r, keep, meter)?;
                (rel, join_label(*algo), meter.work - before)
            }
        };
        intermediates.push((rel.tables(), rel.len() as u64));
        self.prof.charge(own_work);
        if self.obs.is_enabled() {
            events.push(OperatorEvent {
                op: op.to_string(),
                tables: rel.tables().0,
                true_rows: rel.len() as u64,
                est_rows: None,
                work: own_work,
            });
        }
        Ok(rel)
    }

    /// Route a scan to the tuple-at-a-time or batched kernel, per the
    /// configured mode. `ExecMode::BatchedParallel` reaches this on its
    /// single-threaded paths (clamped thread counts, worker-fault
    /// retries, morsel bodies recurse elsewhere) and uses the batched
    /// kernel there too — output is byte-identical either way.
    fn scan_dispatch(
        &self,
        query: &SpjQuery,
        pos: usize,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        match self.config.mode.batch_size() {
            Some(b) => batch::scan(self, query, pos, b, meter),
            None => self.exec_scan(query, pos, meter),
        }
    }

    fn exec_scan(&self, query: &SpjQuery, pos: usize, meter: &mut WorkMeter) -> Result<Relation> {
        let table = self.catalog.table(&query.tables[pos].table)?;
        let preds = query.predicates_on(pos);
        let mut compiled = Vec::with_capacity(preds.len());
        for p in &preds {
            let col = table.column_by_name(&p.col.column)?;
            compiled.push(compile_pred(col, p));
        }
        let n = table.nrows();
        relation::check_row_ids(n, "scan")?;
        meter.add(self.config.params.scan_work(n as f64, compiled.len()))?;
        let mut out = Vec::new();
        'rows: for row in 0..n {
            for c in &compiled {
                if !c.matches(row) {
                    continue 'rows;
                }
            }
            out.push(row as u32);
        }
        Ok(Relation::from_scan(pos, out))
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

    /// Join two inputs, keeping the slots of the tables in `keep` in the
    /// output (the root of a counting execution keeps none).
    fn exec_join(
        &self,
        query: &SpjQuery,
        algo: JoinAlgo,
        left: Relation,
        right: Relation,
        keep: TableSet,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        relation::check_row_ids(left.len(), "join left input")?;
        relation::check_row_ids(right.len(), "join right input")?;
        let conds = query.joins_between(left.tables(), right.tables());
        let proj = Projection::new(&left, &right, keep);
        if conds.is_empty() {
            if algo != JoinAlgo::NestedLoop {
                return Err(EngineError::InvalidPlan(format!(
                    "{algo} requires at least one equi-join condition (cross products \
                     must use NestedLoopJoin)"
                )));
            }
            // Cross products are a single upfront charge plus a straight
            // emit loop; there is no batched variant to dispatch to.
            return self.cross_join(left, right, proj, meter);
        }
        match (algo, self.config.mode.batch_size()) {
            (JoinAlgo::Hash, Some(b)) => {
                batch::join::hash_join(self, query, &conds, left, right, proj, b, meter)
            }
            (JoinAlgo::Hash, None) => self.hash_join(query, &conds, left, right, proj, meter),
            (JoinAlgo::NestedLoop, Some(_)) => {
                batch::join::nl_join(self, query, &conds, left, right, proj, meter)
            }
            (JoinAlgo::NestedLoop, None) => self.nl_join(query, &conds, left, right, proj, meter),
            (JoinAlgo::Merge, Some(_)) => {
                batch::join::merge_join(self, query, &conds, left, right, proj, meter)
            }
            (JoinAlgo::Merge, None) => self.merge_join(query, &conds, left, right, proj, meter),
        }
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

    fn hash_join(
        &self,
        query: &SpjQuery,
        conds: &[&JoinCond],
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.config.params;
        let spill = self.hash_spill(left.len());
        meter
            .add((left.len() as f64 * p.hash_build + right.len() as f64 * p.hash_probe) * spill)?;

        let lkeys = self.key_side(query, &left, conds)?;
        let rkeys = self.key_side(query, &right, conds)?;
        if conds.len() == 1 {
            self.hash_probe(
                &left,
                &right,
                proj,
                meter,
                |t| lkeys.single_key(t),
                |t| rkeys.single_key(t),
            )
        } else {
            self.hash_probe(
                &left,
                &right,
                proj,
                meter,
                |t| lkeys.multi_key(t),
                |t| rkeys.multi_key(t),
            )
        }
    }

    /// Build a `HashMap` over the left input's keys and probe it with the
    /// right's, emitting probe-major or, when `proj` keeps nothing,
    /// counting each probe's bucket.
    fn hash_probe<K: Eq + std::hash::Hash>(
        &self,
        left: &Relation,
        right: &Relation,
        proj: Projection,
        meter: &mut WorkMeter,
        lkey: impl Fn(&[u32]) -> K,
        rkey: impl Fn(&[u32]) -> K,
    ) -> Result<Relation> {
        let p = &self.config.params;
        let width = proj.width();
        let mut table: HashMap<K, Vec<u32>> = HashMap::new();
        for i in 0..left.len() {
            table.entry(lkey(left.tuple(i))).or_default().push(i as u32);
        }
        let mut rows: Vec<u32> = Vec::new();
        let mut cadence = ChargeCadence::new();
        for j in 0..right.len() {
            let rt = right.tuple(j);
            if let Some(matches) = table.get(&rkey(rt)) {
                if !proj.counts_only() {
                    for &i in matches {
                        proj.emit(&mut rows, left.tuple(i as usize), rt);
                    }
                }
                cadence.bump(matches.len(), meter, p, width)?;
            }
        }
        let len = cadence.finish(meter, p, width)?;
        Ok(proj.finish(rows, len))
    }

    fn nl_join(
        &self,
        query: &SpjQuery,
        conds: &[&JoinCond],
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.config.params;
        let discount = self.nl_discount(right.len());
        // Charge pair work up front so hopeless plans abort immediately.
        meter.add(left.len() as f64 * right.len() as f64 * p.nl_pair * discount)?;

        let lkeys = self.key_side(query, &left, conds)?;
        let rkeys = self.key_side(query, &right, conds)?;
        let width = proj.width();
        let mut rows: Vec<u32> = Vec::new();
        let mut cadence = ChargeCadence::new();
        for i in 0..left.len() {
            let lt = left.tuple(i);
            let lk = lkeys.multi_key(lt);
            let mut matched = 0usize;
            for j in 0..right.len() {
                let rt = right.tuple(j);
                if lk == rkeys.multi_key(rt) {
                    if !proj.counts_only() {
                        proj.emit(&mut rows, lt, rt);
                    }
                    matched += 1;
                }
            }
            cadence.bump(matched, meter, p, width)?;
        }
        let len = cadence.finish(meter, p, width)?;
        Ok(proj.finish(rows, len))
    }

    fn cross_join(
        &self,
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.config.params;
        let out = left.len() as f64 * right.len() as f64;
        meter.add(out * p.nl_pair + p.output_work(out, proj.width()))?;
        let mut rows = Vec::new();
        if !proj.counts_only() {
            for i in 0..left.len() {
                for j in 0..right.len() {
                    proj.emit(&mut rows, left.tuple(i), right.tuple(j));
                }
            }
        }
        Ok(proj.finish(rows, left.len() * right.len()))
    }

    fn merge_join(
        &self,
        query: &SpjQuery,
        conds: &[&JoinCond],
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.config.params;
        meter.add(
            p.sort_work(left.len() as f64)
                + p.sort_work(right.len() as f64)
                + (left.len() + right.len()) as f64 * p.merge_tuple,
        )?;

        let lkeys = self.key_side(query, &left, conds)?;
        let rkeys = self.key_side(query, &right, conds)?;
        let mut lsorted: Vec<(Vec<i64>, u32)> = (0..left.len())
            .map(|i| (lkeys.multi_key(left.tuple(i)), i as u32))
            .collect();
        let mut rsorted: Vec<(Vec<i64>, u32)> = (0..right.len())
            .map(|j| (rkeys.multi_key(right.tuple(j)), j as u32))
            .collect();
        lsorted.sort_unstable();
        rsorted.sort_unstable();
        Self::merge_phase(p, &left, &right, &lsorted, &rsorted, proj, meter)
    }

    /// The merge phase of a merge join over pre-sorted key/index vectors.
    /// Shared with the parallel executor, whose only parallel piece is key
    /// extraction: the merge itself is inherently sequential and cheap.
    /// A matching key group of `a × b` tuples is emitted left-major, one
    /// left row (and one cadence bump) at a time, or — when `proj` keeps
    /// nothing — counted as one lump.
    pub(crate) fn merge_phase(
        p: &CostParams,
        left: &Relation,
        right: &Relation,
        lsorted: &[(Vec<i64>, u32)],
        rsorted: &[(Vec<i64>, u32)],
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let width = proj.width();
        let mut rows: Vec<u32> = Vec::new();
        let mut cadence = ChargeCadence::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lsorted.len() && j < rsorted.len() {
            match lsorted[i].0.cmp(&rsorted[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Find the full equal groups on both sides.
                    let key = &lsorted[i].0;
                    let i_end = lsorted[i..].iter().take_while(|(k, _)| k == key).count() + i;
                    let j_end = rsorted[j..].iter().take_while(|(k, _)| k == key).count() + j;
                    if proj.counts_only() {
                        cadence.bump((i_end - i) * (j_end - j), meter, p, width)?;
                    } else {
                        for (_, li) in &lsorted[i..i_end] {
                            let lt = left.tuple(*li as usize);
                            for (_, rj) in &rsorted[j..j_end] {
                                proj.emit(&mut rows, lt, right.tuple(*rj as usize));
                            }
                            cadence.bump(j_end - j, meter, p, width)?;
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        let len = cadence.finish(meter, p, width)?;
        Ok(proj.finish(rows, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::{CmpOp, ColRef, Predicate, TableRef};
    use crate::table::TableBuilder;
    use crate::types::Value;

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
    fn parallel_mode_matches_serial_byte_for_byte() {
        let (c, q) = fixture();
        let serial = Executor::with_defaults(&c);
        for algo in JoinAlgo::ALL {
            let plan = join_plan(algo);
            let (sr, srel) = serial.execute_collect(&q, &plan).unwrap();
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
        let sprof = ProfContext::enabled();
        let serial = Executor::with_defaults(&c).with_prof(sprof.clone());
        sprof.begin_query("prof-serial");
        let (sr, _) = serial.execute_collect(&q, &plan).unwrap();
        let sq = sprof.end_query().unwrap();
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
        let pprof = ProfContext::enabled();
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
        .with_prof(pprof.clone());
        pprof.begin_query("prof-parallel");
        let (pr, _) = par.execute_collect(&q, &plan).unwrap();
        let pq = pprof.end_query().unwrap();
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
    fn parallel_worker_fault_degrades_to_serial() {
        let (c, q) = fixture();
        let serial_count = Executor::with_defaults(&c)
            .execute(&q, &join_plan(JoinAlgo::Hash))
            .unwrap()
            .count;
        let obs = ObsContext::enabled();
        let ex = Executor::new(
            &c,
            ExecConfig {
                mode: ExecMode::Parallel { threads: 2 },
                parallel: ParallelConfig {
                    morsel_rows: 4,
                    panic_on_morsel: Some(0),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .with_obs(obs.clone());
        obs.begin_query("degrade-test");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let r = ex.execute(&q, &join_plan(JoinAlgo::Hash)).unwrap();
        std::panic::set_hook(prev);
        let trace = obs.end_query().unwrap();
        assert_eq!(r.count, serial_count);
        assert_eq!(
            obs.metrics()
                .unwrap()
                .snapshot()
                .counter("lqo.exec.parallel.degraded"),
            Some(1)
        );
        assert!(trace
            .guard
            .iter()
            .any(|g| g.component == "exec:parallel" && g.action == "fallback:serial"));
    }

    #[test]
    fn parallel_worker_fault_errors_without_fallback() {
        let (c, q) = fixture();
        let ex = Executor::new(
            &c,
            ExecConfig {
                mode: ExecMode::Parallel { threads: 2 },
                parallel: ParallelConfig {
                    morsel_rows: 4,
                    panic_on_morsel: Some(0),
                    fallback_serial: false,
                },
                ..Default::default()
            },
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = ex.execute(&q, &join_plan(JoinAlgo::Hash)).unwrap_err();
        std::panic::set_hook(prev);
        assert!(matches!(err, EngineError::WorkerFault { .. }));
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
            ExecMode::BatchedParallel {
                threads: 2,
                batch_size: 7,
            },
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
        let (reference, _) = Executor::with_defaults(c).execute_collect(q, plan).unwrap();
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
        let mut meter = WorkMeter::new(None);
        ex.exec_node(
            q,
            plan,
            TableSet::EMPTY,
            false,
            &mut meter,
            &mut Vec::new(),
            &mut Vec::new(),
        )
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
