//! The checkpointed step-wise executor.
//!
//! Drives a physical plan one operator at a time in the exact serial
//! post-order, materializing every intermediate, and re-optimizes the
//! remaining sub-plan when observed cardinalities contradict the
//! estimates the plan was built on. See the crate docs for the full
//! contract; the load-bearing invariant is that with no trigger the
//! operator sequence, row order, and work-unit charge sequence are
//! byte-identical to [`Executor::execute_collect`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use crate::calibrate::CalibratedCardSource;
use lqo_cache::{residual_key, CachedResidual, LqoCache, OptMemo};
use lqo_engine::exec::relation::Relation;
use lqo_engine::optimizer::residual::{
    enumerate_residual, residual_cost, ResidualChoice, ResidualLeaf, ResidualNode,
};
use lqo_engine::{
    CardSource, Catalog, EngineError, ExecConfig, ExecResult, Executor, HintSet, JoinAlgo,
    PhysNode, Result, SpjQuery, Telemetry, WorkMeter,
};
use lqo_flight::{FlightEvent, Producer};
use lqo_guard::{ReoptGuard, ReoptGuardConfig};
use lqo_obs::trace::{OperatorEvent, ReoptEvent};

/// Re-optimization tuning.
#[derive(Debug, Clone)]
pub struct ReoptConfig {
    /// Checkpoint q-error (max of over/under-estimation factor) at or
    /// above which a checkpoint counts toward the confirm streak. A
    /// q-error exactly equal to the threshold counts.
    pub q_error_threshold: f64,
    /// Consecutive triggering checkpoints required before a re-planning
    /// pass runs (debouncing, mirroring `lqo-watch` alarm streaks).
    pub confirm_streak: usize,
    /// Maximum number of sub-plan switches per query.
    pub max_reopts: usize,
    /// Budgeting and switch arbitration.
    pub guard: ReoptGuardConfig,
}

impl Default for ReoptConfig {
    fn default() -> ReoptConfig {
        ReoptConfig {
            q_error_threshold: 8.0,
            confirm_streak: 2,
            max_reopts: 2,
            guard: ReoptGuardConfig::default(),
        }
    }
}

/// Per-query summary of checkpoint activity.
#[derive(Debug, Clone, Default)]
pub struct ReoptReport {
    /// Materialization checkpoints inspected.
    pub checkpoints: u64,
    /// Re-planning passes attempted (streak confirmed).
    pub triggers: u64,
    /// Sub-plan switches spliced in.
    pub switches: u64,
    /// Work units spent re-planning (all passes).
    pub replan_work: f64,
    /// One event per re-planning pass, in order.
    pub events: Vec<ReoptEvent>,
}

/// The residual runtime tree: the not-yet-finished part of the plan,
/// with executed sub-trees collapsed into materialized leaves.
#[derive(Debug, Clone)]
enum RtNode {
    /// A pending base-table scan.
    Scan { pos: usize },
    /// An already-materialized relation (index into the mat store).
    Mat { id: usize },
    /// A pending join of two residual sub-trees.
    Join {
        algo: JoinAlgo,
        left: Box<RtNode>,
        right: Box<RtNode>,
    },
}

impl RtNode {
    fn from_phys(plan: &PhysNode) -> RtNode {
        match plan {
            PhysNode::Scan { pos } => RtNode::Scan { pos: *pos },
            PhysNode::Join { algo, left, right } => RtNode::Join {
                algo: *algo,
                left: Box::new(RtNode::from_phys(left)),
                right: Box::new(RtNode::from_phys(right)),
            },
        }
    }

    /// Leaves in left-to-right order.
    fn collect_leaves<'n>(&'n self, out: &mut Vec<&'n RtNode>) {
        match self {
            RtNode::Scan { .. } | RtNode::Mat { .. } => out.push(self),
            RtNode::Join { left, right, .. } => {
                left.collect_leaves(out);
                right.collect_leaves(out);
            }
        }
    }

    /// The tree as a [`ResidualNode`] over its in-order leaf indices.
    fn to_residual(&self, next: &mut usize) -> ResidualNode {
        match self {
            RtNode::Scan { .. } | RtNode::Mat { .. } => {
                let i = *next;
                *next += 1;
                ResidualNode::Leaf(i)
            }
            RtNode::Join { algo, left, right } => ResidualNode::Join {
                algo: *algo,
                left: Box::new(left.to_residual(next)),
                right: Box::new(right.to_residual(next)),
            },
        }
    }

    /// Rebuild a runtime tree from a residual plan, resolving leaf
    /// indices against the current leaf list.
    fn from_residual(plan: &ResidualNode, leaves: &[&RtNode]) -> RtNode {
        match plan {
            ResidualNode::Leaf(i) => leaves[*i].clone(),
            ResidualNode::Join { algo, left, right } => RtNode::Join {
                algo: *algo,
                left: Box::new(RtNode::from_residual(left, leaves)),
                right: Box::new(RtNode::from_residual(right, leaves)),
            },
        }
    }
}

/// Executes plans with materialization checkpoints and guarded mid-query
/// re-optimization. Construct per query batch; cheap to build.
pub struct ReoptExecutor<'a> {
    catalog: &'a Catalog,
    exec: Executor<'a>,
    max_work: Option<f64>,
    card: Arc<dyn CardSource>,
    hints: HintSet,
    cfg: ReoptConfig,
    guard: ReoptGuard,
    telemetry: Telemetry,
    cache: Option<Arc<LqoCache>>,
}

impl<'a> ReoptExecutor<'a> {
    /// A checkpointed executor over `catalog`. `card` is the estimator
    /// stack the incoming plans were built on — checkpoint q-errors are
    /// measured against it and re-planning calibrates on top of it.
    pub fn new(
        catalog: &'a Catalog,
        exec_config: ExecConfig,
        card: Arc<dyn CardSource>,
        cfg: ReoptConfig,
    ) -> ReoptExecutor<'a> {
        let guard = ReoptGuard::new(cfg.guard.clone());
        let max_work = exec_config.max_work;
        ReoptExecutor {
            catalog,
            exec: Executor::new(catalog, exec_config),
            max_work,
            card,
            hints: HintSet::default(),
            cfg,
            guard,
            telemetry: Telemetry::default(),
            cache: None,
        }
    }

    /// Attach telemetry, shared with the inner executor: exec metrics,
    /// operator events, [`ReoptEvent`]s and `lqo.reopt.*` counters on its
    /// obs context; re-planning under a profiler `reopt` phase; and
    /// checkpoint decisions (switch, keep, degrade — a switch or degrade
    /// is an incident trigger) on its flight ring.
    pub fn with_telemetry(mut self, telemetry: impl Into<Telemetry>) -> ReoptExecutor<'a> {
        self.telemetry = telemetry.into();
        self.exec = self.exec.with_telemetry(self.telemetry.clone());
        self
    }

    /// Hints constraining residual enumeration (same semantics as the
    /// full optimizer: allowed algorithms, DP size limit).
    pub fn with_hints(mut self, hints: HintSet) -> ReoptExecutor<'a> {
        self.hints = hints;
        self
    }

    /// Reuse re-planned residual sub-plans across queries through the
    /// epoch-tagged residual cache.
    pub fn with_cache(mut self, cache: Arc<LqoCache>) -> ReoptExecutor<'a> {
        self.cache = Some(cache);
        self
    }

    /// Execute `plan` for `query` under checkpointing.
    pub fn execute(&self, query: &SpjQuery, plan: &PhysNode) -> Result<ExecResult> {
        self.execute_collect(query, plan).map(|(r, _, _)| r)
    }

    /// Execute, also returning the final output relation and the
    /// checkpoint report. With no trigger, the result and relation are
    /// byte-identical to [`Executor::execute_collect`]; after a switch,
    /// the relation is plan-order for the *new* plan (compare
    /// [`Relation::normalize`]d forms across plans).
    pub fn execute_collect(
        &self,
        query: &SpjQuery,
        plan: &PhysNode,
    ) -> Result<(ExecResult, Relation, ReoptReport)> {
        // Same validation as the monolithic executor.
        let mut scans = 0usize;
        plan.visit_bottom_up(&mut |n| {
            if matches!(n, PhysNode::Scan { .. }) {
                scans += 1;
            }
        });
        if plan.tables() != query.all_tables() || scans != query.num_tables() {
            return Err(EngineError::InvalidPlan(format!(
                "plan covers {} with {} scans; query has {} tables",
                plan.tables(),
                scans,
                query.num_tables()
            )));
        }
        let _span = self.telemetry.obs.span("exec.query");
        let _prof_exec = self.telemetry.prof.phase("execute");
        let detail = self.telemetry.prof.sample_detail();
        let start = Instant::now();
        let mut meter = WorkMeter::new(self.max_work);
        let mut intermediates = Vec::new();
        let mut events = Vec::new();
        let mut report = ReoptReport::default();
        let attempt = self.drive(
            query,
            plan,
            detail,
            &mut meter,
            &mut intermediates,
            &mut events,
            &mut report,
        );
        if self.telemetry.flight.is_enabled() {
            for ev in &report.events {
                self.telemetry.flight.publish(
                    Producer::Reopt,
                    FlightEvent::Reopt {
                        tables: ev.tables,
                        action: ev.action.clone(),
                        q_error: ev.q_error,
                    },
                );
            }
        }
        if self.telemetry.obs.is_enabled() {
            let r = &report;
            self.telemetry
                .obs
                .count("lqo.reopt.checkpoints", r.checkpoints);
            self.telemetry.obs.count("lqo.reopt.triggers", r.triggers);
            self.telemetry.obs.count("lqo.reopt.switches", r.switches);
            for ev in &r.events {
                match ev.action.as_str() {
                    "switch" => {}
                    a if a.starts_with("degrade") => {
                        self.telemetry.obs.count("lqo.reopt.degraded", 1)
                    }
                    "keep:identical" => self.telemetry.obs.count("lqo.reopt.noop", 1),
                    _ => {}
                }
                self.telemetry
                    .obs
                    .observe("lqo.reopt.replan_work", ev.replan_work);
            }
            let evs = report.events.clone();
            self.telemetry.obs.with_query(move |t| {
                for ev in evs {
                    t.push_reopt(ev);
                }
            });
        }
        match attempt {
            Ok(rel) => {
                if self.telemetry.obs.is_enabled() {
                    self.telemetry.obs.count("lqo.exec.queries", 1);
                    self.telemetry
                        .obs
                        .observe("lqo.exec.work_units", meter.work());
                    self.telemetry
                        .obs
                        .with_query(|t| t.exec.operators.extend(events));
                }
                let result = ExecResult {
                    count: rel.len() as u64,
                    work: meter.work(),
                    wall: start.elapsed(),
                    intermediates,
                };
                Ok((result, rel, report))
            }
            Err(e) => {
                if self.telemetry.obs.is_enabled() {
                    if matches!(e, EngineError::WorkLimitExceeded { .. }) {
                        self.telemetry.obs.count("lqo.exec.timeouts", 1);
                        self.telemetry.obs.with_query(|t| {
                            t.exec.timeout = true;
                            t.exec.operators.extend(events);
                        });
                    }
                    self.telemetry.obs.count("lqo.exec.errors", 1);
                }
                Err(e)
            }
        }
    }

    /// The step loop: execute the leftmost ready operator, checkpoint,
    /// maybe re-plan, repeat.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        query: &SpjQuery,
        plan: &PhysNode,
        detail: bool,
        meter: &mut WorkMeter,
        intermediates: &mut Vec<(lqo_engine::TableSet, u64)>,
        events: &mut Vec<OperatorEvent>,
        report: &mut ReoptReport,
    ) -> Result<Relation> {
        let mut tree = RtNode::from_phys(plan);
        let mut mats: Vec<Relation> = Vec::new();
        let mut streak = 0usize;
        let mut switches = 0usize;
        loop {
            let done_id = match &tree {
                RtNode::Mat { id } => Some(*id),
                _ => None,
            };
            if let Some(id) = done_id {
                return Ok(mats[id].clone());
            }
            let (id, op, own_work) = self
                .exec_next(query, &mut tree, detail, meter, &mut mats)?
                .expect("unfinished tree has a ready operator");
            let rel = &mats[id];
            intermediates.push((rel.tables(), rel.len() as u64));
            if self.telemetry.obs.is_enabled() {
                events.push(OperatorEvent {
                    op: op.to_string(),
                    tables: rel.tables().0,
                    true_rows: rel.len() as u64,
                    est_rows: None,
                    work: own_work,
                });
            }
            // -- materialization checkpoint --
            if matches!(tree, RtNode::Mat { .. }) {
                continue; // final operator: nothing left to re-plan
            }
            report.checkpoints += 1;
            let observed = rel.len() as f64;
            let set = rel.tables();
            let est = match catch_unwind(AssertUnwindSafe(|| self.card.cardinality(query, set))) {
                Ok(v) if v.is_finite() && v >= 0.0 => v,
                // A faulty estimator must not take the query down; an
                // unusable estimate reads as "no evidence of error".
                _ => observed,
            };
            let q = q_error(observed, est);
            if q >= self.cfg.q_error_threshold {
                streak += 1;
            } else {
                streak = 0;
            }
            if streak < self.cfg.confirm_streak || switches >= self.cfg.max_reopts {
                continue;
            }
            streak = 0;
            report.triggers += 1;
            let _reopt_phase = self.telemetry.prof.phase("reopt");
            let event = self.replan(query, &mut tree, &mats, (set.0, observed, est, q), meter);
            report.replan_work += event.replan_work;
            if event.action == "switch" {
                report.switches += 1;
                switches += 1;
            }
            report.events.push(event);
        }
    }

    /// Execute the leftmost ready operator in `tree`, returning the id
    /// of the relation it materialized, its operator label, and its own
    /// work charge. `None` if the tree is finished.
    fn exec_next(
        &self,
        query: &SpjQuery,
        tree: &mut RtNode,
        detail: bool,
        meter: &mut WorkMeter,
        mats: &mut Vec<Relation>,
    ) -> Result<Option<(usize, &'static str, f64)>> {
        match tree {
            RtNode::Mat { .. } => Ok(None),
            RtNode::Scan { pos } => {
                let _p = detail.then(|| self.telemetry.prof.phase_sampled("Scan"));
                let before = meter.work();
                let rel = self.exec.exec_scan_step(query, *pos, meter)?;
                let own = meter.work() - before;
                self.telemetry.prof.charge(own);
                let id = mats.len();
                mats.push(rel);
                *tree = RtNode::Mat { id };
                Ok(Some((id, "Scan", own)))
            }
            RtNode::Join { algo, left, right } => {
                if let Some(step) = self.exec_next(query, left, detail, meter, mats)? {
                    return Ok(Some(step));
                }
                if let Some(step) = self.exec_next(query, right, detail, meter, mats)? {
                    return Ok(Some(step));
                }
                let (l, r) = match (left.as_ref(), right.as_ref()) {
                    (RtNode::Mat { id: l }, RtNode::Mat { id: r }) => {
                        (mats[*l].clone(), mats[*r].clone())
                    }
                    _ => unreachable!("children just finished"),
                };
                let algo = *algo;
                let _p = detail.then(|| self.telemetry.prof.phase_sampled(algo.label()));
                let before = meter.work();
                let rel = self.exec.exec_join_step(query, algo, l, r, meter)?;
                let own = meter.work() - before;
                self.telemetry.prof.charge(own);
                let id = mats.len();
                mats.push(rel);
                *tree = RtNode::Mat { id };
                Ok(Some((id, algo.label(), own)))
            }
        }
    }

    /// One guarded re-planning pass over the residual tree. Never
    /// errors: every failure mode degrades to keeping the tree as-is.
    fn replan(
        &self,
        query: &SpjQuery,
        tree: &mut RtNode,
        mats: &[Relation],
        checkpoint: (u64, f64, f64, f64),
        meter: &mut WorkMeter,
    ) -> ReoptEvent {
        let (cp_tables, observed, est, q) = checkpoint;
        let mut event = ReoptEvent {
            tables: cp_tables,
            observed_rows: observed as u64,
            est_rows: est,
            q_error: q,
            action: String::new(),
            replan_work: 0.0,
            old_cost: None,
            new_cost: None,
        };
        // Residual leaves, left-to-right: materialized intermediates
        // carry their exact observed rows at zero acquisition cost;
        // pending scans carry calibrated estimates and their scan cost.
        let mut rt_leaves = Vec::new();
        tree.collect_leaves(&mut rt_leaves);
        let mut anchors = Vec::new();
        for leaf in &rt_leaves {
            if let RtNode::Mat { id } = leaf {
                anchors.push((mats[*id].tables(), mats[*id].len() as f64));
            }
        }
        let calibrated = CalibratedCardSource::new(self.card.as_ref(), anchors);
        let memo = OptMemo::new(&calibrated);
        let params = self.exec.params();
        let allowance = self.guard.replan_budget(meter.remaining());
        let mut replan_meter = WorkMeter::new(Some(allowance));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut leaves = Vec::with_capacity(rt_leaves.len());
            for leaf in &rt_leaves {
                leaves.push(match leaf {
                    RtNode::Mat { id } => ResidualLeaf {
                        set: mats[*id].tables(),
                        rows: mats[*id].len() as f64,
                        cost: 0.0,
                        materialized: true,
                    },
                    RtNode::Scan { pos } => {
                        let nrows = self
                            .catalog
                            .table(&query.tables[*pos].table)
                            .map(|t| t.nrows())
                            .unwrap_or(0) as f64;
                        let npreds = query.predicates_on(*pos).len();
                        ResidualLeaf {
                            set: lqo_engine::TableSet::singleton(*pos),
                            rows: memo.cardinality(query, lqo_engine::TableSet::singleton(*pos)),
                            cost: params.scan_work(nrows, npreds),
                            materialized: false,
                        }
                    }
                    RtNode::Join { .. } => unreachable!("collect_leaves returns leaves"),
                });
            }
            let mut next = 0usize;
            let current = tree.to_residual(&mut next);
            let old_cost = residual_cost(
                query,
                &leaves,
                &current,
                &memo,
                params,
                &self.hints,
                &mut replan_meter,
            )?;
            // Residual cache: skip enumeration on a hit, but re-cost the
            // cached plan under the *current* calibration before
            // trusting it.
            let key = self
                .cache
                .as_ref()
                .map(|_| residual_key(query, &leaves, calibrated.name()));
            let mut from_cache = false;
            let choice = match self
                .cache
                .as_ref()
                .and_then(|c| c.residual_lookup(key.expect("key built with cache")))
            {
                Some(cached) => {
                    let cost = residual_cost(
                        query,
                        &leaves,
                        &cached.plan,
                        &memo,
                        params,
                        &self.hints,
                        &mut replan_meter,
                    )?;
                    from_cache = true;
                    ResidualChoice {
                        plan: cached.plan,
                        cost,
                    }
                }
                None => enumerate_residual(
                    query,
                    &leaves,
                    &memo,
                    params,
                    &self.hints,
                    &mut replan_meter,
                )?,
            };
            Ok::<_, EngineError>((current, old_cost, choice, key, from_cache))
        }));
        event.replan_work = replan_meter.work();
        // Charging the pass against the query's own meter cannot trip it:
        // the allowance never exceeds the remaining budget.
        let _ = meter.add(replan_meter.work());
        match outcome {
            Err(_) => {
                event.action = "degrade:panic".to_string();
            }
            Ok(Err(EngineError::WorkLimitExceeded { .. })) => {
                event.action = "keep:budget".to_string();
            }
            Ok(Err(_)) => {
                event.action = "degrade:error".to_string();
            }
            Ok(Ok((current, old_cost, choice, key, from_cache))) => {
                event.old_cost = Some(old_cost);
                event.new_cost = Some(choice.cost);
                if choice.plan == current {
                    event.action = "keep:identical".to_string();
                } else if self.guard.accepts(old_cost, choice.cost) {
                    *tree = RtNode::from_residual(&choice.plan, &rt_leaves);
                    event.action = "switch".to_string();
                    if let (Some(cache), Some(key), false) = (&self.cache, key, from_cache) {
                        cache.residual_store(
                            key,
                            CachedResidual {
                                plan: choice.plan,
                                cost: choice.cost,
                            },
                            calibrated.name(),
                        );
                    }
                } else {
                    event.action = "keep:cost".to_string();
                }
            }
        }
        event
    }
}

fn q_error(observed: f64, est: f64) -> f64 {
    let o = observed.max(1.0);
    let e = est.max(1.0);
    (o / e).max(e / o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_cache::CacheConfig;
    use lqo_engine::optimizer::InjectedCardSource;
    use lqo_engine::query::parse_query;
    use lqo_engine::stats::table_stats::{CatalogStats, StatsConfig};
    use lqo_engine::table::TableBuilder;
    use lqo_engine::{ExecMode, TableSet, TraditionalCardSource};
    use lqo_obs::ObsContext;

    /// Chain a -> b -> d (same shape as the optimizer tests): 50, 500,
    /// 1500 rows with foreign keys down the chain.
    fn chain() -> (Arc<Catalog>, SpjQuery) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..50).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..500).collect())
                .int("a_id", (0..500).map(|i| i % 50).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("d")
                .int("id", (0..1500).collect())
                .int("b_id", (0..1500).map(|i| i % 500).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let q =
            parse_query("SELECT COUNT(*) FROM a a, b b, d d WHERE a.id = b.a_id AND b.id = d.b_id")
                .unwrap();
        (Arc::new(c), q)
    }

    fn traditional(c: &Arc<Catalog>) -> Arc<dyn CardSource> {
        let stats = Arc::new(CatalogStats::build(c, StatsConfig::default()));
        Arc::new(TraditionalCardSource::new(c.clone(), stats))
    }

    /// A good left-deep plan: (a ⋈ b) ⋈ d, hash joins.
    fn good_plan() -> PhysNode {
        PhysNode::join(
            JoinAlgo::Hash,
            PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1)),
            PhysNode::scan(2),
        )
    }

    /// A deliberately bad plan: cross-product a × d first, then join b.
    fn bad_plan() -> PhysNode {
        PhysNode::join(
            JoinAlgo::Hash,
            PhysNode::join(JoinAlgo::NestedLoop, PhysNode::scan(0), PhysNode::scan(2)),
            PhysNode::scan(1),
        )
    }

    fn never_reopt() -> ReoptConfig {
        ReoptConfig {
            q_error_threshold: f64::INFINITY,
            ..ReoptConfig::default()
        }
    }

    fn eager_reopt() -> ReoptConfig {
        ReoptConfig {
            q_error_threshold: 8.0,
            confirm_streak: 1,
            max_reopts: 2,
            guard: ReoptGuardConfig::default(),
        }
    }

    #[test]
    fn untriggered_execution_is_byte_identical_to_serial() {
        let (c, q) = chain();
        let card = traditional(&c);
        for plan in [good_plan(), bad_plan()] {
            let (base, base_rel) = Executor::with_defaults(&c)
                .execute_collect(&q, &plan)
                .unwrap();
            let re = ReoptExecutor::new(&c, ExecConfig::default(), card.clone(), never_reopt());
            let (out, rel, report) = re.execute_collect(&q, &plan).unwrap();
            assert_eq!(report.triggers, 0);
            assert_eq!(out.count, base.count);
            assert_eq!(out.work.to_bits(), base.work.to_bits());
            assert_eq!(out.intermediates, base.intermediates);
            assert_eq!(rel.digest(), base_rel.digest());
        }
    }

    #[test]
    fn untriggered_parallel_matches_serial_baseline() {
        let (c, q) = chain();
        let card = traditional(&c);
        let plan = good_plan();
        let (base, base_rel) = Executor::with_defaults(&c)
            .execute_collect(&q, &plan)
            .unwrap();
        for threads in [2, 4] {
            let re = ReoptExecutor::new(
                &c,
                ExecConfig {
                    mode: ExecMode::Parallel { threads },
                    ..Default::default()
                },
                card.clone(),
                never_reopt(),
            );
            let (out, rel, _) = re.execute_collect(&q, &plan).unwrap();
            assert_eq!(out.count, base.count);
            assert_eq!(out.work.to_bits(), base.work.to_bits());
            assert_eq!(rel.digest(), base_rel.digest());
        }
    }

    #[test]
    fn untriggered_batched_matches_serial_baseline() {
        let (c, q) = chain();
        let card = traditional(&c);
        let plan = good_plan();
        let (base, base_rel) = Executor::with_defaults(&c)
            .execute_collect(&q, &plan)
            .unwrap();
        let modes = [
            ExecMode::Batched { batch_size: 1 },
            ExecMode::Batched { batch_size: 64 },
        ];
        for mode in modes {
            let re = ReoptExecutor::new(
                &c,
                ExecConfig {
                    mode,
                    ..Default::default()
                },
                card.clone(),
                never_reopt(),
            );
            let (out, rel, _) = re.execute_collect(&q, &plan).unwrap();
            assert_eq!(out.count, base.count, "{mode}");
            assert_eq!(out.work.to_bits(), base.work.to_bits(), "{mode}");
            assert_eq!(rel.digest(), base_rel.digest(), "{mode}");
        }
    }

    /// Poison the estimate of `a`'s scan so the first checkpoint sees a
    /// huge q-error; the executor must re-plan away from the cross
    /// product and still produce the exact answer.
    #[test]
    fn poisoned_estimate_switches_subplan_and_preserves_results() {
        let (c, q) = chain();
        let injected = Arc::new(InjectedCardSource::new(traditional(&c)));
        injected.inject(&q, TableSet::singleton(0), 1.0); // actually 50
        let card: Arc<dyn CardSource> = injected;
        let plan = bad_plan();
        let (base, base_rel) = Executor::with_defaults(&c)
            .execute_collect(&q, &plan)
            .unwrap();
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, eager_reopt());
        let (out, rel, report) = re.execute_collect(&q, &plan).unwrap();
        assert_eq!(report.switches, 1, "events: {:?}", report.events);
        assert_eq!(report.events[0].action, "switch");
        let (old_c, new_c) = (
            report.events[0].old_cost.unwrap(),
            report.events[0].new_cost.unwrap(),
        );
        assert!(new_c < old_c, "switch must be strictly cheaper");
        // The answer is plan-invariant: same count, same tuple multiset.
        assert_eq!(out.count, base.count);
        assert_eq!(
            rel.normalize().canonical_digest(),
            base_rel.normalize().canonical_digest()
        );
        // The switch avoided the 75k-row cross product.
        assert!(out.work < base.work);
    }

    /// A checkpoint q-error exactly at the threshold counts toward the
    /// streak (satellite edge case).
    #[test]
    fn threshold_exactly_met_triggers() {
        let (c, q) = chain();
        let injected = Arc::new(InjectedCardSource::new(traditional(&c)));
        // Observed 50 rows, injected 50/8 -> q-error exactly 8.0.
        injected.inject(&q, TableSet::singleton(0), 50.0 / 8.0);
        let re = ReoptExecutor::new(&c, ExecConfig::default(), injected, eager_reopt());
        let (_, _, report) = re.execute_collect(&q, &good_plan()).unwrap();
        assert!(report.triggers >= 1, "q == threshold must trigger");
    }

    /// A zero re-planning allowance (cap or remaining budget exhausted)
    /// degrades to plan-as-is without erroring the query.
    #[test]
    fn zero_replan_budget_degrades_to_plan_as_is() {
        let (c, q) = chain();
        let injected = Arc::new(InjectedCardSource::new(traditional(&c)));
        injected.inject(&q, TableSet::singleton(0), 1.0);
        let card: Arc<dyn CardSource> = injected;
        let plan = bad_plan();
        let (base, base_rel) = Executor::with_defaults(&c)
            .execute_collect(&q, &plan)
            .unwrap();
        let cfg = ReoptConfig {
            guard: ReoptGuardConfig {
                replan_work_cap: 0.0,
            },
            ..eager_reopt()
        };
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, cfg);
        let (out, rel, report) = re.execute_collect(&q, &plan).unwrap();
        assert!(report.triggers >= 1);
        assert_eq!(report.switches, 0);
        assert!(report.events.iter().all(|e| e.action == "keep:budget"));
        // Plan-as-is: the run is byte-identical to the baseline.
        assert_eq!(out.count, base.count);
        assert_eq!(rel.digest(), base_rel.digest());
    }

    /// When enumeration re-selects the current sub-plan, the splice is a
    /// no-op and the run stays on the original plan (satellite edge
    /// case).
    #[test]
    fn identical_replan_is_noop_splice() {
        // Two-table query whose plan is the unique best residual: after
        // `a` (50 rows) materializes, a hash join building on the small
        // side and probing `b` (500 rows) is exactly what enumeration
        // re-selects, so the splice must be a no-op.
        let (c, _) = chain();
        let q = parse_query("SELECT COUNT(*) FROM a a, b b WHERE a.id = b.a_id").unwrap();
        let injected = Arc::new(InjectedCardSource::new(traditional(&c)));
        injected.inject(&q, TableSet::singleton(0), 1.0); // trigger on a
        let card: Arc<dyn CardSource> = injected;
        let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let (base, base_rel) = Executor::with_defaults(&c)
            .execute_collect(&q, &plan)
            .unwrap();
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, eager_reopt());
        let (out, rel, report) = re.execute_collect(&q, &plan).unwrap();
        assert!(report.triggers >= 1);
        assert_eq!(report.switches, 0, "events: {:?}", report.events);
        assert!(
            report.events.iter().any(|e| e.action == "keep:identical"),
            "events: {:?}",
            report.events
        );
        assert_eq!(out.count, base.count);
        assert_eq!(rel.digest(), base_rel.digest());
    }

    /// An estimator that panics on multi-table lookups: checkpoints on
    /// base scans survive, and the panic surfaces inside re-planning.
    struct PanicOnJoin {
        inner: Arc<dyn CardSource>,
    }
    impl CardSource for PanicOnJoin {
        fn cardinality(&self, query: &SpjQuery, set: lqo_engine::TableSet) -> f64 {
            if set.len() >= 2 {
                panic!("injected estimator fault");
            }
            self.inner.cardinality(query, set)
        }
        fn name(&self) -> &str {
            "panic-on-join"
        }
    }

    /// A fault inside re-planning must degrade to the original plan with
    /// zero aborts and byte-identical results.
    #[test]
    fn estimator_panic_during_replan_degrades() {
        let (c, q) = chain();
        let injected = Arc::new(InjectedCardSource::new(traditional(&c)));
        injected.inject(&q, TableSet::singleton(0), 1.0);
        let card: Arc<dyn CardSource> = Arc::new(PanicOnJoin { inner: injected });
        let plan = bad_plan();
        let (base, base_rel) = Executor::with_defaults(&c)
            .execute_collect(&q, &plan)
            .unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, eager_reopt());
        let out = re.execute_collect(&q, &plan);
        std::panic::set_hook(prev);
        let (out, rel, report) = out.unwrap();
        assert!(report.triggers >= 1);
        assert!(report.events.iter().all(|e| e.action == "degrade:panic"));
        assert_eq!(out.count, base.count);
        assert_eq!(rel.digest(), base_rel.digest());
    }

    /// Re-planned residual sub-plans are reused through the cache: the
    /// second identical query skips enumeration.
    #[test]
    fn residual_cache_reuses_replanned_subplans() {
        let (c, q) = chain();
        let injected = Arc::new(InjectedCardSource::new(traditional(&c)));
        injected.inject(&q, TableSet::singleton(0), 1.0);
        let card: Arc<dyn CardSource> = injected;
        let cache = Arc::new(LqoCache::new(CacheConfig::default()));
        let plan = bad_plan();
        let run = |expect_hit: bool| {
            let re = ReoptExecutor::new(&c, ExecConfig::default(), card.clone(), eager_reopt())
                .with_cache(cache.clone());
            let (_, _, report) = re.execute_collect(&q, &plan).unwrap();
            assert_eq!(report.switches, 1);
            if expect_hit {
                assert!(cache.stats().residual_hits >= 1);
            }
        };
        run(false);
        assert_eq!(cache.residual_len(), 1);
        run(true);
    }

    /// Work-limit errors surface identically to the monolithic executor
    /// (differential harness "same error" requirement).
    #[test]
    fn work_limit_errors_match_baseline() {
        let (c, q) = chain();
        let card = traditional(&c);
        let plan = bad_plan();
        let cfg = ExecConfig {
            max_work: Some(1000.0),
            ..Default::default()
        };
        let base = Executor::new(&c, cfg.clone()).execute(&q, &plan);
        let re = ReoptExecutor::new(&c, cfg, card, never_reopt());
        let out = re.execute(&q, &plan);
        match (base, out) {
            (
                Err(EngineError::WorkLimitExceeded { limit: a }),
                Err(EngineError::WorkLimitExceeded { limit: b }),
            ) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("expected matching work-limit errors, got {other:?}"),
        }
    }

    /// Reopt events land on the query trace and `lqo.reopt.*` metrics.
    #[test]
    fn obs_records_reopt_events_and_metrics() {
        let (c, q) = chain();
        let injected = Arc::new(InjectedCardSource::new(traditional(&c)));
        injected.inject(&q, TableSet::singleton(0), 1.0);
        let card: Arc<dyn CardSource> = injected;
        let obs = ObsContext::enabled();
        obs.begin_query("reopt-test");
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, eager_reopt())
            .with_telemetry(obs.clone());
        re.execute(&q, &bad_plan()).unwrap();
        let trace = obs.end_query().unwrap();
        assert!(!trace.reopt.is_empty());
        assert_eq!(trace.reopt[0].action, "switch");
        assert!(trace.reopt[0].q_error >= 8.0);
        let snap = obs.metrics().unwrap().snapshot();
        assert!(snap.counter("lqo.reopt.checkpoints").unwrap_or(0) >= 1);
        assert_eq!(snap.counter("lqo.reopt.switches"), Some(1));
        assert!(snap.counter("lqo.exec.queries").unwrap_or(0) >= 1);
    }
}
