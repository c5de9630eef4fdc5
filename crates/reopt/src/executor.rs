//! The checkpointed step-wise executor.
//!
//! Drives a physical plan one operator at a time in the exact serial
//! post-order through the counting, slot-pruned step seam, and
//! re-optimizes the remaining sub-plan when observed cardinalities
//! contradict the estimates the plan was built on. Each executed
//! sub-tree is held only until its consumer runs, at the key slots a
//! later join reads. See the crate docs for the full contract; the
//! load-bearing invariant is that with no trigger the operator sequence
//! and work-unit charge sequence are those of [`Executor::execute`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::calibrate::CalibratedCardSource;
use lqo_cache::{residual_key, CachedResidual, LqoCache, OptMemo};
use lqo_engine::exec::{keep_for_child, QueryRun, Relation};
use lqo_engine::optimizer::residual::{
    enumerate_residual, residual_cost, ResidualChoice, ResidualLeaf, ResidualNode,
};
use lqo_engine::{
    CardSource, Catalog, EngineError, ExecConfig, ExecResult, Executor, HintSet, JoinAlgo,
    PhysNode, Result, SpjQuery, TableSet, Telemetry, WorkMeter,
};
use lqo_flight::{FlightEvent, Producer};
use lqo_guard::{ReoptGuard, ReoptGuardConfig};
use lqo_obs::trace::ReoptEvent;

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
#[derive(Debug, Clone)]
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
    /// The plan actually executed: the sub-trees that ran before each
    /// switch with the residual spliced in over them. The input plan
    /// when nothing switched.
    pub plan: PhysNode,
}

/// The residual runtime tree: the not-yet-finished part of the plan,
/// with executed sub-trees collapsed into materialized leaves.
#[derive(Debug)]
enum RtNode {
    /// A pending base-table scan.
    Scan { pos: usize },
    /// An executed sub-tree: the plan it ran and its output, which keeps
    /// the key slots a later join reads.
    Mat { plan: PhysNode, rel: Relation },
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

    /// Dismantle the tree into its leaves, moved out in left-to-right
    /// order, and its shape over their indices.
    fn into_residual(self, leaves: &mut Vec<Option<RtNode>>) -> ResidualNode {
        match self {
            RtNode::Join { algo, left, right } => ResidualNode::Join {
                algo,
                left: Box::new(left.into_residual(leaves)),
                right: Box::new(right.into_residual(leaves)),
            },
            leaf => {
                leaves.push(Some(leaf));
                ResidualNode::Leaf(leaves.len() - 1)
            }
        }
    }

    /// Rebuild a runtime tree from a residual plan, moving each leaf back
    /// in from the leaf list.
    fn from_residual(plan: &ResidualNode, leaves: &mut [Option<RtNode>]) -> RtNode {
        match plan {
            ResidualNode::Leaf(i) => leaves[*i].take().expect("each leaf used once"),
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
        ReoptExecutor {
            catalog,
            exec: Executor::new(catalog, exec_config),
            card,
            hints: HintSet::default(),
            cfg,
            guard,
            telemetry: Telemetry::default(),
            cache: None,
        }
    }

    /// Attach telemetry, shared with the inner executor: exec metrics,
    /// operator events, the `exec.query` span and budget trips,
    /// [`ReoptEvent`]s and `lqo.reopt.*` counters on its obs context;
    /// re-planning under a profiler `reopt` phase; and checkpoint
    /// decisions (switch, keep, degrade — a switch or degrade is an
    /// incident trigger) on its flight ring.
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
    /// epoch-tagged residual cache. Entries are keyed and tagged by the
    /// estimator's name, so executors over one estimator stack share
    /// them; a caller whose estimates are steered per session (injected
    /// or scaled cardinalities) must not attach a shared cache.
    pub fn with_cache(mut self, cache: Arc<LqoCache>) -> ReoptExecutor<'a> {
        self.cache = Some(cache);
        self
    }

    /// Execute `plan` for `query` under checkpointing, counting the
    /// answer, and report the checkpoint activity and the plan actually
    /// executed. With no trigger, the result equals
    /// [`Executor::execute`]'s; after a switch, executing
    /// [`ReoptReport::plan`] gives the same answer and intermediates.
    pub fn execute(&self, query: &SpjQuery, plan: &PhysNode) -> Result<(ExecResult, ReoptReport)> {
        let mut report = ReoptReport {
            checkpoints: 0,
            triggers: 0,
            switches: 0,
            replan_work: 0.0,
            events: Vec::new(),
            plan: plan.clone(),
        };
        let (result, _) = self.exec.run_query(query, plan, |run| {
            let root = self.drive(query, plan, run, &mut report);
            let obs = &self.telemetry.obs;
            if obs.is_enabled() {
                obs.count("lqo.reopt.checkpoints", report.checkpoints);
                obs.count("lqo.reopt.triggers", report.triggers);
                obs.count("lqo.reopt.switches", report.switches);
            }
            root
        })?;
        Ok((result, report))
    }

    /// The step loop: execute the leftmost ready operator, checkpoint,
    /// maybe re-plan, repeat; returns the (counting) root relation.
    fn drive(
        &self,
        query: &SpjQuery,
        plan: &PhysNode,
        run: &mut QueryRun,
        report: &mut ReoptReport,
    ) -> Result<Relation> {
        let mut tree = RtNode::from_phys(plan);
        let mut streak = 0usize;
        loop {
            let (set, rows) = self
                .step(query, &mut tree, run)?
                .expect("unfinished tree has a ready operator");
            if let RtNode::Mat { plan, rel } = tree {
                // The final operator: nothing left to re-plan.
                report.plan = plan;
                return Ok(rel);
            }
            // -- materialization checkpoint --
            report.checkpoints += 1;
            let observed = rows as f64;
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
            if streak < self.cfg.confirm_streak || report.switches >= self.cfg.max_reopts as u64 {
                continue;
            }
            streak = 0;
            report.triggers += 1;
            let _reopt_phase = self.telemetry.prof.phase("reopt");
            let event = self.replan(query, &mut tree, (set.0, observed, est, q), &mut run.meter);
            report.replan_work += event.replan_work;
            if event.action == "switch" {
                report.switches += 1;
            }
            self.publish(&event);
            report.events.push(event);
        }
    }

    /// Execute the leftmost ready operator in `tree`, keeping the key
    /// slots a later join reads, and return its output's tables and
    /// rows; `None` if the tree is finished. The operator's inputs are
    /// moved into it and dropped once it has run.
    fn step(
        &self,
        query: &SpjQuery,
        tree: &mut RtNode,
        run: &mut QueryRun,
    ) -> Result<Option<(TableSet, usize)>> {
        let (plan, rel) = match tree {
            RtNode::Mat { .. } => return Ok(None),
            RtNode::Scan { pos } => {
                let pos = *pos;
                let keep = keep_for_child(query, TableSet::singleton(pos), TableSet::EMPTY);
                let rel = self.exec.run_step(run, "Scan", |meter| {
                    self.exec.exec_scan_step_keeping(query, pos, keep, meter)
                })?;
                (PhysNode::scan(pos), rel)
            }
            RtNode::Join { left, right, .. } => {
                if let Some(done) = self.step(query, left, run)? {
                    return Ok(Some(done));
                }
                if let Some(done) = self.step(query, right, run)? {
                    return Ok(Some(done));
                }
                // Both inputs are materialized: move them out of the tree
                // (the placeholder is overwritten once the join has run).
                let RtNode::Join { algo, left, right } =
                    std::mem::replace(tree, RtNode::Scan { pos: usize::MAX })
                else {
                    unreachable!("matched a join")
                };
                let (RtNode::Mat { plan: lp, rel: l }, RtNode::Mat { plan: rp, rel: r }) =
                    (*left, *right)
                else {
                    unreachable!("children just finished")
                };
                let keep = keep_for_child(query, l.tables().union(r.tables()), TableSet::EMPTY);
                let rel = self.exec.run_step(run, algo.label(), |meter| {
                    self.exec
                        .exec_join_step_keeping(query, algo, l, r, keep, meter)
                })?;
                (PhysNode::join(algo, lp, rp), rel)
            }
        };
        let done = (rel.tables(), rel.len());
        *tree = RtNode::Mat { plan, rel };
        Ok(Some(done))
    }

    /// Publish one checkpoint decision on the flight ring, the query
    /// trace and the `lqo.reopt.*` metrics.
    fn publish(&self, ev: &ReoptEvent) {
        let Telemetry { obs, flight, .. } = &self.telemetry;
        if flight.is_enabled() {
            flight.publish(
                Producer::Reopt,
                FlightEvent::Reopt {
                    tables: ev.tables,
                    action: ev.action.clone(),
                    q_error: ev.q_error,
                },
            );
        }
        if !obs.is_enabled() {
            return;
        }
        if ev.action.starts_with("degrade") {
            obs.count("lqo.reopt.degraded", 1);
        } else if ev.action == "keep:identical" {
            obs.count("lqo.reopt.noop", 1);
        }
        obs.observe("lqo.reopt.replan_work", ev.replan_work);
        let ev = ev.clone();
        obs.with_query(move |t| t.push_reopt(ev));
    }

    /// One guarded re-planning pass over the residual tree. Never
    /// errors: every failure mode degrades to keeping the tree as-is.
    fn replan(
        &self,
        query: &SpjQuery,
        tree: &mut RtNode,
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
        // The tree is taken apart into its leaves and rebuilt below over
        // the kept or the chosen shape. Executed sub-trees carry their
        // exact observed rows at zero acquisition cost; pending scans
        // carry calibrated estimates and their scan cost.
        let mut rt_leaves = Vec::new();
        let current =
            std::mem::replace(tree, RtNode::Scan { pos: usize::MAX }).into_residual(&mut rt_leaves);
        let mut anchors = Vec::new();
        for leaf in rt_leaves.iter().flatten() {
            if let RtNode::Mat { rel, .. } = leaf {
                anchors.push((rel.tables(), rel.len() as f64));
            }
        }
        let calibrated = CalibratedCardSource::new(self.card.as_ref(), anchors);
        let memo = OptMemo::new(&calibrated);
        let params = self.exec.params();
        let allowance = self.guard.replan_budget(meter.remaining());
        let mut replan_meter = WorkMeter::new(Some(allowance));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut leaves = Vec::with_capacity(rt_leaves.len());
            for leaf in rt_leaves.iter().flatten() {
                leaves.push(match leaf {
                    RtNode::Mat { rel, .. } => ResidualLeaf {
                        set: rel.tables(),
                        rows: rel.len() as f64,
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
                            set: TableSet::singleton(*pos),
                            rows: memo.cardinality(query, TableSet::singleton(*pos)),
                            cost: params.scan_work(nrows, npreds),
                            materialized: false,
                        }
                    }
                    RtNode::Join { .. } => unreachable!("leaves are scans or executed sub-trees"),
                });
            }
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
                .map(|_| residual_key(query, &leaves, self.card.name()));
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
            Ok::<_, EngineError>((old_cost, choice, key, from_cache))
        }));
        event.replan_work = replan_meter.work();
        // Charging the pass against the query's own meter cannot trip it:
        // the allowance never exceeds the remaining budget.
        let _ = meter.add(replan_meter.work());
        let mut chosen = None;
        event.action = match outcome {
            Err(_) => "degrade:panic",
            Ok(Err(EngineError::WorkLimitExceeded { .. })) => "keep:budget",
            Ok(Err(_)) => "degrade:error",
            Ok(Ok((old_cost, choice, key, from_cache))) => {
                event.old_cost = Some(old_cost);
                event.new_cost = Some(choice.cost);
                if choice.plan == current {
                    "keep:identical"
                } else if self.guard.accepts(old_cost, choice.cost) {
                    if let (Some(cache), Some(key), false) = (&self.cache, key, from_cache) {
                        let cached = CachedResidual {
                            plan: choice.plan.clone(),
                            cost: choice.cost,
                        };
                        cache.residual_store(key, cached, self.card.name());
                    }
                    chosen = Some(choice.plan);
                    "switch"
                } else {
                    "keep:cost"
                }
            }
        }
        .to_string();
        *tree = RtNode::from_residual(chosen.as_ref().unwrap_or(&current), &mut rt_leaves);
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
    use lqo_engine::{ExecMode, TraditionalCardSource};
    use lqo_flight::FlightContext;
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

    /// `plan`'s plain counting execution: the untriggered reference.
    fn baseline(c: &Catalog, q: &SpjQuery, plan: &PhysNode) -> ExecResult {
        Executor::with_defaults(c).execute(q, plan).unwrap()
    }

    /// Equal count, work bits and intermediates.
    fn assert_same_run(out: &ExecResult, base: &ExecResult, cell: &str) {
        assert_eq!(out.count, base.count, "{cell}");
        assert_eq!(out.work.to_bits(), base.work.to_bits(), "{cell}");
        assert_eq!(out.intermediates, base.intermediates, "{cell}");
    }

    #[test]
    fn untriggered_execution_matches_execute() {
        let (c, q) = chain();
        let card = traditional(&c);
        for plan in [good_plan(), bad_plan()] {
            let re = ReoptExecutor::new(&c, ExecConfig::default(), card.clone(), never_reopt());
            let (out, report) = re.execute(&q, &plan).unwrap();
            assert_eq!(report.triggers, 0);
            assert_eq!(report.plan, plan);
            assert_same_run(&out, &baseline(&c, &q, &plan), "serial");
        }
    }

    #[test]
    fn untriggered_modes_match_serial_baseline() {
        let (c, q) = chain();
        let card = traditional(&c);
        let plan = good_plan();
        let base = baseline(&c, &q, &plan);
        let modes = [
            ExecMode::Parallel { threads: 2 },
            ExecMode::Parallel { threads: 4 },
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
            let (out, _) = re.execute(&q, &plan).unwrap();
            assert_same_run(&out, &base, &mode.to_string());
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
        let base = baseline(&c, &q, &plan);
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, eager_reopt());
        let (out, report) = re.execute(&q, &plan).unwrap();
        assert_eq!(report.switches, 1, "events: {:?}", report.events);
        assert_eq!(report.events[0].action, "switch");
        let (old_c, new_c) = (
            report.events[0].old_cost.unwrap(),
            report.events[0].new_cost.unwrap(),
        );
        assert!(new_c < old_c, "switch must be strictly cheaper");
        // The answer is plan-invariant, and the executed plan accounts
        // for every operator that ran (`reopt_diff` also checks its
        // tuple multiset).
        assert_eq!(out.count, base.count);
        assert_ne!(report.plan, plan);
        let sorted = |r: &ExecResult| {
            let mut v = r.intermediates.clone();
            v.sort_unstable_by_key(|&(t, n)| (t.0, n));
            v
        };
        assert_eq!(sorted(&out), sorted(&baseline(&c, &q, &report.plan)));
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
        let (_, report) = re.execute(&q, &good_plan()).unwrap();
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
        let base = baseline(&c, &q, &plan);
        let cfg = ReoptConfig {
            guard: ReoptGuardConfig {
                replan_work_cap: 0.0,
            },
            ..eager_reopt()
        };
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, cfg);
        let (out, report) = re.execute(&q, &plan).unwrap();
        assert!(report.triggers >= 1);
        assert_eq!(report.switches, 0);
        assert!(report.events.iter().all(|e| e.action == "keep:budget"));
        // Plan-as-is: the baseline's answer and intermediates.
        assert_eq!(report.plan, plan);
        assert_eq!(out.count, base.count);
        assert_eq!(out.intermediates, base.intermediates);
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
        let base = baseline(&c, &q, &plan);
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, eager_reopt());
        let (out, report) = re.execute(&q, &plan).unwrap();
        assert!(report.triggers >= 1);
        assert_eq!(report.switches, 0, "events: {:?}", report.events);
        assert!(
            report.events.iter().any(|e| e.action == "keep:identical"),
            "events: {:?}",
            report.events
        );
        assert_eq!(report.plan, plan);
        assert_eq!(out.count, base.count);
        assert_eq!(out.intermediates, base.intermediates);
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
        let base = baseline(&c, &q, &plan);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let re = ReoptExecutor::new(&c, ExecConfig::default(), card, eager_reopt());
        let out = re.execute(&q, &plan);
        std::panic::set_hook(prev);
        let (out, report) = out.unwrap();
        assert!(report.triggers >= 1);
        assert!(report.events.iter().all(|e| e.action == "degrade:panic"));
        assert_eq!(report.plan, plan);
        assert_eq!(out.count, base.count);
        assert_eq!(out.intermediates, base.intermediates);
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
            let (_, report) = re.execute(&q, &plan).unwrap();
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

    /// A budget-tripping reopt run publishes the `exec.query` span edges
    /// and the budget trip onto the flight ring, as `execute` does.
    #[test]
    fn budget_trip_reaches_the_flight_ring() {
        let (c, q) = chain();
        let cfg = ExecConfig {
            max_work: Some(1000.0),
            ..Default::default()
        };
        let ring = |run: &dyn Fn(Telemetry)| {
            let telemetry = Telemetry {
                flight: FlightContext::enabled(),
                ..Telemetry::default()
            };
            run(telemetry.clone());
            let events = telemetry.flight.ring_snapshot().into_iter();
            events
                .filter(|r| {
                    matches!(
                        r.event,
                        FlightEvent::Span { .. } | FlightEvent::BudgetTrip { .. }
                    )
                })
                .map(|r| (r.producer, r.event))
                .collect::<Vec<_>>()
        };
        let plain = ring(&|t| {
            let ex = Executor::new(&c, cfg.clone()).with_telemetry(t);
            assert!(ex.execute(&q, &bad_plan()).is_err());
        });
        let reopt = ring(&|t| {
            let re = ReoptExecutor::new(&c, cfg.clone(), traditional(&c), eager_reopt())
                .with_telemetry(t);
            assert!(re.execute(&q, &bad_plan()).is_err());
        });
        assert_eq!(plain.len(), 3, "{plain:?}");
        assert_eq!(reopt, plain);
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
