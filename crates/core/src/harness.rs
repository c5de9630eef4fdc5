//! Training/evaluation loop shared by experiments E4 and E5: run a
//! learned optimizer over a workload for several epochs, executing its
//! plans with a timeout budget, feeding back measured work, and comparing
//! against the native baseline per epoch.

use std::sync::Arc;

use lqo_engine::{
    EngineError, ExecConfig, ExecMode, Executor, PhysNode, Result, SpjQuery, Telemetry,
};
use lqo_flight::Producer;
use lqo_obs::trace::QueryOutcome;
use lqo_watch::ModelHealthMonitor;
use serde::Serialize;

use crate::framework::{LearnedOptimizer, OptContext};

/// The native cost-based optimizer behind the [`LearnedOptimizer`]
/// interface, as the no-learning baseline.
pub struct NativeBaseline {
    ctx: OptContext,
}

impl NativeBaseline {
    /// Wrap a context.
    pub fn new(ctx: OptContext) -> NativeBaseline {
        NativeBaseline { ctx }
    }
}

impl LearnedOptimizer for NativeBaseline {
    fn name(&self) -> &str {
        "Native"
    }
    fn plan(&mut self, query: &SpjQuery) -> Result<PhysNode> {
        Ok(self
            .ctx
            .optimizer()
            .optimize_default(query, self.ctx.card.as_ref())?
            .plan)
    }
    fn observe(&mut self, _q: &SpjQuery, _p: &PhysNode, _w: f64) {}
    fn retrain(&mut self) {}
}

/// Per-epoch statistics of one optimizer over the workload.
#[derive(Debug, Clone, Serialize)]
pub struct EpochStats {
    /// Total work units over the workload.
    pub total_work: f64,
    /// Per-query work units (workload order).
    pub per_query: Vec<f64>,
    /// Queries slower than the native baseline by > 10%.
    pub regressions: usize,
    /// Worst per-query slowdown vs native (1.0 = never slower).
    pub max_regression: f64,
    /// Queries that hit the timeout budget.
    pub timeouts: usize,
}

/// The training loop.
pub struct TrainingLoop {
    ctx: OptContext,
    /// Timeout budget as a multiple of the native plan's work.
    pub timeout_factor: f64,
    native_work: Vec<f64>,
    native_plans: Vec<PhysNode>,
    queries: Vec<SpjQuery>,
    telemetry: Telemetry,
    watch: Option<Arc<ModelHealthMonitor>>,
    exec_mode: ExecMode,
}

impl TrainingLoop {
    /// Prepare the loop: executes the native plan of every query once to
    /// establish the baseline works. The plans are kept — they are the
    /// fallback when a learned optimizer panics or errors mid-epoch.
    pub fn new(ctx: OptContext, queries: Vec<SpjQuery>) -> Result<TrainingLoop> {
        let executor = Executor::with_defaults(&ctx.catalog);
        let mut native_work = Vec::with_capacity(queries.len());
        let mut native_plans = Vec::with_capacity(queries.len());
        for q in &queries {
            let plan = ctx.optimizer().optimize_default(q, ctx.card.as_ref())?.plan;
            native_work.push(executor.execute(q, &plan)?.work);
            native_plans.push(plan);
        }
        Ok(TrainingLoop {
            ctx,
            timeout_factor: 20.0,
            native_work,
            native_plans,
            queries,
            telemetry: Telemetry::default(),
            watch: None,
            exec_mode: ExecMode::Serial,
        })
    }

    /// Execute epochs in the given mode (serial by default). The
    /// parallel and batched executors are verified byte-identical to
    /// serial by the differential harness, so work-unit feedback — the
    /// training signal — is exactly the same in every mode; only
    /// wall-clock time changes.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> TrainingLoop {
        self.exec_mode = mode;
        self
    }

    /// Attach telemetry: every executed query in every epoch becomes one
    /// query window — a trace attributed to the optimizer under training
    /// (epoch metrics land in the registry), a query profile (plan/execute
    /// phase timings down to per-operator attribution plus work-unit
    /// charges, so learned-optimizer planning overhead is separable from
    /// execution cost), and a flight window in which contained planning
    /// failures are published as guard events and any severity trigger
    /// snapshots an incident bundle.
    pub fn with_telemetry(mut self, telemetry: impl Into<Telemetry>) -> TrainingLoop {
        self.telemetry = telemetry.into();
        self
    }

    /// Attach a model-health monitor: every finished trace is ingested
    /// together with its query's native-baseline work, so the monitor
    /// sees estimate accuracy, calibration, SLO latencies, and per-query
    /// regressions with ranked blame. Requires an enabled obs context.
    pub fn with_watch(mut self, watch: Arc<ModelHealthMonitor>) -> TrainingLoop {
        self.watch = Some(watch);
        self
    }

    /// Memoize cardinality lookups across epochs through a shared cache.
    /// Transparent to training: cached estimates are bit-identical, so
    /// every epoch plans exactly as it would uncached — repeated epochs
    /// over the same workload just stop re-running the estimator.
    pub fn with_cache(mut self, cache: Arc<lqo_cache::LqoCache>) -> TrainingLoop {
        self.ctx = self.ctx.with_cache(cache);
        self
    }

    /// Native baseline work per query.
    pub fn native_work(&self) -> &[f64] {
        &self.native_work
    }

    /// The workload.
    pub fn queries(&self) -> &[SpjQuery] {
        &self.queries
    }

    /// Run one epoch: plan, execute (with timeout), observe; returns the
    /// epoch's statistics. `learn` controls whether feedback flows (off
    /// for pure evaluation epochs).
    pub fn run_epoch(&self, opt: &mut dyn LearnedOptimizer, learn: bool) -> EpochStats {
        let mut per_query = Vec::with_capacity(self.queries.len());
        let mut regressions = 0;
        let mut max_regression = 1.0f64;
        let mut timeouts = 0;
        for (i, q) in self.queries.iter().enumerate() {
            let budget = self.native_work[i] * self.timeout_factor;
            let executor = Executor::new(
                &self.ctx.catalog,
                ExecConfig {
                    max_work: Some(budget),
                    mode: self.exec_mode,
                    ..Default::default()
                },
            )
            .with_telemetry(self.telemetry.clone());
            let obs = &self.telemetry.obs;
            let scope = self.telemetry.begin_query(q);
            if obs.is_enabled() {
                let name = opt.name().to_string();
                obs.with_query(|t| t.driver = Some(name));
            }
            // A learned optimizer that panics or errors while planning
            // must not take the epoch down with it: contain the failure,
            // note it on the trace, and run the stored native plan.
            let planned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _prof_plan = self.telemetry.prof.phase("plan");
                obs.phase("plan", || opt.plan(q))
            }));
            let (plan, fell_back) = match planned {
                Ok(Ok(plan)) => (plan, false),
                Ok(Err(e)) => {
                    self.record_plan_fallback(&e.to_string());
                    (self.native_plans[i].clone(), true)
                }
                Err(_) => {
                    self.record_plan_fallback("panic");
                    (self.native_plans[i].clone(), true)
                }
            };
            let work = match obs.phase("execute", || executor.execute(q, &plan)) {
                Ok(r) => {
                    // No feedback on fallback: the native plan was not the
                    // optimizer's choice, so it must not train on it.
                    if learn && !fell_back {
                        opt.observe(q, &plan, r.work);
                    }
                    if obs.is_enabled() {
                        let outcome = QueryOutcome {
                            count: r.count,
                            work: r.work,
                            wall_ns: r.wall.as_nanos() as u64,
                        };
                        obs.with_query(|t| t.outcome = Some(outcome));
                    }
                    r.work
                }
                Err(EngineError::WorkLimitExceeded { .. }) => {
                    timeouts += 1;
                    if learn && !fell_back {
                        // Timeout feedback: the budget itself, as Bao
                        // and Balsa do with their timeout handling.
                        opt.observe(q, &plan, budget);
                    }
                    budget
                }
                Err(_) => budget,
            };
            obs.with_query(|t| t.join_estimates());
            scope.finish(|trace| {
                if let Some(watch) = &self.watch {
                    watch.ingest_trace(trace, Some(self.native_work[i]));
                }
            });
            let ratio = work / self.native_work[i];
            if ratio > 1.1 {
                regressions += 1;
            }
            max_regression = max_regression.max(ratio);
            per_query.push(work);
        }
        if learn {
            opt.retrain();
        }
        let stats = EpochStats {
            total_work: per_query.iter().sum(),
            per_query,
            regressions,
            max_regression,
            timeouts,
        };
        let obs = &self.telemetry.obs;
        if obs.is_enabled() {
            obs.count("lqo.train.epochs", 1);
            obs.count("lqo.train.timeouts", stats.timeouts as u64);
            obs.count("lqo.train.regressions", stats.regressions as u64);
            obs.observe("lqo.train.epoch_work", stats.total_work);
        }
        stats
    }

    /// Note a contained planning failure: metric + trace guard event.
    fn record_plan_fallback(&self, fault: &str) {
        let obs = &self.telemetry.obs;
        obs.count("lqo.guard.fallbacks", 1);
        obs.count("lqo.guard.train_plan_failures", 1);
        self.telemetry.guard_event(
            Producer::Train,
            "train:optimizer",
            fault,
            "fallback:native-plan",
        );
    }

    /// Run `epochs` learning epochs, returning per-epoch statistics.
    pub fn run(&self, opt: &mut dyn LearnedOptimizer, epochs: usize) -> Vec<EpochStats> {
        (0..epochs).map(|_| self.run_epoch(opt, true)).collect()
    }

    /// Total native work (the baseline every epoch is compared to).
    pub fn native_total(&self) -> f64 {
        self.native_work.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::test_support::fixture;
    use crate::systems::bao;
    use lqo_obs::ObsContext;
    use lqo_prof::ProfContext;

    #[test]
    fn native_baseline_matches_loop_baseline() {
        let (ctx, queries) = fixture();
        let training = TrainingLoop::new(ctx.clone(), queries).unwrap();
        let mut native = NativeBaseline::new(ctx);
        let stats = training.run_epoch(&mut native, false);
        assert_eq!(stats.regressions, 0);
        assert!((stats.total_work - training.native_total()).abs() < 1e-9);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn panicking_optimizer_falls_back_to_native_plans() {
        struct Hostile {
            calls: usize,
        }
        impl LearnedOptimizer for Hostile {
            fn name(&self) -> &str {
                "hostile"
            }
            fn plan(&mut self, _q: &SpjQuery) -> Result<PhysNode> {
                self.calls += 1;
                if self.calls.is_multiple_of(2) {
                    panic!("injected optimizer panic");
                }
                Err(EngineError::NoPlanFound("injected planning error".into()))
            }
            fn observe(&mut self, _q: &SpjQuery, _p: &PhysNode, _w: f64) {
                panic!("fallback executions must not be fed back");
            }
            fn retrain(&mut self) {}
        }
        let (ctx, queries) = fixture();
        let n = queries.len();
        let obs = ObsContext::enabled();
        let training = TrainingLoop::new(ctx, queries)
            .unwrap()
            .with_telemetry(obs.clone());
        let mut hostile = Hostile { calls: 0 };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let stats = training.run_epoch(&mut hostile, true);
        std::panic::set_hook(prev);
        // Every query fell back to its native plan: work matches native
        // exactly and nothing regressed or timed out.
        assert_eq!(stats.regressions, 0);
        assert_eq!(stats.timeouts, 0);
        assert!((stats.total_work - training.native_total()).abs() < 1e-9);
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.guard.fallbacks"), Some(n as u64));
        assert_eq!(
            snap.counter("lqo.guard.train_plan_failures"),
            Some(n as u64)
        );
    }

    #[test]
    fn watch_monitor_ingests_training_traces() {
        use lqo_watch::WatchConfig;

        let (ctx, queries) = fixture();
        let obs = ObsContext::enabled();
        // The planner records card lookups through the context's obs, so
        // the traces carry estimate/truth pairs for the monitor.
        let ctx = ctx.with_telemetry(obs.clone());
        let watch = Arc::new(ModelHealthMonitor::new(WatchConfig::default()));
        let training = TrainingLoop::new(ctx.clone(), queries)
            .unwrap()
            .with_telemetry(obs)
            .with_watch(watch.clone());
        let mut native = NativeBaseline::new(ctx);
        training.run_epoch(&mut native, false);
        let report = watch.report();
        // Operator estimate/truth pairs flowed into per-component sketches
        // and the SLO tracker saw every query's latencies.
        assert!(!report.components.is_empty());
        let total_obs: u64 = report.components.iter().map(|c| c.observations).sum();
        assert!(total_obs > 0);
        assert_eq!(report.slo.exec.count, training.queries().len() as u64);
        // The native baseline run cannot regress against itself.
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn parallel_epoch_matches_serial_epoch_bit_for_bit() {
        let (ctx, queries) = fixture();
        let serial = TrainingLoop::new(ctx.clone(), queries.clone()).unwrap();
        let parallel = TrainingLoop::new(ctx.clone(), queries)
            .unwrap()
            .with_exec_mode(ExecMode::Parallel { threads: 4 });
        let s = serial.run_epoch(&mut NativeBaseline::new(ctx.clone()), false);
        let p = parallel.run_epoch(&mut NativeBaseline::new(ctx), false);
        assert_eq!(s.per_query.len(), p.per_query.len());
        for (a, b) in s.per_query.iter().zip(&p.per_query) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "per-query work must be bit-identical"
            );
        }
        assert_eq!(s.timeouts, p.timeouts);
    }

    #[test]
    fn batched_epoch_matches_serial_epoch_bit_for_bit() {
        let (ctx, queries) = fixture();
        let serial = TrainingLoop::new(ctx.clone(), queries.clone()).unwrap();
        let s = serial.run_epoch(&mut NativeBaseline::new(ctx.clone()), false);
        let batched = TrainingLoop::new(ctx.clone(), serial.queries().to_vec())
            .unwrap()
            .with_exec_mode(ExecMode::Batched { batch_size: 64 });
        let b = batched.run_epoch(&mut NativeBaseline::new(ctx), false);
        assert_eq!(s.per_query.len(), b.per_query.len());
        for (a, x) in s.per_query.iter().zip(&b.per_query) {
            assert_eq!(
                a.to_bits(),
                x.to_bits(),
                "per-query work must be bit-identical"
            );
        }
        assert_eq!(s.timeouts, b.timeouts);
    }

    #[test]
    fn profiler_separates_planning_from_execution() {
        let (ctx, queries) = fixture();
        let n = queries.len();
        let prof = ProfContext::enabled();
        let training = TrainingLoop::new(ctx.clone(), queries)
            .unwrap()
            .with_telemetry(prof.clone());
        let mut native = NativeBaseline::new(ctx);
        training.run_epoch(&mut native, false);
        // One profile per executed query; planning and execution are
        // separate top-level phases, and all work-unit charges sit under
        // the execution subtree.
        assert_eq!(prof.take_finished().len(), n);
        let total = prof.total();
        assert_eq!(total.frames["plan"].calls, n as u64);
        assert_eq!(total.frames["execute"].calls, n as u64);
        let plan_units: f64 = total
            .frames
            .iter()
            .filter(|(p, _)| p.starts_with("plan"))
            .map(|(_, s)| s.units)
            .sum();
        let exec_units: f64 = total
            .frames
            .iter()
            .filter(|(p, _)| p.starts_with("execute"))
            .map(|(_, s)| s.units)
            .sum();
        assert_eq!(plan_units, 0.0, "native planning charges no work units");
        assert!(exec_units > 0.0, "execution charges its work meter");
    }

    #[test]
    fn bao_improves_or_holds_over_epochs() {
        let (ctx, queries) = fixture();
        let training = TrainingLoop::new(ctx.clone(), queries).unwrap();
        let mut opt = bao(ctx);
        let stats = training.run(&mut opt, 3);
        assert_eq!(stats.len(), 3);
        // After training, total work should be at worst mildly above
        // native (Bao's candidate set always contains the native plan).
        let last = stats.last().unwrap();
        assert!(
            last.total_work <= training.native_total() * 3.0,
            "bao total {} vs native {}",
            last.total_work,
            training.native_total()
        );
    }
}
