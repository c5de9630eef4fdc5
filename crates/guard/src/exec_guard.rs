//! The execution-layer regression guard.
//!
//! Planning-time guards cannot catch every bad plan: a validated, finite,
//! in-bounds estimate can still be wrong enough to pick a disastrous join
//! order. The last line of defence is at execution time — run the chosen
//! plan under a work budget of `k ×` the native plan's predicted work
//! (reusing the executor's existing work-budget checkpoints), and when
//! the budget trips, cancel and re-execute with the native plan. This is
//! Bao's timeout containment and Eraser's regression elimination folded
//! into one mechanism.

use lqo_engine::exec::workunits::CostParams;
use lqo_engine::optimizer::{plan_cost, CardSource};
use lqo_engine::{
    Catalog, EngineError, ExecConfig, ExecMode, ExecResult, Executor, PhysNode, Result, SpjQuery,
    Telemetry,
};
use lqo_flight::{FlightEvent, Producer};

/// Regression-guard tuning.
#[derive(Debug, Clone)]
pub struct RegressionGuardConfig {
    /// Budget multiplier: the chosen plan may spend up to `work_factor ×`
    /// the native plan's predicted work before it is cancelled.
    pub work_factor: f64,
    /// Floor on the budget, in work units, so tiny queries are not
    /// cancelled on prediction noise.
    pub min_budget: f64,
}

impl Default for RegressionGuardConfig {
    fn default() -> RegressionGuardConfig {
        RegressionGuardConfig {
            work_factor: 4.0,
            min_budget: 1e4,
        }
    }
}

/// Outcome of a guarded execution.
#[derive(Debug, Clone)]
pub struct GuardedExecution {
    /// The execution result (of the chosen plan, or of the native plan
    /// after a cancellation).
    pub result: ExecResult,
    /// Whether the chosen plan was cancelled and the native plan ran.
    pub replanned: bool,
    /// The work budget the chosen plan ran under.
    pub budget: f64,
}

/// Executes chosen plans under a native-relative work budget, falling
/// back to the native plan on a budget trip.
pub struct RegressionGuard<'a> {
    catalog: &'a Catalog,
    params: CostParams,
    cfg: RegressionGuardConfig,
    telemetry: Telemetry,
    mode: ExecMode,
}

impl<'a> RegressionGuard<'a> {
    /// A guard over a catalog. Replans report to `telemetry`: a counter
    /// and a guard event on its obs context (the guarded executions'
    /// operator events land there too), and the budget trip plus the
    /// regression cancel — an incident trigger — on its flight ring.
    pub fn new(
        catalog: &'a Catalog,
        params: CostParams,
        cfg: RegressionGuardConfig,
        telemetry: impl Into<Telemetry>,
    ) -> RegressionGuard<'a> {
        RegressionGuard {
            catalog,
            params,
            cfg,
            telemetry: telemetry.into(),
            mode: ExecMode::Serial,
        }
    }

    /// Execute guarded plans in the given mode. Budget semantics are
    /// unchanged: work accounting is mode-independent (the parallel and
    /// batched executors are byte-identical to serial, with
    /// cancellation-aware morsel dispatch and one charge cadence for
    /// every mode honouring the same budget mid-operator).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> RegressionGuard<'a> {
        self.mode = mode;
        self
    }

    /// The native plan's predicted work and the budget derived from it.
    fn predicted_and_budget(
        &self,
        query: &SpjQuery,
        native: &PhysNode,
        card: &dyn CardSource,
    ) -> Result<(f64, f64)> {
        let predicted = plan_cost(native, query, self.catalog, card, &self.params)?;
        Ok((
            predicted,
            (predicted * self.cfg.work_factor).max(self.cfg.min_budget),
        ))
    }

    /// The budget the guard would grant `chosen` given the native plan's
    /// predicted work under `card`.
    pub fn budget_for(
        &self,
        query: &SpjQuery,
        native: &PhysNode,
        card: &dyn CardSource,
    ) -> Result<f64> {
        self.predicted_and_budget(query, native, card)
            .map(|(_, budget)| budget)
    }

    /// Execute `chosen` under the budget derived from `native`'s predicted
    /// work; on a budget trip, re-execute with `native` (unbudgeted) and
    /// report the replan. `card` is the trusted cardinality source used
    /// for the native prediction.
    pub fn execute(
        &self,
        query: &SpjQuery,
        chosen: &PhysNode,
        native: &PhysNode,
        card: &dyn CardSource,
    ) -> Result<GuardedExecution> {
        let (predicted, budget) = self.predicted_and_budget(query, native, card)?;
        // The native plan is its own budget reference: run it unguarded
        // rather than risk cancelling it on its own prediction error.
        let same_plan = chosen.fingerprint() == native.fingerprint();
        let max_work = if same_plan { None } else { Some(budget) };
        let executor = Executor::new(
            self.catalog,
            ExecConfig {
                max_work,
                mode: self.mode,
                ..Default::default()
            },
        )
        .with_telemetry(self.telemetry.obs.clone());
        match executor.execute(query, chosen) {
            Ok(result) => Ok(GuardedExecution {
                result,
                replanned: false,
                budget,
            }),
            Err(EngineError::WorkLimitExceeded { .. }) => {
                self.telemetry.obs.count("lqo.guard.replans", 1);
                if self.telemetry.flight.is_enabled() {
                    self.telemetry.flight.publish(
                        Producer::Guard,
                        FlightEvent::BudgetTrip {
                            component: "exec".to_string(),
                            budget,
                        },
                    );
                }
                // The cancelled plan burned at least `budget` work units,
                // i.e. at least `ratio ×` the native plan's prediction —
                // the trace records the ratio so recovery tables can
                // attribute how far off the rails the chosen plan was
                // before cancel.
                let ratio = if predicted > 0.0 {
                    budget / predicted
                } else {
                    f64::INFINITY
                };
                self.telemetry.guard_event_with_detail(
                    Producer::Guard,
                    "exec",
                    "work-regression",
                    &format!("predicted={predicted:.0}:budget={budget:.0}:ratio={ratio:.2}"),
                    "replan:native",
                );
                let native_exec = Executor::new(
                    self.catalog,
                    ExecConfig {
                        mode: self.mode,
                        ..Default::default()
                    },
                )
                .with_telemetry(self.telemetry.obs.clone());
                let result = native_exec.execute(query, native)?;
                Ok(GuardedExecution {
                    result,
                    replanned: true,
                    budget,
                })
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_engine::datagen::stats_like;
    use lqo_engine::query::parse_query;
    use lqo_engine::stats::table_stats::CatalogStats;
    use lqo_engine::{Optimizer, TraditionalCardSource};
    use lqo_obs::ObsContext;
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, Arc<dyn CardSource>, SpjQuery) {
        let catalog = Arc::new(stats_like(100, 5).unwrap());
        let stats = Arc::new(CatalogStats::build_default(&catalog));
        let card: Arc<dyn CardSource> =
            Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
        let q = parse_query(
            "SELECT COUNT(*) FROM users u, posts p, comments c \
             WHERE u.id = p.owner_user_id AND p.id = c.post_id AND u.reputation > 10",
        )
        .unwrap();
        (catalog, card, q)
    }

    #[test]
    fn native_plan_runs_unbudgeted() {
        let (catalog, card, q) = setup();
        let native = Optimizer::with_defaults(&catalog)
            .optimize_default(&q, card.as_ref())
            .unwrap()
            .plan;
        let guard = RegressionGuard::new(
            &catalog,
            CostParams::default(),
            RegressionGuardConfig::default(),
            ObsContext::disabled(),
        );
        let out = guard.execute(&q, &native, &native, card.as_ref()).unwrap();
        assert!(!out.replanned);
        assert!(out.result.work > 0.0);
    }

    #[test]
    fn parallel_guard_matches_serial_guard() {
        let (catalog, card, q) = setup();
        let native = Optimizer::with_defaults(&catalog)
            .optimize_default(&q, card.as_ref())
            .unwrap()
            .plan;
        let serial = RegressionGuard::new(
            &catalog,
            CostParams::default(),
            RegressionGuardConfig::default(),
            ObsContext::disabled(),
        );
        let parallel = RegressionGuard::new(
            &catalog,
            CostParams::default(),
            RegressionGuardConfig::default(),
            ObsContext::disabled(),
        )
        .with_exec_mode(ExecMode::Parallel { threads: 4 });
        let s = serial.execute(&q, &native, &native, card.as_ref()).unwrap();
        let p = parallel
            .execute(&q, &native, &native, card.as_ref())
            .unwrap();
        assert_eq!(s.result.count, p.result.count);
        assert_eq!(s.result.work.to_bits(), p.result.work.to_bits());
        assert_eq!(s.replanned, p.replanned);
    }

    #[test]
    fn batched_guard_matches_serial_guard() {
        let (catalog, card, q) = setup();
        let native = Optimizer::with_defaults(&catalog)
            .optimize_default(&q, card.as_ref())
            .unwrap()
            .plan;
        let serial = RegressionGuard::new(
            &catalog,
            CostParams::default(),
            RegressionGuardConfig::default(),
            ObsContext::disabled(),
        );
        let s = serial.execute(&q, &native, &native, card.as_ref()).unwrap();
        let batched = RegressionGuard::new(
            &catalog,
            CostParams::default(),
            RegressionGuardConfig::default(),
            ObsContext::disabled(),
        )
        .with_exec_mode(ExecMode::Batched { batch_size: 64 });
        let b = batched
            .execute(&q, &native, &native, card.as_ref())
            .unwrap();
        assert_eq!(s.result.count, b.result.count);
        assert_eq!(s.result.work.to_bits(), b.result.work.to_bits());
        assert_eq!(s.replanned, b.replanned);
    }

    #[test]
    fn pathological_plan_is_cancelled_and_replanned() {
        let (catalog, card, q) = setup();
        let native = Optimizer::with_defaults(&catalog)
            .optimize_default(&q, card.as_ref())
            .unwrap()
            .plan;
        let native_count = Executor::with_defaults(&catalog)
            .execute(&q, &native)
            .unwrap()
            .count;
        // Force the worst join order via a cross-product-heavy greedy run
        // under wildly wrong cardinalities: scale estimates down so the
        // optimizer believes every join is free and picks carelessly.
        let obs = ObsContext::enabled();
        let guard = RegressionGuard::new(
            &catalog,
            CostParams::default(),
            RegressionGuardConfig {
                work_factor: 1.0,
                min_budget: 1.0,
            },
            obs.clone(),
        );
        // A deliberately bad plan: reverse the native join order by
        // building right-deep over the same scans via hints is involved;
        // instead, pick the plan chosen under inverted estimates.
        let lying = lqo_engine::optimizer::ScaledCardSource::new(card.clone(), 1e6);
        let chosen = Optimizer::with_defaults(&catalog)
            .greedy(
                &q,
                &lying,
                &lqo_engine::HintSet {
                    allow_hash: false,
                    allow_merge: false,
                    ..Default::default()
                },
            )
            .unwrap()
            .plan;
        obs.begin_query("regression-guard-test");
        let out = guard.execute(&q, &chosen, &native, card.as_ref()).unwrap();
        let trace = obs.end_query().unwrap();
        // Whatever path was taken, the answer matches the native answer.
        assert_eq!(out.result.count, native_count);
        if out.replanned {
            assert_eq!(
                obs.metrics()
                    .unwrap()
                    .snapshot()
                    .counter("lqo.guard.replans"),
                Some(1)
            );
            let ev = trace
                .guard
                .iter()
                .find(|g| g.component == "exec")
                .expect("cancel records a trace-visible guard event");
            assert!(
                ev.fault.starts_with("work-regression:predicted=") && ev.fault.contains(":ratio="),
                "guard event carries the predicted-work ratio: {}",
                ev.fault
            );
            assert_eq!(ev.action, "replan:native");
        }
    }
}
