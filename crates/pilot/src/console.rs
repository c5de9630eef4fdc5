//! The PilotScope console: registers drivers, manages sessions, routes
//! SQL through the active driver, and runs background model updates.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lqo_cache::LqoCache;
use lqo_engine::query::parse_query;
use lqo_engine::{EngineError, ExecMode, QueryScope, Result, Telemetry};
use lqo_flight::Producer;
use lqo_guard::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use lqo_obs::trace::QueryOutcome;
use lqo_watch::ModelHealthMonitor;
use serde::Serialize;

use crate::driver::{Driver, DriverDecision, ExecFeedback};
use crate::interactor::{DbInteractor, PullReply, PullRequest, SessionId};

/// Result of executing SQL through the console.
#[derive(Debug, Clone, Serialize)]
pub struct ExecOutcome {
    /// Count-star result.
    pub count: u64,
    /// Work units spent.
    pub work: f64,
    /// Wall-clock time.
    pub wall: Duration,
    /// Which driver steered the query (`None` = plain database).
    pub driver: Option<String>,
    /// Time the driver spent deciding how to steer this query (`None`
    /// when no driver was active).
    pub decision: Option<Duration>,
}

/// The console operating the middleware.
pub struct PilotConsole {
    interactor: Arc<dyn DbInteractor>,
    drivers: HashMap<String, Box<dyn Driver>>,
    active: Option<String>,
    session: SessionId,
    executed: usize,
    telemetry: Telemetry,
    /// One circuit breaker per driver; a driver whose `algo` keeps
    /// panicking, erroring, or blowing the deadline is cut off and its
    /// queries delegate to the plain database until a probe succeeds.
    breakers: HashMap<String, CircuitBreaker>,
    breaker_cfg: BreakerConfig,
    /// Per-query decision deadline for driver `algo` calls; `None`
    /// disables deadline enforcement.
    decision_deadline: Option<Duration>,
    /// Optional model-health monitor: finished traces are ingested and
    /// breaker transitions correlated per driver component.
    watch: Option<Arc<ModelHealthMonitor>>,
    /// Optional plan & inference cache: invalidated on confirmed drift
    /// alarms and breaker-open transitions.
    cache: Option<Arc<LqoCache>>,
}

impl PilotConsole {
    /// Connect a console to a database through its interactor.
    pub fn new(interactor: Arc<dyn DbInteractor>) -> PilotConsole {
        let session = interactor.open_session();
        PilotConsole {
            interactor,
            drivers: HashMap::new(),
            active: None,
            session,
            executed: 0,
            telemetry: Telemetry::default(),
            breakers: HashMap::new(),
            breaker_cfg: BreakerConfig::default(),
            decision_deadline: Some(Duration::from_millis(250)),
            watch: None,
            cache: None,
        }
    }

    /// Configure the driver guard: the per-query decision deadline
    /// (`None` = unlimited) and the breaker parameters.
    pub fn with_driver_guard(
        mut self,
        deadline: Option<Duration>,
        breaker: BreakerConfig,
    ) -> PilotConsole {
        self.decision_deadline = deadline;
        self.breaker_cfg = breaker;
        self.breakers.clear();
        self
    }

    /// Breaker state of a registered driver (for reports and tests).
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.breakers.get(name).map(|b| b.state())
    }

    /// Full breaker snapshot of a registered driver.
    pub fn breaker_stats(&self, name: &str) -> Option<BreakerStats> {
        self.breakers.get(name).map(|b| b.stats())
    }

    /// Attach a model-health monitor. Requires an enabled obs context to
    /// see traces: every finished query trace is ingested (estimate
    /// accuracy, cost calibration, SLO latencies, guard events), and
    /// breaker state changes are reported per `driver:<name>` component.
    pub fn with_watch(mut self, watch: Arc<ModelHealthMonitor>) -> PilotConsole {
        self.watch = Some(watch);
        self.wire();
        self
    }

    /// The attached model-health monitor, if any.
    pub fn watch(&self) -> Option<&Arc<ModelHealthMonitor>> {
        self.watch.as_ref()
    }

    /// Attach a plan & inference cache. The interactor memoizes
    /// cardinality lookups across queries and reuses previously optimized
    /// plans for unsteered sessions — observationally transparent, so
    /// results and driver feedback are byte-identical to the uncached
    /// path. The console wires invalidation to runtime signals: confirmed
    /// drift alarms from the attached watch monitor and circuit-breaker
    /// open transitions both purge the affected entries. Attach before
    /// registering drivers or pushing steering state.
    pub fn with_cache(mut self, cache: Arc<LqoCache>) -> PilotConsole {
        self.interactor.attach_cache(&cache);
        self.cache = Some(cache);
        self.wire();
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<LqoCache>> {
        self.cache.as_ref()
    }

    /// Select the execution mode for all queries routed through this
    /// console (serial by default). The parallel and batched paths are
    /// verified byte-identical to serial by the differential harness, so
    /// results, work units, and driver training feedback are unchanged —
    /// only wall clock differs.
    pub fn with_exec_mode(self, mode: ExecMode) -> PilotConsole {
        self.interactor.set_exec_mode(mode);
        self
    }

    /// Enable mid-query adaptive re-optimization for all queries routed
    /// through this console: plans execute under materialization
    /// checkpoints, and a confirmed cardinality misestimate re-plans the
    /// remaining sub-plan within the guard budget (see `lqo-reopt`).
    /// Untriggered execution reports exactly what the plain path does
    /// (count, work bits, intermediates), and a switched query still
    /// returns the same answer, so driver feedback signals stay
    /// comparable.
    pub fn with_reopt(self, cfg: lqo_reopt::ReoptConfig) -> PilotConsole {
        self.interactor.set_reopt(Some(cfg));
        self
    }

    /// Attach telemetry: each `execute_sql` call becomes one query window
    /// — a trace (parse/plan/execute/feedback phases, driver attribution,
    /// planner and operator provenance), a query profile (parse/decide/
    /// plan/execute phase timings with per-operator and per-morsel
    /// attribution, work-unit charges, plan-cache and guard counters) and
    /// a flight window (span boundaries, guard faults, breaker
    /// transitions, cache and re-opt events on the black-box ring; a
    /// severity trigger mid-query snapshots an incident bundle finalized
    /// with the trace and profile when the query ends). The telemetry
    /// reaches the interactor's optimizer and executor, the cache and the
    /// watch monitor, whichever order the builders are called in.
    pub fn with_telemetry(mut self, telemetry: impl Into<Telemetry>) -> PilotConsole {
        self.telemetry = telemetry.into();
        self.wire();
        self
    }

    /// The console's telemetry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attach the console's telemetry to the interactor, the cache and
    /// the watch monitor (whose flight recorder is left alone while the
    /// console has none). Every builder that adds one of them calls this,
    /// so the wiring does not depend on builder order.
    fn wire(&self) {
        self.interactor.attach_telemetry(&self.telemetry);
        if let Some(cache) = &self.cache {
            cache.attach_telemetry(&self.telemetry);
        }
        if let Some(watch) = &self.watch {
            if self.telemetry.flight.is_enabled() {
                watch.attach_flight(&self.telemetry.flight);
            }
        }
    }

    /// Register a driver under its own name, calling its `init`.
    pub fn register_driver(&mut self, mut driver: Box<dyn Driver>) -> Result<()> {
        driver.init(self.interactor.as_ref(), self.session)?;
        self.drivers.insert(driver.name().to_string(), driver);
        Ok(())
    }

    /// Start (activate) a driver; `None` reverts to the plain database.
    pub fn start_driver(&mut self, name: Option<&str>) -> Result<()> {
        if let Some(n) = name {
            if !self.drivers.contains_key(n) {
                return Err(EngineError::InvalidPlan(format!("unknown driver {n}")));
            }
        }
        self.active = name.map(str::to_string);
        Ok(())
    }

    /// Registered driver names.
    pub fn driver_names(&self) -> Vec<&str> {
        self.drivers.keys().map(String::as_str).collect()
    }

    /// Queries executed through this console.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Execute a SQL string. The active driver (if any) steers planning;
    /// execution feedback is delivered back to it for training.
    pub fn execute_sql(&mut self, sql: &str) -> Result<ExecOutcome> {
        let scope = self.telemetry.begin_query(sql);
        let outcome = self.run_sql(sql);
        self.finish_query(scope);
        outcome
    }

    /// The body of [`PilotConsole::execute_sql`], inside its query window.
    fn run_sql(&mut self, sql: &str) -> Result<ExecOutcome> {
        let query = {
            let _prof_parse = self.telemetry.prof.phase("parse");
            self.telemetry.obs.phase("parse", || parse_query(sql))
        }?;
        let mut decision_latency = None;
        let decision = match self.active.clone() {
            Some(name) => {
                // The driver's decision is where learned-model inference
                // happens: a separate phase keeps its cost apart from
                // plan/execute time in the profile. The phase guard
                // borrows its context, so it borrows a handle, not `self`.
                let prof = self.telemetry.prof.clone();
                let _prof_decide = prof.phase("decide");
                self.guarded_decision(&name, &query, &mut decision_latency)
            }
            None => DriverDecision::Delegate,
        };
        let obs = &self.telemetry.obs;
        if obs.is_enabled() {
            let driver = self.active.clone();
            let decision_ns = decision_latency.map(|d| d.as_nanos() as u64);
            obs.with_query(|t| {
                t.driver = driver;
                t.decision_ns = decision_ns;
            });
            if let Some(ns) = decision_ns {
                obs.observe("lqo.pilot.decision_ns", ns as f64);
                obs.observe("lqo.pilot.decision_us", ns as f64 / 1_000.0);
            }
        }
        let request = match decision {
            DriverDecision::Plan(plan) => PullRequest::ExecutePlan(query.clone(), plan),
            DriverDecision::Delegate => PullRequest::Execute(query.clone()),
        };
        let reply = obs.phase("execute", || self.interactor.pull(self.session, request))?;
        let PullReply::Execution {
            count,
            work,
            wall,
            plan,
        } = reply
        else {
            return Err(EngineError::InvalidPlan("expected execution reply".into()));
        };
        self.executed += 1;
        if let Some(name) = self.active.clone() {
            if let Some(driver) = self.drivers.get_mut(&name) {
                let feedback = ExecFeedback {
                    query,
                    plan,
                    count,
                    work,
                    wall,
                };
                // A panicking feedback hook loses that driver its training
                // sample, never the query's result.
                let obs = &self.telemetry.obs;
                let contained = obs.phase("feedback", || {
                    catch_unwind(AssertUnwindSafe(|| driver.collect(&feedback)))
                });
                if contained.is_err() {
                    obs.count("lqo.guard.faults", 1);
                    obs.count("lqo.guard.faults.panic", 1);
                    self.telemetry.guard_event(
                        Producer::Pilot,
                        &format!("driver:{name}"),
                        "panic",
                        "drop-feedback",
                    );
                }
            }
        }
        let obs = &self.telemetry.obs;
        if obs.is_enabled() {
            obs.count("lqo.pilot.queries", 1);
            obs.with_query(|t| {
                t.outcome = Some(QueryOutcome {
                    count,
                    work,
                    wall_ns: wall.as_nanos() as u64,
                });
                t.join_estimates();
            });
        }
        Ok(ExecOutcome {
            count,
            work,
            wall,
            driver: self.active.clone(),
            decision: decision_latency,
        })
    }

    /// Close the query window; the finished trace feeds the health
    /// monitor, and confirmed drift verdicts are relayed to the cache —
    /// both before the flight window closes, so an alarm or invalidation
    /// they publish belongs to this query.
    fn finish_query(&self, scope: QueryScope) {
        scope.finish(|trace| {
            if let Some(watch) = &self.watch {
                watch.ingest_trace(trace, None);
                if let Some(cache) = &self.cache {
                    let component = lqo_watch::component_of(trace);
                    let drifted = watch.health(&component) == Some(lqo_watch::HealthState::Drifted);
                    cache.note_health(&component, drifted);
                }
            }
        });
    }

    /// Run the active driver's `algo` under the guard: breaker gate,
    /// panic containment, and the decision deadline. Any contained
    /// failure degrades the query to [`DriverDecision::Delegate`] (plain
    /// database planning) and is recorded as a guard event.
    fn guarded_decision(
        &mut self,
        name: &str,
        query: &lqo_engine::SpjQuery,
        latency: &mut Option<Duration>,
    ) -> DriverDecision {
        let Some(driver) = self.drivers.get_mut(name) else {
            // start_driver validates names, but a missing driver must
            // degrade to plain execution, never panic mid-query.
            self.telemetry.obs.count("lqo.guard.fallbacks", 1);
            return DriverDecision::Delegate;
        };
        let breaker = self
            .breakers
            .entry(name.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.breaker_cfg.clone()));
        if !breaker.allow() {
            if let Some(watch) = &self.watch {
                let s = breaker.stats();
                watch.record_breaker(&format!("driver:{name}"), s.state.code(), s.opens);
            }
            self.telemetry.obs.count("lqo.guard.skips", 1);
            self.telemetry.prof.bump("guard_breaker_skips", 1);
            self.telemetry.guard_event(
                Producer::Pilot,
                &format!("driver:{name}"),
                "breaker-open",
                "delegate",
            );
            return DriverDecision::Delegate;
        }
        let interactor = self.interactor.clone();
        let session = self.session;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            driver.algo(interactor.as_ref(), session, query)
        }));
        let elapsed = start.elapsed();
        self.telemetry
            .obs
            .observe("lqo.guard.decision_ns", elapsed.as_nanos() as f64);
        let fault = match outcome {
            Ok(Ok(decision)) => {
                if self.decision_deadline.is_none_or(|d| elapsed <= d) {
                    breaker.record_success();
                    if let Some(watch) = &self.watch {
                        let s = breaker.stats();
                        watch.record_breaker(&format!("driver:{name}"), s.state.code(), s.opens);
                    }
                    self.telemetry
                        .obs
                        .gauge(&format!("lqo.guard.driver.{name}.breaker"), 0.0);
                    *latency = Some(elapsed);
                    return decision;
                }
                self.telemetry.prof.bump("guard_deadlines", 1);
                "deadline".to_string()
            }
            Ok(Err(e)) => e.to_string(),
            Err(_) => "panic".to_string(),
        };
        self.telemetry.prof.bump("guard_faults", 1);
        if breaker.record_failure() {
            self.telemetry
                .breaker_open(Producer::Pilot, &format!("driver:{name}"));
            if let Some(cache) = &self.cache {
                cache.on_breaker_open(&format!("driver:{name}"));
            }
        }
        let s = breaker.stats();
        if let Some(watch) = &self.watch {
            watch.record_breaker(&format!("driver:{name}"), s.state.code(), s.opens);
        }
        self.telemetry
            .obs
            .gauge(&format!("lqo.guard.driver.{name}.breaker"), s.state.code());
        self.telemetry.obs.count("lqo.guard.faults", 1);
        self.telemetry.obs.count("lqo.guard.fallbacks", 1);
        self.telemetry.guard_event(
            Producer::Pilot,
            &format!("driver:{name}"),
            &fault,
            "delegate",
        );
        DriverDecision::Delegate
    }

    /// Background tick: every driver updates its models (PilotScope's
    /// background model updating).
    pub fn tick(&mut self) {
        for driver in self.drivers.values_mut() {
            driver.update_models();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{BaoDriver, CardDriver, LeroDriver};
    use crate::engine_impl::EngineInteractor;
    use learned_qo::framework::OptContext;
    use lqo_card::estimator::FitContext;
    use lqo_card::traditional::SamplingEstimator;
    use lqo_engine::datagen::stats_like;
    use lqo_flight::{FlightConfig, FlightContext, FlightEvent, FlightRecord};
    use lqo_obs::ObsContext;
    use lqo_prof::ProfContext;

    fn console() -> (PilotConsole, OptContext) {
        let catalog = Arc::new(stats_like(80, 23).unwrap());
        let ctx = OptContext::new(catalog.clone());
        let interactor = Arc::new(EngineInteractor::new(catalog));
        (PilotConsole::new(interactor), ctx)
    }

    const SQL: &str = "SELECT COUNT(*) FROM users u, posts p \
                       WHERE u.id = p.owner_user_id AND u.reputation > 50";

    #[test]
    fn plain_execution_without_driver() {
        let (mut console, _) = console();
        let out = console.execute_sql(SQL).unwrap();
        assert!(out.count > 0);
        assert_eq!(out.driver, None);
        assert_eq!(console.executed(), 1);
    }

    #[test]
    fn card_driver_injects_and_delegates() {
        let (mut console, ctx) = console();
        let fit = FitContext {
            catalog: ctx.catalog.clone(),
            stats: ctx.stats.clone(),
        };
        let est = Arc::new(SamplingEstimator::fit(&fit));
        console
            .register_driver(Box::new(CardDriver::new(est)))
            .unwrap();
        console.start_driver(Some("learned-cardinality")).unwrap();
        let with_driver = console.execute_sql(SQL).unwrap();
        assert_eq!(with_driver.driver.as_deref(), Some("learned-cardinality"));
        // Same answer as plain execution: steering never changes results.
        console.start_driver(None).unwrap();
        let plain = console.execute_sql(SQL).unwrap();
        assert_eq!(with_driver.count, plain.count);
    }

    #[test]
    fn bao_and_lero_drivers_run_and_learn() {
        let (mut console, ctx) = console();
        console
            .register_driver(Box::new(BaoDriver::new(ctx.clone())))
            .unwrap();
        console
            .register_driver(Box::new(LeroDriver::new(ctx)))
            .unwrap();
        let mut names = console.driver_names();
        names.sort();
        assert_eq!(names, vec!["bao", "lero"]);

        for driver in ["bao", "lero"] {
            console.start_driver(Some(driver)).unwrap();
            let out = console.execute_sql(SQL).unwrap();
            assert!(out.count > 0, "{driver}");
            assert_eq!(out.driver.as_deref(), Some(driver));
        }
        console.tick(); // background updates must not panic
    }

    #[test]
    fn parallel_exec_mode_preserves_results_and_work() {
        let (serial_out, parallel_out) = {
            let (mut serial, _) = console();
            let s = serial.execute_sql(SQL).unwrap();
            let (parallel, _) = console();
            let mut parallel = parallel.with_exec_mode(ExecMode::Parallel { threads: 4 });
            let p = parallel.execute_sql(SQL).unwrap();
            (s, p)
        };
        assert_eq!(serial_out.count, parallel_out.count);
        assert_eq!(serial_out.work.to_bits(), parallel_out.work.to_bits());
    }

    #[test]
    fn batched_exec_mode_preserves_results_and_work() {
        let (mut serial, _) = console();
        let s = serial.execute_sql(SQL).unwrap();
        let (batched, _) = console();
        let mut batched = batched.with_exec_mode(ExecMode::Batched { batch_size: 64 });
        let b = batched.execute_sql(SQL).unwrap();
        assert_eq!(s.count, b.count);
        assert_eq!(s.work.to_bits(), b.work.to_bits());
    }

    #[test]
    fn reopt_console_preserves_results_and_untriggered_work() {
        let (mut plain, _) = console();
        let base = plain.execute_sql(SQL).unwrap();
        let (reopt, _) = console();
        // Default thresholds won't trip on a well-estimated workload, so
        // the checkpointed path must match the plain one bit for bit.
        let mut reopt = reopt.with_reopt(lqo_reopt::ReoptConfig::default());
        let out = reopt.execute_sql(SQL).unwrap();
        assert_eq!(out.count, base.count);
        assert_eq!(out.work.to_bits(), base.work.to_bits());
    }

    #[test]
    fn unknown_driver_is_rejected() {
        let (mut console, _) = console();
        assert!(console.start_driver(Some("nope")).is_err());
    }

    /// A driver whose `algo` panics on every call and whose feedback hook
    /// panics too — the worst-behaved learned component possible.
    struct HostileDriver;
    impl Driver for HostileDriver {
        fn name(&self) -> &str {
            "hostile"
        }
        fn init(
            &mut self,
            _i: &dyn crate::interactor::DbInteractor,
            _s: crate::interactor::SessionId,
        ) -> Result<()> {
            Ok(())
        }
        fn algo(
            &mut self,
            _i: &dyn crate::interactor::DbInteractor,
            _s: crate::interactor::SessionId,
            _q: &lqo_engine::SpjQuery,
        ) -> Result<DriverDecision> {
            panic!("injected driver panic");
        }
        fn collect(&mut self, _feedback: &ExecFeedback) {
            panic!("injected feedback panic");
        }
    }

    #[test]
    fn panicking_driver_is_contained_and_circuit_broken() {
        let baseline = {
            let (mut plain, _) = console();
            plain.execute_sql(SQL).unwrap().count
        };
        let (guarded, _) = console();
        let obs = ObsContext::enabled();
        let mut guarded = guarded.with_telemetry(obs.clone()).with_driver_guard(
            Some(Duration::from_millis(250)),
            BreakerConfig {
                failure_threshold: 2,
                cooldown_calls: 3,
                max_backoff_level: 2,
            },
        );
        guarded.register_driver(Box::new(HostileDriver)).unwrap();
        guarded.start_driver(Some("hostile")).unwrap();

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
                                                // Every query succeeds with the correct answer despite the driver.
        for _ in 0..6 {
            let out = guarded.execute_sql(SQL).unwrap();
            assert_eq!(out.count, baseline);
            assert_eq!(out.decision, None, "no successful decision exists");
        }
        std::panic::set_hook(prev);
        // Queries 1-2 panic and open the breaker; 3-5 are skipped while
        // the cooldown ticks; query 6 is the half-open probe, panics, and
        // re-opens it — two open transitions in total.
        assert_eq!(guarded.breaker_state("hostile"), Some(BreakerState::Open));
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.guard.breaker_opens"), Some(2));
        // 3 algo panics plus 6 contained feedback panics.
        assert_eq!(snap.counter("lqo.guard.faults"), Some(9));
        assert_eq!(snap.counter("lqo.guard.skips"), Some(3));
        // The guard events landed on the traces.
        let traces = obs.finished_traces();
        assert!(traces
            .iter()
            .flat_map(|t| t.guard.iter())
            .any(|g| g.component == "driver:hostile" && g.fault == "panic"));
        assert!(traces
            .iter()
            .flat_map(|t| t.guard.iter())
            .any(|g| g.fault == "breaker-open" && g.action == "delegate"));
    }

    #[test]
    fn flight_recorder_captures_breaker_incident_bundle() {
        let (console_, _) = console();
        let obs = ObsContext::enabled();
        let flight = FlightContext::new(FlightConfig::default(), obs.clone());
        let mut console_ = console_
            .with_telemetry(Telemetry {
                obs: obs.clone(),
                flight,
                ..Telemetry::default()
            })
            .with_driver_guard(
                Some(Duration::from_millis(250)),
                BreakerConfig {
                    failure_threshold: 2,
                    cooldown_calls: 3,
                    max_backoff_level: 2,
                },
            );
        console_.register_driver(Box::new(HostileDriver)).unwrap();
        console_.start_driver(Some("hostile")).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..2 {
            console_.execute_sql(SQL).unwrap();
        }
        std::panic::set_hook(prev);
        // Query 2 opened the breaker: exactly one bundle, finalized with
        // the finished trace and populated with the query's ring events.
        let bundles = console_.telemetry().flight.take_bundles();
        assert_eq!(bundles.len(), 1);
        let b = &bundles[0];
        assert!(b.is_well_formed(), "{b:?}");
        assert_eq!(b.trigger, "breaker-open:driver:hostile");
        let trace = b.trace.as_ref().expect("bundle carries the query trace");
        assert!(trace.guard.iter().any(|g| g.fault == "panic"));
        assert!(
            b.events.iter().any(
                |r| matches!(&r.event, FlightEvent::Span { name, .. } if name == "exec.query")
            ),
            "executor spans reached the ring: {:?}",
            b.events
        );
        assert!(b
            .events
            .iter()
            .any(|r| matches!(&r.event, FlightEvent::Breaker { state, .. } if state == "open")));
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.flight.bundles"), Some(1));
        assert!(snap.counter("lqo.flight.events").unwrap_or(0) > 0);
    }

    #[test]
    fn watch_monitor_sees_traces_and_breaker_state() {
        use lqo_watch::{HealthState, WatchConfig};

        let baseline = {
            let (mut plain, _) = console();
            plain.execute_sql(SQL).unwrap().count
        };
        let (console_, ctx) = console();
        let obs = ObsContext::enabled();
        let watch = Arc::new(ModelHealthMonitor::new(WatchConfig::default()).with_obs(obs.clone()));
        let mut console_ = console_
            .with_telemetry(obs.clone())
            .with_watch(watch.clone())
            .with_driver_guard(
                Some(Duration::from_millis(250)),
                BreakerConfig {
                    failure_threshold: 2,
                    cooldown_calls: 3,
                    max_backoff_level: 2,
                },
            );
        let fit = FitContext {
            catalog: ctx.catalog.clone(),
            stats: ctx.stats.clone(),
        };
        let est = Arc::new(SamplingEstimator::fit(&fit));
        console_
            .register_driver(Box::new(CardDriver::new(est)))
            .unwrap();
        console_.register_driver(Box::new(HostileDriver)).unwrap();

        // Healthy driver: traces flow into the monitor.
        console_.start_driver(Some("learned-cardinality")).unwrap();
        for _ in 0..4 {
            assert_eq!(console_.execute_sql(SQL).unwrap().count, baseline);
        }
        let report = watch.report();
        assert!(!report.components.is_empty());
        assert!(report.slo.plan.count >= 4, "plan SLO saw the queries");
        assert_eq!(report.overall(), HealthState::Healthy);

        // Hostile driver: panics open the breaker; the monitor both sees
        // the guard events on traces and the reported breaker state.
        console_.start_driver(Some("hostile")).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..3 {
            assert_eq!(console_.execute_sql(SQL).unwrap().count, baseline);
        }
        std::panic::set_hook(prev);
        assert_eq!(console_.breaker_state("hostile"), Some(BreakerState::Open));
        let stats = console_.breaker_stats("hostile").unwrap();
        assert_eq!(stats.opens, 1);
        assert_eq!(
            watch.health("driver:hostile"),
            Some(HealthState::Degrading),
            "open breaker degrades the driver component"
        );
        let hostile = watch
            .report()
            .components
            .into_iter()
            .find(|c| c.name == "driver:hostile")
            .unwrap();
        assert!(hostile.guard_faults >= 2, "guard events correlated");
        assert_eq!(hostile.breaker_state, 2.0);
        // The decision-latency histogram (microseconds) recorded the
        // healthy driver's decisions.
        let snap = obs.metrics().unwrap().snapshot();
        let us = snap
            .histogram("lqo.pilot.decision_us")
            .expect("decision_us");
        assert!(us.count() >= 4);
    }

    #[test]
    fn cached_console_execution_is_transparent() {
        let (mut plain, _) = console();
        let (cached, _) = console();
        let cache = Arc::new(LqoCache::default());
        let mut cached = cached.with_cache(cache.clone());
        for _ in 0..3 {
            let p = plain.execute_sql(SQL).unwrap();
            let c = cached.execute_sql(SQL).unwrap();
            assert_eq!(p.count, c.count);
            assert_eq!(p.work.to_bits(), c.work.to_bits());
        }
        let stats = cache.stats();
        assert!(stats.plan_hits >= 2, "{stats:?}");
        assert!(
            stats.card_misses > 0,
            "inference cache was populated: {stats:?}"
        );
    }

    #[test]
    fn healthy_watch_traffic_leaves_cache_intact() {
        let (console_, _) = console();
        let obs = ObsContext::enabled();
        let watch = Arc::new(ModelHealthMonitor::new(lqo_watch::WatchConfig::default()));
        let cache = Arc::new(LqoCache::default());
        let mut console_ = console_
            .with_telemetry(obs.clone())
            .with_watch(watch.clone())
            .with_cache(cache.clone());
        for _ in 0..4 {
            console_.execute_sql(SQL).unwrap();
        }
        // The drift hook ran on every finished trace (healthy verdicts),
        // and a healthy system never loses its cache entries to it.
        assert_eq!(cache.stats().card_invalidations, 0);
        assert_eq!(cache.stats().plan_invalidations, 0);
        assert!(cache.plan_len() >= 1);
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.cache.drift_invalidations"), None);
        assert!(snap.counter("lqo.cache.plan.hits").unwrap_or(0) >= 3);
    }

    #[test]
    fn breaker_open_invalidates_cached_plans() {
        let (console_, _) = console();
        let obs = ObsContext::enabled();
        let cache = Arc::new(LqoCache::default());
        let mut console_ = console_
            .with_telemetry(obs.clone())
            .with_cache(cache.clone())
            .with_driver_guard(
                Some(Duration::from_millis(250)),
                BreakerConfig {
                    failure_threshold: 2,
                    cooldown_calls: 3,
                    max_backoff_level: 2,
                },
            );
        console_.register_driver(Box::new(HostileDriver)).unwrap();
        // Warm the plan cache without a driver.
        console_.execute_sql(SQL).unwrap();
        assert_eq!(cache.plan_len(), 1);
        console_.start_driver(Some("hostile")).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..2 {
            console_.execute_sql(SQL).unwrap(); // panics -> breaker opens
        }
        std::panic::set_hook(prev);
        assert_eq!(console_.breaker_state("hostile"), Some(BreakerState::Open));
        // The open transition purged cached plans (the second query
        // re-populates after delegating, which is fine).
        assert!(cache.stats().plan_invalidations >= 1, "{:?}", cache.stats());
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.cache.breaker_invalidations"), Some(1));
    }

    #[test]
    fn profiler_threads_through_console_phases_and_cache_counters() {
        let (console_, _) = console();
        let prof = ProfContext::enabled();
        let cache = Arc::new(LqoCache::default());
        let mut console_ = console_.with_cache(cache).with_telemetry(prof.clone());
        for _ in 0..3 {
            console_.execute_sql(SQL).unwrap();
        }
        // One profile per query, and the hierarchical phase tree covers
        // the whole pipeline: parse, plan (with enumeration and estimator
        // attribution nested under it), and execution.
        let profiles = prof.take_finished();
        assert_eq!(profiles.len(), 3);
        let total = prof.total();
        for path in [
            "parse",
            "plan",
            "plan;enumerate",
            "plan;enumerate;estimate",
            "execute",
        ] {
            assert!(total.frames.contains_key(path), "missing frame {path}");
        }
        // The plan cache served the two repeats; the profiler's exact
        // counters separate that from genuine optimizations.
        let counters = prof.counters();
        assert_eq!(counters.get("plan_cache_misses"), Some(&1));
        assert_eq!(counters.get("plan_cache_hits"), Some(&2));
        assert!(prof.estimator_calls() > 0);
    }

    #[test]
    fn breaker_recovers_after_cooldown_probe() {
        struct FlakyDriver {
            calls: usize,
        }
        impl Driver for FlakyDriver {
            fn name(&self) -> &str {
                "flaky"
            }
            fn init(
                &mut self,
                _i: &dyn crate::interactor::DbInteractor,
                _s: crate::interactor::SessionId,
            ) -> Result<()> {
                Ok(())
            }
            fn algo(
                &mut self,
                _i: &dyn crate::interactor::DbInteractor,
                _s: crate::interactor::SessionId,
                _q: &lqo_engine::SpjQuery,
            ) -> Result<DriverDecision> {
                self.calls += 1;
                if self.calls <= 2 {
                    panic!("transient failure");
                }
                Ok(DriverDecision::Delegate)
            }
        }
        let (console, _) = console();
        let mut console = console.with_driver_guard(
            None,
            BreakerConfig {
                failure_threshold: 2,
                cooldown_calls: 2,
                max_backoff_level: 2,
            },
        );
        console
            .register_driver(Box::new(FlakyDriver { calls: 0 }))
            .unwrap();
        console.start_driver(Some("flaky")).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..2 {
            console.execute_sql(SQL).unwrap(); // panics -> breaker opens
        }
        std::panic::set_hook(prev);
        assert_eq!(console.breaker_state("flaky"), Some(BreakerState::Open));
        for _ in 0..2 {
            console.execute_sql(SQL).unwrap(); // cooldown ticks
        }
        assert_eq!(console.breaker_state("flaky"), Some(BreakerState::HalfOpen));
        let out = console.execute_sql(SQL).unwrap(); // successful probe
        assert!(out.decision.is_some());
        assert_eq!(console.breaker_state("flaky"), Some(BreakerState::Closed));
    }

    /// What one console run leaves behind, minus wall-clock figures.
    #[derive(Debug, PartialEq)]
    struct WiringRun {
        traces: Vec<String>,
        ring: Vec<FlightRecord>,
        cache_counters: Vec<(String, u64)>,
        cache_stats: lqo_cache::CacheStats,
    }

    /// Run the same SQL (plain, then through a panicking driver) on a
    /// console given its telemetry before or after its cache and watch.
    fn wiring_run(telemetry_first: bool) -> WiringRun {
        let (console_, _) = console();
        let obs = ObsContext::enabled();
        let telemetry = Telemetry {
            obs: obs.clone(),
            prof: ProfContext::enabled(),
            flight: FlightContext::new(FlightConfig::default(), obs.clone()),
        };
        let cache = Arc::new(LqoCache::default());
        let watch = Arc::new(ModelHealthMonitor::new(lqo_watch::WatchConfig::default()));
        let console_ = if telemetry_first {
            console_
                .with_telemetry(telemetry.clone())
                .with_cache(cache.clone())
                .with_watch(watch)
        } else {
            console_
                .with_cache(cache.clone())
                .with_watch(watch)
                .with_telemetry(telemetry.clone())
        };
        let mut console_ = console_.with_driver_guard(
            Some(Duration::from_secs(60)),
            BreakerConfig {
                failure_threshold: 2,
                cooldown_calls: 3,
                max_backoff_level: 2,
            },
        );
        console_.register_driver(Box::new(HostileDriver)).unwrap();
        for _ in 0..2 {
            console_.execute_sql(SQL).unwrap();
        }
        console_.start_driver(Some("hostile")).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..3 {
            console_.execute_sql(SQL).unwrap();
        }
        std::panic::set_hook(prev);
        let traces = obs
            .finished_traces()
            .iter()
            .map(|t| {
                let phases: Vec<&str> = t.phases.iter().map(|p| p.name.as_str()).collect();
                let outcome = t.outcome.as_ref().map(|o| (o.count, o.work.to_bits()));
                format!(
                    "{} {:?} {phases:?} {:?} {:?} {:?} {:?} {:?} {outcome:?}",
                    t.query, t.driver, t.planner, t.exec, t.guard, t.cache, t.reopt
                )
            })
            .collect();
        let cache_counters = obs
            .metrics()
            .unwrap()
            .snapshot()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("lqo.cache."))
            .collect();
        WiringRun {
            traces,
            ring: telemetry.flight.ring_snapshot(),
            cache_counters,
            cache_stats: cache.stats(),
        }
    }

    #[test]
    fn telemetry_wiring_does_not_depend_on_builder_order() {
        let first = wiring_run(true);
        let last = wiring_run(false);
        assert_eq!(first.traces.len(), 5);
        assert!(first
            .cache_counters
            .iter()
            .any(|(name, n)| name.starts_with("lqo.cache.card.") && *n > 0));
        assert!(first
            .ring
            .iter()
            .any(|r| matches!(&r.event, FlightEvent::Cache { .. })));
        assert!(first.ring.iter().any(|r| matches!(
            &r.event,
            FlightEvent::Guard { fault, .. } if fault == "panic"
        )));
        assert_eq!(first, last);
    }

    #[test]
    fn parse_error_leaves_no_open_query() {
        let (console_, _) = console();
        let obs = ObsContext::enabled();
        let telemetry = Telemetry {
            obs: obs.clone(),
            prof: ProfContext::enabled(),
            flight: FlightContext::new(FlightConfig::default(), obs.clone()),
        };
        let mut console_ = console_.with_telemetry(telemetry.clone());
        assert!(console_.execute_sql("SELECT COUNT(*) FROM").is_err());
        // The profiler query was finished (not left active): a phase
        // opened now attributes to no query and lands in the total only.
        assert_eq!(telemetry.prof.finished().len(), 1);
        assert_eq!(obs.finished_traces().len(), 1);
        drop(telemetry.prof.phase("after"));
        assert!(telemetry.prof.finished()[0]
            .profile
            .frames
            .keys()
            .all(|k| k != "after"));
        // The flight window was closed: an event published now belongs
        // to no query.
        telemetry.flight.publish(
            Producer::Pilot,
            FlightEvent::Span {
                name: "probe".into(),
                begin: true,
            },
        );
        let ring = telemetry.flight.ring_snapshot();
        assert_eq!(ring.last().unwrap().query_id, 0);
        assert!(ring[..ring.len() - 1].iter().all(|r| r.query_id == 1));
        // The next query opens a fresh, working window.
        console_.execute_sql(SQL).unwrap();
        assert_eq!(telemetry.prof.finished().len(), 2);
    }
}
