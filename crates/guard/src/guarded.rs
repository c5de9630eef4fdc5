//! Guarded invocation: run model calls under `catch_unwind`, validate
//! their outputs, enforce inference deadlines, and step down a
//! degradation ladder when a component misbehaves.
//!
//! The containment contract mirrors PilotScope's: learned code may panic,
//! emit garbage, or stall, and the query pipeline still answers — at
//! worst with the native optimizer's plan. Deadlines are enforced
//! *post hoc*: the call runs to completion, its elapsed time is compared
//! to the deadline, and an overrun rejects the result and trips the
//! breaker, so subsequent calls skip the slow component entirely. This is
//! the honest in-process trade-off — we cannot preempt a running model
//! thread, but we can refuse to let a slow model steer more than one
//! plan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lqo_engine::optimizer::CardSource;
use lqo_engine::{SpjQuery, TableSet, Telemetry};
use lqo_flight::Producer;

use crate::breaker::{BreakerConfig, CircuitBreaker};

/// Everything the guard enforces on one component.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Per-call inference deadline (post-hoc; `None` = unlimited).
    pub deadline: Option<Duration>,
    /// Per-query plan-time budget across all guarded calls (`None` =
    /// unlimited). Reset via [`GuardedCardSource::begin_query`].
    pub plan_budget: Option<Duration>,
    /// Sane upper bound on any cardinality estimate, in rows.
    pub max_estimate: f64,
    /// Breaker tuning, applied per guarded rung.
    pub breaker: BreakerConfig,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            deadline: Some(Duration::from_millis(250)),
            plan_budget: Some(Duration::from_secs(2)),
            max_estimate: 1e15,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Why a guarded call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardFault {
    /// The component panicked; the unwind was caught.
    Panicked,
    /// The output was NaN or ±∞.
    NonFinite,
    /// The output was negative where only counts make sense.
    Negative,
    /// The output exceeded the configured sanity bound.
    OutOfBounds,
    /// The call finished after its inference deadline.
    DeadlineExceeded,
    /// The per-query plan-time budget was already exhausted.
    BudgetExhausted,
}

impl GuardFault {
    /// Short stable label for metrics and trace events.
    pub fn label(self) -> &'static str {
        match self {
            GuardFault::Panicked => "panic",
            GuardFault::NonFinite => "non-finite",
            GuardFault::Negative => "negative",
            GuardFault::OutOfBounds => "out-of-bounds",
            GuardFault::DeadlineExceeded => "deadline",
            GuardFault::BudgetExhausted => "budget",
        }
    }
}

/// Validate a cardinality-like output: finite, non-negative, bounded.
pub fn validate_estimate(value: f64, cfg: &GuardConfig) -> Result<f64, GuardFault> {
    if !value.is_finite() {
        Err(GuardFault::NonFinite)
    } else if value < 0.0 {
        Err(GuardFault::Negative)
    } else if value > cfg.max_estimate {
        Err(GuardFault::OutOfBounds)
    } else {
        Ok(value)
    }
}

/// Run `f` under `catch_unwind`, timing it and enforcing `deadline`
/// post hoc. Returns the value or the fault, and the call's latency
/// either way, so a plan budget can charge every call.
pub fn invoke_guarded<T>(
    deadline: Option<Duration>,
    f: impl FnOnce() -> T,
) -> (Result<T, GuardFault>, Duration) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let elapsed = start.elapsed();
    let out = match out {
        Err(_) => Err(GuardFault::Panicked),
        Ok(_) if deadline.is_some_and(|d| elapsed > d) => Err(GuardFault::DeadlineExceeded),
        Ok(v) => Ok(v),
    };
    (out, elapsed)
}

/// A per-query plan-time budget shared by every guarded call made while
/// planning one query.
#[derive(Debug, Default)]
pub struct PlanBudget {
    limit_ns: Option<u64>,
    spent_ns: AtomicU64,
}

impl PlanBudget {
    /// A budget with the given limit (`None` = unlimited).
    pub fn new(limit: Option<Duration>) -> PlanBudget {
        PlanBudget {
            limit_ns: limit.map(|d| d.as_nanos() as u64),
            spent_ns: AtomicU64::new(0),
        }
    }

    /// Start a new query: forget everything spent.
    pub fn reset(&self) {
        self.spent_ns.store(0, Ordering::Relaxed);
    }

    /// Charge one call's latency.
    pub fn charge(&self, elapsed: Duration) {
        self.spent_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Whether the budget is used up.
    pub fn exhausted(&self) -> bool {
        self.limit_ns
            .is_some_and(|l| self.spent_ns.load(Ordering::Relaxed) >= l)
    }
}

/// One step of the degradation ladder.
struct Rung {
    name: String,
    source: Arc<dyn CardSource>,
    /// Gauge name of this rung's breaker state, built once.
    breaker_gauge: String,
}

/// A [`CardSource`] that walks a degradation ladder of sources — most
/// learned first, most trusted last. Every rung but the last runs under
/// the full guard (unwind containment, output validation, deadline,
/// breaker); the last rung is the trusted native fallback and is called
/// directly. This is the "learned estimator → hybrid → traditional
/// histogram → native" ladder from the survey's containment story.
pub struct GuardedCardSource {
    component: String,
    /// Gauge name of the answering rung's index, built once.
    rung_gauge: String,
    rungs: Vec<Rung>,
    breakers: Vec<CircuitBreaker>,
    cfg: GuardConfig,
    budget: PlanBudget,
    telemetry: Telemetry,
}

impl GuardedCardSource {
    /// An empty ladder for a named component (e.g. `"card"`). Add rungs
    /// with [`GuardedCardSource::rung`]; at least one is required before
    /// use. Faults, fallbacks and breaker opens report to `telemetry`
    /// (metrics and trace events on its obs context; guard faults and
    /// breaker-open transitions — an incident trigger — on its flight
    /// ring).
    pub fn new(
        component: &str,
        cfg: GuardConfig,
        telemetry: impl Into<Telemetry>,
    ) -> GuardedCardSource {
        GuardedCardSource {
            component: component.to_string(),
            rung_gauge: format!("lqo.guard.{component}.rung"),
            rungs: Vec::new(),
            breakers: Vec::new(),
            cfg,
            budget: PlanBudget::default(),
            telemetry: telemetry.into(),
        }
    }

    /// Append a rung. Order matters: first added is tried first; the last
    /// added is the trusted unguarded fallback.
    pub fn rung(mut self, name: &str, source: Arc<dyn CardSource>) -> GuardedCardSource {
        self.rungs.push(Rung {
            name: name.to_string(),
            source,
            breaker_gauge: format!("lqo.guard.{}.{name}.breaker", self.component),
        });
        self.breakers
            .push(CircuitBreaker::new(self.cfg.breaker.clone()));
        self.budget = PlanBudget::new(self.cfg.plan_budget);
        self
    }

    /// Reset the per-query plan budget; call at the start of each query's
    /// planning.
    pub fn begin_query(&self) {
        self.budget.reset();
    }

    fn record_fault(&self, rung: &str, fault: GuardFault, next: &str) {
        self.telemetry.obs.count("lqo.guard.faults", 1);
        self.telemetry
            .obs
            .count(&format!("lqo.guard.faults.{}", fault.label()), 1);
        self.telemetry.obs.count("lqo.guard.fallbacks", 1);
        self.telemetry.guard_event(
            Producer::Guard,
            &format!("{}:{}", self.component, rung),
            fault.label(),
            &format!("fallback:{next}"),
        );
    }

    fn publish_breaker_state(&self, i: usize) {
        if self.telemetry.obs.is_enabled() {
            let state = self.breakers[i].state().code();
            self.telemetry
                .obs
                .gauge(&self.rungs[i].breaker_gauge, state);
        }
    }

    /// Record that rung `i` answered.
    fn answered(&self, i: usize) {
        if self.telemetry.obs.is_enabled() {
            self.telemetry.obs.gauge(&self.rung_gauge, i as f64);
        }
    }
}

impl CardSource for GuardedCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        assert!(!self.rungs.is_empty(), "GuardedCardSource has no rungs");
        let last = self.rungs.len() - 1;
        for i in 0..last {
            let rung = &self.rungs[i];
            let next = self.rungs[i + 1].name.as_str();
            if self.budget.exhausted() {
                self.record_fault(&rung.name, GuardFault::BudgetExhausted, next);
                continue;
            }
            if !self.breakers[i].allow() {
                self.telemetry.obs.count("lqo.guard.skips", 1);
                continue;
            }
            let (outcome, elapsed) =
                invoke_guarded(self.cfg.deadline, || rung.source.cardinality(query, set));
            // Every call spends the budget and is timed, overruns and
            // panics included.
            self.budget.charge(elapsed);
            self.telemetry
                .obs
                .observe("lqo.guard.deadline_ns", elapsed.as_nanos() as f64);
            let outcome = outcome.and_then(|v| validate_estimate(v, &self.cfg));
            match outcome {
                Ok(v) => {
                    self.breakers[i].record_success();
                    self.publish_breaker_state(i);
                    self.answered(i);
                    return v;
                }
                Err(fault) => {
                    if self.breakers[i].record_failure() {
                        self.telemetry.breaker_open(
                            Producer::Guard,
                            &format!("{}:{}", self.component, rung.name),
                        );
                    }
                    self.publish_breaker_state(i);
                    self.record_fault(&rung.name, fault, next);
                }
            }
        }
        // The trusted rung: called directly, no guard.
        self.answered(last);
        self.rungs[last].source.cardinality(query, set)
    }

    fn name(&self) -> &str {
        "guarded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_obs::ObsContext;
    use std::sync::atomic::AtomicUsize;

    /// A rung that answers only after `sleep`, counting its calls.
    struct Slow {
        sleep: Duration,
        calls: AtomicUsize,
    }

    impl CardSource for Slow {
        fn cardinality(&self, _: &SpjQuery, _: TableSet) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.sleep);
            10.0
        }
    }

    struct Fixed(f64);

    impl CardSource for Fixed {
        fn cardinality(&self, _: &SpjQuery, _: TableSet) -> f64 {
            self.0
        }
    }

    #[test]
    fn deadline_overruns_spend_the_plan_budget() {
        let slow = Arc::new(Slow {
            sleep: Duration::from_millis(3),
            calls: AtomicUsize::new(0),
        });
        let cfg = GuardConfig {
            deadline: Some(Duration::from_millis(1)),
            plan_budget: Some(Duration::from_millis(5)),
            // Keep the breaker out of the way: only the budget may stop
            // the rung from being called.
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                ..BreakerConfig::default()
            },
            ..GuardConfig::default()
        };
        let obs = ObsContext::enabled();
        let guarded = GuardedCardSource::new("card", cfg, obs.clone())
            .rung("slow", slow.clone())
            .rung("native", Arc::new(Fixed(1.0)));
        let query = SpjQuery::new(Vec::new(), Vec::new(), Vec::new());
        guarded.begin_query();
        // Two overruns of at least 3 ms each spend the 5 ms budget ...
        for _ in 0..2 {
            assert_eq!(guarded.cardinality(&query, TableSet(1)), 1.0);
        }
        assert_eq!(slow.calls.load(Ordering::Relaxed), 2);
        // ... so the next lookup of the same query skips the rung.
        assert_eq!(guarded.cardinality(&query, TableSet(1)), 1.0);
        assert_eq!(slow.calls.load(Ordering::Relaxed), 2);
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.guard.faults.deadline"), Some(2));
        assert_eq!(snap.counter("lqo.guard.faults.budget"), Some(1));
        // A new query starts with a fresh budget.
        guarded.begin_query();
        guarded.cardinality(&query, TableSet(1));
        assert_eq!(slow.calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn deadline_histogram_times_overruns_too() {
        let cfg = GuardConfig {
            deadline: Some(Duration::from_millis(1)),
            ..GuardConfig::default()
        };
        let obs = ObsContext::enabled();
        let guarded = GuardedCardSource::new("card", cfg, obs.clone())
            .rung(
                "slow",
                Arc::new(Slow {
                    sleep: Duration::from_millis(3),
                    calls: AtomicUsize::new(0),
                }),
            )
            .rung("native", Arc::new(Fixed(1.0)));
        let query = SpjQuery::new(Vec::new(), Vec::new(), Vec::new());
        guarded.begin_query();
        assert_eq!(guarded.cardinality(&query, TableSet(1)), 1.0);
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.guard.faults.deadline"), Some(1));
        let h = snap.histogram("lqo.guard.deadline_ns").expect("call timed");
        assert_eq!(h.count(), 1);
        assert!(h.min().unwrap() >= 3e6);
    }

    #[test]
    fn invoke_guarded_contains_panics_and_checks_deadlines() {
        let (out, _) = invoke_guarded(None, || panic!("boom"));
        assert_eq!(out.unwrap_err(), GuardFault::Panicked);
        let (out, elapsed) = invoke_guarded(Some(Duration::from_nanos(1)), || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out.unwrap_err(), GuardFault::DeadlineExceeded);
        assert!(elapsed >= Duration::from_millis(2));
        let (out, _) = invoke_guarded(Some(Duration::from_secs(10)), || 7);
        assert_eq!(out, Ok(7));
    }

    #[test]
    fn validation_rejects_garbage() {
        let cfg = GuardConfig::default();
        assert_eq!(validate_estimate(42.0, &cfg), Ok(42.0));
        assert_eq!(
            validate_estimate(f64::NAN, &cfg),
            Err(GuardFault::NonFinite)
        );
        assert_eq!(
            validate_estimate(f64::INFINITY, &cfg),
            Err(GuardFault::NonFinite)
        );
        assert_eq!(validate_estimate(-3.0, &cfg), Err(GuardFault::Negative));
        assert_eq!(validate_estimate(1e20, &cfg), Err(GuardFault::OutOfBounds));
    }

    #[test]
    fn plan_budget_charges_and_exhausts() {
        let b = PlanBudget::new(Some(Duration::from_millis(1)));
        assert!(!b.exhausted());
        b.charge(Duration::from_millis(2));
        assert!(b.exhausted());
        b.reset();
        assert!(!b.exhausted());
        let unlimited = PlanBudget::new(None);
        unlimited.charge(Duration::from_secs(3600));
        assert!(!unlimited.exhausted());
    }
}
