//! The model-health monitor: per-component telemetry → health state.
//!
//! A [`ModelHealthMonitor`] is the hub of `lqo-watch`. Execution
//! feedback flows in — per-operator estimate/truth pairs, predicted cost
//! vs measured work, plan/exec latencies, guard events — either directly
//! or by ingesting finished [`QueryTrace`]s from `lqo-obs`. Per
//! component it maintains a q-error sketch against a frozen baseline, a
//! calibration tracker, and a drift detector on the true-cardinality
//! stream, and from those derives a published health state:
//!
//! * [`HealthState::Drifted`] — the two-window drift test fired;
//! * [`HealthState::Degrading`] — window p95 q-error blew past the
//!   baseline, calibration bias exceeded its limit, or the component's
//!   circuit breaker is open (the `lqo-guard` correlation);
//! * [`HealthState::Healthy`] — otherwise.
//!
//! The monitor is `Mutex`-guarded and shared by `Arc`, mirroring how
//! `ObsContext` threads through the stack; when an `ObsContext` is
//! attached, health states are published as `lqo.watch.health.<comp>`
//! gauges and alarm transitions as `lqo.watch.alarms` counters.

use std::collections::BTreeMap;
use std::fmt;

use parking_lot::Mutex;

use lqo_obs::metrics::Histogram;
use lqo_obs::trace::QueryTrace;
use lqo_obs::ObsContext;

use crate::attribution::{rank_blame, RegressionRecord};
use crate::calibration::CalibrationTracker;
use crate::drift::{DriftConfig, DriftDetector};
use crate::series::{SamplePoint, Series};
use crate::sketch::QErrorSketch;
use crate::slo::{SloConfig, SloReport, SloTracker};

/// Published per-component health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Within baseline behaviour.
    Healthy,
    /// Accuracy, calibration, or availability is eroding.
    Degrading,
    /// The input distribution moved from under the model.
    Drifted,
}

impl HealthState {
    /// Numeric code for gauges and series: 0 / 1 / 2.
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degrading => 1,
            HealthState::Drifted => 2,
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degrading => "degrading",
            HealthState::Drifted => "drifted",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Monitor tuning.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Q-error observations frozen as the per-component baseline.
    pub baseline: usize,
    /// Q-error sketch chunk size (window granularity).
    pub chunk: usize,
    /// Chunks in the sketch's sliding window.
    pub window_chunks: usize,
    /// Degrading when window p95 exceeds `degrade_factor ×` baseline p95…
    pub degrade_factor: f64,
    /// …and also exceeds this absolute floor (a 1.2→2.5 median is noise).
    pub degrade_min_p95: f64,
    /// Degrading when |calibration bias| (log₂) exceeds this.
    pub bias_limit_log2: f64,
    /// Drift-detector tuning (applied per component).
    pub drift: DriftConfig,
    /// SLO tuning (monitor-wide).
    pub slo: SloConfig,
    /// Append a series sample every N observations per component (the
    /// stride doubles each time the series reaches `max_series`).
    pub sample_every: usize,
    /// Most series samples retained. On reaching it the series drops
    /// every other sample of each component and doubles the sampling
    /// stride, so it keeps spanning the whole stream.
    pub max_series: usize,
    /// Work ratio vs native above which a query counts as a regression.
    pub regression_threshold: f64,
    /// Worst regressions retained for attribution.
    pub max_regressions: usize,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            baseline: 48,
            chunk: 16,
            window_chunks: 4,
            degrade_factor: 4.0,
            degrade_min_p95: 8.0,
            bias_limit_log2: 2.0,
            drift: DriftConfig::default(),
            slo: SloConfig::default(),
            sample_every: 1,
            max_series: 100_000,
            regression_threshold: 1.1,
            max_regressions: 64,
        }
    }
}

/// Live state for one watched component.
struct ComponentHealth {
    sketch: QErrorSketch,
    baseline: Histogram,
    calib: CalibrationTracker,
    drift: DriftDetector,
    observations: u64,
    guard_faults: u64,
    breaker_opens: u64,
    breaker_state: f64,
    first_alarm: Option<u64>,
    last_health: HealthState,
}

impl ComponentHealth {
    fn new(cfg: &WatchConfig) -> ComponentHealth {
        ComponentHealth {
            sketch: QErrorSketch::new(cfg.chunk, cfg.window_chunks),
            baseline: Histogram::new(),
            calib: CalibrationTracker::new(),
            drift: DriftDetector::new(cfg.drift.clone()),
            observations: 0,
            guard_faults: 0,
            breaker_opens: 0,
            breaker_state: 0.0,
            first_alarm: None,
            last_health: HealthState::Healthy,
        }
    }

    fn health(&self, cfg: &WatchConfig) -> HealthState {
        if self.drift.status().drifted {
            return HealthState::Drifted;
        }
        if self.breaker_state >= 2.0 {
            return HealthState::Degrading;
        }
        if self.baseline.count() >= cfg.baseline as u64 {
            if let (Some(base_p95), Some(cur_p95)) =
                (self.baseline.quantile(0.95), self.sketch.p95())
            {
                if cur_p95 > cfg.degrade_min_p95 && cur_p95 > cfg.degrade_factor * base_p95 {
                    return HealthState::Degrading;
                }
            }
        }
        if self.calib.count() >= cfg.baseline as u64
            && self.calib.bias_log2().abs() > cfg.bias_limit_log2
        {
            return HealthState::Degrading;
        }
        HealthState::Healthy
    }
}

/// Point-in-time summary of one component.
#[derive(Debug, Clone)]
pub struct ComponentReport {
    /// Component name.
    pub name: String,
    /// Feedback observations consumed.
    pub observations: u64,
    /// Window median q-error.
    pub q50: Option<f64>,
    /// Window p95 q-error.
    pub q95: Option<f64>,
    /// Window max q-error.
    pub qmax: Option<f64>,
    /// Frozen baseline p95 q-error.
    pub baseline_p95: Option<f64>,
    /// Current drift PSI score.
    pub psi: f64,
    /// Current drift KS score.
    pub ks: f64,
    /// Calibration bias, log₂(predicted/actual).
    pub bias_log2: f64,
    /// Fraction of over-estimates.
    pub over_fraction: f64,
    /// Guard events attributed to this component.
    pub guard_faults: u64,
    /// Circuit-breaker open transitions observed.
    pub breaker_opens: u64,
    /// Latest breaker state code (0 closed, 1 half-open, 2 open).
    pub breaker_state: f64,
    /// Observation index of the first alarm, if any fired.
    pub first_alarm: Option<u64>,
    /// Current health.
    pub health: HealthState,
}

/// Monitor-wide report: all components plus SLOs and regressions.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Per-component summaries, name order.
    pub components: Vec<ComponentReport>,
    /// SLO state.
    pub slo: SloReport,
    /// Worst regressed queries with ranked blame, worst first.
    pub regressions: Vec<RegressionRecord>,
}

impl HealthReport {
    /// The worst health across components (`Healthy` when empty).
    pub fn overall(&self) -> HealthState {
        self.components
            .iter()
            .map(|c| c.health)
            .max()
            .unwrap_or(HealthState::Healthy)
    }
}

struct Inner {
    components: BTreeMap<String, ComponentHealth>,
    slo: SloTracker,
    series: Series,
    regressions: Vec<RegressionRecord>,
}

/// The shared online model-health monitor.
pub struct ModelHealthMonitor {
    cfg: WatchConfig,
    inner: Mutex<Inner>,
    obs: ObsContext,
    /// Flight recorder handle; behind its own lock because the monitor is
    /// shared via `Arc` and the recorder is attached after construction.
    flight: Mutex<lqo_flight::FlightContext>,
}

impl ModelHealthMonitor {
    /// A monitor under `cfg`, not yet publishing metrics.
    pub fn new(cfg: WatchConfig) -> ModelHealthMonitor {
        let slo = SloTracker::new(cfg.slo.clone());
        let series = Series::new(cfg.sample_every, cfg.max_series);
        ModelHealthMonitor {
            cfg,
            inner: Mutex::new(Inner {
                components: BTreeMap::new(),
                slo,
                series,
                regressions: Vec::new(),
            }),
            obs: ObsContext::disabled(),
            flight: Mutex::new(lqo_flight::FlightContext::disabled()),
        }
    }

    /// Attach an observability context: health gauges and alarm counters
    /// are published into its metrics registry.
    pub fn with_obs(mut self, obs: ObsContext) -> ModelHealthMonitor {
        self.obs = obs;
        self
    }

    /// Attach a flight recorder: every health-state transition is
    /// published onto the black-box ring as a watch-alarm edge (a
    /// transition into `drifted` is an incident trigger). Takes `&self`
    /// because the monitor is typically shared via `Arc` by the time the
    /// recorder exists.
    pub fn attach_flight(&self, flight: &lqo_flight::FlightContext) {
        *self.flight.lock() = flight.clone();
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &WatchConfig {
        &self.cfg
    }

    /// Record one cardinality estimate against its measured truth for
    /// `component`, updating sketch, baseline, calibration, and drift.
    pub fn observe_estimate(&self, component: &str, est_rows: f64, true_rows: f64) {
        let cfg = &self.cfg;
        let mut g = self.inner.lock();
        let Inner {
            components, series, ..
        } = &mut *g;
        let c = component_entry(components, component, cfg);
        let q = crate::sketch::q_error(est_rows, true_rows);
        if c.baseline.count() < cfg.baseline as u64 {
            c.baseline.record(q);
        }
        c.sketch.record_q(q);
        c.calib.observe(est_rows, true_rows);
        // Raw rows, not log rows: the PSI side of the detector buckets
        // its input logarithmically already, so feeding log-scale values
        // would square the compression and blind it to octave shifts.
        // The KS side is invariant under monotone transforms either way.
        c.drift.observe(1.0 + true_rows.max(0.0));
        c.observations += 1;
        self.after_observation(c, series, component);
    }

    /// Record a cost-model prediction against the measured work for
    /// `component` (calibration + drift on the work stream; no q-error).
    pub fn observe_cost(&self, component: &str, predicted: f64, actual_work: f64) {
        let cfg = &self.cfg;
        let mut g = self.inner.lock();
        let Inner {
            components, series, ..
        } = &mut *g;
        let c = component_entry(components, component, cfg);
        c.calib.observe(predicted, actual_work);
        c.drift.observe(1.0 + actual_work.max(0.0));
        c.observations += 1;
        self.after_observation(c, series, component);
    }

    /// Record one query's latencies against the SLOs.
    pub fn observe_latency(&self, plan_ns: Option<u64>, exec_work: Option<f64>) {
        let mut g = self.inner.lock();
        if let Some(ns) = plan_ns {
            g.slo.observe_plan_ns(ns);
        }
        if let Some(w) = exec_work {
            g.slo.observe_exec_work(w);
        }
    }

    /// Correlate a circuit-breaker observation (state code per
    /// [`lqo-guard`'s convention]: 0 closed, 1 half-open, 2 open) with
    /// the component's health. `opens` is the breaker's lifetime open
    /// count.
    ///
    /// [`lqo-guard`'s convention]: HealthState::code
    pub fn record_breaker(&self, component: &str, state_code: f64, opens: u64) {
        let cfg = &self.cfg;
        let mut g = self.inner.lock();
        let Inner {
            components, series, ..
        } = &mut *g;
        let c = component_entry(components, component, cfg);
        c.breaker_state = state_code;
        c.breaker_opens = c.breaker_opens.max(opens);
        self.after_observation(c, series, component);
    }

    /// Ingest one finished query trace: operator estimate/truth pairs,
    /// cost calibration, SLO latencies, guard-event correlation, and —
    /// when `native_work` is given and the query regressed past the
    /// threshold — a ranked-blame regression record.
    pub fn ingest_trace(&self, trace: &QueryTrace, native_work: Option<f64>) {
        let component = component_of(trace);
        for op in &trace.exec.operators {
            if let Some(est) = op.est_rows {
                self.observe_estimate(&component, est, op.true_rows as f64);
            }
        }
        if let (Some(cost), Some(outcome)) = (trace.planner.chosen_cost, trace.outcome.as_ref()) {
            self.observe_cost(&format!("cost:{component}"), cost, outcome.work);
        }
        let plan_ns = trace
            .phases
            .iter()
            .find(|p| p.name == "plan")
            .map(|p| p.elapsed_ns);
        self.observe_latency(plan_ns, trace.outcome.as_ref().map(|o| o.work));
        if !trace.guard.is_empty() {
            let mut g = self.inner.lock();
            let cfg = &self.cfg;
            for ev in &trace.guard {
                let c = component_entry(&mut g.components, &ev.component, cfg);
                c.guard_faults += 1;
                if ev.fault == "breaker-open" {
                    c.breaker_state = 2.0;
                }
            }
        }
        if let (Some(native), Some(outcome)) = (native_work, trace.outcome.as_ref()) {
            let ratio = outcome.work / native.max(1e-9);
            if ratio > self.cfg.regression_threshold {
                let record = RegressionRecord {
                    query: trace.query.clone(),
                    component: component.clone(),
                    ratio,
                    blame: rank_blame(trace),
                };
                let mut g = self.inner.lock();
                g.regressions.push(record);
                g.regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
                g.regressions.truncate(self.cfg.max_regressions);
                self.obs.count("lqo.watch.regressions", 1);
            }
        }
    }

    /// Current health of a component, if it has been observed.
    pub fn health(&self, component: &str) -> Option<HealthState> {
        let g = self.inner.lock();
        g.components.get(component).map(|c| c.health(&self.cfg))
    }

    /// Observation index (1-based) at which `component` first left
    /// `Healthy`, `None` while it never has.
    pub fn first_alarm(&self, component: &str) -> Option<u64> {
        let g = self.inner.lock();
        g.components.get(component).and_then(|c| c.first_alarm)
    }

    /// The accumulated health time series.
    pub fn series(&self) -> Vec<SamplePoint> {
        self.inner.lock().series.points().to_vec()
    }

    /// Build the full report.
    pub fn report(&self) -> HealthReport {
        let g = self.inner.lock();
        let components = g
            .components
            .iter()
            .map(|(name, c)| {
                let drift = c.drift.status();
                ComponentReport {
                    name: name.clone(),
                    observations: c.observations,
                    q50: c.sketch.p50(),
                    q95: c.sketch.p95(),
                    qmax: c.sketch.max(),
                    baseline_p95: c.baseline.quantile(0.95),
                    psi: drift.psi,
                    ks: drift.ks,
                    bias_log2: c.calib.bias_log2(),
                    over_fraction: c.calib.over_fraction(),
                    guard_faults: c.guard_faults,
                    breaker_opens: c.breaker_opens,
                    breaker_state: c.breaker_state,
                    first_alarm: c.first_alarm,
                    health: c.health(&self.cfg),
                }
            })
            .collect();
        HealthReport {
            components,
            slo: g.slo.report(),
            regressions: g.regressions.clone(),
        }
    }

    /// Post-observation bookkeeping for `c`, the state of `component`:
    /// health transition tracking, gauge publication, and series
    /// sampling. Caller holds the lock. The drift scores are the ones
    /// the observation just cached, so this costs no recomputation.
    fn after_observation(&self, c: &mut ComponentHealth, series: &mut Series, component: &str) {
        let cfg = &self.cfg;
        let health = c.health(cfg);
        if health != HealthState::Healthy && c.first_alarm.is_none() {
            c.first_alarm = Some(c.observations);
            self.obs.count("lqo.watch.alarms", 1);
        }
        if health != c.last_health {
            self.obs.count("lqo.watch.transitions", 1);
            let flight = self.flight.lock();
            if flight.is_enabled() {
                flight.publish(
                    lqo_flight::Producer::Watch,
                    lqo_flight::FlightEvent::WatchAlarm {
                        metric: component.to_string(),
                        health: health.name().to_string(),
                        detail: format!("from:{}", c.last_health.name()),
                    },
                );
            }
            c.last_health = health;
        }
        if self.obs.is_enabled() {
            self.obs.gauge(
                &format!("lqo.watch.health.{component}"),
                health.code() as f64,
            );
        }
        if series.due(c.observations) {
            let drift = c.drift.status();
            // A component fed only work observations has an empty q-error
            // window, whose quantiles read 1.0 without merging a chunk.
            let (q50, q95, qmax) = if c.sketch.count() == 0 {
                (1.0, 1.0, 1.0)
            } else {
                let window = c.sketch.window();
                (
                    window.quantile(0.5).unwrap_or(1.0),
                    window.quantile(0.95).unwrap_or(1.0),
                    window.max().unwrap_or(1.0),
                )
            };
            series.push(SamplePoint {
                component: component.to_string(),
                seq: c.observations,
                q50,
                q95,
                qmax,
                psi: drift.psi,
                ks: drift.ks,
                bias_log2: c.calib.bias_log2(),
                health: health.code(),
            });
        }
    }
}

/// The state of `name`, created under `cfg` on first use. A hit does
/// not allocate the key.
fn component_entry<'a>(
    components: &'a mut BTreeMap<String, ComponentHealth>,
    name: &str,
    cfg: &WatchConfig,
) -> &'a mut ComponentHealth {
    if !components.contains_key(name) {
        components.insert(name.to_string(), ComponentHealth::new(cfg));
    }
    components.get_mut(name).expect("inserted above")
}

/// The component a trace's estimates are attributed to: the planner's
/// cardinality source when recorded, else the steering driver, else the
/// bare planner.
pub fn component_of(trace: &QueryTrace) -> String {
    if let Some(src) = &trace.planner.card_source {
        format!("card:{src}")
    } else if let Some(driver) = &trace.driver {
        format!("driver:{driver}")
    } else {
        "planner".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_obs::trace::{CardLookup, GuardEvent, OperatorEvent, QueryOutcome};

    fn tiny_cfg() -> WatchConfig {
        WatchConfig {
            baseline: 8,
            chunk: 4,
            window_chunks: 2,
            degrade_factor: 4.0,
            degrade_min_p95: 8.0,
            drift: DriftConfig {
                warmup: 2,
                reference: 16,
                window: 12,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn accurate_component_stays_healthy() {
        let m = ModelHealthMonitor::new(tiny_cfg());
        for i in 0..100 {
            let truth = 50.0 + (i % 10) as f64 * 7.0;
            m.observe_estimate("card:hist", truth * 1.2, truth);
        }
        assert_eq!(m.health("card:hist"), Some(HealthState::Healthy));
        assert_eq!(m.first_alarm("card:hist"), None);
        let r = m.report();
        assert_eq!(r.overall(), HealthState::Healthy);
        assert_eq!(r.components.len(), 1);
        assert!(r.components[0].q95.unwrap() < 2.0);
        assert!(!m.series().is_empty());
    }

    #[test]
    fn series_thins_out_at_its_cap_and_spans_the_stream() {
        let max = 64;
        let capped = ModelHealthMonitor::new(WatchConfig {
            max_series: max,
            ..tiny_cfg()
        });
        let uncapped = ModelHealthMonitor::new(WatchConfig {
            max_series: usize::MAX,
            ..tiny_cfg()
        });
        // Two components, the second observed every third tick: 4 × max
        // samples at stride 1 from 3 × max ticks.
        let mut observed: BTreeMap<&str, u64> = BTreeMap::new();
        for i in 0..3 * max {
            let truth = 40.0 + (i % 8) as f64 * 5.0;
            let components: &[&str] = if i % 3 == 0 { &["a", "b"] } else { &["a"] };
            for &c in components {
                for m in [&capped, &uncapped] {
                    m.observe_estimate(c, truth * (1.0 + (i % 5) as f64), truth);
                }
                *observed.entry(c).or_default() += 1;
            }
            let full = uncapped.series();
            if full.len() <= max {
                // Below the cap: the fixed-stride series, unchanged.
                assert_eq!(capped.series(), full, "tick {i}");
            }
        }
        let series = capped.series();
        let full = uncapped.series();
        assert_eq!(full.len(), 4 * max);
        assert!(series.len() <= max, "{} points", series.len());
        let stride = capped.inner.lock().series.stride();
        assert!(stride > 1);
        for (&c, &n) in &observed {
            let seqs: Vec<u64> = series
                .iter()
                .filter(|p| p.component == c)
                .map(|p| p.seq)
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{c}: {seqs:?}");
            assert_eq!(seqs[0], 1, "{c} lost its first sample");
            let last = *seqs.last().unwrap();
            assert!(n - last < stride, "{c}: last sample {last} of {n}");
        }
        // Thinning drops points; it never alters one.
        for p in &series {
            assert!(full.contains(p), "{p:?}");
        }
    }

    #[test]
    fn exploding_q_error_degrades_then_distribution_shift_drifts() {
        let m = ModelHealthMonitor::new(tiny_cfg());
        // Good phase: accurate on a stable stream.
        for i in 0..40 {
            let truth = 40.0 + (i % 8) as f64 * 5.0;
            m.observe_estimate("card:stale", truth, truth);
        }
        assert_eq!(m.health("card:stale"), Some(HealthState::Healthy));
        // Same distribution, terrible estimates: Degrading (not Drifted).
        for i in 0..12 {
            let truth = 40.0 + (i % 8) as f64 * 5.0;
            m.observe_estimate("card:stale", truth * 500.0, truth);
        }
        assert_eq!(m.health("card:stale"), Some(HealthState::Degrading));
        let alarm = m.first_alarm("card:stale").expect("alarm");
        assert!(alarm > 40, "alarm at {alarm} fired in the good phase");
        // Now the truth stream itself moves two orders of magnitude.
        for i in 0..16 {
            let truth = 40_000.0 + (i % 8) as f64 * 5_000.0;
            m.observe_estimate("card:stale", 40.0, truth);
        }
        assert_eq!(m.health("card:stale"), Some(HealthState::Drifted));
        let r = m.report();
        assert!(r.components[0].psi > 0.0 || r.components[0].ks > 0.0);
        assert_eq!(r.overall(), HealthState::Drifted);
    }

    #[test]
    fn breaker_open_degrades_health() {
        let m = ModelHealthMonitor::new(tiny_cfg());
        m.observe_estimate("driver:bao", 10.0, 10.0);
        assert_eq!(m.health("driver:bao"), Some(HealthState::Healthy));
        m.record_breaker("driver:bao", 2.0, 1);
        assert_eq!(m.health("driver:bao"), Some(HealthState::Degrading));
        m.record_breaker("driver:bao", 0.0, 1);
        assert_eq!(m.health("driver:bao"), Some(HealthState::Healthy));
        assert_eq!(m.report().components[0].breaker_opens, 1);
    }

    fn regressed_trace() -> QueryTrace {
        let mut t = QueryTrace::new("SELECT COUNT(*) FROM a, b");
        t.driver = Some("bao".into());
        t.planner.card_source = Some("learned".into());
        t.planner.chosen_cost = Some(100.0);
        t.record_phase("plan", 1_000_000);
        t.planner.card_lookups.push(CardLookup {
            tables: 0b11,
            est_rows: 10.0,
        });
        t.exec.operators.push(OperatorEvent {
            op: "HashJoin".into(),
            tables: 0b11,
            true_rows: 1000,
            est_rows: Some(10.0),
            work: 90.0,
        });
        t.push_guard(GuardEvent {
            component: "driver:bao".into(),
            fault: "deadline".into(),
            action: "delegate".into(),
        });
        t.outcome = Some(QueryOutcome {
            count: 1000,
            work: 500.0,
            wall_ns: 2_000_000,
        });
        t
    }

    #[test]
    fn ingest_trace_feeds_all_subsystems() {
        let obs = ObsContext::enabled();
        let m = ModelHealthMonitor::new(tiny_cfg()).with_obs(obs.clone());
        m.ingest_trace(&regressed_trace(), Some(100.0));
        let r = m.report();
        let names: Vec<&str> = r.components.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"card:learned"), "{names:?}");
        assert!(names.contains(&"cost:card:learned"), "{names:?}");
        assert!(names.contains(&"driver:bao"), "{names:?}");
        // The guard event correlated onto driver:bao.
        let bao = r
            .components
            .iter()
            .find(|c| c.name == "driver:bao")
            .unwrap();
        assert_eq!(bao.guard_faults, 1);
        // The 5x regression produced a ranked blame record.
        assert_eq!(r.regressions.len(), 1);
        assert!((r.regressions[0].ratio - 5.0).abs() < 1e-9);
        assert_eq!(r.regressions[0].blame[0].op, "HashJoin");
        assert_eq!(r.regressions[0].blame[0].q_error, 100.0);
        // SLO consumed the plan time and work.
        assert_eq!(r.slo.plan.count, 1);
        assert_eq!(r.slo.exec.count, 1);
        // Gauges published.
        let snap = obs.metrics().unwrap().snapshot();
        assert!(snap.gauge("lqo.watch.health.card:learned").is_some());
        assert_eq!(snap.counter("lqo.watch.regressions"), Some(1));
    }
}
