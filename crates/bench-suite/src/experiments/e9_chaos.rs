//! **E9 — chaos: robustness of the guarded optimizer under fault
//! injection.** The survey's deployability argument (and PilotScope's
//! reason to exist) is that a misbehaving learned component must degrade,
//! never crash. This experiment injects deterministic faults (panics,
//! NaN/∞/negative estimates, stalls, wrong-by-10^k estimates) into the
//! learned rungs of a [`GuardedCardSource`] degradation ladder at a sweep
//! of fault rates, runs an E1-style single-table workload plus a join
//! workload end to end, and reports the fallback rate, breaker activity,
//! and the p50/p99 latency the guard adds per query — while asserting the
//! two invariants the guard exists for: zero aborts, and byte-identical
//! query results versus the fault-free run (plans may differ; answers may
//! not).

use std::sync::Arc;
use std::time::Instant;

use lqo_card::estimator::{EstimatorCardSource, FitContext};
use lqo_card::registry::{build_estimator, EstimatorKind};
use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{Executor, Optimizer, SpjQuery, TraditionalCardSource, TrueCardOracle};
use lqo_guard::{
    FaultConfig, FaultKind, FaultPlan, FaultyCardSource, GuardConfig, GuardedCardSource,
};
use lqo_obs::ObsContext;

use crate::report::TextTable;
use crate::workload::{generate_single_table_workload, generate_workload, WorkloadConfig};

/// One cell of the sweep: a fault rate crossed with a set of fault kinds.
#[derive(Debug, Clone)]
pub struct KindSet {
    /// Label for the report.
    pub name: &'static str,
    /// The kinds injected in this cell.
    pub kinds: Vec<FaultKind>,
}

/// E9 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `stats_like` scale.
    pub scale: usize,
    /// Single-table (E1-style) queries.
    pub num_single: usize,
    /// Join queries.
    pub num_joins: usize,
    /// Fault rates to sweep.
    pub rates: Vec<f64>,
    /// Fault-kind sets to sweep.
    pub kind_sets: Vec<KindSet>,
    /// Stall duration for [`FaultKind::Stall`], in microseconds.
    pub stall_us: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        let f = crate::report::scale_factor();
        Config {
            scale: (120.0 * f) as usize,
            num_single: (20.0 * f) as usize,
            num_joins: (20.0 * f) as usize,
            rates: vec![0.05, 0.2, 0.5],
            kind_sets: vec![
                KindSet {
                    name: "values",
                    kinds: vec![
                        FaultKind::Nan,
                        FaultKind::Infinite,
                        FaultKind::Negative,
                        FaultKind::WrongBy(4),
                        FaultKind::WrongBy(-4),
                    ],
                },
                KindSet {
                    name: "panic",
                    kinds: vec![FaultKind::Panic],
                },
                KindSet {
                    name: "stall",
                    kinds: vec![FaultKind::Stall],
                },
                KindSet {
                    name: "all",
                    kinds: FaultKind::ALL.to_vec(),
                },
            ],
            stall_us: 500,
            seed: 0xE9,
        }
    }
}

/// Percentile of a sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Run the workload through a guarded ladder whose learned rungs fault per
/// `plan`; returns (per-query wall seconds, per-query counts, obs).
fn run_cell(
    catalog: &Arc<lqo_engine::Catalog>,
    queries: &[SpjQuery],
    learned: &Arc<dyn CardSource>,
    hybrid: &Arc<dyn CardSource>,
    native: &Arc<dyn CardSource>,
    fault_cfg: Option<FaultConfig>,
) -> (Vec<f64>, Vec<u64>, ObsContext, Arc<FaultPlan>) {
    let obs = ObsContext::enabled();
    let plan = Arc::new(FaultPlan::new(fault_cfg.unwrap_or_default()));
    let learned_rung: Arc<dyn CardSource> =
        Arc::new(FaultyCardSource::new(learned.clone(), plan.clone()));
    let hybrid_rung: Arc<dyn CardSource> =
        Arc::new(FaultyCardSource::new(hybrid.clone(), plan.clone()));
    let guarded = GuardedCardSource::new("card", GuardConfig::default(), obs.clone())
        .rung("learned", learned_rung)
        .rung("hybrid", hybrid_rung)
        .rung("native", native.clone());
    let optimizer = Optimizer::with_defaults(catalog);
    let executor = Executor::with_defaults(catalog);
    let mut walls = Vec::with_capacity(queries.len());
    let mut counts = Vec::with_capacity(queries.len());
    for q in queries {
        obs.begin_query(&q.to_string());
        guarded.begin_query();
        let start = Instant::now();
        let choice = optimizer
            .optimize_default(q, &guarded)
            .expect("guarded planning never fails");
        let result = executor
            .execute(q, &choice.plan)
            .expect("execution never fails");
        walls.push(start.elapsed().as_secs_f64());
        counts.push(result.count);
        obs.end_query();
    }
    (walls, counts, obs, plan)
}

/// Run E9: sweep fault rates × kinds, asserting zero aborts and
/// byte-identical results; returns the sweep table and the last cell's
/// observability context (the densest one) for trace inspection.
pub fn run_traced(cfg: &Config) -> (TextTable, ObsContext) {
    let catalog = Arc::new(stats_like(cfg.scale.max(40), cfg.seed).unwrap());
    let fit = FitContext::new(catalog.clone());
    let oracle = Arc::new(TrueCardOracle::new(catalog.clone()));

    // E1-style single-table workload plus a join workload.
    let mut queries = generate_single_table_workload(
        &catalog,
        "posts",
        &WorkloadConfig {
            num_queries: cfg.num_single.max(2),
            seed: cfg.seed ^ 0x11,
            ..Default::default()
        },
    );
    queries.extend(generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.num_joins.max(2),
            min_tables: 2,
            max_tables: 4,
            seed: cfg.seed ^ 0x22,
            ..Default::default()
        },
    ));

    // The ladder's rungs: a learned estimator, a hybrid-ish second
    // opinion, and the trusted native histogram source.
    let learned: Arc<dyn CardSource> = Arc::new(EstimatorCardSource::new(Arc::from(
        build_estimator(EstimatorKind::Sampling, &fit, &oracle, &[]),
    )));
    let hybrid: Arc<dyn CardSource> = Arc::new(EstimatorCardSource::new(Arc::from(
        build_estimator(EstimatorKind::Histogram, &fit, &oracle, &[]),
    )));
    let native: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(
        catalog.clone(),
        fit.stats.clone(),
    ));

    // Fault-free reference run (still guarded, so the guard's own
    // overhead is excluded from "added latency").
    let (base_walls, base_counts, _, _) =
        run_cell(&catalog, &queries, &learned, &hybrid, &native, None);

    let mut table = TextTable::new(
        "E9: chaos — guarded ladder under injected faults (zero aborts, identical results)",
        &[
            "rate",
            "kinds",
            "calls",
            "faults",
            "fallbacks",
            "breaker-opens",
            "p50-added",
            "p99-added",
            "results",
        ],
    );
    let mut last_obs = ObsContext::disabled();
    for rate in &cfg.rates {
        for ks in &cfg.kind_sets {
            let fault_cfg = FaultConfig {
                seed: cfg.seed ^ ((*rate * 1e3) as u64) ^ ((ks.name.len() as u64) << 32),
                rate: *rate,
                kinds: ks.kinds.clone(),
                stall: std::time::Duration::from_micros(cfg.stall_us),
            };
            let (walls, counts, obs, plan) = run_cell(
                &catalog,
                &queries,
                &learned,
                &hybrid,
                &native,
                Some(fault_cfg),
            );
            // The two invariants: no aborts (we got here), no wrong rows.
            let mismatches = counts
                .iter()
                .zip(&base_counts)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(mismatches, 0, "fault injection changed query results");
            let mut added: Vec<f64> = walls
                .iter()
                .zip(&base_walls)
                .map(|(w, b)| (w - b).max(0.0) * 1e3)
                .collect();
            added.sort_by(f64::total_cmp);
            let snap = obs.metrics().unwrap().snapshot();
            let faults = snap.counter("lqo.guard.faults").unwrap_or(0);
            let fallbacks = snap.counter("lqo.guard.fallbacks").unwrap_or(0);
            let opens = snap.counter("lqo.guard.breaker_opens").unwrap_or(0);
            table.row(vec![
                format!("{rate:.2}"),
                ks.name.to_string(),
                plan.calls().to_string(),
                faults.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * fallbacks as f64 / plan.calls().max(1) as f64
                ),
                opens.to_string(),
                format!("{:.2}ms", percentile(&added, 0.50)),
                format!("{:.2}ms", percentile(&added, 0.99)),
                "identical".to_string(),
            ]);
            last_obs = obs;
        }
    }
    (table, last_obs)
}

/// Run E9 and return just the sweep table.
pub fn run(cfg: &Config) -> TextTable {
    run_traced(cfg).0
}

/// Execution-layer chaos: the same deployability invariant, one layer
/// down. The workload runs under the morsel-driven parallel executor
/// while a worker thread is made to panic mid-morsel at a sweep of fault
/// positions; the executor must degrade to the serial path (visible in
/// `lqo.exec.parallel.degraded` and as `exec:parallel` guard events) and
/// every query must still return the serial reference answer with
/// bit-identical work units.
pub fn run_worker_chaos(cfg: &Config) -> (TextTable, ObsContext) {
    use lqo_engine::{ExecConfig, ExecMode, ParallelConfig};

    let catalog = Arc::new(stats_like(cfg.scale.max(40), cfg.seed).unwrap());
    let fit = FitContext::new(catalog.clone());
    let mut queries = generate_single_table_workload(
        &catalog,
        "posts",
        &WorkloadConfig {
            num_queries: cfg.num_single.max(2),
            seed: cfg.seed ^ 0x11,
            ..Default::default()
        },
    );
    queries.extend(generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.num_joins.max(2),
            min_tables: 2,
            max_tables: 4,
            seed: cfg.seed ^ 0x22,
            ..Default::default()
        },
    ));
    let native: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(
        catalog.clone(),
        fit.stats.clone(),
    ));
    let optimizer = Optimizer::with_defaults(&catalog);
    let plans: Vec<_> = queries
        .iter()
        .map(|q| optimizer.optimize_default(q, native.as_ref()).unwrap().plan)
        .collect();

    let serial = Executor::with_defaults(&catalog);
    let baseline: Vec<(u64, u64)> = queries
        .iter()
        .zip(&plans)
        .map(|(q, p)| {
            let r = serial.execute(q, p).unwrap();
            (r.count, r.work.to_bits())
        })
        .collect();

    let mut table = TextTable::new(
        "E9b: worker-panic chaos — parallel executor degradation (results identical)",
        &[
            "panic-morsel",
            "queries",
            "degraded",
            "guard-events",
            "results",
        ],
    );
    let mut last_obs = ObsContext::disabled();
    for panic_on in [0u64, 3, 9] {
        let obs = ObsContext::enabled();
        let executor = Executor::new(
            &catalog,
            ExecConfig {
                mode: ExecMode::Parallel { threads: 4 },
                parallel: ParallelConfig {
                    morsel_rows: 16,
                    panic_on_morsel: Some(panic_on),
                },
                ..Default::default()
            },
        )
        .with_telemetry(obs.clone());
        let mut guard_events = 0usize;
        for ((q, p), (count, work_bits)) in queries.iter().zip(&plans).zip(&baseline) {
            obs.begin_query(&q.to_string());
            let r = executor.execute(q, p).expect("degradation, not failure");
            let trace = obs.end_query().expect("trace");
            assert_eq!(r.count, *count, "worker fault changed a result");
            assert_eq!(r.work.to_bits(), *work_bits, "worker fault changed work");
            guard_events += trace
                .guard
                .iter()
                .filter(|g| g.component == "exec:parallel")
                .count();
        }
        let degraded = obs
            .metrics()
            .unwrap()
            .snapshot()
            .counter("lqo.exec.parallel.degraded")
            .unwrap_or(0);
        assert!(degraded > 0, "the injected fault must actually fire");
        assert!(guard_events > 0, "degradation must be visible to the guard");
        table.row(vec![
            panic_on.to_string(),
            queries.len().to_string(),
            degraded.to_string(),
            guard_events.to_string(),
            "identical".to_string(),
        ]);
        last_obs = obs;
    }
    (table, last_obs)
}

/// Re-optimization chaos: faults injected into the estimator the
/// checkpointed executor consults — at the checkpoints themselves and
/// *during re-planning* (the calibrated lookups of the residual
/// enumeration). Every base-table estimate is also poisoned so that
/// checkpoints genuinely trip: each query both re-plans and has its
/// re-planning faulted. The invariants are the chaos archetype's, one
/// level up: zero aborts (a faulted re-plan degrades to continuing the
/// original plan, visible as `degrade:*` checkpoint actions), and every
/// query returns the fault-free serial answer — byte-identical rows when
/// the plan was kept, the identical normalized tuple multiset when a
/// switch happened.
pub fn run_reopt_chaos(cfg: &Config) -> (TextTable, ObsContext) {
    use lqo_engine::optimizer::InjectedCardSource;
    use lqo_engine::{ExecConfig, TableSet};
    use lqo_reopt::{ReoptConfig, ReoptExecutor};

    let catalog = Arc::new(stats_like(cfg.scale.max(40), cfg.seed).unwrap());
    let fit = FitContext::new(catalog.clone());
    let queries = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: (cfg.num_joins).max(2),
            min_tables: 2,
            max_tables: 4,
            seed: cfg.seed ^ 0x33,
            ..Default::default()
        },
    );
    let native: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(
        catalog.clone(),
        fit.stats.clone(),
    ));
    let optimizer = Optimizer::with_defaults(&catalog);
    let plans: Vec<_> = queries
        .iter()
        .map(|q| optimizer.optimize_default(q, native.as_ref()).unwrap().plan)
        .collect();

    // Fault-free serial reference: raw digests for kept plans, normalized
    // digests for switched ones.
    let serial = Executor::with_defaults(&catalog);
    let baseline: Vec<(u64, u64, u64)> = queries
        .iter()
        .zip(&plans)
        .map(|(q, p)| {
            let (r, rel) = serial.execute_collect(q, p).unwrap();
            (r.count, rel.digest(), rel.normalize().canonical_digest())
        })
        .collect();

    let mut table = TextTable::new(
        "E9c: reopt chaos — faults during re-planning (zero aborts, identical results)",
        &[
            "rate",
            "kinds",
            "queries",
            "checkpoints",
            "triggers",
            "switches",
            "degraded",
            "results",
        ],
    );
    let mut last_obs = ObsContext::disabled();
    for rate in &cfg.rates {
        for ks in &cfg.kind_sets {
            let obs = ObsContext::enabled();
            let fault_plan = Arc::new(FaultPlan::new(FaultConfig {
                seed: cfg.seed ^ ((*rate * 1e3) as u64) ^ ((ks.name.len() as u64) << 40),
                rate: *rate,
                kinds: ks.kinds.clone(),
                stall: std::time::Duration::from_micros(cfg.stall_us),
            }));
            // Poison every base-table estimate so checkpoints trip, then
            // let the fault plan corrupt what re-planning reads.
            let poisoned = InjectedCardSource::new(native.clone());
            for q in &queries {
                for t in 0..q.num_tables() {
                    poisoned.inject(q, TableSet::singleton(t), 1.0);
                }
            }
            let faulty: Arc<dyn CardSource> = Arc::new(FaultyCardSource::new(
                Arc::new(poisoned),
                fault_plan.clone(),
            ));
            let reopt_exec = ReoptExecutor::new(
                &catalog,
                ExecConfig::default(),
                faulty,
                ReoptConfig {
                    q_error_threshold: 4.0,
                    confirm_streak: 1,
                    ..Default::default()
                },
            )
            .with_telemetry(obs.clone());
            let (mut checkpoints, mut triggers, mut switches, mut degraded) = (0, 0, 0, 0);
            for ((q, p), (count, raw, normalized)) in queries.iter().zip(&plans).zip(&baseline) {
                obs.begin_query(&q.to_string());
                let (r, rel, report) = reopt_exec
                    .execute_collect(q, p)
                    .expect("degradation, not failure");
                obs.end_query();
                assert_eq!(r.count, *count, "reopt chaos changed a result");
                if report.switches == 0 {
                    assert_eq!(rel.digest(), *raw, "kept plan changed rows");
                } else {
                    assert_eq!(
                        rel.normalize().canonical_digest(),
                        *normalized,
                        "switched plan changed the answer"
                    );
                }
                checkpoints += report.checkpoints;
                triggers += report.triggers;
                switches += report.switches;
                degraded += report
                    .events
                    .iter()
                    .filter(|e| e.action.starts_with("degrade:"))
                    .count() as u64;
            }
            table.row(vec![
                format!("{rate:.2}"),
                ks.name.to_string(),
                queries.len().to_string(),
                checkpoints.to_string(),
                triggers.to_string(),
                switches.to_string(),
                degraded.to_string(),
                "identical".to_string(),
            ]);
            last_obs = obs;
        }
    }
    (table, last_obs)
}

/// Incident forensics (E9d): the flight-recorder acceptance run. Each
/// injected fault class — a panicking learned cardinality rung that opens
/// its circuit breaker, a parallel worker dying mid-morsel, a faulted
/// mid-query re-optimization — is aimed at exactly one designated query
/// of the workload while the flight recorder is attached end to end; the
/// recorder must capture exactly one well-formed incident bundle per
/// class (and none on the fault-free control pass), and every query must
/// still return the fault-free answer: zero aborts, byte-identical
/// results. Returns the class table and the captured bundles for the
/// JSONL artifact.
pub fn run_incident_chaos(cfg: &Config) -> (TextTable, Vec<lqo_flight::IncidentBundle>) {
    use lqo_engine::optimizer::InjectedCardSource;
    use lqo_engine::{ExecConfig, ExecMode, ParallelConfig, TableSet, Telemetry};
    use lqo_flight::{FlightConfig, FlightContext};
    use lqo_reopt::{ReoptConfig, ReoptExecutor};

    /// Obs plus a flight recorder flushing its metrics into it.
    fn recorder() -> Telemetry {
        let obs = ObsContext::enabled();
        let flight = FlightContext::new(FlightConfig::default(), obs.clone());
        Telemetry {
            obs,
            flight,
            ..Telemetry::default()
        }
    }

    let catalog = Arc::new(stats_like(cfg.scale.max(40), cfg.seed).unwrap());
    let fit = FitContext::new(catalog.clone());
    let oracle = Arc::new(TrueCardOracle::new(catalog.clone()));
    let mut queries = generate_single_table_workload(
        &catalog,
        "posts",
        &WorkloadConfig {
            num_queries: cfg.num_single.clamp(2, 6),
            seed: cfg.seed ^ 0x11,
            ..Default::default()
        },
    );
    let first_join = queries.len();
    queries.extend(generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.num_joins.clamp(2, 6),
            min_tables: 2,
            max_tables: 4,
            seed: cfg.seed ^ 0x22,
            ..Default::default()
        },
    ));

    let learned: Arc<dyn CardSource> = Arc::new(EstimatorCardSource::new(Arc::from(
        build_estimator(EstimatorKind::Sampling, &fit, &oracle, &[]),
    )));
    let hybrid: Arc<dyn CardSource> = Arc::new(EstimatorCardSource::new(Arc::from(
        build_estimator(EstimatorKind::Histogram, &fit, &oracle, &[]),
    )));
    let native: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(
        catalog.clone(),
        fit.stats.clone(),
    ));
    let plain_optimizer = Optimizer::with_defaults(&catalog);
    let plans: Vec<_> = queries
        .iter()
        .map(|q| {
            plain_optimizer
                .optimize_default(q, native.as_ref())
                .unwrap()
                .plan
        })
        .collect();
    // Fault-free serial reference: count, exact work bits, and both row
    // digests (raw for kept plans, normalized for switched ones).
    let serial = Executor::with_defaults(&catalog);
    let baseline: Vec<(u64, u64, u64, u64)> = queries
        .iter()
        .zip(&plans)
        .map(|(q, p)| {
            let (r, rel) = serial.execute_collect(q, p).unwrap();
            (
                r.count,
                r.work.to_bits(),
                rel.digest(),
                rel.normalize().canonical_digest(),
            )
        })
        .collect();

    let mut table = TextTable::new(
        "E9d: incident forensics — one well-formed bundle per injected fault class",
        &[
            "class",
            "queries",
            "faulty-query",
            "bundles",
            "trigger",
            "bundle-events",
            "results",
        ],
    );
    let mut all_bundles = Vec::new();
    // Per-class epilogue: flush, drain, and hold the recorder to the
    // one-bundle (or, for the control, zero-bundle) contract.
    let finish = |table: &mut TextTable,
                  class: &str,
                  faulty_idx: Option<usize>,
                  flight: &FlightContext,
                  expect_prefix: Option<&str>|
     -> Vec<lqo_flight::IncidentBundle> {
        flight.flush_metrics();
        let bundles = flight.take_bundles();
        if let Some(prefix) = expect_prefix {
            assert_eq!(
                bundles.len(),
                1,
                "{class}: expected exactly one bundle, got {}",
                bundles.len()
            );
            let b = &bundles[0];
            assert!(b.is_well_formed(), "{class}: malformed bundle");
            assert!(
                b.trigger.starts_with(prefix),
                "{class}: unexpected trigger {}",
                b.trigger
            );
            assert!(!b.events.is_empty(), "{class}: bundle carries no events");
            assert!(b.trace.is_some(), "{class}: bundle carries no query trace");
            table.row(vec![
                class.to_string(),
                queries.len().to_string(),
                faulty_idx.map_or_else(|| "-".to_string(), |i| i.to_string()),
                "1".to_string(),
                b.trigger.clone(),
                b.events.len().to_string(),
                "identical".to_string(),
            ]);
        } else {
            assert!(
                bundles.is_empty(),
                "{class}: fault-free control captured {} bundles",
                bundles.len()
            );
            table.row(vec![
                class.to_string(),
                queries.len().to_string(),
                "-".to_string(),
                "0".to_string(),
                "-".to_string(),
                "0".to_string(),
                "identical".to_string(),
            ]);
        }
        bundles
    };

    // -- class 1: card fault → breaker-open bundle ------------------------
    {
        let telemetry = recorder();
        let flight = &telemetry.flight;
        let clean = GuardedCardSource::new("card", GuardConfig::default(), telemetry.clone())
            .rung("learned", learned.clone())
            .rung("hybrid", hybrid.clone())
            .rung("native", native.clone());
        // Rate-1.0 panics: every learned-rung call fails, so the breaker's
        // consecutive-failure threshold is crossed inside the designated
        // query (a join's enumeration makes well over three guarded calls).
        let fault_plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: cfg.seed ^ 0xA,
            rate: 1.0,
            kinds: vec![FaultKind::Panic],
            stall: std::time::Duration::from_micros(cfg.stall_us),
        }));
        let faulty = GuardedCardSource::new("card", GuardConfig::default(), telemetry.clone())
            .rung(
                "learned",
                Arc::new(FaultyCardSource::new(learned.clone(), fault_plan.clone()))
                    as Arc<dyn CardSource>,
            )
            .rung(
                "hybrid",
                Arc::new(FaultyCardSource::new(hybrid.clone(), fault_plan.clone())),
            )
            .rung("native", native.clone());
        let optimizer = Optimizer::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let executor = Executor::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let designated = first_join;
        for (i, q) in queries.iter().enumerate() {
            let guarded = if i == designated { &faulty } else { &clean };
            let scope = telemetry.begin_query(q);
            guarded.begin_query();
            let choice = optimizer
                .optimize_default(q, guarded)
                .expect("guarded planning never fails");
            let r = executor
                .execute(q, &choice.plan)
                .expect("execution never fails");
            assert_eq!(r.count, baseline[i].0, "card fault changed a result");
            scope.finish(|_| {});
        }
        let opens = telemetry
            .obs
            .metrics()
            .unwrap()
            .snapshot()
            .counter("lqo.guard.breaker_opens")
            .unwrap_or(0);
        assert!(opens > 0, "the designated card fault must open the breaker");
        all_bundles.extend(finish(
            &mut table,
            "card-fault",
            Some(designated),
            flight,
            Some("breaker-open:card"),
        ));
    }

    // -- class 2: worker panic → worker-fault bundle ----------------------
    {
        let telemetry = recorder();
        let flight = &telemetry.flight;
        let parallel_cfg = || ExecConfig {
            mode: ExecMode::Parallel { threads: 4 },
            parallel: ParallelConfig {
                morsel_rows: 16,
                panic_on_morsel: Some(0),
            },
            ..Default::default()
        };
        // Probe (deterministic; no recorder attached) for the first query
        // whose parallel execution actually schedules a morsel — tiny
        // inputs run serially and would never fire the injected panic.
        let designated = (0..queries.len())
            .find(|&i| {
                let probe_obs = ObsContext::enabled();
                let probe =
                    Executor::new(&catalog, parallel_cfg()).with_telemetry(probe_obs.clone());
                probe
                    .execute(&queries[i], &plans[i])
                    .expect("degradation, not failure");
                probe_obs
                    .metrics()
                    .unwrap()
                    .snapshot()
                    .counter("lqo.exec.parallel.degraded")
                    .unwrap_or(0)
                    > 0
            })
            .expect("some query must exercise the parallel executor");
        let faulty = Executor::new(&catalog, parallel_cfg()).with_telemetry(telemetry.clone());
        let clean = Executor::with_defaults(&catalog).with_telemetry(telemetry.clone());
        for (i, q) in queries.iter().enumerate() {
            let executor = if i == designated { &faulty } else { &clean };
            let scope = telemetry.begin_query(q);
            let r = executor
                .execute(q, &plans[i])
                .expect("degradation, not failure");
            assert_eq!(r.count, baseline[i].0, "worker fault changed a result");
            assert_eq!(r.work.to_bits(), baseline[i].1, "worker fault changed work");
            scope.finish(|_| {});
        }
        all_bundles.extend(finish(
            &mut table,
            "worker-panic",
            Some(designated),
            flight,
            Some("worker-fault:"),
        ));
    }

    // -- class 3: reopt fault → reopt-switch / reopt-degrade bundle -------
    {
        let telemetry = recorder();
        let flight = &telemetry.flight;
        // Poisoned base-table estimates make checkpoints trip; panics at
        // 50% fault some of the re-planning lookups. Probe (same seeds,
        // fresh fault plan per candidate, so the real pass replays the
        // identical fault sequence) for the first join query whose report
        // carries a trigger-class action — a switch or a degrade.
        let make_faulty = |i: usize| -> Arc<dyn CardSource> {
            let poisoned = InjectedCardSource::new(native.clone());
            for t in 0..queries[i].num_tables() {
                poisoned.inject(&queries[i], TableSet::singleton(t), 1.0);
            }
            let fault_plan = Arc::new(FaultPlan::new(FaultConfig {
                seed: cfg.seed ^ 0xD ^ (i as u64),
                rate: 0.5,
                kinds: vec![FaultKind::Panic],
                stall: std::time::Duration::from_micros(cfg.stall_us),
            }));
            Arc::new(FaultyCardSource::new(Arc::new(poisoned), fault_plan))
        };
        let reopt_cfg = ReoptConfig {
            q_error_threshold: 4.0,
            confirm_streak: 1,
            ..Default::default()
        };
        let designated = (first_join..queries.len())
            .find(|&i| {
                let exec = ReoptExecutor::new(
                    &catalog,
                    ExecConfig::default(),
                    make_faulty(i),
                    reopt_cfg.clone(),
                );
                let (_, _, report) = exec
                    .execute_collect(&queries[i], &plans[i])
                    .expect("degradation, not failure");
                report
                    .events
                    .iter()
                    .any(|e| e.action == "switch" || e.action.starts_with("degrade"))
            })
            .expect("some join query must trigger re-optimization");
        let faulty = ReoptExecutor::new(
            &catalog,
            ExecConfig::default(),
            make_faulty(designated),
            reopt_cfg,
        )
        .with_telemetry(telemetry.clone());
        let clean = Executor::with_defaults(&catalog).with_telemetry(telemetry.clone());
        for (i, q) in queries.iter().enumerate() {
            let scope = telemetry.begin_query(q);
            if i == designated {
                let (r, rel, report) = faulty
                    .execute_collect(q, &plans[i])
                    .expect("degradation, not failure");
                assert_eq!(r.count, baseline[i].0, "reopt fault changed a result");
                if report.switches == 0 {
                    assert_eq!(rel.digest(), baseline[i].2, "kept plan changed rows");
                } else {
                    assert_eq!(
                        rel.normalize().canonical_digest(),
                        baseline[i].3,
                        "switched plan changed the answer"
                    );
                }
            } else {
                let r = clean.execute(q, &plans[i]).expect("execution never fails");
                assert_eq!(r.count, baseline[i].0, "clean query changed a result");
            }
            scope.finish(|_| {});
        }
        all_bundles.extend(finish(
            &mut table,
            "reopt-fault",
            Some(designated),
            flight,
            Some("reopt-"),
        ));
    }

    // -- control: no faults → zero bundles --------------------------------
    {
        let telemetry = recorder();
        let flight = &telemetry.flight;
        let guarded = GuardedCardSource::new("card", GuardConfig::default(), telemetry.clone())
            .rung("learned", learned.clone())
            .rung("hybrid", hybrid.clone())
            .rung("native", native.clone());
        let optimizer = Optimizer::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let executor = Executor::with_defaults(&catalog).with_telemetry(telemetry.clone());
        for (i, q) in queries.iter().enumerate() {
            let scope = telemetry.begin_query(q);
            guarded.begin_query();
            let choice = optimizer
                .optimize_default(q, &guarded)
                .expect("guarded planning never fails");
            let r = executor
                .execute(q, &choice.plan)
                .expect("execution never fails");
            assert_eq!(r.count, baseline[i].0, "control run changed a result");
            scope.finish(|_| {});
        }
        assert!(
            flight.events_published() > 0,
            "control still records span events"
        );
        all_bundles.extend(finish(&mut table, "control", None, flight, None));
    }
    (table, all_bundles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_e9_survives_all_fault_kinds() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // injected panics are loud
        let cfg = Config {
            scale: 60,
            num_single: 4,
            num_joins: 4,
            // One dense cell: at 50% across all kinds, non-stall faults
            // land with near-certainty over the workload's ~50 calls.
            rates: vec![0.5],
            kind_sets: vec![KindSet {
                name: "all",
                kinds: FaultKind::ALL.to_vec(),
            }],
            stall_us: 50,
            ..Default::default()
        };
        let (table, obs) = run_traced(&cfg);
        std::panic::set_hook(prev);
        assert_eq!(table.rows.len(), cfg.kind_sets.len());
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "identical");
        }
        // The densest cell ("all" kinds at 20%) recorded guard activity.
        let snap = obs.metrics().unwrap().snapshot();
        assert!(snap.counter("lqo.guard.faults").unwrap_or(0) > 0);
        assert!(obs.finished_traces().iter().any(|t| !t.guard.is_empty()));
    }

    #[test]
    fn tiny_reopt_chaos_degrades_to_original_plan() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // injected panics are loud
        let cfg = Config {
            scale: 60,
            num_single: 0,
            num_joins: 5,
            // One dense cell: panics at 50% hammer both the checkpoint
            // estimate lookups and the re-planning enumeration.
            rates: vec![0.5],
            kind_sets: vec![KindSet {
                name: "panic",
                kinds: vec![FaultKind::Panic],
            }],
            stall_us: 50,
            ..Default::default()
        };
        let (table, obs) = run_reopt_chaos(&cfg);
        std::panic::set_hook(prev);
        assert_eq!(table.rows.len(), 1);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "identical");
        }
        // The poisoned estimates must actually trip checkpoints, and the
        // injected panics must actually fault some re-plans.
        let row = &table.rows[0];
        assert!(row[4].parse::<u64>().unwrap() > 0, "no triggers: {row:?}");
        assert!(
            row[6].parse::<u64>().unwrap() > 0,
            "no degraded re-plans: {row:?}"
        );
        let snap = obs.metrics().unwrap().snapshot();
        assert!(snap.counter("lqo.reopt.checkpoints").unwrap_or(0) > 0);
        assert!(snap.counter("lqo.reopt.degraded").unwrap_or(0) > 0);
    }

    #[test]
    fn tiny_worker_chaos_degrades_identically() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // injected worker panics are loud
        let cfg = Config {
            scale: 60,
            num_single: 3,
            num_joins: 3,
            ..Default::default()
        };
        let (table, obs) = run_worker_chaos(&cfg);
        std::panic::set_hook(prev);
        assert_eq!(table.rows.len(), 3);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "identical");
        }
        assert!(
            obs.metrics()
                .unwrap()
                .snapshot()
                .counter("lqo.exec.parallel.degraded")
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn tiny_incident_chaos_captures_one_bundle_per_class() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // injected panics are loud
        let cfg = Config {
            scale: 60,
            num_single: 2,
            num_joins: 4,
            stall_us: 50,
            ..Default::default()
        };
        let (table, bundles) = run_incident_chaos(&cfg);
        std::panic::set_hook(prev);
        // Three fault classes plus the fault-free control row; the
        // one-bundle-per-class contract is asserted inside the run, so
        // here we check the cross-class shape and the artifact format.
        assert_eq!(table.rows.len(), 4);
        assert_eq!(bundles.len(), 3);
        for b in &bundles {
            assert!(b.is_well_formed());
            assert!(b.trace.is_some());
            assert!(!b.metrics_delta.is_empty());
        }
        let triggers: Vec<&str> = bundles.iter().map(|b| b.trigger.as_str()).collect();
        assert!(triggers.iter().any(|t| t.starts_with("breaker-open:card")));
        assert!(triggers.iter().any(|t| t.starts_with("worker-fault:")));
        assert!(triggers.iter().any(|t| t.starts_with("reopt-")));
        // The bundle log round-trips through the JSONL artifact format.
        let jsonl = lqo_flight::write_bundles_jsonl(&bundles);
        let parsed = lqo_flight::parse_bundles_jsonl(&jsonl).expect("bundles parse back");
        assert_eq!(parsed.len(), bundles.len());
        assert!(parsed.iter().all(|b| b.is_well_formed()));
    }
}
