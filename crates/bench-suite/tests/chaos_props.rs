//! Chaos property tests: under *any* deterministic `FaultPlan` — any
//! seed, any fault rate, every fault kind — the guarded degradation
//! ladder still answers every E1-workload query with exactly the rows of
//! the fault-free run. Cardinalities steer plan choice, never results, so
//! a guard that truly contains its faults is invisible in query output.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use lqo_bench_suite::workload::{
    generate_single_table_workload, generate_workload, WorkloadConfig,
};
use lqo_card::estimator::{EstimatorCardSource, FitContext};
use lqo_card::registry::{build_estimator, EstimatorKind};
use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{Catalog, Executor, Optimizer, SpjQuery, TraditionalCardSource, TrueCardOracle};
use lqo_guard::{
    FaultConfig, FaultKind, FaultPlan, FaultyCardSource, GuardConfig, GuardedCardSource,
};
use lqo_obs::ObsContext;

struct Fixture {
    catalog: Arc<Catalog>,
    queries: Vec<SpjQuery>,
    baseline: Vec<u64>,
    learned: Arc<dyn CardSource>,
    native: Arc<dyn CardSource>,
}

/// Built once per process: a small STATS-like catalog, the E1-style
/// single-table workload plus a few joins, and each query's fault-free
/// answer under native planning.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        // Injected panics are the point of these tests; the default hook
        // would print a backtrace for every contained fault. Real
        // failures still surface through the test harness.
        std::panic::set_hook(Box::new(|_| {}));
        let catalog = Arc::new(stats_like(80, 0xC4A05).unwrap());
        let fit = FitContext::new(catalog.clone());
        let oracle = Arc::new(TrueCardOracle::new(catalog.clone()));
        let mut queries = generate_single_table_workload(
            &catalog,
            "posts",
            &WorkloadConfig {
                num_queries: 12,
                seed: 0xE1,
                ..Default::default()
            },
        );
        queries.extend(generate_workload(
            &catalog,
            &WorkloadConfig {
                num_queries: 8,
                min_tables: 2,
                max_tables: 4,
                seed: 0xE1 ^ 7,
                ..Default::default()
            },
        ));
        let learned: Arc<dyn CardSource> = Arc::new(EstimatorCardSource::new(Arc::from(
            build_estimator(EstimatorKind::Sampling, &fit, &oracle, &[]),
        )));
        let native: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(
            catalog.clone(),
            fit.stats.clone(),
        ));
        let optimizer = Optimizer::with_defaults(&catalog);
        let executor = Executor::with_defaults(&catalog);
        let baseline = queries
            .iter()
            .map(|q| {
                let plan = optimizer.optimize_default(q, native.as_ref()).unwrap().plan;
                executor.execute(q, &plan).unwrap().count
            })
            .collect();
        Fixture {
            catalog,
            queries,
            baseline,
            learned,
            native,
        }
    })
}

/// Run the whole workload through a guarded ladder whose learned rung
/// faults per `cfg`; returns per-query counts (panics on abort — which is
/// exactly what must never happen).
fn run_guarded(fix: &Fixture, cfg: FaultConfig, obs: &ObsContext) -> Vec<u64> {
    let plan = Arc::new(FaultPlan::new(cfg));
    let guarded = GuardedCardSource::new("card", GuardConfig::default(), obs.clone())
        .rung(
            "learned",
            Arc::new(FaultyCardSource::new(fix.learned.clone(), plan.clone())),
        )
        .rung("native", fix.native.clone());
    let optimizer = Optimizer::with_defaults(&fix.catalog);
    let executor = Executor::with_defaults(&fix.catalog);
    fix.queries
        .iter()
        .map(|q| {
            obs.begin_query(&q.to_string());
            guarded.begin_query();
            let choice = optimizer.optimize_default(q, &guarded).unwrap();
            let count = executor.execute(q, &choice.plan).unwrap().count;
            obs.end_query();
            count
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Any seed, any rate, all fault kinds: plans may differ, results may
    /// not, and nothing aborts.
    #[test]
    fn any_fault_plan_preserves_results(
        seed in 0u64..u64::MAX,
        rate_milli in 0u32..=1000,
    ) {
        let fix = fixture();
        let cfg = FaultConfig {
            seed,
            rate: rate_milli as f64 / 1000.0,
            kinds: FaultKind::ALL.to_vec(),
            stall: Duration::from_micros(100),
        };
        let counts = run_guarded(fix, cfg, &ObsContext::disabled());
        prop_assert_eq!(&counts, &fix.baseline);
    }

    /// Both chaos layers at once: the card ladder faulting at any rate
    /// while a parallel-executor worker panics mid-morsel at any
    /// position. The planner degrades rung by rung, the executor degrades
    /// to serial, and the answers still match the fault-free baseline.
    #[test]
    fn worker_and_card_faults_compose(
        seed in 0u64..u64::MAX,
        rate_milli in 0u32..=1000,
        panic_on in 0u64..48,
    ) {
        use lqo_engine::{ExecConfig, ExecMode, ParallelConfig};
        let fix = fixture();
        let fault_cfg = FaultConfig {
            seed,
            rate: rate_milli as f64 / 1000.0,
            kinds: FaultKind::ALL.to_vec(),
            stall: Duration::from_micros(100),
        };
        let plan = Arc::new(FaultPlan::new(fault_cfg));
        let obs = ObsContext::disabled();
        let guarded = GuardedCardSource::new("card", GuardConfig::default(), obs.clone())
            .rung(
                "learned",
                Arc::new(FaultyCardSource::new(fix.learned.clone(), plan)),
            )
            .rung("native", fix.native.clone());
        let optimizer = Optimizer::with_defaults(&fix.catalog);
        let executor = Executor::new(
            &fix.catalog,
            ExecConfig {
                mode: ExecMode::Parallel { threads: 4 },
                parallel: ParallelConfig {
                    morsel_rows: 16,
                    panic_on_morsel: Some(panic_on),
                },
                ..Default::default()
            },
        );
        let counts: Vec<u64> = fix
            .queries
            .iter()
            .map(|q| {
                guarded.begin_query();
                let choice = optimizer.optimize_default(q, &guarded).unwrap();
                executor.execute(q, &choice.plan).unwrap().count
            })
            .collect();
        prop_assert_eq!(&counts, &fix.baseline);
    }
}

/// The PR's acceptance criterion, verbatim: a 20% fault rate across every
/// kind, the full workload completes with zero aborts, byte-identical
/// results, and the guard's activity is visible in `lqo.guard.*` metrics
/// and per-query traces.
#[test]
fn twenty_percent_chaos_is_invisible_in_results() {
    let fix = fixture();
    let obs = ObsContext::enabled();
    let cfg = FaultConfig {
        stall: Duration::from_micros(200),
        ..FaultConfig::all_kinds(0x2020, 0.2)
    };
    let counts = run_guarded(fix, cfg, &obs);
    assert_eq!(counts, fix.baseline, "results must be byte-identical");
    let snap = obs.metrics().unwrap().snapshot();
    assert!(snap.counter("lqo.guard.faults").unwrap_or(0) > 0);
    assert!(snap.counter("lqo.guard.fallbacks").unwrap_or(0) > 0);
    let traces = obs.finished_traces();
    assert_eq!(traces.len(), fix.queries.len());
    assert!(
        traces.iter().any(|t| !t.guard.is_empty()),
        "guard events must land on per-query traces"
    );
}
