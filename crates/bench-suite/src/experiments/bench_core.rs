//! **BENCH-core — the continuous perf-baseline harness.** Learned
//! optimizers live or die on planning overhead (the survey's recurring
//! deployment concern), so the repo carries a pinned canonical workload
//! and a committed baseline (`BENCH_core.json` at the repo root) that
//! every change is compared against. Three scenarios cover the pipeline
//! from opposite ends:
//!
//! * `golden10` — the differential harness's golden 10-query snapshot
//!   (`stats_like(60, 7)`, seed `0x601D_E001`), optimized and executed
//!   serially: the end-to-end plan+execute profile.
//! * `enum_heavy` — wide queries (4–6 tables) that stress DP join
//!   enumeration: planning-dominated, no execution.
//! * `cache_heavy` — the golden templates re-planned for several rounds
//!   through a fresh `LqoCache` per iteration: plan-cache and
//!   inference-memo service dominate.
//! * `batch_heavy` — the golden workload optimized and executed under
//!   `ExecMode::Batched`: the vectorized kernels' end-to-end profile,
//!   pinned against the serial `golden10` row (identical work units by
//!   the byte-identity contract, different wall clock).
//!
//! Each scenario runs `warmup + iterations` times under a sampling-mode
//! [`ProfContext`]; wall clock is summarized as median/p95 while the
//! work-unit and estimator-call columns are **deterministic** (asserted
//! identical across iterations), so the comparator can check them
//! near-exactly and use wall clock only with noise-aware thresholds.
//!
//! The comparator normalizes per-scenario median ratios by a machine
//! factor — the *minimum* ratio across scenarios, clamped to ≥ 1 — so a
//! uniformly slower machine shifts every ratio and fails nothing, while
//! a single scenario regressing > [`REGRESSION_FACTOR`] beyond that
//! factor fails the run. Known limitation (documented in DESIGN.md §13):
//! a regression that slows *every* scenario by the same factor is
//! indistinguishable from machine noise and passes; the committed
//! deterministic columns still catch any work-unit or estimator-call
//! change exactly. Refresh the baseline with `BLESS_BENCH=1`.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use lqo_cache::{plan_key, LqoCache, MemoCardSource, OptMemo, PlannedQuery};
use lqo_engine::datagen::stats_like;
use lqo_engine::exec::batch::DEFAULT_BATCH_SIZE;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{
    Catalog, CatalogStats, ExecConfig, ExecMode, Executor, HintSet, Optimizer, Telemetry,
    TraditionalCardSource,
};
use lqo_prof::ProfContext;

use crate::report::TextTable;
use crate::workload::{generate_workload, WorkloadConfig};

/// Schema version stamped on `BENCH_core.json`; readers reject newer
/// versions. The full schema registry lives in DESIGN.md §13.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// A scenario fails the comparison when its median wall-clock ratio
/// exceeds this factor times the machine factor.
pub const REGRESSION_FACTOR: f64 = 1.2;

/// Sampling stride for the harness's profiler (bounded overhead; the
/// <2% bound is asserted by `crates/testkit/tests/prof_overhead.rs`).
pub const PROF_STRIDE: u64 = 64;

/// BENCH-core configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Measured iterations per scenario.
    pub iterations: usize,
    /// Discarded warmup iterations per scenario.
    pub warmup: usize,
    /// Workload passes folded into one timed iteration. Sub-millisecond
    /// iterations are jitter-dominated; a few passes push the medians
    /// into the >1 ms range where a 20% threshold is meaningful. Must
    /// match the committed baseline (it scales the deterministic
    /// columns).
    pub passes: usize,
}

impl Default for Config {
    fn default() -> Config {
        let f = crate::report::scale_factor();
        Config {
            // The workload and pass count are pinned (they must match the
            // committed baseline); scale only buys more iterations, i.e.
            // tighter medians.
            iterations: ((9.0 * f) as usize).max(5),
            warmup: if f < 1.0 { 1 } else { 2 },
            passes: 4,
        }
    }
}

/// One scenario's summary in `BENCH_core.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario name (`golden10`, `enum_heavy`, `cache_heavy`,
    /// `batch_heavy`).
    pub name: String,
    /// Measured iterations behind the percentiles.
    pub iterations: usize,
    /// Median wall clock per iteration, nanoseconds.
    pub median_wall_ns: u64,
    /// p95 wall clock per iteration, nanoseconds.
    pub p95_wall_ns: u64,
    /// Deterministic work units per iteration (machine-independent).
    pub work_units: f64,
    /// Cardinality-estimator calls per iteration (machine-independent).
    pub estimator_calls: u64,
}

/// The committed baseline / emitted report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// One entry per scenario, in canonical order.
    pub scenarios: Vec<ScenarioResult>,
}

/// BENCH-core output: the report plus its human-readable artifacts.
#[derive(Debug)]
pub struct Output {
    /// The machine-readable report (what gets blessed).
    pub report: BenchReport,
    /// Rendered summary table.
    pub table: TextTable,
    /// Folded-stack (flamegraph) export of the aggregate profile.
    pub folded: String,
    /// ANSI "top phases" report of the aggregate profile.
    pub top: String,
}

/// Absolute path of the committed baseline at the repo root.
pub fn baseline_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json")
}

/// Parse a `BENCH_core.json` document, rejecting unknown future schema
/// versions.
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let report = BenchReport::from_json_value(&value)
        .ok_or_else(|| "unexpected BENCH_core.json shape".to_string())?;
    if report.schema_version > BENCH_SCHEMA_VERSION {
        return Err(format!(
            "baseline schema_version {} is newer than this reader ({})",
            report.schema_version, BENCH_SCHEMA_VERSION
        ));
    }
    Ok(report)
}

fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 * q).ceil() as usize).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one scenario: `warmup` discarded rounds, then `iterations`
/// measured ones. The closure returns the iteration's deterministic work
/// units; estimator calls are read off the profiler's exact counter.
/// Panics if either deterministic column varies across iterations.
fn run_scenario(
    name: &str,
    cfg: &Config,
    telemetry: &Telemetry,
    mut iter: impl FnMut() -> f64,
) -> ScenarioResult {
    for _ in 0..cfg.warmup {
        iter();
    }
    let mut walls = Vec::with_capacity(cfg.iterations);
    let mut work_units = None;
    let mut est_calls = None;
    for _ in 0..cfg.iterations {
        let scope = telemetry.begin_query(name);
        let est_before = telemetry.prof.estimator_calls();
        let start = Instant::now();
        let units = iter();
        walls.push(start.elapsed().as_nanos() as u64);
        let calls = telemetry.prof.estimator_calls() - est_before;
        scope.finish(|_| {});
        match (work_units, est_calls) {
            (None, None) => {
                work_units = Some(units);
                est_calls = Some(calls);
            }
            (Some(w), Some(c)) => {
                assert_eq!(
                    f64::to_bits(w),
                    f64::to_bits(units),
                    "{name}: work units varied across iterations"
                );
                assert_eq!(c, calls, "{name}: estimator calls varied across iterations");
            }
            _ => unreachable!(),
        }
    }
    walls.sort_unstable();
    ScenarioResult {
        name: name.to_string(),
        iterations: cfg.iterations,
        median_wall_ns: percentile_ns(&walls, 0.5),
        p95_wall_ns: percentile_ns(&walls, 0.95),
        work_units: work_units.unwrap(),
        estimator_calls: est_calls.unwrap(),
    }
}

fn base_card(catalog: &Arc<Catalog>) -> Arc<dyn CardSource> {
    let stats = Arc::new(CatalogStats::build_default(catalog));
    Arc::new(TraditionalCardSource::new(catalog.clone(), stats))
}

/// Run the canonical workload and produce the report plus its artifacts.
pub fn run(cfg: &Config) -> Output {
    let catalog = Arc::new(stats_like(60, 7).expect("catalog"));
    let card = base_card(&catalog);
    // Pinned recipes: golden10 matches the differential harness's golden
    // workload snapshot; enum_heavy widens the join count to stress DP.
    let golden = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: 10,
            min_tables: 2,
            max_tables: 3,
            max_predicates: 3,
            seed: 0x601D_E001,
        },
    );
    let wide = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: 4,
            min_tables: 4,
            max_tables: 6,
            max_predicates: 2,
            seed: 0xE1_0001,
        },
    );
    assert_eq!(golden.len(), 10, "golden workload must stay pinned at 10");
    assert!(
        !wide.is_empty(),
        "enumeration workload generated no queries"
    );

    let telemetry = Telemetry::from(ProfContext::sampling(PROF_STRIDE));
    let hints = HintSet::default();

    let golden10 = run_scenario("golden10", cfg, &telemetry, || {
        let optimizer = Optimizer::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let executor = Executor::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let mut units = 0.0;
        for _pass in 0..cfg.passes {
            for q in &golden {
                let choice = optimizer.optimize(q, card.as_ref(), &hints).expect("plan");
                units += executor.execute(q, &choice.plan).expect("execute").work;
            }
        }
        units
    });
    let enum_heavy = run_scenario("enum_heavy", cfg, &telemetry, || {
        let optimizer = Optimizer::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let mut units = 0.0;
        for _pass in 0..cfg.passes {
            for q in &wide {
                units += optimizer
                    .optimize(q, card.as_ref(), &hints)
                    .expect("plan")
                    .cost;
            }
        }
        units
    });
    let cache_heavy = run_scenario("cache_heavy", cfg, &telemetry, || {
        // A fresh cache every iteration keeps the scenario deterministic:
        // round 0 populates, rounds 1+ are served from plan cache.
        let cache = Arc::new(LqoCache::default());
        let memo: Arc<dyn CardSource> = Arc::new(MemoCardSource::new(card.clone(), cache.clone()));
        let optimizer = Optimizer::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let source = card.name().to_string();
        let mut units = 0.0;
        for _round in 0..4 * cfg.passes {
            for q in &golden {
                let key = plan_key(q, &hints.label(), &source);
                let cost = match cache.plan_lookup(key) {
                    Some(hit) => hit.cost,
                    None => {
                        let opt_memo = OptMemo::new(memo.as_ref());
                        let choice = optimizer.optimize(q, &opt_memo, &hints).expect("plan");
                        cache.plan_store(
                            key,
                            PlannedQuery {
                                plan: choice.plan.clone(),
                                cost: choice.cost,
                            },
                            &source,
                        );
                        choice.cost
                    }
                };
                units += cost;
            }
        }
        units
    });

    let batch_heavy = run_scenario("batch_heavy", cfg, &telemetry, || {
        let optimizer = Optimizer::with_defaults(&catalog).with_telemetry(telemetry.clone());
        let executor = Executor::new(
            &catalog,
            ExecConfig {
                mode: ExecMode::Batched {
                    batch_size: DEFAULT_BATCH_SIZE,
                },
                ..Default::default()
            },
        )
        .with_telemetry(telemetry.clone());
        let mut units = 0.0;
        for _pass in 0..cfg.passes {
            for q in &golden {
                let choice = optimizer.optimize(q, card.as_ref(), &hints).expect("plan");
                units += executor.execute(q, &choice.plan).expect("execute").work;
            }
        }
        units
    });

    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        scenarios: vec![golden10, enum_heavy, cache_heavy, batch_heavy],
    };
    let mut table = TextTable::new(
        "BENCH-core: canonical perf baseline",
        &[
            "scenario",
            "iters",
            "median_ms",
            "p95_ms",
            "work_units",
            "estimator_calls",
        ],
    );
    for s in &report.scenarios {
        table.row(vec![
            s.name.clone(),
            s.iterations.to_string(),
            format!("{:.3}", s.median_wall_ns as f64 / 1e6),
            format!("{:.3}", s.p95_wall_ns as f64 / 1e6),
            format!("{:.1}", s.work_units),
            s.estimator_calls.to_string(),
        ]);
    }
    let total = telemetry.prof.total();
    Output {
        report,
        table,
        folded: total.to_folded(),
        top: lqo_prof::render_top(&total, 20),
    }
}

/// The comparator's verdict.
#[derive(Debug, Clone)]
pub struct BenchComparison {
    /// Minimum per-scenario wall ratio, clamped to ≥ 1 — the uniform
    /// slowdown attributed to the machine rather than the code.
    pub machine_factor: f64,
    /// One human-readable line per scenario.
    pub lines: Vec<String>,
    /// Confirmed regressions; empty means the comparison passes.
    pub regressions: Vec<String>,
}

/// Compare a current report against the committed baseline. Wall clock
/// is judged per scenario against `REGRESSION_FACTOR ×` the machine
/// factor; deterministic columns are judged near-exactly. Errors (not
/// regressions) signal an unusable pair: scenario sets differ or a
/// median is zero.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Result<BenchComparison, String> {
    let mut ratios = Vec::with_capacity(current.scenarios.len());
    for cur in &current.scenarios {
        let base = baseline
            .scenarios
            .iter()
            .find(|s| s.name == cur.name)
            .ok_or_else(|| format!("scenario {} missing from the baseline", cur.name))?;
        if base.median_wall_ns == 0 {
            return Err(format!("baseline median for {} is zero", cur.name));
        }
        ratios.push((
            cur,
            base,
            cur.median_wall_ns as f64 / base.median_wall_ns as f64,
        ));
    }
    if ratios.is_empty() {
        return Err("empty report".to_string());
    }
    let machine_factor = ratios
        .iter()
        .map(|(_, _, r)| *r)
        .fold(f64::INFINITY, f64::min)
        .max(1.0);
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (cur, base, ratio) in ratios {
        let threshold = REGRESSION_FACTOR * machine_factor;
        lines.push(format!(
            "{}: wall ratio {ratio:.3} (threshold {threshold:.3}), \
             work {} -> {}, estimator calls {} -> {}",
            cur.name, base.work_units, cur.work_units, base.estimator_calls, cur.estimator_calls
        ));
        if ratio > threshold {
            regressions.push(format!(
                "{}: median wall regressed {ratio:.2}x vs baseline \
                 (> {threshold:.2}x after machine normalization)",
                cur.name
            ));
        }
        let denom = base.work_units.abs().max(1.0);
        if ((cur.work_units - base.work_units) / denom).abs() > 1e-9 {
            regressions.push(format!(
                "{}: deterministic work units changed {} -> {} \
                 (bless the baseline if intended)",
                cur.name, base.work_units, cur.work_units
            ));
        }
        if cur.estimator_calls != base.estimator_calls {
            regressions.push(format!(
                "{}: estimator calls changed {} -> {} (bless the baseline if intended)",
                cur.name, base.estimator_calls, cur.estimator_calls
            ));
        }
    }
    Ok(BenchComparison {
        machine_factor,
        lines,
        regressions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(walls: &[u64]) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            scenarios: walls
                .iter()
                .enumerate()
                .map(|(i, &w)| ScenarioResult {
                    name: format!("s{i}"),
                    iterations: 5,
                    median_wall_ns: w,
                    p95_wall_ns: w * 2,
                    work_units: 100.0 * (i + 1) as f64,
                    estimator_calls: 10 * (i + 1) as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let base = report(&[1_000_000, 2_000_000, 3_000_000]);
        let cmp = compare(&base, &base.clone()).unwrap();
        assert_eq!(cmp.machine_factor, 1.0);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn injected_25pct_slowdown_in_one_scenario_fails() {
        let base = report(&[1_000_000, 2_000_000, 3_000_000]);
        let mut cur = base.clone();
        cur.scenarios[1].median_wall_ns = (base.scenarios[1].median_wall_ns as f64 * 1.25) as u64;
        let cmp = compare(&base, &cur).unwrap();
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert!(cmp.regressions[0].contains("s1"));
    }

    #[test]
    fn uniform_slowdown_is_machine_noise() {
        let base = report(&[1_000_000, 2_000_000, 3_000_000]);
        let mut cur = base.clone();
        for s in &mut cur.scenarios {
            s.median_wall_ns = (s.median_wall_ns as f64 * 1.6) as u64;
        }
        let cmp = compare(&base, &cur).unwrap();
        assert!((cmp.machine_factor - 1.6).abs() < 1e-9);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn improvement_does_not_raise_the_bar() {
        // One scenario gets 2x faster; the unchanged ones must not be
        // flagged as relative regressions.
        let base = report(&[1_000_000, 2_000_000, 3_000_000]);
        let mut cur = base.clone();
        cur.scenarios[0].median_wall_ns /= 2;
        let cmp = compare(&base, &cur).unwrap();
        assert_eq!(cmp.machine_factor, 1.0);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn deterministic_columns_are_checked_exactly() {
        let base = report(&[1_000_000, 2_000_000]);
        let mut cur = base.clone();
        cur.scenarios[0].estimator_calls += 1;
        cur.scenarios[1].work_units += 0.5;
        let cmp = compare(&base, &cur).unwrap();
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
    }

    #[test]
    fn mismatched_scenario_sets_error() {
        let base = report(&[1_000_000]);
        let mut cur = report(&[1_000_000]);
        cur.scenarios[0].name = "renamed".into();
        assert!(compare(&base, &cur).is_err());
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let mut r = report(&[1]);
        r.schema_version = BENCH_SCHEMA_VERSION + 1;
        let text = serde_json::to_string(&r).unwrap();
        assert!(parse_report(&text).is_err());
        r.schema_version = BENCH_SCHEMA_VERSION;
        let text = serde_json::to_string(&r).unwrap();
        assert_eq!(parse_report(&text).unwrap().scenarios.len(), 1);
    }

    #[test]
    fn harness_is_deterministic_and_profiled() {
        let cfg = Config {
            iterations: 2,
            warmup: 0,
            passes: 1,
        };
        let out = run(&cfg);
        assert_eq!(out.report.schema_version, BENCH_SCHEMA_VERSION);
        let names: Vec<&str> = out
            .report
            .scenarios
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["golden10", "enum_heavy", "cache_heavy", "batch_heavy"]
        );
        for s in &out.report.scenarios {
            // run_scenario asserts cross-iteration determinism internally;
            // here we check the columns are populated and sane.
            assert!(s.work_units > 0.0, "{}", s.name);
            assert!(s.estimator_calls > 0, "{}", s.name);
            assert!(s.median_wall_ns > 0 && s.p95_wall_ns >= s.median_wall_ns);
        }
        // The plan cache absorbed the repeat rounds: cache_heavy re-plans
        // the golden templates once, not four times.
        let g = &out.report.scenarios[0];
        let c = &out.report.scenarios[2];
        assert!(
            c.estimator_calls < 2 * g.estimator_calls,
            "cache ineffective"
        );
        // The byte-identity contract reaches into the perf baseline:
        // batched execution of the same golden workload accounts the
        // same bit-exact work units as the serial golden10 row.
        let b = &out.report.scenarios[3];
        assert_eq!(
            g.work_units.to_bits(),
            b.work_units.to_bits(),
            "batch_heavy work diverged from golden10"
        );
        // The aggregate profile exports round-trip and carry the
        // enumeration subtree.
        assert!(out.folded.contains("enumerate"));
        assert!(lqo_prof::parse_folded(&out.folded).is_some());
        assert!(out.top.contains("enumerate"));
        // The fresh report compares clean against itself.
        let cmp = compare(&out.report, &out.report).unwrap();
        assert!(cmp.regressions.is_empty());
    }

    #[test]
    fn committed_baseline_is_well_formed() {
        let path = baseline_path();
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("missing committed baseline {path}: {e}"));
        let report = parse_report(&text).expect("baseline parses");
        assert!(report.scenarios.len() >= 3, "need >=3 scenarios");
        for s in &report.scenarios {
            assert!(s.median_wall_ns > 0, "{}", s.name);
            assert!(s.p95_wall_ns >= s.median_wall_ns, "{}", s.name);
            assert!(s.work_units > 0.0, "{}", s.name);
            assert!(s.estimator_calls > 0, "{}", s.name);
        }
    }
}
