//! Profiler acceptance tests: the sampling-mode overhead bound on the
//! golden workload, and a golden-file snapshot of the folded-stack
//! (flamegraph) export format.

use std::sync::Arc;
use std::time::Instant;

use lqo_bench_suite::{generate_workload, WorkloadConfig};
use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{Catalog, CatalogStats, Executor, HintSet, Optimizer, TraditionalCardSource};
use lqo_prof::{parse_folded, ProfContext};
use lqo_testkit::check_golden;

/// Queries sized like the paper's workloads (3–5 way joins, ~100µs+
/// of optimize+execute each). The profiler's cost is a fixed handful
/// of phase guards per query, so the overhead *ratio* is what a real
/// deployment sees at realistic query sizes; sub-50µs micro-queries
/// would see proportionally more (documented in DESIGN.md §13).
fn workload_setup() -> (Arc<Catalog>, Arc<dyn CardSource>, Vec<lqo_engine::SpjQuery>) {
    let catalog = Arc::new(stats_like(60, 7).unwrap());
    let stats = Arc::new(CatalogStats::build_default(&catalog));
    let card: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
    let queries = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: 8,
            min_tables: 3,
            max_tables: 5,
            max_predicates: 2,
            seed: 0x0BEA_D001,
        },
    );
    assert_eq!(queries.len(), 8);
    (catalog, card, queries)
}

/// Plan and execute the whole golden workload `reps` times under `prof`.
fn run_workload(
    catalog: &Arc<Catalog>,
    card: &Arc<dyn CardSource>,
    queries: &[lqo_engine::SpjQuery],
    prof: &ProfContext,
    reps: usize,
) -> f64 {
    let optimizer = Optimizer::with_defaults(catalog).with_telemetry(prof.clone());
    let executor = Executor::with_defaults(catalog).with_telemetry(prof.clone());
    let hints = HintSet::default();
    let mut total_work = 0.0;
    for _ in 0..reps {
        for q in queries {
            let choice = optimizer.optimize(q, card.as_ref(), &hints).unwrap();
            total_work += executor.execute(q, &choice.plan).unwrap().work;
        }
    }
    total_work
}

/// Sampling-mode profiling must cost < 2% wall clock on the canonical
/// workload. Methodology (documented in DESIGN.md §13): trials of the
/// two arms are interleaved and each arm is summarized by its *minimum*
/// over K trials — the min is the classic robust estimator for "how fast
/// can this code go", immune to one-sided scheduler noise. Trial length
/// is auto-sized to tens of milliseconds so timer quantization is
/// negligible.
#[test]
fn sampling_profiler_overhead_is_bounded() {
    let (catalog, card, queries) = workload_setup();
    let off = ProfContext::disabled();
    let on = ProfContext::sampling(64);

    // Size one trial to >= ~25ms (debug builds are slower; the sizing
    // pass adapts either way), then take interleaved trial pairs. The
    // per-arm minimum is monotone in the trial count, so keep sampling
    // until the ratio clears the bound or the budget runs out — this
    // rides out transient contention from concurrently running test
    // binaries without weakening the bound itself.
    let t0 = Instant::now();
    run_workload(&catalog, &card, &queries, &off, 1);
    let per_rep = t0.elapsed().as_secs_f64().max(1e-6);
    let reps = ((0.025 / per_rep).ceil() as usize).clamp(2, 200);
    const MIN_TRIALS: usize = 5;
    // Debug builds only exercise the functional checks (see below), so
    // they stop at MIN_TRIALS instead of chasing a timing bound.
    let max_trials: usize = if cfg!(debug_assertions) {
        MIN_TRIALS
    } else {
        40
    };
    let mut trials = 0usize;
    let mut min_off = f64::INFINITY;
    let mut min_on = f64::INFINITY;
    let mut work_off = 0.0;
    let mut work_on = 0.0;
    while trials < max_trials {
        let t = Instant::now();
        work_off = run_workload(&catalog, &card, &queries, &off, reps);
        min_off = min_off.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        work_on = run_workload(&catalog, &card, &queries, &on, reps);
        min_on = min_on.min(t.elapsed().as_secs_f64());
        trials += 1;
        if trials >= MIN_TRIALS && min_on / min_off < 1.02 {
            break;
        }
    }
    // The profiler never perturbs the computation itself.
    assert_eq!(work_off.to_bits(), work_on.to_bits());
    let ratio = min_on / min_off;
    eprintln!(
        "prof overhead: {:+.2}% (off {min_off:.4}s, on {min_on:.4}s, \
         {reps} reps/trial, {trials} trials)",
        (ratio - 1.0) * 100.0
    );
    // The <2% bound is a statement about optimized code; debug builds
    // run the hot path unoptimized, so only the perturbation-freedom
    // and profile-shape checks apply there.
    if !cfg!(debug_assertions) {
        assert!(
            ratio < 1.02,
            "sampling profiler overhead {:.2}% exceeds the 2% bound \
             (off {min_off:.4}s vs on {min_on:.4}s, {reps} reps/trial, {trials} trials)",
            (ratio - 1.0) * 100.0
        );
    }
    // The cheap run still produced a usable profile.
    let total = on.total();
    assert!(total.frames.contains_key("enumerate"));
    assert!(total.frames.contains_key("execute"));
}

/// The folded-stack export format is pinned by a golden file and
/// round-trips through the parser losslessly.
#[test]
fn folded_stack_export_matches_golden_and_round_trips() {
    // A deterministic profile assembled via record_at: fixed wall values,
    // multi-level nesting, a zero-duration phase, and a count-only frame
    // (calls but no sampled wall) that must still appear with value 0.
    let prof = ProfContext::enabled();
    prof.record_at("parse", 10, 5_000, 0.0);
    prof.record_at("plan", 10, 2_000_000, 0.0);
    prof.record_at("plan;enumerate", 10, 1_900_000, 0.0);
    prof.record_at("plan;enumerate;estimate", 640, 1_200_000, 0.0);
    prof.record_at("plan;enumerate;cost", 0, 0, 870.0);
    prof.record_at("execute", 10, 9_000_000, 0.0);
    prof.record_at("execute;HashJoin", 10, 8_000_000, 1024.5);
    prof.record_at("execute;HashJoin;Scan", 20, 6_500_000, 4096.0);
    prof.record_at("execute;zero_phase", 3, 0, 0.0);
    let folded = prof.total().to_folded();
    check_golden("prof_folded.txt", &folded);

    let parsed = parse_folded(&folded).expect("folded parses");
    assert_eq!(parsed.len(), folded.lines().count());
    assert_eq!(parsed["plan;enumerate;estimate"], 1_200_000);
    assert_eq!(parsed["execute;HashJoin;Scan"], 6_500_000);
    // Count-only and zero-duration frames survive with value 0.
    assert_eq!(parsed["plan;enumerate;cost"], 0);
    assert_eq!(parsed["execute;zero_phase"], 0);
    // Re-folding the parsed map is identity (the format is canonical:
    // sorted paths, one "path value" line each).
    let refolded: String = parsed
        .iter()
        .map(|(path, v)| format!("{path} {v}\n"))
        .collect();
    assert_eq!(refolded, folded);
}
