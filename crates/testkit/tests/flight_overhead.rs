//! Flight-recorder acceptance tests: the always-on overhead bound on the
//! golden workload (same interleaved-minimum methodology as the profiler
//! bound, DESIGN.md §13), and a golden-file snapshot of the Prometheus
//! text exposition of the metrics registry.

use std::sync::Arc;
use std::time::Instant;

use lqo_bench_suite::{generate_workload, WorkloadConfig};
use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{
    Catalog, CatalogStats, Executor, HintSet, Optimizer, Telemetry, TraditionalCardSource,
};
use lqo_flight::{FlightConfig, FlightContext};
use lqo_obs::prom::{parse_prometheus, render_prometheus};
use lqo_obs::ObsContext;
use lqo_testkit::check_golden;

/// The same workload shape as the profiler bound: 3–5 way joins at
/// realistic per-query cost, so the ratio reflects what a deployment
/// sees with the recorder left on in production.
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

/// Plan and execute the whole golden workload `reps` times with the
/// flight recorder attached (span edges per optimize and per execute,
/// plus the begin/end query edges — the recorder's steady-state cost).
fn run_workload(
    catalog: &Arc<Catalog>,
    card: &Arc<dyn CardSource>,
    queries: &[lqo_engine::SpjQuery],
    flight: &FlightContext,
    reps: usize,
) -> f64 {
    let telemetry = Telemetry {
        flight: flight.clone(),
        ..Telemetry::default()
    };
    let optimizer = Optimizer::with_defaults(catalog).with_telemetry(telemetry.clone());
    let executor = Executor::with_defaults(catalog).with_telemetry(telemetry);
    let hints = HintSet::default();
    let mut total_work = 0.0;
    for _ in 0..reps {
        for q in queries {
            flight.begin_query("golden");
            let choice = optimizer.optimize(q, card.as_ref(), &hints).unwrap();
            total_work += executor.execute(q, &choice.plan).unwrap().work;
            flight.end_query(None, None);
        }
    }
    total_work
}

/// The always-on flight recorder must cost < 2% wall clock on the
/// canonical workload. Methodology as in `prof_overhead.rs`: interleaved
/// trials, each arm summarized by its minimum over K trials, trial
/// length auto-sized so timer quantization is negligible.
#[test]
fn flight_recorder_overhead_is_bounded() {
    let (catalog, card, queries) = workload_setup();
    let off = FlightContext::disabled();
    // Obs stays disabled in both arms so the measured delta is the
    // recorder itself (ring publishes), not trace recording.
    let on = FlightContext::new(FlightConfig::default(), ObsContext::disabled());

    let t0 = Instant::now();
    run_workload(&catalog, &card, &queries, &off, 1);
    let per_rep = t0.elapsed().as_secs_f64().max(1e-6);
    let reps = ((0.025 / per_rep).ceil() as usize).clamp(2, 200);
    const MIN_TRIALS: usize = 5;
    // Debug builds only exercise the functional checks; the <2% bound
    // is a statement about optimized code.
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
    // The recorder never perturbs the computation itself.
    assert_eq!(work_off.to_bits(), work_on.to_bits());
    let ratio = min_on / min_off;
    eprintln!(
        "flight overhead: {:+.2}% (off {min_off:.4}s, on {min_on:.4}s, \
         {reps} reps/trial, {trials} trials)",
        (ratio - 1.0) * 100.0
    );
    if !cfg!(debug_assertions) {
        assert!(
            ratio < 1.02,
            "flight recorder overhead {:.2}% exceeds the 2% bound \
             (off {min_off:.4}s vs on {min_on:.4}s, {reps} reps/trial, {trials} trials)",
            (ratio - 1.0) * 100.0
        );
    }
    // The cheap run still recorded the span stream.
    assert!(on.events_published() > 0);
    assert!(on
        .ring_snapshot()
        .iter()
        .any(|r| matches!(&r.event, lqo_flight::FlightEvent::Span { name, .. } if name == "plan.optimize")));
}

/// The Prometheus text exposition of the metrics registry is pinned by
/// a golden file, and every metric in the snapshot round-trips through
/// the parser.
#[test]
fn prometheus_export_matches_golden_and_round_trips() {
    // A deterministic registry: counters, gauges, and a histogram with
    // values spread across buckets (plus a name needing mangling).
    let obs = ObsContext::enabled();
    obs.count("lqo.flight.events", 142);
    obs.count("lqo.flight.bundles", 1);
    obs.count("lqo.guard.faults", 7);
    obs.gauge("lqo.cache.hit-rate", 0.75);
    for v in [0.5, 3.0, 3.5, 40.0, 900.0] {
        obs.observe("lqo.exec.work", v);
    }
    let snap = obs.metrics().expect("enabled").snapshot();
    let text = render_prometheus(&snap);
    check_golden("prom_metrics.txt", &text);

    let samples = parse_prometheus(&text).expect("exposition parses");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.le.is_none())
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    // Every counter round-trips under its `_total` name…
    for (name, value) in &snap.counters {
        let s = find(&format!("{}_total", lqo_obs::prom::prom_name(name)));
        assert_eq!(s.value, *value as f64);
    }
    // …every gauge under its mangled name…
    for (name, value) in &snap.gauges {
        let s = find(&lqo_obs::prom::prom_name(name));
        assert_eq!(s.value, *value);
    }
    // …and every histogram exposes a consistent _count/_sum plus a +Inf
    // bucket equal to the count.
    for (name, h) in &snap.histograms {
        let p = lqo_obs::prom::prom_name(name);
        assert_eq!(find(&format!("{p}_count")).value, h.count() as f64);
        assert_eq!(find(&format!("{p}_sum")).value, h.sum());
        let inf = samples
            .iter()
            .find(|s| s.name == format!("{p}_bucket") && s.le.as_deref() == Some("+Inf"))
            .expect("mandatory +Inf bucket");
        assert_eq!(inf.value, h.count() as f64);
    }
}
