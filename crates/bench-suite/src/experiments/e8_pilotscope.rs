//! **E8 — PilotScope middleware** (paper §3): middleware overhead
//! (console-routed execution vs direct executor), the cardinality
//! driver's batch injection, and the Bao/Lero drivers steering the engine
//! through push/pull — the paper's demonstration, measured.

use std::sync::Arc;
use std::time::Instant;

use learned_qo::framework::OptContext;
use lqo_card::data_driven::DeepDbEstimator;
use lqo_card::estimator::FitContext;
use lqo_engine::datagen::stats_like;
use lqo_engine::{Executor, Optimizer, TrueCardOracle};
use lqo_obs::ObsContext;
use lqo_pilot::{BaoDriver, CardDriver, EngineInteractor, LeroDriver, PilotConsole};

use crate::report::TextTable;
use crate::workload::{generate_workload, WorkloadConfig};

/// E8 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `stats_like` scale.
    pub scale: usize,
    /// Workload size.
    pub num_queries: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        let f = crate::report::scale_factor();
        Config {
            scale: (120.0 * f) as usize,
            num_queries: (30.0 * f) as usize,
            seed: 0xE8,
        }
    }
}

/// Run E8.
pub fn run(cfg: &Config) -> TextTable {
    run_traced(cfg).0
}

/// Run E8 with query-lifecycle observability enabled on the console.
/// Returns the result table and the observability context holding one
/// trace per console-routed query (parse/plan/execute phases, driver
/// attribution, per-operator est-vs-true cardinalities) plus the metrics
/// registry.
pub fn run_traced(cfg: &Config) -> (TextTable, ObsContext) {
    let obs = ObsContext::enabled();
    let catalog = Arc::new(stats_like(cfg.scale.max(40), cfg.seed).unwrap());
    let ctx = OptContext::new(catalog.clone());
    let queries = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.num_queries.max(4),
            max_tables: 4,
            seed: cfg.seed ^ 0x90,
            ..Default::default()
        },
    );
    let sqls: Vec<String> = queries.iter().map(|q| q.to_string()).collect();

    let mut table = TextTable::new(
        "E8: PilotScope middleware — overhead and drivers",
        &["Mode", "total-work", "wall-ms", "overhead", "notes"],
    );

    // Direct execution: optimizer + executor, no middleware.
    let t0 = Instant::now();
    let mut direct_work = 0.0;
    {
        let optimizer = Optimizer::with_defaults(&catalog);
        let executor = Executor::with_defaults(&catalog);
        for q in &queries {
            let plan = optimizer
                .optimize_default(q, ctx.card.as_ref())
                .unwrap()
                .plan;
            direct_work += executor.execute(q, &plan).unwrap().work;
        }
    }
    let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
    table.row(vec![
        "direct (no middleware)".into(),
        format!("{direct_work:.0}"),
        format!("{direct_ms:.1}"),
        "1.00x".into(),
        "-".into(),
    ]);

    // Console without a driver: pure middleware overhead.
    let interactor = Arc::new(EngineInteractor::new(catalog.clone()));
    let mut console = PilotConsole::new(interactor).with_telemetry(obs.clone());
    let t0 = Instant::now();
    let mut console_work = 0.0;
    for sql in &sqls {
        console_work += console.execute_sql(sql).unwrap().work;
    }
    let console_ms = t0.elapsed().as_secs_f64() * 1e3;
    table.row(vec![
        "console (no driver)".into(),
        format!("{console_work:.0}"),
        format!("{console_ms:.1}"),
        format!("{:.2}x", console_ms / direct_ms.max(1e-9)),
        "same plans as direct".into(),
    ]);

    // Cardinality driver: DeepDB injected per sub-query.
    let fit = FitContext {
        catalog: ctx.catalog.clone(),
        stats: ctx.stats.clone(),
    };
    let oracle = Arc::new(TrueCardOracle::new(catalog.clone()));
    let est = Arc::new(DeepDbEstimator::fit(&fit, oracle));
    let mut card_driver = CardDriver::new(est);
    card_driver.max_subquery = 4;
    console.register_driver(Box::new(card_driver)).unwrap();
    console.start_driver(Some("learned-cardinality")).unwrap();
    let t0 = Instant::now();
    let mut card_work = 0.0;
    for sql in &sqls {
        card_work += console.execute_sql(sql).unwrap().work;
    }
    let card_ms = t0.elapsed().as_secs_f64() * 1e3;
    table.row(vec![
        "card driver (DeepDB)".into(),
        format!("{card_work:.0}"),
        format!("{card_ms:.1}"),
        format!("{:.2}x", card_ms / direct_ms.max(1e-9)),
        "batch sub-query injection".into(),
    ]);

    // Bao and Lero drivers, with one background update between passes.
    console
        .register_driver(Box::new(BaoDriver::new(ctx.clone())))
        .unwrap();
    console
        .register_driver(Box::new(LeroDriver::new(ctx.clone())))
        .unwrap();
    for name in ["bao", "lero"] {
        console.start_driver(Some(name)).unwrap();
        let t0 = Instant::now();
        let mut work = 0.0;
        for sql in &sqls {
            work += console.execute_sql(sql).unwrap().work;
        }
        console.tick(); // background model update
        for sql in &sqls {
            work += console.execute_sql(sql).unwrap().work;
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        table.row(vec![
            format!("{name} driver (2 passes)"),
            format!("{work:.0}"),
            format!("{ms:.1}"),
            format!("{:.2}x", ms / (2.0 * direct_ms).max(1e-9)),
            "push/pull steering + learning".into(),
        ]);
    }
    (table, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_traces_cover_the_query_lifecycle() {
        let cfg = Config {
            scale: 50,
            num_queries: 4,
            ..Default::default()
        };
        let (_, obs) = run_traced(&cfg);
        let traces = obs.finished_traces();
        // 4 queries x (console + card driver + 2x bao + 2x lero) passes.
        assert_eq!(traces.len(), 24);
        for t in &traces {
            let phases: Vec<&str> = t.phases.iter().map(|p| p.name.as_str()).collect();
            assert!(phases.contains(&"parse"), "phases {phases:?}");
            assert!(phases.contains(&"execute"), "phases {phases:?}");
            assert!(!t.exec.operators.is_empty(), "no operator events");
            assert!(t.outcome.is_some(), "no outcome");
        }
        // Driver attribution: the card/bao/lero passes carry their names,
        // with per-query decision latency.
        for name in ["learned-cardinality", "bao", "lero"] {
            let steered: Vec<_> = traces
                .iter()
                .filter(|t| t.driver.as_deref() == Some(name))
                .collect();
            assert!(!steered.is_empty(), "no traces for driver {name}");
            assert!(steered.iter().all(|t| t.decision_ns.is_some()));
        }
        // Estimated-vs-true cardinalities: the optimizer-planned passes
        // record card lookups that join_estimates matched to operators.
        assert!(
            traces.iter().any(|t| t
                .exec
                .operators
                .iter()
                .any(|o| o.est_rows.is_some() && o.q_error().is_some())),
            "no operator with both estimated and true cardinality"
        );
        // The whole log survives a JSONL round trip.
        let jsonl = lqo_obs::export::write_jsonl(&traces);
        assert_eq!(lqo_obs::export::parse_jsonl(&jsonl).expect("parse"), traces);
        // Execution metrics accumulated in the shared registry.
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.pilot.queries"), Some(24));
        assert!(snap.counter("lqo.card.lookups").unwrap_or(0) > 0);
        assert!(snap.histogram("lqo.exec.work_units").is_some());
    }

    #[test]
    fn tiny_e8_console_matches_direct_work() {
        let cfg = Config {
            scale: 50,
            num_queries: 4,
            ..Default::default()
        };
        let table = run(&cfg);
        assert_eq!(table.rows.len(), 5);
        // The driverless console executes the same plans: identical work.
        let direct: f64 = table.rows[0][1].parse().unwrap();
        let console: f64 = table.rows[1][1].parse().unwrap();
        assert!(
            (direct - console).abs() < 1e-6,
            "direct {direct} console {console}"
        );
    }
}
