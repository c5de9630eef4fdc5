//! **E13 — mid-query re-optimization on a poisoned-estimate replay.**
//! The robustness case for checkpointed re-optimization (Kabra-DeWitt
//! style, the survey's "what is next" for runtime adaptivity): a learned
//! estimator that has gone stale hands the optimizer a confidently wrong
//! cardinality, the optimizer picks a bad join order, and without
//! runtime feedback the query pays the full price. This experiment
//! replays a join workload in which exactly one query's estimates are
//! deliberately poisoned (its per-table cardinalities forced to 1):
//!
//! * `opt` — the plan chosen with accurate estimates, executed plainly:
//!   the quality ceiling.
//! * `stale` — the plan chosen under the poisoned estimates, executed
//!   plainly: what a non-adaptive system is stuck with.
//! * `reopt` — the same stale plan executed under the checkpointed
//!   re-optimizing executor, which observes the misestimate at the first
//!   materialization checkpoint, re-plans the residual within the
//!   [`lqo_guard::ReoptGuard`] budget, and splices the recovery in.
//!
//! Reported per query: work units under all three, the bounded
//! re-planning work against its budget, recovery latency (wall time of
//! the reopt run), and end-state plan quality (`work_reopt / work_opt`).
//! Asserted: every run returns the same answer (the plain run's
//! intermediates for kept plans; after a switch, the executed plan the
//! report returns gives the identical normalized tuple multiset),
//! untriggered queries are bit-identical to their plain execution, and
//! re-planning work never exceeds the guard cap. The binary additionally
//! asserts the headline: the re-optimized poisoned query beats the stale
//! plan.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::{CardSource, InjectedCardSource};
use lqo_engine::{
    Catalog, ExecConfig, Executor, Optimizer, PhysNode, TableSet, TraditionalCardSource,
};
use lqo_reopt::{ReoptConfig, ReoptExecutor};

use crate::report::TextTable;
use crate::workload::{generate_workload, WorkloadConfig};

/// E13 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `stats_like` scale.
    pub scale: usize,
    /// Join queries in the replay.
    pub num_queries: usize,
    /// Re-optimization policy for the replay.
    pub reopt: ReoptConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        let f = crate::report::scale_factor();
        Config {
            scale: (120.0 * f).max(60.0) as usize,
            num_queries: (12.0 * f).max(6.0) as usize,
            reopt: ReoptConfig {
                q_error_threshold: 4.0,
                confirm_streak: 1,
                ..Default::default()
            },
            seed: 0xE13,
        }
    }
}

/// One JSONL record: one replayed query.
#[derive(Debug, Clone, Serialize)]
pub struct QueryPoint {
    /// Query index in the replay.
    pub index: usize,
    /// Number of base tables.
    pub tables: usize,
    /// Whether this is the deliberately poisoned query.
    pub poisoned: bool,
    /// Count-star answer (identical across all three runs).
    pub count: u64,
    /// Work units of the accurate-estimate plan, executed plainly.
    pub work_opt: f64,
    /// Work units of the (possibly stale) session plan, executed plainly.
    pub work_stale: f64,
    /// Work units of the session plan under the checkpointed executor
    /// (includes the re-planning charge).
    pub work_reopt: f64,
    /// Re-planning work spent at checkpoints.
    pub replan_work: f64,
    /// The guard's re-planning work cap.
    pub replan_budget: f64,
    /// Checkpoints evaluated.
    pub checkpoints: u64,
    /// Confirmed triggers.
    pub triggers: u64,
    /// Sub-plan switches.
    pub switches: u64,
    /// Wall time of the reopt run, seconds — the recovery latency.
    pub wall_reopt_s: f64,
    /// `work_stale / work_opt`: how bad the stale plan is.
    pub stale_ratio: f64,
    /// `work_reopt / work_opt`: end-state plan quality (1.0 = ceiling).
    pub reopt_ratio: f64,
}

/// E13 output.
#[derive(Debug, Serialize)]
pub struct Output {
    /// Rendered summary table.
    pub table: TextTable,
    /// One record per replayed query.
    pub points: Vec<QueryPoint>,
    /// Index of the poisoned query in `points`.
    pub poisoned_index: usize,
}

/// Run the replay. Panics if any run changes an answer, if an unpoisoned
/// query is not bit-identical under checkpointing, if re-planning work
/// exceeds the guard cap, or if no replayed query could be poisoned into
/// a distinct stale plan.
pub fn run(cfg: &Config) -> Output {
    let catalog: Arc<Catalog> = Arc::new(stats_like(cfg.scale, cfg.seed).expect("catalog"));
    let queries = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.num_queries.max(2),
            min_tables: 2,
            max_tables: 4,
            max_predicates: 3,
            seed: cfg.seed,
        },
    );
    assert!(!queries.is_empty(), "empty replay workload");

    let stats = Arc::new(lqo_engine::CatalogStats::build_default(&catalog));
    let accurate: Arc<dyn CardSource> =
        Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
    let optimizer = Optimizer::with_defaults(&catalog);
    let accurate_plans: Vec<PhysNode> = queries
        .iter()
        .map(|q| {
            optimizer
                .optimize_default(q, accurate.as_ref())
                .unwrap()
                .plan
        })
        .collect();

    // The session estimator: accurate everywhere except one query whose
    // per-table estimates are forced to 1 row — the "stale model" that
    // confidently hands the optimizer garbage. Pick the first query the
    // poison actually steers to a different plan.
    let session = InjectedCardSource::new(accurate.clone());
    let mut poisoned_index = None;
    for (i, q) in queries.iter().enumerate() {
        if q.num_tables() < 3 {
            continue;
        }
        for t in 0..q.num_tables() {
            session.inject(q, TableSet::singleton(t), 1.0);
        }
        let stale = optimizer.optimize_default(q, &session).unwrap().plan;
        if stale.fingerprint() != accurate_plans[i].fingerprint() {
            poisoned_index = Some(i);
            break;
        }
        session.clear();
    }
    let poisoned_index = poisoned_index.expect("no query could be poisoned into a stale plan");
    let session: Arc<dyn CardSource> = Arc::new(session);

    let session_plans: Vec<PhysNode> = queries
        .iter()
        .map(|q| {
            optimizer
                .optimize_default(q, session.as_ref())
                .unwrap()
                .plan
        })
        .collect();

    let plain = Executor::with_defaults(&catalog);
    let reopt_exec = ReoptExecutor::new(
        &catalog,
        ExecConfig::default(),
        session.clone(),
        cfg.reopt.clone(),
    );
    let budget = cfg.reopt.guard.replan_work_cap;

    let mut points = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let (opt_r, opt_rel) = plain.execute_collect(q, &accurate_plans[i]).unwrap();
        let (stale_r, stale_rel) = plain.execute_collect(q, &session_plans[i]).unwrap();
        let start = Instant::now();
        let (reopt_r, report) = reopt_exec.execute(q, &session_plans[i]).unwrap();
        let wall_reopt_s = start.elapsed().as_secs_f64();

        // Answer identity across all three runs.
        assert_eq!(opt_r.count, stale_r.count, "stale plan changed a result");
        assert_eq!(opt_r.count, reopt_r.count, "reopt changed a result");
        assert_eq!(
            stale_rel.normalize().canonical_digest(),
            opt_rel.normalize().canonical_digest(),
            "stale plan changed the tuple multiset"
        );
        if report.switches == 0 {
            assert_eq!(report.plan, session_plans[i], "kept plan was replaced");
            assert_eq!(
                reopt_r.intermediates, stale_r.intermediates,
                "kept plan must keep its plain execution's intermediates"
            );
        } else {
            let (_, ran_rel) = plain.execute_collect(q, &report.plan).unwrap();
            assert_eq!(
                ran_rel.normalize().canonical_digest(),
                opt_rel.normalize().canonical_digest(),
                "switched plan changed the tuple multiset"
            );
        }
        // Untriggered checkpointing must be invisible. (An unpoisoned
        // query may still trip a checkpoint — the base estimator's own
        // q-errors are real — in which case the only legitimate delta is
        // the bounded re-planning charge, and the answer checks above
        // already held.)
        if report.triggers == 0 {
            assert_eq!(
                reopt_r.work.to_bits(),
                stale_r.work.to_bits(),
                "untriggered query {i} was perturbed by checkpointing"
            );
        }
        assert!(
            report.replan_work <= budget + 1e-9,
            "re-planning work {} exceeded the guard cap {budget}",
            report.replan_work
        );

        points.push(QueryPoint {
            index: i,
            tables: q.num_tables(),
            poisoned: i == poisoned_index,
            count: opt_r.count,
            work_opt: opt_r.work,
            work_stale: stale_r.work,
            work_reopt: reopt_r.work,
            replan_work: report.replan_work,
            replan_budget: budget,
            checkpoints: report.checkpoints,
            triggers: report.triggers,
            switches: report.switches,
            wall_reopt_s,
            stale_ratio: stale_r.work / opt_r.work.max(1e-12),
            reopt_ratio: reopt_r.work / opt_r.work.max(1e-12),
        });
    }

    let mut table = TextTable::new(
        "E13: mid-query re-optimization — poisoned-estimate replay (answers identical)",
        &[
            "query",
            "tables",
            "poisoned",
            "work_opt",
            "work_stale",
            "work_reopt",
            "replan_work",
            "switches",
            "stale_ratio",
            "reopt_ratio",
        ],
    );
    for p in &points {
        table.row(vec![
            p.index.to_string(),
            p.tables.to_string(),
            if p.poisoned { "yes" } else { "" }.to_string(),
            format!("{:.0}", p.work_opt),
            format!("{:.0}", p.work_stale),
            format!("{:.0}", p.work_reopt),
            format!("{:.0}", p.replan_work),
            p.switches.to_string(),
            format!("{:.2}", p.stale_ratio),
            format!("{:.2}", p.reopt_ratio),
        ]);
    }
    Output {
        table,
        points,
        poisoned_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_jsonl;

    #[test]
    fn poisoned_query_recovers_within_budget() {
        let cfg = Config {
            scale: 80,
            num_queries: 6,
            ..Default::default()
        };
        let out = run(&cfg); // answer identity asserted inside
        assert_eq!(out.points.len(), 6);
        let poisoned = &out.points[out.poisoned_index];
        assert!(poisoned.poisoned);
        assert!(poisoned.triggers > 0, "poison never tripped a checkpoint");
        assert!(
            poisoned.work_reopt < poisoned.work_stale,
            "re-optimization did not beat the stale plan: {} vs {}",
            poisoned.work_reopt,
            poisoned.work_stale
        );
        assert!(poisoned.replan_work > 0.0);
        assert!(poisoned.replan_work <= poisoned.replan_budget);
        // Untriggered queries are untouched.
        for p in out.points.iter().filter(|p| !p.poisoned && p.triggers == 0) {
            assert_eq!(p.work_reopt.to_bits(), p.work_stale.to_bits());
        }
        let jsonl = to_jsonl(&out.points);
        assert_eq!(jsonl.lines().count(), 6);
        assert!(jsonl.contains("\"poisoned\":true"));
    }
}
