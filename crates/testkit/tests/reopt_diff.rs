//! Reopt differential sweep: every bench-workload query runs under the
//! checkpointed re-optimizing executor — serially and at every
//! `LQO_TEST_THREADS` worker count — and is compared against the plain
//! serial executor.
//!
//! With the estimator the plans were built on, nothing may trigger and
//! the comparison is execute identity (count, work bits, intermediates).
//! With deliberately poisoned estimates, checkpoints trip, plans switch,
//! and the comparison is answer identity (equal counts; the executed
//! plan's normalized tuple-multiset digest and intermediates).

use std::sync::Arc;

use lqo_bench_suite::workload::{generate_workload, WorkloadConfig};
use lqo_engine::datagen::{imdb_like, stats_like};
use lqo_engine::optimizer::InjectedCardSource;
use lqo_engine::{
    CardSource, Catalog, CatalogStats, Optimizer, PhysNode, SpjQuery, TableSet,
    TraditionalCardSource,
};
use lqo_reopt::ReoptConfig;
use lqo_testkit::{diff_reopt_plan, diff_reopt_workload, ReoptDiffConfig};

fn optimizer_pairs(
    catalog: &Arc<Catalog>,
    num: usize,
    seed: u64,
) -> (Vec<(SpjQuery, PhysNode)>, Arc<dyn CardSource>) {
    let queries = generate_workload(
        catalog,
        &WorkloadConfig {
            num_queries: num,
            min_tables: 2,
            max_tables: 3,
            max_predicates: 3,
            seed,
        },
    );
    assert!(!queries.is_empty(), "workload generation produced nothing");
    let stats = Arc::new(CatalogStats::build_default(catalog));
    let card: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
    let optimizer = Optimizer::with_defaults(catalog);
    let pairs = queries
        .into_iter()
        .map(|q| {
            let plan = optimizer.optimize_default(&q, card.as_ref()).unwrap().plan;
            (q, plan)
        })
        .collect();
    (pairs, card)
}

#[test]
fn stats_workload_is_reopt_invariant_when_estimates_hold() {
    let catalog = Arc::new(stats_like(60, 7).unwrap());
    let (pairs, card) = optimizer_pairs(&catalog, 6, 0x5E0F_0001);
    // Default thresholds against the estimator that built the plans:
    // checkpointing must be invisible, byte for byte, in every cell.
    let (cells, triggers) =
        diff_reopt_workload(&catalog, &pairs, &card, &ReoptDiffConfig::default());
    assert!(cells >= pairs.len() * 2, "sweep compared too few cells");
    assert_eq!(triggers, 0, "accurate estimates must not trip checkpoints");
}

#[test]
fn imdb_workload_is_reopt_invariant_when_estimates_hold() {
    let catalog = Arc::new(imdb_like(40, 3).unwrap());
    let (pairs, card) = optimizer_pairs(&catalog, 5, 0x5E0F_0002);
    let (_, triggers) = diff_reopt_workload(&catalog, &pairs, &card, &ReoptDiffConfig::default());
    assert_eq!(triggers, 0, "accurate estimates must not trip checkpoints");
}

#[test]
fn poisoned_workload_recovers_to_identical_answers() {
    let catalog = Arc::new(stats_like(60, 7).unwrap());
    let (pairs, card) = optimizer_pairs(&catalog, 5, 0x5E0F_0003);
    let cfg = ReoptDiffConfig {
        reopt: ReoptConfig {
            q_error_threshold: 4.0,
            confirm_streak: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let (mut triggers, mut switches) = (0, 0);
    for (query, plan) in &pairs {
        // Poison the session's belief about every base table: each scan
        // checkpoint then sees a huge q-error and the executor must
        // re-plan its way back to the same answer.
        let poisoned = InjectedCardSource::new(card.clone());
        for t in 0..query.num_tables() {
            poisoned.inject(query, TableSet::singleton(t), 1.0);
        }
        let poisoned: Arc<dyn CardSource> = Arc::new(poisoned);
        let out = diff_reopt_plan(&catalog, query, plan, &poisoned, &cfg)
            .unwrap_or_else(|msg| panic!("reopt differential harness: {msg}"));
        triggers += out.triggers;
        switches += out.switches;
    }
    assert!(triggers > 0, "poisoned workload never tripped a checkpoint");
    assert!(switches > 0, "poisoned workload never switched a plan");
}
