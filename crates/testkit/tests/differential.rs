//! Differential sweep: every bench-workload query, optimizer-chosen
//! plan, evaluated by the reference evaluator and executed serially, in
//! parallel at every configured thread count and morsel size, and batched
//! at every configured batch size, compared byte for byte.
//!
//! Thread counts come from `LQO_TEST_THREADS` (default `1,2,4,8`) and
//! batch sizes from `LQO_TEST_BATCH_SIZES` (default `1,7,64,1024`); the
//! CI `parallel` job runs this suite at both 2 and 8 workers and the
//! `batch` job at two batch sizes.

use std::sync::Arc;

use lqo_bench_suite::workload::{generate_workload, WorkloadConfig};
use lqo_engine::datagen::{imdb_like, stats_like, tpch_like};
use lqo_engine::{Catalog, CatalogStats, Optimizer, PhysNode, SpjQuery, TraditionalCardSource};
use lqo_testkit::{diff_workload, DiffConfig};

/// Generate `num` queries over `catalog` and pair each with the plan the
/// traditional optimizer picks for it — the plans the engine actually
/// runs in every experiment, which is exactly the population the
/// parallel executor must not perturb.
fn optimizer_pairs(catalog: &Arc<Catalog>, num: usize, seed: u64) -> Vec<(SpjQuery, PhysNode)> {
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
    let card = TraditionalCardSource::new(catalog.clone(), stats);
    let optimizer = Optimizer::with_defaults(catalog);
    queries
        .into_iter()
        .map(|q| {
            let plan = optimizer.optimize_default(&q, &card).unwrap().plan;
            (q, plan)
        })
        .collect()
}

fn sweep(catalog: Catalog, num: usize, seed: u64) {
    let catalog = Arc::new(catalog);
    let pairs = optimizer_pairs(&catalog, num, seed);
    let cells = diff_workload(&catalog, &pairs, &DiffConfig::default());
    assert!(cells >= pairs.len(), "sweep compared no parallel cells");
}

#[test]
fn stats_workload_is_mode_invariant() {
    sweep(stats_like(60, 7).unwrap(), 6, 0xD1FF_0001);
}

#[test]
fn imdb_workload_is_mode_invariant() {
    sweep(imdb_like(40, 3).unwrap(), 5, 0xD1FF_0002);
}

#[test]
fn tpch_workload_is_mode_invariant() {
    sweep(tpch_like(40, 5).unwrap(), 5, 0xD1FF_0003);
}

#[test]
fn budget_trips_agree_across_modes() {
    // A budget tight enough to trip mid-join: the reference and every
    // cell must fail with the *same* WorkLimitExceeded error.
    let catalog = Arc::new(stats_like(60, 7).unwrap());
    let pairs = optimizer_pairs(&catalog, 3, 0xD1FF_0004);
    for (query, plan) in &pairs {
        let out = lqo_testkit::diff_plan(
            &catalog,
            query,
            plan,
            &DiffConfig {
                max_work: Some(10.0),
                ..Default::default()
            },
        );
        // Either every mode succeeded under the budget (possible for a
        // trivial query) or diff_plan reports the uniform reference
        // failure; any *divergence* message is a harness failure.
        if let Err(msg) = out {
            assert!(
                msg.contains("reference execution failed"),
                "mode divergence under budget: {msg}"
            );
        }
    }
}
