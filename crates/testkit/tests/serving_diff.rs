//! Serving differential: concurrent serving at any worker count is
//! byte-identical to a sequential replay of the same submissions — same
//! admission verdicts, same row counts, bit-exact f64 work, and
//! identical budget-trip errors. This is the
//! load-bearing proof that the serving layer's cross-query step
//! scheduling cannot perturb learned-component feedback signals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use lqo_engine::datagen::stats_like;
use lqo_serve::{LoadRunner, ServeConfig, SessionRequest};
use lqo_testkit::{random_query, RandomQueryConfig};

/// A mixed multi-tenant workload: random queries over three tenants,
/// some with work budgets tight enough to trip mid-query, some steered
/// with session-scoped cardinality scaling.
fn workload(catalog: &lqo_engine::Catalog, seed: u64, sessions: usize) -> Vec<SessionRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = RandomQueryConfig::default();
    (0..sessions)
        .map(|i| {
            let query = random_query(catalog, &mut rng, &cfg);
            let mut req = SessionRequest::new(format!("tenant{}", i % 3), query);
            if i % 5 == 0 {
                // Guaranteed budget trip: the first scan already charges
                // more than this.
                req = req.with_max_work(0.5);
            } else if i % 7 == 0 {
                req = req.with_scaling(1.0 + rng.gen_range(0.5..4.0));
            }
            req
        })
        .collect()
}

/// Serve configuration whose admission decisions are schedule-free:
/// queue capacity covers the batch, no quota, breakers effectively
/// disabled (completion-order-driven breaker state must not feed back
/// into admission for the replay to be exact).
fn diff_config(workers: usize, sessions: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: sessions,
        breaker: lqo_guard::BreakerConfig {
            failure_threshold: u32::MAX,
            ..lqo_guard::BreakerConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Serving worker counts from `LQO_TEST_SERVE_WORKERS` (comma-separated),
/// defaulting to `[2, 8]` — both beyond the CI machine's core count,
/// which still permutes step schedules.
fn serve_worker_counts() -> Vec<usize> {
    match std::env::var("LQO_TEST_SERVE_WORKERS") {
        Ok(s) => {
            let parsed: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 1)
                .collect();
            if parsed.is_empty() {
                vec![2, 8]
            } else {
                parsed
            }
        }
        Err(_) => vec![2, 8],
    }
}

#[test]
fn concurrent_serving_is_byte_identical_to_sequential_replay() {
    let catalog = Arc::new(stats_like(50, 11).unwrap());
    for seed in [7u64, 1234] {
        let requests = workload(&catalog, seed, 24);
        let sequential = LoadRunner {
            serve: diff_config(1, requests.len()),
            with_cache: true,
        }
        .run(catalog.clone(), requests.clone());
        // The workload must actually exercise both outcome kinds.
        let failures = sequential.stats.failed;
        assert!(failures > 0, "workload must include budget trips");
        assert!(sequential.stats.completed > 0);
        assert_eq!(sequential.stats.admitted, requests.len() as u64);
        for workers in serve_worker_counts() {
            let concurrent = LoadRunner {
                serve: diff_config(workers, requests.len()),
                with_cache: true,
            }
            .run(catalog.clone(), requests.clone());
            assert_eq!(
                concurrent.answer_digest, sequential.answer_digest,
                "serving at {workers} workers diverged from sequential replay (seed {seed})"
            );
            // Field-level comparison for a diagnosable failure trail.
            for (c, s) in concurrent.outcomes.iter().zip(sequential.outcomes.iter()) {
                match (c, s) {
                    (Ok(c), Ok(s)) => {
                        assert_eq!(c.tenant, s.tenant);
                        assert_eq!(c.plan_cost.to_bits(), s.plan_cost.to_bits());
                        assert_eq!(c.steps, s.steps);
                        match (&c.result, &s.result) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(a.count, b.count);
                                assert_eq!(a.work.to_bits(), b.work.to_bits());
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b),
                            other => panic!("outcome kind diverged: {other:?}"),
                        }
                    }
                    (Err(c), Err(s)) => assert_eq!(c.to_string(), s.to_string()),
                    other => panic!("admission verdict diverged: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn serving_differential_holds_with_batched_steps() {
    // Steps running the columnar batch kernels compose with cross-query
    // scheduling: still byte-identical to the serial-step sequential
    // replay, because Batched is itself byte-identical to Serial.
    let catalog = Arc::new(stats_like(50, 11).unwrap());
    let requests = workload(&catalog, 42, 12);
    let reference = LoadRunner {
        serve: diff_config(1, requests.len()),
        with_cache: false,
    }
    .run(catalog.clone(), requests.clone());
    let mut cfg = diff_config(4, requests.len());
    cfg.step_mode = lqo_engine::ExecMode::Batched { batch_size: 64 };
    let batched = LoadRunner {
        serve: cfg,
        with_cache: false,
    }
    .run(catalog, requests);
    assert_eq!(batched.answer_digest, reference.answer_digest);
}
