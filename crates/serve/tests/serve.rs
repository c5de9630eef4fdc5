//! Serving-layer behavior: answers match direct execution, admission
//! control is deterministic, tenants are isolated, and the profiler
//! attributes correctly under interleaving.

use std::sync::Arc;

use lqo_engine::datagen::stats_like;
use lqo_engine::query::parse_query;
use lqo_engine::{Catalog, Executor, SpjQuery};
use lqo_pilot::{DbInteractor, EngineInteractor, PullReply, PullRequest};
use lqo_serve::{LqoServer, ServeConfig, ServeError, SessionRequest};

fn catalog() -> Arc<Catalog> {
    Arc::new(stats_like(60, 7).unwrap())
}

fn query() -> SpjQuery {
    parse_query(
        "SELECT COUNT(*) FROM users u, posts p \
         WHERE u.id = p.owner_user_id AND u.reputation > 10",
    )
    .unwrap()
}

fn small_query() -> SpjQuery {
    parse_query("SELECT COUNT(*) FROM users u WHERE u.reputation > 50").unwrap()
}

fn server(catalog: Arc<Catalog>, cfg: ServeConfig) -> LqoServer {
    LqoServer::new(Arc::new(EngineInteractor::new(catalog)), cfg)
}

#[test]
fn served_answers_match_direct_execution() {
    let catalog = catalog();
    let interactor = Arc::new(EngineInteractor::new(catalog.clone()));
    // Reference: plan + execute through the pilot, single-query.
    let sid = interactor.open_session();
    let PullReply::Plan { plan, .. } = interactor.pull(sid, PullRequest::Plan(query())).unwrap()
    else {
        panic!("expected plan reply")
    };
    interactor.close_session(sid);
    let reference = Executor::with_defaults(&catalog)
        .execute(&query(), &plan)
        .unwrap();

    let srv = server(catalog, ServeConfig::default());
    let workload: Vec<SessionRequest> = (0..6)
        .map(|i| SessionRequest::new(format!("t{}", i % 3), query()))
        .collect();
    let (outcomes, stats) = srv.serve_all(workload);
    assert_eq!(stats.admitted, 6);
    assert_eq!(stats.completed, 6);
    for outcome in outcomes {
        let answer = outcome.unwrap().result.unwrap();
        assert_eq!(answer.count, reference.count);
        assert_eq!(answer.work.to_bits(), reference.work.to_bits());
    }
}

#[test]
fn held_queue_rejects_beyond_capacity_deterministically() {
    let catalog = catalog();
    let srv = server(
        catalog,
        ServeConfig {
            queue_capacity: 2,
            hold: true,
            ..ServeConfig::default()
        },
    );
    let t1 = srv.submit(SessionRequest::new("a", query())).unwrap();
    let t2 = srv.submit(SessionRequest::new("a", query())).unwrap();
    let third = srv.submit(SessionRequest::new("a", query()));
    assert!(matches!(third, Err(ServeError::QueueFull { capacity: 2 })));
    srv.release();
    assert!(srv.wait(t1).result.is_ok());
    assert!(srv.wait(t2).result.is_ok());
}

#[test]
fn tenant_quota_rejects_when_estimated_cost_exceeds_budget() {
    let catalog = catalog();
    // Find the plan's estimated cost, then set the quota to cover
    // exactly two admissions.
    let interactor = Arc::new(EngineInteractor::new(catalog.clone()));
    let sid = interactor.open_session();
    let PullReply::Plan { cost, .. } = interactor.pull(sid, PullRequest::Plan(query())).unwrap()
    else {
        panic!("expected plan reply")
    };
    interactor.close_session(sid);
    let srv = server(
        catalog,
        ServeConfig {
            tenant_quota: Some(cost * 2.5),
            ..ServeConfig::default()
        },
    );
    let (outcomes, stats) = srv.serve_all(vec![
        SessionRequest::new("a", query()),
        SessionRequest::new("a", query()),
        SessionRequest::new("a", query()),
        // A different tenant has its own quota and is unaffected.
        SessionRequest::new("b", query()),
    ]);
    assert_eq!(stats.rejected_quota, 1);
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok() && outcomes[3].is_ok());
    assert!(matches!(outcomes[2], Err(ServeError::QuotaExceeded { .. })));
}

#[test]
fn budget_trips_surface_per_query_and_match_sequential_replay() {
    let catalog = catalog();
    let workload: Vec<SessionRequest> = (0..8)
        .map(|i| {
            let req = SessionRequest::new("t", query());
            if i % 2 == 0 {
                req.with_max_work(1.0) // guaranteed trip
            } else {
                req
            }
        })
        .collect();
    // Held workers: every submission is admitted before the first
    // budget trip can feed the tenant breaker (three failures open it),
    // so admission does not depend on how far the workers got.
    let parallel = server(
        catalog.clone(),
        ServeConfig {
            workers: 4,
            hold: true,
            ..ServeConfig::default()
        },
    )
    .serve_all(workload.clone());
    let sequential = server(
        catalog,
        ServeConfig {
            workers: 1,
            hold: true,
            ..ServeConfig::default()
        },
    )
    .serve_all(workload);
    assert_eq!(parallel.1.completed, 4);
    assert_eq!(parallel.1.failed, 4);
    for (p, s) in parallel.0.iter().zip(sequential.0.iter()) {
        let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
        match (&p.result, &s.result) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.count, b.count);
                assert_eq!(a.work.to_bits(), b.work.to_bits());
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("outcome shape diverged: {other:?}"),
        }
    }
}

#[test]
fn hostile_tenant_trips_only_its_own_breaker() {
    let catalog = catalog();
    let cache = Arc::new(lqo_cache::LqoCache::default());
    let srv = server(
        catalog,
        ServeConfig {
            breaker: lqo_guard::BreakerConfig {
                failure_threshold: 2,
                cooldown_calls: 1000,
                max_backoff_level: 1,
            },
            ..ServeConfig::default()
        },
    )
    .with_cache(cache.clone());
    // Submit-and-wait sequentially so breaker state is deterministic.
    for _ in 0..2 {
        let t = srv
            .submit(SessionRequest::new("hostile", query()).with_max_work(1.0))
            .unwrap();
        assert!(srv.wait(t).result.is_err());
    }
    assert_eq!(
        srv.tenant_breaker_state("hostile"),
        Some(lqo_guard::BreakerState::Open)
    );
    let rejected = srv.submit(SessionRequest::new("hostile", query()));
    assert!(matches!(
        rejected,
        Err(ServeError::TenantBreakerOpen { .. })
    ));
    // The well-behaved tenant keeps serving, and its breaker is closed.
    let t = srv.submit(SessionRequest::new("polite", query())).unwrap();
    assert!(srv.wait(t).result.is_ok());
    assert_eq!(
        srv.tenant_breaker_state("polite"),
        Some(lqo_guard::BreakerState::Closed)
    );
    // The open flushed cached plans through the shared cache.
    assert!(cache.stats().plan_invalidations > 0 || cache.plan_len() == 0);
    // And the drift monitor tracked the tenants as separate components.
    assert!(srv.monitor().health("tenant:polite").is_some());
}

#[test]
fn steered_sessions_plan_under_their_own_stack() {
    let catalog = catalog();
    let srv = server(catalog, ServeConfig::default());
    // Scaling steers planning only for its own session; both complete
    // and return identical answers (steering changes plans, not
    // semantics — and for this fixed join the plan is cost-insensitive
    // enough to produce the same rows either way).
    let (outcomes, stats) = srv.serve_all(vec![
        SessionRequest::new("a", query()),
        SessionRequest::new("b", query()).with_scaling(64.0),
    ]);
    assert_eq!(stats.completed, 2);
    let a = outcomes[0].as_ref().unwrap().result.as_ref().unwrap();
    let b = outcomes[1].as_ref().unwrap().result.as_ref().unwrap();
    assert_eq!(a.count, b.count);
}

#[test]
fn served_cache_reports_to_the_server_obs_in_either_builder_order() {
    for telemetry_first in [true, false] {
        let obs = lqo_obs::ObsContext::enabled();
        let cache = Arc::new(lqo_cache::LqoCache::default());
        let srv = server(catalog(), ServeConfig::default());
        let srv = if telemetry_first {
            srv.with_telemetry(obs.clone()).with_cache(cache.clone())
        } else {
            srv.with_cache(cache.clone()).with_telemetry(obs.clone())
        };
        let workload: Vec<SessionRequest> =
            (0..3).map(|_| SessionRequest::new("t", query())).collect();
        let (_, stats) = srv.serve_all(workload);
        assert_eq!(stats.completed, 3);
        let snap = obs.metrics().unwrap().snapshot();
        let card = |name: &str| snap.counter(name).unwrap_or(0);
        assert!(
            card("lqo.cache.card.misses") > 0,
            "telemetry first: {telemetry_first}"
        );
        assert_eq!(
            card("lqo.cache.card.misses") + card("lqo.cache.card.hits"),
            cache.stats().card_hits + cache.stats().card_misses,
            "every lookup of the served cache reported (telemetry first: {telemetry_first})"
        );
        assert!(snap.counter("lqo.cache.plan.hits").unwrap_or(0) >= 1);
    }
}

#[test]
fn profiler_attributes_interleaved_queries_without_leaks() {
    let catalog = catalog();
    let prof = lqo_prof::ProfContext::enabled();
    let srv = server(
        catalog,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .with_telemetry(prof.clone());
    let workload: Vec<SessionRequest> = (0..10)
        .map(|i| {
            SessionRequest::new(
                format!("t{}", i % 2),
                if i % 3 == 0 { small_query() } else { query() },
            )
        })
        .collect();
    let (_, stats) = srv.serve_all(workload);
    assert_eq!(stats.completed, 10);
    let finished = prof.finished();
    assert_eq!(finished.len(), 10, "one profile per served query");
    for q in &finished {
        assert_eq!(
            q.unclosed, 0,
            "interleaved serving must not leak phases across queries ({})",
            q.query
        );
    }
    // Work charged across per-query profiles is conserved: the serving
    // pool attributed every step somewhere.
    let charged: f64 = finished
        .iter()
        .flat_map(|q| q.profile.frames.values())
        .map(|f| f.units)
        .sum();
    assert!(charged > 0.0, "execution work must land in query profiles");
}

#[test]
fn fair_share_serves_light_tenant_amid_heavy_load() {
    let catalog = catalog();
    let srv = server(
        catalog,
        ServeConfig {
            workers: 2,
            hold: true,
            ..ServeConfig::default()
        },
    );
    // 6 heavy queries for tenant "heavy", 1 small one for "light",
    // submitted last. All must complete; the deficit scheduler gives
    // "light" its first step before "heavy" finishes its backlog.
    let mut tickets = Vec::new();
    for _ in 0..6 {
        tickets.push(srv.submit(SessionRequest::new("heavy", query())).unwrap());
    }
    let light = srv
        .submit(SessionRequest::new("light", small_query()))
        .unwrap();
    srv.release();
    assert!(srv.wait(light).result.is_ok());
    for t in tickets {
        assert!(srv.wait(t).result.is_ok());
    }
}
