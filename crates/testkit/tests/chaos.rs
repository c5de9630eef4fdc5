//! Worker-fault chaos: a worker thread panics mid-morsel. The pool must
//! contain the panic (no deadlock, no poisoned output), the executor
//! must re-run the faulting operator in-thread and keep the rest of the
//! query there, and the degraded result must be byte-identical to a
//! clean serial run — with the degradation visible to lqo-obs/lqo-guard.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lqo_engine::datagen::stats_like;
use lqo_engine::{
    Catalog, ExecConfig, ExecMode, Executor, JoinAlgo, ParallelConfig, PhysNode, WorkMeter,
};
use lqo_obs::ObsContext;
use lqo_testkit::{random_plan, random_query, RandomQueryConfig};

fn fixture() -> (Catalog, lqo_engine::SpjQuery, PhysNode) {
    let catalog = stats_like(60, 7).unwrap();
    let q = lqo_engine::query::parse_query(
        "SELECT COUNT(*) FROM users u, posts p \
         WHERE u.id = p.owner_user_id AND u.reputation > 10",
    )
    .unwrap();
    let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
    (catalog, q, plan)
}

/// Four workers over 8-row morsels, panicking in the morsel with global
/// sequence number `panic_on_morsel`, if any.
fn parallel_config(panic_on_morsel: Option<u64>) -> ExecConfig {
    ExecConfig {
        mode: ExecMode::Parallel { threads: 4 },
        parallel: ParallelConfig {
            morsel_rows: 8,
            panic_on_morsel,
        },
        ..Default::default()
    }
}

/// Run `f` with the panic hook silenced, so injected worker panics do
/// not spam the test log. Restored afterwards.
fn silenced<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn counter(obs: &ObsContext, name: &str) -> Option<u64> {
    obs.metrics().unwrap().snapshot().counter(name)
}

#[test]
fn worker_panic_degrades_to_serial_with_correct_results() {
    let (catalog, q, plan) = fixture();
    let (serial, serial_rel) = Executor::with_defaults(&catalog)
        .execute_collect(&q, &plan)
        .unwrap();
    for panic_on in [0u64, 1, 5] {
        let obs = ObsContext::enabled();
        let ex =
            Executor::new(&catalog, parallel_config(Some(panic_on))).with_telemetry(obs.clone());
        obs.begin_query("chaos");
        let (degraded, degraded_rel) = silenced(|| ex.execute_collect(&q, &plan)).unwrap();
        let trace = obs.end_query().unwrap();
        assert_eq!(degraded.count, serial.count, "panic_on={panic_on}");
        assert_eq!(degraded.work.to_bits(), serial.work.to_bits());
        assert_eq!(degraded_rel.digest(), serial_rel.digest());
        assert_eq!(
            counter(&obs, "lqo.exec.parallel.degraded"),
            Some(1),
            "degradation must be visible in metrics"
        );
        assert!(
            trace.guard.iter().any(|g| g.component == "exec:parallel"
                && g.fault.starts_with("worker-panic")
                && g.action == "fallback:serial"),
            "degradation must be visible as a guard event"
        );
    }
}

#[test]
fn fault_in_third_operator_reruns_nothing_before_it() {
    // A left-deep three-join plan; post-order its operators are
    // scan u, scan p, u ⋈ p, scan c, ⋈ c, scan b, ⋈ b. The two scans
    // dispatch one morsel per 8 base rows, so the next sequence number
    // is the first build morsel of the third operator, `u ⋈ p`.
    let catalog = stats_like(60, 7).unwrap();
    let q = lqo_engine::query::parse_query(
        "SELECT COUNT(*) FROM users u, posts p, comments c, badges b \
         WHERE u.id = p.owner_user_id AND p.id = c.post_id AND u.id = b.user_id \
         AND u.reputation > 10",
    )
    .unwrap();
    let hash = |l, r| PhysNode::join(JoinAlgo::Hash, l, r);
    let plan = hash(
        hash(
            hash(PhysNode::scan(0), PhysNode::scan(1)),
            PhysNode::scan(2),
        ),
        PhysNode::scan(3),
    );
    let nodes = 7;
    let morsels_of = |pos: usize| {
        let rows = catalog.table(&q.tables[pos].table).unwrap().nrows();
        rows.div_ceil(8) as u64
    };
    let panic_on = morsels_of(0) + morsels_of(1);

    let sobs = ObsContext::enabled();
    let serial = Executor::with_defaults(&catalog).with_telemetry(sobs.clone());
    sobs.begin_query("serial");
    let (sr, srel) = serial.execute_collect(&q, &plan).unwrap();
    let strace = sobs.end_query().unwrap();

    let obs = ObsContext::enabled();
    let ex = Executor::new(&catalog, parallel_config(Some(panic_on))).with_telemetry(obs.clone());
    obs.begin_query("fault-in-third-operator");
    let (pr, prel) = silenced(|| ex.execute_collect(&q, &plan)).unwrap();
    let trace = obs.end_query().unwrap();

    assert_eq!(pr.count, sr.count);
    assert_eq!(pr.work.to_bits(), sr.work.to_bits());
    assert_eq!(prel.digest(), srel.digest());
    // One intermediate and one operator event per plan node, each equal
    // to serial's: nothing before the fault ran twice.
    assert_eq!(pr.intermediates.len(), nodes);
    assert_eq!(pr.intermediates, sr.intermediates);
    assert_eq!(trace.exec.operators.len(), nodes);
    assert_eq!(trace.exec.operators, strace.exec.operators);
    assert_eq!(counter(&obs, "lqo.exec.parallel.degraded"), Some(1));
    assert!(
        trace
            .guard
            .iter()
            .any(|g| g.fault == "worker-panic:HashJoin"),
        "the fault must land in the join: {:?}",
        trace.guard
    );

    // The counting path faults at the same morsel and agrees too.
    let counted = silenced(|| ex.execute(&q, &plan)).unwrap();
    assert_eq!(counted.count, sr.count);
    assert_eq!(counted.work.to_bits(), sr.work.to_bits());
    assert_eq!(counted.intermediates, sr.intermediates);
}

#[test]
fn join_step_fault_degrades_that_step_byte_identically() {
    let (catalog, q, _) = fixture();
    let serial = Executor::with_defaults(&catalog);
    let scans = |meter: &mut WorkMeter| {
        let l = serial.exec_scan_step(&q, 0, meter).unwrap();
        let r = serial.exec_scan_step(&q, 1, meter).unwrap();
        (l, r)
    };
    for algo in JoinAlgo::ALL {
        let mut smeter = WorkMeter::new(None);
        let (l, r) = scans(&mut smeter);
        let expect = serial.exec_join_step(&q, algo, l, r, &mut smeter).unwrap();

        let obs = ObsContext::enabled();
        let ex = Executor::new(&catalog, parallel_config(Some(0))).with_telemetry(obs.clone());
        let mut pmeter = WorkMeter::new(None);
        let (l, r) = scans(&mut pmeter);
        let got = silenced(|| ex.exec_join_step(&q, algo, l, r, &mut pmeter)).unwrap();
        assert_eq!(got.slots(), expect.slots(), "{algo}");
        assert_eq!(got.digest(), expect.digest(), "{algo}");
        assert_eq!(pmeter.work().to_bits(), smeter.work().to_bits(), "{algo}");
        assert_eq!(
            counter(&obs, "lqo.exec.parallel.degraded"),
            Some(1),
            "{algo}"
        );
    }
}

#[test]
fn metrics_export_stays_clean_after_contained_panics() {
    // The serving-layer failure mode behind the poison-recovering lock
    // sweep: a contained panic anywhere in the stack must never leave a
    // metrics/estimator lock in a state that crashes later exports. Run a
    // faulted query with obs attached, then a panic inside an oracle-using
    // closure, then assert the Prometheus export and the oracle both still
    // answer.
    let (catalog, q, plan) = fixture();
    let obs = ObsContext::enabled();
    let catalog = std::sync::Arc::new(catalog);
    let oracle = std::sync::Arc::new(lqo_engine::TrueCardOracle::new(catalog.clone()));
    oracle.true_card_full(&q).unwrap();
    let ex = Executor::new(&catalog, parallel_config(Some(0))).with_telemetry(obs.clone());
    silenced(|| ex.execute_collect(&q, &plan)).unwrap();
    // A second contained panic on a thread that uses the shared oracle.
    let o2 = oracle.clone();
    let q2 = q.clone();
    silenced(|| {
        let _ = std::thread::spawn(move || {
            o2.true_card_full(&q2).unwrap();
            panic!("injected post-lookup fault");
        })
        .join();
    });
    let text = lqo_obs::prom::render_prometheus(&obs.metrics().unwrap().snapshot());
    assert!(lqo_obs::prom::parse_prometheus(&text).is_some());
    assert!(text.contains("lqo_exec_parallel_degraded"));
    assert!(oracle.true_card_full(&q).is_ok());
}

#[test]
fn repeated_faults_never_deadlock() {
    // The pool joins all workers even when one dies mid-morsel; if that
    // ever regressed into a hang, this loop would trip the test-harness
    // timeout. 12 consecutive faulted runs at varying fault positions.
    let (catalog, q, plan) = fixture();
    silenced(|| {
        for panic_on in 0..12u64 {
            let ex = Executor::new(&catalog, parallel_config(Some(panic_on)));
            let r = ex.execute_collect(&q, &plan).unwrap();
            assert!(r.0.count > 0);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// For ANY random query/plan and ANY fault position, the degraded
    /// run — collecting or counting — equals the clean serial run byte
    /// for byte, and degrades exactly once when the pool reaches the
    /// faulting morsel (a run that kept dispatching on its cancelled
    /// pool would lose morsels or degrade again).
    #[test]
    fn degraded_run_equals_serial_for_random_plans(
        seed in 0u64..u64::MAX,
        panic_on in 0u64..64,
    ) {
        let catalog = stats_like(50, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&catalog, &mut rng, &RandomQueryConfig::default());
        let plan = random_plan(&q, &mut rng);
        let (serial, serial_rel) = Executor::with_defaults(&catalog)
            .execute_collect(&q, &plan)
            .unwrap();
        // A clean run dispatches the same morsels in the same sequence up
        // to any fault, so the fault fires iff `panic_on` is below its
        // morsel count.
        let clean = ObsContext::enabled();
        Executor::new(&catalog, parallel_config(None))
            .with_telemetry(clean.clone())
            .execute(&q, &plan)
            .unwrap();
        let dispatched = counter(&clean, "lqo.exec.parallel.morsels").unwrap_or(0);
        let degrades = (panic_on < dispatched).then_some(1);

        let obs = ObsContext::enabled();
        let ex = Executor::new(&catalog, parallel_config(Some(panic_on))).with_telemetry(obs.clone());
        let (degraded, degraded_rel) = silenced(|| ex.execute_collect(&q, &plan)).unwrap();
        prop_assert_eq!(degraded.count, serial.count);
        prop_assert_eq!(degraded.work.to_bits(), serial.work.to_bits());
        prop_assert_eq!(degraded_rel.digest(), serial_rel.digest());
        prop_assert_eq!(counter(&obs, "lqo.exec.parallel.degraded"), degrades);

        let obs = ObsContext::enabled();
        let ex = Executor::new(&catalog, parallel_config(Some(panic_on))).with_telemetry(obs.clone());
        let counted = silenced(|| ex.execute(&q, &plan)).unwrap();
        prop_assert_eq!(counted.count, serial.count);
        prop_assert_eq!(counted.work.to_bits(), serial.work.to_bits());
        prop_assert_eq!(counter(&obs, "lqo.exec.parallel.degraded"), degrades);
    }
}
