//! The `lqo-engine` implementation of the DB interactor — the
//! "lightweight patch" a real deployment would apply to the database
//! kernel.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use lqo_cache::{plan_key, LqoCache, MemoCardSource, OptMemo, PlannedQuery};
use lqo_engine::optimizer::{CardSource, InjectedCardSource, ScaledCardSource};
use lqo_engine::stats::table_stats::CatalogStats;
use lqo_engine::{
    Catalog, EngineError, ExecConfig, ExecMode, Executor, HintSet, Optimizer, PhysNode, Result,
    SpjQuery, Telemetry, TraditionalCardSource, TrueCardOracle,
};
use lqo_reopt::{ReoptConfig, ReoptExecutor};

use crate::interactor::{DbInteractor, PullReply, PullRequest, PushAction, SessionId};

struct SessionState {
    injected: Arc<InjectedCardSource>,
    hints: HintSet,
    scaling: f64,
}

/// Interactor over an in-process `lqo-engine` database.
pub struct EngineInteractor {
    catalog: Arc<Catalog>,
    base_card: Arc<dyn CardSource>,
    /// What new sessions' injection layers fall back to: the raw base
    /// estimator, or — once a cache is attached — the base wrapped in a
    /// cross-query [`MemoCardSource`].
    session_base: Mutex<Arc<dyn CardSource>>,
    oracle: Arc<TrueCardOracle>,
    sessions: Mutex<HashMap<SessionId, SessionState>>,
    next_session: AtomicU64,
    telemetry: Mutex<Telemetry>,
    exec_mode: Mutex<ExecMode>,
    cache: Mutex<Option<Arc<LqoCache>>>,
    reopt: Mutex<Option<ReoptConfig>>,
    /// Work budget per execution (timeout stand-in).
    pub max_work: Option<f64>,
}

impl EngineInteractor {
    /// Attach to a catalog.
    pub fn new(catalog: Arc<Catalog>) -> EngineInteractor {
        let stats = Arc::new(CatalogStats::build_default(&catalog));
        let base_card: Arc<dyn CardSource> =
            Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
        let oracle = Arc::new(TrueCardOracle::new(catalog.clone()));
        EngineInteractor {
            catalog,
            session_base: Mutex::new(base_card.clone()),
            base_card,
            oracle,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            telemetry: Mutex::new(Telemetry::default()),
            exec_mode: Mutex::new(ExecMode::Serial),
            cache: Mutex::new(None),
            reopt: Mutex::new(None),
            max_work: Some(1e10),
        }
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.lock().clone()
    }

    /// The currently selected execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        *self.exec_mode.lock()
    }

    /// The underlying catalog (the console needs it for parsing checks).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    fn with_session<T>(
        &self,
        session: SessionId,
        f: impl FnOnce(&mut SessionState) -> T,
    ) -> Result<T> {
        let mut sessions = self.sessions.lock();
        let state = sessions
            .get_mut(&session)
            .ok_or_else(|| EngineError::InvalidPlan(format!("unknown session {session:?}")))?;
        Ok(f(state))
    }

    /// The session's effective cardinality source (injections over the
    /// base estimator, then scaling).
    fn session_card(&self, session: SessionId) -> Result<(Arc<dyn CardSource>, HintSet)> {
        self.with_session(session, |s| {
            let injected: Arc<dyn CardSource> = s.injected.clone();
            let card: Arc<dyn CardSource> = if (s.scaling - 1.0).abs() > 1e-12 {
                Arc::new(ScaledCardSource::new(injected, s.scaling))
            } else {
                injected
            };
            (card, s.hints.clone())
        })
    }

    /// Whether the session's cardinalities are steered (injections or
    /// scaling in force). Hints do not count: they are part of the
    /// plan-cache key.
    fn session_steered(&self, session: SessionId) -> Result<bool> {
        self.with_session(session, |s| {
            !s.injected.is_empty() || (s.scaling - 1.0).abs() > 1e-12
        })
    }

    /// Optimize `query` under the session's steering, going through the
    /// plan cache when one is attached and the session is unsteered.
    /// The cached plan is byte-identical to what optimization would
    /// produce: entries are keyed by canonical query form, hint label,
    /// and estimator name, and dropped whenever the stats epoch moves or
    /// drift/breaker signals fire.
    fn plan_query(
        &self,
        session: SessionId,
        query: &SpjQuery,
        card: &Arc<dyn CardSource>,
        hints: &HintSet,
        telemetry: &Telemetry,
    ) -> Result<(PhysNode, f64)> {
        let prof = &telemetry.prof;
        let _prof_plan = prof.phase("plan");
        let optimizer = Optimizer::with_defaults(&self.catalog).with_telemetry(telemetry.clone());
        let Some(cache) = self.cache.lock().clone() else {
            let choice = optimizer.optimize(query, card.as_ref(), hints)?;
            return Ok((choice.plan, choice.cost));
        };
        // With a cache attached, every optimization gets a fresh
        // per-call memo: the greedy enumerator re-queries the same
        // subsets repeatedly, and even DP probes each set once per
        // candidate split. The memo lives only for this call, so raw
        // set-bit keys are sound.
        if self.session_steered(session)? {
            cache.plan_bypass("steered");
            prof.bump("plan_cache_bypasses", 1);
            let memo = OptMemo::new(card.as_ref());
            let choice = optimizer.optimize(query, &memo, hints)?;
            return Ok((choice.plan, choice.cost));
        }
        let source = self.base_card.name().to_string();
        let key = plan_key(query, &hints.label(), &source);
        if let Some(hit) = cache.plan_lookup(key) {
            prof.bump("plan_cache_hits", 1);
            return Ok((hit.plan, hit.cost));
        }
        prof.bump("plan_cache_misses", 1);
        let memo = OptMemo::new(card.as_ref());
        let choice = optimizer.optimize(query, &memo, hints)?;
        cache.plan_store(
            key,
            PlannedQuery {
                plan: choice.plan.clone(),
                cost: choice.cost,
            },
            &source,
        );
        Ok((choice.plan, choice.cost))
    }
}

impl DbInteractor for EngineInteractor {
    fn open_session(&self) -> SessionId {
        let id = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed));
        let base = self.session_base.lock().clone();
        self.sessions.lock().insert(
            id,
            SessionState {
                injected: Arc::new(InjectedCardSource::new(base)),
                hints: HintSet::default(),
                scaling: 1.0,
            },
        );
        id
    }

    fn close_session(&self, session: SessionId) {
        self.sessions.lock().remove(&session);
    }

    fn push(&self, session: SessionId, action: PushAction) -> Result<()> {
        self.with_session(session, |s| match action {
            PushAction::InjectCardinality { query, set, card } => {
                s.injected.inject(&query, set, card);
            }
            PushAction::SetHints(h) => s.hints = h,
            PushAction::SetCardScaling(f) => s.scaling = f,
            PushAction::ClearInjections => s.injected.clear(),
            PushAction::ResetSteering => {
                s.hints = HintSet::default();
                s.scaling = 1.0;
            }
        })
    }

    fn pull(&self, session: SessionId, request: PullRequest) -> Result<PullReply> {
        match request {
            PullRequest::Plan(query) => {
                query.validate(&self.catalog)?;
                let (card, hints) = self.session_card(session)?;
                let telemetry = self.telemetry();
                let (plan, cost) = self.plan_query(session, &query, &card, &hints, &telemetry)?;
                Ok(PullReply::Plan { plan, cost })
            }
            PullRequest::Execute(query) => {
                query.validate(&self.catalog)?;
                let (card, hints) = self.session_card(session)?;
                let telemetry = self.telemetry();
                let (plan, _cost) = telemetry.obs.phase("plan", || {
                    self.plan_query(session, &query, &card, &hints, &telemetry)
                })?;
                self.pull(session, PullRequest::ExecutePlan(query, plan))
            }
            PullRequest::ExecutePlan(query, plan) => {
                let exec_config = ExecConfig {
                    max_work: self.max_work,
                    mode: self.exec_mode(),
                    ..Default::default()
                };
                let reopt_cfg = self.reopt.lock().clone();
                let result = if let Some(cfg) = reopt_cfg {
                    // Checkpointed execution: q-errors are measured
                    // against the session's own estimator stack (the one
                    // the plan was built on), so a steered session
                    // re-plans against its steering — and, like its
                    // plans, bypasses the shared residual cache, whose
                    // entries other sessions would reuse.
                    let (card, hints) = self.session_card(session)?;
                    let mut reopt = ReoptExecutor::new(&self.catalog, exec_config, card, cfg)
                        .with_telemetry(self.telemetry())
                        .with_hints(hints);
                    if let Some(cache) = self.cache.lock().clone() {
                        if !self.session_steered(session)? {
                            reopt = reopt.with_cache(cache);
                        }
                    }
                    reopt.execute(&query, &plan)?.0
                } else {
                    Executor::new(&self.catalog, exec_config)
                        .with_telemetry(self.telemetry())
                        .execute(&query, &plan)?
                };
                Ok(PullReply::Execution {
                    count: result.count,
                    work: result.work,
                    wall: result.wall,
                    plan,
                })
            }
            PullRequest::TableRows(name) => {
                let table = self.catalog.table(&name)?;
                Ok(PullReply::Scalar(table.nrows() as f64))
            }
            PullRequest::TrueCardinality(query, set) => {
                let card = self.oracle.true_card(&query, set)?;
                Ok(PullReply::Scalar(card as f64))
            }
        }
    }

    fn attach_telemetry(&self, telemetry: &Telemetry) {
        *self.telemetry.lock() = telemetry.clone();
    }

    fn set_exec_mode(&self, mode: ExecMode) {
        *self.exec_mode.lock() = mode;
    }

    fn attach_cache(&self, cache: &Arc<LqoCache>) {
        let memo: Arc<dyn CardSource> =
            Arc::new(MemoCardSource::new(self.base_card.clone(), cache.clone()));
        *self.session_base.lock() = memo.clone();
        // Rebuild existing sessions' injection layers over the memoized
        // base. Injections are per-session steering state and are dropped
        // here — attach the cache before steering (see the trait docs).
        let mut sessions = self.sessions.lock();
        for s in sessions.values_mut() {
            s.injected = Arc::new(InjectedCardSource::new(memo.clone()));
        }
        *self.cache.lock() = Some(cache.clone());
    }

    fn set_reopt(&self, cfg: Option<ReoptConfig>) {
        *self.reopt.lock() = cfg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_engine::datagen::stats_like;
    use lqo_engine::query::parse_query;
    use lqo_engine::TableSet;

    fn setup() -> (EngineInteractor, lqo_engine::SpjQuery) {
        let catalog = Arc::new(stats_like(80, 17).unwrap());
        let q = parse_query(
            "SELECT COUNT(*) FROM users u, posts p \
             WHERE u.id = p.owner_user_id AND u.reputation > 50",
        )
        .unwrap();
        (EngineInteractor::new(catalog), q)
    }

    #[test]
    fn sessions_are_isolated() {
        let (ix, q) = setup();
        let s1 = ix.open_session();
        let s2 = ix.open_session();
        assert_ne!(s1, s2);
        ix.push(
            s1,
            PushAction::InjectCardinality {
                query: q.clone(),
                set: q.all_tables(),
                card: 99999.0,
            },
        )
        .unwrap();
        // s2 is unaffected: both still plan, but with different costs.
        let PullReply::Plan { cost: c1, .. } = ix.pull(s1, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        let PullReply::Plan { cost: c2, .. } = ix.pull(s2, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        assert_ne!(c1, c2);
    }

    #[test]
    fn push_pull_roundtrip_executes() {
        let (ix, q) = setup();
        let s = ix.open_session();
        let PullReply::Execution { count, work, .. } =
            ix.pull(s, PullRequest::Execute(q.clone())).unwrap()
        else {
            panic!()
        };
        assert!(work > 0.0);
        // Execution result matches the oracle.
        let PullReply::Scalar(truth) = ix
            .pull(s, PullRequest::TrueCardinality(q.clone(), q.all_tables()))
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(count as f64, truth);
    }

    #[test]
    fn hints_steer_the_plan() {
        let (ix, q) = setup();
        let s = ix.open_session();
        let PullReply::Plan { plan: free, .. } = ix.pull(s, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        ix.push(
            s,
            PushAction::SetHints(HintSet {
                allow_hash: false,
                allow_merge: false,
                ..HintSet::default()
            }),
        )
        .unwrap();
        let PullReply::Plan { plan: nl_only, .. } =
            ix.pull(s, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        assert_ne!(free.fingerprint(), nl_only.fingerprint());
        ix.push(s, PushAction::ResetSteering).unwrap();
        let PullReply::Plan { plan: back, .. } = ix.pull(s, PullRequest::Plan(q)).unwrap() else {
            panic!()
        };
        assert_eq!(free.fingerprint(), back.fingerprint());
    }

    #[test]
    fn exec_mode_switch_preserves_results() {
        let (ix, q) = setup();
        let s = ix.open_session();
        let PullReply::Execution {
            count: serial_count,
            work: serial_work,
            ..
        } = ix.pull(s, PullRequest::Execute(q.clone())).unwrap()
        else {
            panic!()
        };
        ix.set_exec_mode(ExecMode::Parallel { threads: 4 });
        assert_eq!(ix.exec_mode(), ExecMode::Parallel { threads: 4 });
        let PullReply::Execution { count, work, .. } = ix.pull(s, PullRequest::Execute(q)).unwrap()
        else {
            panic!()
        };
        assert_eq!(count, serial_count);
        assert_eq!(work.to_bits(), serial_work.to_bits());
    }

    #[test]
    fn reopt_untriggered_execution_is_byte_identical() {
        let (ix, q) = setup();
        let s = ix.open_session();
        let PullReply::Plan { plan, .. } = ix.pull(s, PullRequest::Plan(q.clone())).unwrap() else {
            panic!()
        };
        let PullReply::Execution {
            count: n0,
            work: w0,
            ..
        } = ix
            .pull(s, PullRequest::ExecutePlan(q.clone(), plan.clone()))
            .unwrap()
        else {
            panic!()
        };
        // An infinite threshold never triggers: the checkpointed driver
        // must replicate the plain executor exactly.
        ix.set_reopt(Some(ReoptConfig {
            q_error_threshold: f64::INFINITY,
            ..Default::default()
        }));
        let PullReply::Execution { count, work, .. } =
            ix.pull(s, PullRequest::ExecutePlan(q, plan)).unwrap()
        else {
            panic!()
        };
        assert_eq!(count, n0);
        assert_eq!(work.to_bits(), w0.to_bits());
        ix.set_reopt(None);
    }

    #[test]
    fn reopt_recovers_from_poisoned_session_estimate() {
        let (ix, q) = setup();
        let s = ix.open_session();
        let PullReply::Plan { plan, .. } = ix.pull(s, PullRequest::Plan(q.clone())).unwrap() else {
            panic!()
        };
        let PullReply::Execution { count: truth, .. } = ix
            .pull(s, PullRequest::ExecutePlan(q.clone(), plan.clone()))
            .unwrap()
        else {
            panic!()
        };
        // Poison the session's belief about the filtered users scan, then
        // execute with re-optimization armed: the first checkpoint sees
        // the real row count, trips, and whatever happens next must not
        // change the answer.
        ix.push(
            s,
            PushAction::InjectCardinality {
                query: q.clone(),
                set: TableSet::singleton(0),
                card: 1.0,
            },
        )
        .unwrap();
        ix.set_reopt(Some(ReoptConfig {
            q_error_threshold: 4.0,
            confirm_streak: 1,
            ..Default::default()
        }));
        let PullReply::Execution { count, .. } =
            ix.pull(s, PullRequest::ExecutePlan(q, plan)).unwrap()
        else {
            panic!()
        };
        assert_eq!(count, truth);
    }

    /// The tables of the first join a plan executes (serial post-order).
    fn first_join(plan: &PhysNode) -> TableSet {
        match plan {
            PhysNode::Join { left, right, .. } => match (&**left, &**right) {
                (PhysNode::Join { .. }, _) => first_join(left),
                (_, PhysNode::Join { .. }) => first_join(right),
                _ => plan.tables(),
            },
            PhysNode::Scan { .. } => TableSet::EMPTY,
        }
    }

    /// Re-planned residuals are shared only between sessions planning on
    /// the same estimates: with a shared cache and re-optimization on, an
    /// unsteered session's execution (count and work, re-planning work
    /// included) equals a fresh-cache run whether or not a steered
    /// session re-planned the same query first.
    #[test]
    fn steered_replans_do_not_reach_unsteered_sessions() {
        let q = parse_query(
            "SELECT COUNT(*) FROM users u, posts p, comments c, votes v \
             WHERE u.id = p.owner_user_id AND p.id = c.post_id AND p.id = v.post_id",
        )
        .unwrap();
        let run = |steered_first: bool| {
            let ix = EngineInteractor::new(Arc::new(stats_like(80, 17).unwrap()));
            ix.attach_cache(&Arc::new(LqoCache::default()));
            // Every checkpoint re-plans.
            ix.set_reopt(Some(ReoptConfig {
                q_error_threshold: 1.0,
                confirm_streak: 1,
                ..Default::default()
            }));
            let plain = ix.open_session();
            let PullReply::Plan { plan, .. } =
                ix.pull(plain, PullRequest::Plan(q.clone())).unwrap()
            else {
                panic!()
            };
            if steered_first {
                // The steered session believes the plan's first join is
                // enormous, so its re-plan at the first checkpoint
                // switches away from it.
                let steered = ix.open_session();
                ix.push(
                    steered,
                    PushAction::InjectCardinality {
                        query: q.clone(),
                        set: first_join(&plan),
                        card: 1e9,
                    },
                )
                .unwrap();
                ix.pull(steered, PullRequest::ExecutePlan(q.clone(), plan.clone()))
                    .unwrap();
            }
            let PullReply::Execution { count, work, .. } = ix
                .pull(plain, PullRequest::ExecutePlan(q.clone(), plan))
                .unwrap()
            else {
                panic!()
            };
            (count, work.to_bits())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn closed_session_rejects() {
        let (ix, q) = setup();
        let s = ix.open_session();
        ix.close_session(s);
        assert!(ix.pull(s, PullRequest::Plan(q)).is_err());
    }

    #[test]
    fn cache_on_plans_and_results_are_byte_identical() {
        let (plain, q) = setup();
        let (cached, _) = setup();
        let cache = Arc::new(LqoCache::default());
        cached.attach_cache(&cache);
        let sp = plain.open_session();
        let sc = cached.open_session();
        for _ in 0..3 {
            let PullReply::Plan { plan: p0, cost: c0 } =
                plain.pull(sp, PullRequest::Plan(q.clone())).unwrap()
            else {
                panic!()
            };
            let PullReply::Plan { plan: p1, cost: c1 } =
                cached.pull(sc, PullRequest::Plan(q.clone())).unwrap()
            else {
                panic!()
            };
            assert_eq!(p0.fingerprint(), p1.fingerprint());
            assert_eq!(c0.to_bits(), c1.to_bits());
        }
        let PullReply::Execution {
            count: n0,
            work: w0,
            ..
        } = plain.pull(sp, PullRequest::Execute(q.clone())).unwrap()
        else {
            panic!()
        };
        let PullReply::Execution {
            count: n1,
            work: w1,
            ..
        } = cached.pull(sc, PullRequest::Execute(q.clone())).unwrap()
        else {
            panic!()
        };
        assert_eq!(n0, n1);
        assert_eq!(w0.to_bits(), w1.to_bits());
        let stats = cache.stats();
        assert!(
            stats.plan_hits >= 3,
            "repeat plans came from the cache: {stats:?}"
        );
        assert_eq!(stats.plan_bypasses, 0);
        // The plan cache absorbed every repeat, so the estimator ran only
        // once per sub-query. Drop the plans (not the cardinalities):
        // re-optimization is then served from the inference cache.
        cache.on_breaker_open("driver:test");
        let PullReply::Plan { plan: rebuilt, .. } =
            cached.pull(sc, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        let stats = cache.stats();
        assert!(stats.saved_inference_calls() > 0, "{stats:?}");
        let PullReply::Plan { plan: p0, .. } = plain.pull(sp, PullRequest::Plan(q)).unwrap() else {
            panic!()
        };
        assert_eq!(p0.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn steered_sessions_bypass_plan_cache_but_stay_correct() {
        let (ix, q) = setup();
        let cache = Arc::new(LqoCache::default());
        ix.attach_cache(&cache);
        let s = ix.open_session();
        let PullReply::Plan {
            cost: base_cost, ..
        } = ix.pull(s, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        ix.push(
            s,
            PushAction::InjectCardinality {
                query: q.clone(),
                set: q.all_tables(),
                card: 99999.0,
            },
        )
        .unwrap();
        let PullReply::Plan {
            cost: steered_cost, ..
        } = ix.pull(s, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        assert_ne!(base_cost, steered_cost, "injection visible despite cache");
        assert!(cache.stats().plan_bypasses >= 1);
        // Clearing injections restores plan-cache service, bit-identically.
        ix.push(s, PushAction::ClearInjections).unwrap();
        let PullReply::Plan { cost: back, .. } = ix.pull(s, PullRequest::Plan(q)).unwrap() else {
            panic!()
        };
        assert_eq!(base_cost.to_bits(), back.to_bits());
        assert!(cache.stats().plan_hits >= 1);
    }

    #[test]
    fn stats_epoch_bump_recomputes_without_changing_answers() {
        let (ix, q) = setup();
        let cache = Arc::new(LqoCache::default());
        ix.attach_cache(&cache);
        let s = ix.open_session();
        let PullReply::Plan { plan: before, .. } =
            ix.pull(s, PullRequest::Plan(q.clone())).unwrap()
        else {
            panic!()
        };
        cache.bump_stats_epoch();
        let misses_before = cache.stats().plan_misses;
        let PullReply::Plan { plan: after, .. } = ix.pull(s, PullRequest::Plan(q)).unwrap() else {
            panic!()
        };
        // Same catalog, so the recomputed plan matches — but it was a
        // genuine recomputation, not a cache hit.
        assert_eq!(before.fingerprint(), after.fingerprint());
        assert_eq!(cache.stats().plan_misses, misses_before + 1);
    }

    #[test]
    fn table_rows_pull() {
        let (ix, _) = setup();
        let s = ix.open_session();
        let PullReply::Scalar(rows) = ix.pull(s, PullRequest::TableRows("users".into())).unwrap()
        else {
            panic!()
        };
        assert_eq!(rows, 80.0);
        assert!(ix.pull(s, PullRequest::TableRows("nope".into())).is_err());
        let _ = TableSet::EMPTY;
    }
}
