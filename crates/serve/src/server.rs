//! The serving front end: admission, the shared step-worker pool, and
//! per-tenant guard state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Instant;

use parking_lot::Mutex;

use lqo_cache::LqoCache;
use lqo_engine::{EngineError, ExecConfig, Executor, TableSet, Telemetry, WorkMeter};
use lqo_guard::CircuitBreaker;
use lqo_pilot::{DbInteractor, EngineInteractor, PullReply, PullRequest, PushAction};
use lqo_watch::ModelHealthMonitor;

use crate::scheduler::{
    flatten, PlanOp, QueryAnswer, QueryOutcome, SchedState, Task, TenantSched, Ticket,
};
use crate::{ServeConfig, ServeError, SessionRequest};

/// Point-in-time serving counters plus batch latency/throughput
/// figures (filled by [`LqoServer::serve_all`]).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Submissions offered.
    pub submitted: u64,
    /// Submissions admitted.
    pub admitted: u64,
    /// Admitted queries that completed with an answer.
    pub completed: u64,
    /// Admitted queries that completed with an error (budget trips).
    pub failed: u64,
    /// Rejections: admission queue at capacity.
    pub rejected_queue_full: u64,
    /// Rejections: tenant quota exhausted.
    pub rejected_quota: u64,
    /// Rejections: tenant breaker open.
    pub rejected_breaker: u64,
    /// Tenant breakers that newly opened while serving.
    pub breaker_opens: u64,
    /// Total work units executed (deterministic for a fixed workload).
    pub total_work: f64,
    /// Median admission-to-completion latency (wall clock).
    pub p50_wall_ns: u64,
    /// Tail admission-to-completion latency (wall clock).
    pub p99_wall_ns: u64,
    /// Completed queries per wall-clock second over the batch.
    pub throughput_qps: f64,
}

/// Per-tenant guard state: outcome-driven circuit breaker. Drift state
/// lives in the shared monitor under the `tenant:<name>` component.
pub(crate) struct TenantGuard {
    breaker: CircuitBreaker,
    /// The tenant's monitor component, `tenant:<name>`.
    component: String,
}

struct Shared {
    cfg: ServeConfig,
    interactor: Arc<EngineInteractor>,
    telemetry: Mutex<Telemetry>,
    cache: Mutex<Option<Arc<LqoCache>>>,
    monitor: ModelHealthMonitor,
    guards: Mutex<std::collections::BTreeMap<String, Arc<TenantGuard>>>,
    state: Mutex<SchedState>,
    /// Wakes workers (new ready task, release, shutdown).
    work_ready: Condvar,
    /// Wakes waiters (an outcome landed).
    done: Condvar,
    breaker_opens: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_breaker: AtomicU64,
    submitted: AtomicU64,
}

impl Shared {
    fn telemetry(&self) -> Telemetry {
        self.telemetry.lock().clone()
    }

    /// Attach the server's telemetry to the interactor and the cache.
    /// Both builders that set one of them call this, so the wiring does
    /// not depend on builder order.
    fn wire(&self) {
        let telemetry = self.telemetry();
        self.interactor.attach_telemetry(&telemetry);
        if let Some(cache) = &*self.cache.lock() {
            cache.attach_telemetry(&telemetry);
        }
    }

    fn tenant_guard(&self, tenant: &str) -> Arc<TenantGuard> {
        let mut guards = self.guards.lock();
        if let Some(guard) = guards.get(tenant) {
            return guard.clone();
        }
        let guard = Arc::new(TenantGuard {
            breaker: CircuitBreaker::new(self.cfg.breaker.clone()),
            component: format!("tenant:{tenant}"),
        });
        guards.insert(tenant.to_string(), guard.clone());
        guard
    }

    /// Wait-friendly lock: the condvar works on the facade's std guard.
    fn wait_work<'a>(
        &self,
        guard: parking_lot::MutexGuard<'a, SchedState>,
    ) -> parking_lot::MutexGuard<'a, SchedState> {
        self.work_ready
            .wait(guard)
            .unwrap_or_else(|e| e.into_inner())
    }

    fn wait_done<'a>(
        &self,
        guard: parking_lot::MutexGuard<'a, SchedState>,
    ) -> parking_lot::MutexGuard<'a, SchedState> {
        self.done.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Plan `req` inside a short-lived steered session over the shared
    /// interactor (and through its attached plan cache when unsteered).
    fn plan(&self, req: &SessionRequest) -> Result<(lqo_engine::PhysNode, f64), ServeError> {
        let ia = &*self.interactor;
        let sid = ia.open_session();
        let planned = (|| {
            ia.push(sid, PushAction::SetHints(req.hints.clone()))?;
            if (req.scaling - 1.0).abs() > 1e-12 {
                ia.push(sid, PushAction::SetCardScaling(req.scaling))?;
            }
            for (set, card) in &req.injections {
                ia.push(
                    sid,
                    PushAction::InjectCardinality {
                        query: req.query.clone(),
                        set: *set,
                        card: *card,
                    },
                )?;
            }
            match ia.pull(sid, PullRequest::Plan(req.query.clone()))? {
                PullReply::Plan { plan, cost } => Ok((plan, cost)),
                other => Err(EngineError::InvalidPlan(format!(
                    "unexpected plan reply {other:?}"
                ))),
            }
        })();
        ia.close_session(sid);
        planned.map_err(ServeError::from)
    }

    /// Execute one operator step of `task`, with the worker thread bound
    /// to the task's profiler query id so interleaved queries attribute
    /// their phases and charges correctly. Returns `Ok(true)` when the
    /// query's last operator just ran.
    fn run_step(&self, task: &mut Task) -> Result<bool, EngineError> {
        let prof = &task.telemetry.prof;
        let _bind = prof.bind_query(task.qid);
        let catalog = self.interactor.catalog();
        let ex = Executor::new(
            catalog,
            ExecConfig {
                mode: self.cfg.step_mode,
                max_work: None,
                ..Default::default()
            },
        )
        .with_telemetry(prof.clone());
        let op = task.ops[task.next_op];
        let label = match op {
            PlanOp::Scan { .. } => "Scan",
            PlanOp::Join { algo, .. } => algo.label(),
        };
        // One profiler phase per step, charged with the step's own work —
        // the same attribution the reopt step driver uses. The phase
        // carries the bound query id, so interleaved queries never
        // cross-charge.
        let _p = prof.phase(label);
        let before = task.meter.work();
        let stepped = (|| match op {
            PlanOp::Scan { pos, keep } => {
                let rel = ex.exec_scan_step_keeping(&task.query, pos, keep, &mut task.meter)?;
                task.stack.push(rel);
                Ok(())
            }
            PlanOp::Join { algo, keep } => {
                let right = task.stack.pop().expect("join right operand materialized");
                let left = task.stack.pop().expect("join left operand materialized");
                let rel = ex.exec_join_step_keeping(
                    &task.query,
                    algo,
                    left,
                    right,
                    keep,
                    &mut task.meter,
                )?;
                task.stack.push(rel);
                Ok(())
            }
        })();
        prof.charge(task.meter.work() - before);
        stepped?;
        task.next_op += 1;
        task.steps += 1;
        Ok(task.next_op == task.ops.len())
    }

    fn finalize(&self, slot: usize, mut task: Task, result: Result<QueryAnswer, String>) {
        let Telemetry { obs, prof, .. } = &task.telemetry;
        prof.end_query_id(task.qid);
        let guard = &task.guard;
        match &result {
            Ok(ans) => {
                guard.breaker.record_success();
                // Per-tenant drift state: predicted plan cost vs. actual
                // work, clamped away from zero so the ratio stays finite.
                self.monitor.observe_cost(
                    &guard.component,
                    task.plan_cost.max(1.0),
                    ans.work.max(1.0),
                );
                obs.count("lqo.serve.completed", 1);
            }
            Err(_) => {
                if guard.breaker.record_failure() {
                    self.breaker_opens.fetch_add(1, Ordering::Relaxed);
                    obs.count("lqo.serve.breaker_opens", 1);
                    if let Some(cache) = self.cache.lock().clone() {
                        cache.on_breaker_open(&guard.component);
                    }
                }
                obs.count("lqo.serve.failed", 1);
            }
        }
        let delta = task.meter.work();
        let outcome = QueryOutcome {
            tenant: std::mem::take(&mut task.tenant),
            seq: task.seq,
            plan_cost: task.plan_cost,
            result,
            steps: task.steps,
            wall_ns: task.admitted_at.elapsed().as_nanos() as u64,
        };
        let mut state = self.state.lock();
        if let Some(t) = state.tenants.get_mut(&outcome.tenant) {
            t.consumed += delta;
        }
        state.pending -= 1;
        state.completed += 1;
        obs.gauge("lqo.serve.queue_depth", state.pending as f64);
        state.slots[slot].outcome = Some(outcome);
        drop(state);
        self.done.notify_all();
        self.work_ready.notify_one();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let picked = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if !state.held {
                    if let Some(t) = state.pick() {
                        break t;
                    }
                }
                state = shared.wait_work(state);
            }
        };
        let (slot, mut task) = picked;
        match shared.run_step(&mut task) {
            Ok(false) => {
                // Park the task behind its tenant's queue; the fair-share
                // deficit moves by the work this step consumed so far.
                let mut state = shared.state.lock();
                let consumed_now = task.meter.work();
                if let Some(t) = state.tenants.get_mut(&task.tenant) {
                    // Charge incrementally: consumed was already advanced
                    // by earlier steps of this task at completion only,
                    // so track the live figure via the parked meter.
                    t.consumed += consumed_now - task.charged;
                    t.ready.push_back(slot);
                }
                task.charged = consumed_now;
                state.slots[slot].task = Some(task);
                drop(state);
                shared.work_ready.notify_one();
            }
            Ok(true) => {
                // The root step kept no slots: the relation is its count.
                let rel = task.stack.pop().expect("final relation");
                let answer = QueryAnswer {
                    count: rel.len() as u64,
                    work: task.meter.work(),
                };
                shared.finalize(slot, task, Ok(answer));
            }
            Err(e) => {
                let msg = e.to_string();
                shared.finalize(slot, task, Err(msg));
            }
        }
    }
}

/// The concurrent serving layer. See the crate docs for the scheduling
/// model and the differential contract.
pub struct LqoServer {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl LqoServer {
    /// Start a server over `interactor` with `cfg.workers` step workers.
    pub fn new(interactor: Arc<EngineInteractor>, cfg: ServeConfig) -> LqoServer {
        let workers = cfg.workers.max(1);
        let held = cfg.hold;
        let shared = Arc::new(Shared {
            monitor: ModelHealthMonitor::new(cfg.watch.clone()),
            cfg,
            interactor,
            telemetry: Mutex::new(Telemetry::default()),
            cache: Mutex::new(None),
            guards: Mutex::new(std::collections::BTreeMap::new()),
            state: Mutex::new(SchedState::new(held)),
            work_ready: Condvar::new(),
            done: Condvar::new(),
            breaker_opens: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_breaker: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lqo-serve-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn serve worker")
            })
            .collect();
        LqoServer {
            shared,
            workers: handles,
        }
    }

    /// Attach telemetry: serve-level counters go to its obs context, and
    /// its profiler profiles each admitted query under its own query id
    /// ([`lqo_prof::ProfContext::begin_query_id`]), so concurrent queries
    /// profile independently. It is forwarded to the interactor (planning
    /// and execution report into the same contexts) and to the cache,
    /// whichever of this and [`LqoServer::with_cache`] comes first.
    pub fn with_telemetry(self, telemetry: impl Into<Telemetry>) -> LqoServer {
        *self.shared.telemetry.lock() = telemetry.into();
        self.shared.wire();
        self
    }

    /// Attach the shared plan & inference cache (forwarded to the
    /// interactor; breaker opens invalidate through it). Its counters and
    /// events report to the server's telemetry.
    pub fn with_cache(self, cache: Arc<LqoCache>) -> LqoServer {
        self.shared.interactor.attach_cache(&cache);
        *self.shared.cache.lock() = Some(cache);
        self.shared.wire();
        self
    }

    /// The shared per-tenant drift monitor.
    pub fn monitor(&self) -> &ModelHealthMonitor {
        &self.shared.monitor
    }

    /// The breaker state of `tenant` (`None` if the tenant has never
    /// submitted).
    pub fn tenant_breaker_state(&self, tenant: &str) -> Option<lqo_guard::BreakerState> {
        self.shared
            .guards
            .lock()
            .get(tenant)
            .map(|g| g.breaker.state())
    }

    /// Release held workers (see [`ServeConfig::hold`]). Idempotent.
    pub fn release(&self) {
        self.shared.state.lock().held = false;
        self.work_ready_notify_all();
    }

    fn work_ready_notify_all(&self) {
        self.shared.work_ready.notify_all();
    }

    /// Admit one query: plan it under the request's session-scoped
    /// steering, then pass admission control (bounded queue, tenant
    /// quota on estimated cost, tenant breaker). Never blocks; returns
    /// a [`Ticket`] to [`LqoServer::wait`] on, or the rejection.
    pub fn submit(&self, req: SessionRequest) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let telemetry = shared.telemetry();
        let obs = &telemetry.obs;
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        obs.count("lqo.serve.submitted", 1);
        let guard = shared.tenant_guard(&req.tenant);
        if !guard.breaker.allow() {
            shared.rejected_breaker.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.serve.rejected.breaker", 1);
            return Err(ServeError::TenantBreakerOpen { tenant: req.tenant });
        }
        let (plan, cost) = shared.plan(&req)?;
        let max_work = req.max_work.or(shared.cfg.default_max_work);
        let mut state = shared.state.lock();
        if state.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if state.pending >= shared.cfg.queue_capacity {
            shared.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.serve.rejected.queue_full", 1);
            return Err(ServeError::QueueFull {
                capacity: shared.cfg.queue_capacity,
            });
        }
        let quota_cfg = shared.cfg.tenant_quota;
        let tenant_sched = state
            .tenants
            .entry(req.tenant.clone())
            .or_insert_with(|| TenantSched {
                ready: std::collections::VecDeque::new(),
                consumed: 0.0,
                quota: WorkMeter::new(quota_cfg),
            });
        // Reject when the estimated cost does not fit the remaining
        // quota; only admitted plans charge it (estimated cost is
        // deterministic, so admission replays exactly).
        if tenant_sched.quota.remaining().is_some_and(|rem| cost > rem) {
            shared.rejected_quota.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.serve.rejected.quota", 1);
            return Err(ServeError::QuotaExceeded {
                tenant: req.tenant,
                quota: quota_cfg.unwrap_or(f64::INFINITY),
            });
        }
        let _ = tenant_sched.quota.add(cost);
        let seq = state.next_seq();
        let qid = if telemetry.prof.is_enabled() {
            telemetry
                .prof
                .begin_query_id(&format!("{}#{seq}", req.tenant))
        } else {
            0
        };
        let mut ops = Vec::new();
        flatten(&req.query, &plan, TableSet::EMPTY, &mut ops);
        let task = Task {
            seq,
            tenant: req.tenant,
            guard,
            telemetry: telemetry.clone(),
            query: req.query,
            ops,
            next_op: 0,
            stack: Vec::new(),
            meter: WorkMeter::new(max_work),
            qid,
            plan_cost: cost,
            steps: 0,
            charged: 0.0,
            admitted_at: Instant::now(),
        };
        let ticket = state.admit(task);
        state.pending += 1;
        obs.gauge("lqo.serve.queue_depth", state.pending as f64);
        drop(state);
        obs.count("lqo.serve.admitted", 1);
        shared.work_ready.notify_one();
        Ok(ticket)
    }

    /// Block until the ticket's query completes; returns its outcome and
    /// frees the ticket's slot for a later submission.
    ///
    /// A ticket redeems once: waiting on it again panics, whether or not
    /// its slot has been reused since.
    pub fn wait(&self, ticket: Ticket) -> QueryOutcome {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(outcome) = state.redeem(ticket) {
                return outcome;
            }
            state = self.shared.wait_done(state);
        }
    }

    /// Submit a whole workload, release held workers, and wait for every
    /// admitted query: outcomes come back in submission order (rejected
    /// submissions carry their [`ServeError`]), together with batch
    /// stats.
    #[allow(clippy::type_complexity)]
    pub fn serve_all(
        &self,
        requests: Vec<SessionRequest>,
    ) -> (Vec<Result<QueryOutcome, ServeError>>, ServeStats) {
        let start = Instant::now();
        let tickets: Vec<Result<Ticket, ServeError>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        self.release();
        let outcomes: Vec<Result<QueryOutcome, ServeError>> = tickets
            .into_iter()
            .map(|t| t.map(|ticket| self.wait(ticket)))
            .collect();
        let wall = start.elapsed();
        let shared = &self.shared;
        let mut stats = ServeStats {
            submitted: shared.submitted.load(Ordering::Relaxed),
            rejected_queue_full: shared.rejected_queue_full.load(Ordering::Relaxed),
            rejected_quota: shared.rejected_quota.load(Ordering::Relaxed),
            rejected_breaker: shared.rejected_breaker.load(Ordering::Relaxed),
            breaker_opens: shared.breaker_opens.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        let mut walls: Vec<u64> = Vec::new();
        for outcome in outcomes.iter().flatten() {
            stats.admitted += 1;
            walls.push(outcome.wall_ns);
            match &outcome.result {
                Ok(ans) => {
                    stats.completed += 1;
                    stats.total_work += ans.work;
                }
                Err(_) => stats.failed += 1,
            }
        }
        stats.p50_wall_ns = crate::harness::percentile_ns(&mut walls, 0.50);
        stats.p99_wall_ns = crate::harness::percentile_ns(&mut walls, 0.99);
        let secs = wall.as_secs_f64();
        stats.throughput_qps = if secs > 0.0 {
            stats.completed as f64 / secs
        } else {
            0.0
        };
        (outcomes, stats)
    }
}

impl Drop for LqoServer {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.done.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
