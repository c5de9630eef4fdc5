//! # lqo-prof — low-overhead hierarchical profiling
//!
//! A profiling layer built on the same handle pattern as
//! [`lqo_obs::ObsContext`]: a [`ProfContext`] is an `Option<Arc>` —
//! disabled contexts carry no allocation and every recording call
//! returns after one branch. Components receive it as the `prof` field
//! of the engine's `Telemetry` handle, whose per-query scope opens and
//! closes a query id ([`ProfContext::begin_query_id`] bound to the
//! calling thread with [`ProfContext::bind_query`]).
//!
//! What it adds over plain obs spans:
//!
//! * **Hierarchical phase paths.** Nested [`ProfContext::phase`] calls
//!   build `;`-joined paths (`plan;enumerate;estimate`) on a
//!   thread-local stack, aggregated into a [`Profile`] — both per query
//!   and cumulatively. When the context was built over an enabled
//!   [`ObsContext`], every recorded phase also opens an obs span, so
//!   profiler phases nest under the existing span tree.
//! * **Dual accounting.** Each frame carries wall-clock *and*
//!   deterministic work units ([`ProfContext::charge`]), plus exact
//!   event counters ([`ProfContext::bump`]), so learned-inference
//!   overhead (model calls, cache hits/misses, guard deadlines) is
//!   separable from execution cost — and the unit columns are
//!   machine-independent, which is what the perf-baseline comparator
//!   keys its noise-free checks on.
//! * **A sampling mode.** High-frequency leaves (per-estimate, per-cost
//!   evaluation) go through [`ProfContext::phase_hot`]: with
//!   `sample_every = n`, only every n-th entry is timed (weighted by
//!   `n` so call counts stay unbiased) and the rest cost one relaxed
//!   atomic increment. Whole detail *subtrees* (the executor's
//!   per-operator phases) are gated per query through
//!   [`ProfContext::sample_detail`] + [`ProfContext::phase_sampled`].
//!   Phase names are `&'static str` and charges accumulate lock-free on
//!   the thread-local phase stack, so an unsampled query pays a handful
//!   of atomic ops. The `<2%` overhead bound is asserted by
//!   `crates/testkit/tests/prof_overhead.rs`.
//! * **Folded-stack export** ([`Profile::to_folded`]) in the flamegraph
//!   format, and an ANSI "top phases" report ([`report::render_top`]).
//!
//! Unclosed phases never panic: [`ProfContext::end_query_id`] drains
//! whatever the query left on the stack and marks the profile
//! ([`QueryProfile::unclosed`]).

#![warn(missing_docs)]

pub mod profile;
pub mod report;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use lqo_obs::span::SpanGuard;
use lqo_obs::ObsContext;

pub use profile::{parse_folded, PhaseStat, Profile, QueryProfile, PATH_SEP};
pub use report::render_top;

/// Counter name for calls reaching a base cardinality estimator.
pub const CTR_ESTIMATOR_CALLS: &str = "estimator_calls";

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfConfig {
    /// Sampling stride for [`ProfContext::phase_hot`]: 1 = time every
    /// entry (exact), n > 1 = time one entry in n and weight it by n.
    /// [`ProfContext::phase`] is always exact regardless of this.
    pub sample_every: u64,
}

impl Default for ProfConfig {
    fn default() -> ProfConfig {
        ProfConfig { sample_every: 1 }
    }
}

impl ProfConfig {
    /// The serving-friendly sampling configuration (stride 64) whose
    /// overhead the testkit bounds below 2%.
    pub fn sampling() -> ProfConfig {
        ProfConfig { sample_every: 64 }
    }
}

/// One open phase on a thread's stack. Phase names are `&'static str`
/// so opening a phase never allocates; [`ProfContext::charge`] deposits
/// units here (thread-local, lock-free) and they are committed together
/// with the timing when the phase closes.
struct OpenPhase {
    /// Context identity (`Arc::as_ptr`), so two contexts profiling on
    /// one thread do not cross-parent (same pattern as the obs tracer's
    /// span stack).
    key: usize,
    /// Query id this phase belongs to (0 = outside any query). Captured
    /// at open time from the thread's innermost [`QueryBind`], so phases
    /// of queries interleaved on one shared worker thread attribute to
    /// *their* query and never cross-parent or leak into another query's
    /// drain.
    qid: u64,
    /// Guard token tying this entry to its [`ProfPhase`].
    token: u64,
    name: &'static str,
    /// Work units charged while this phase was innermost.
    units: f64,
}

thread_local! {
    /// Open-phase stack of this thread, across all contexts.
    static PHASE_STACK: RefCell<Vec<OpenPhase>> = const { RefCell::new(Vec::new()) };
    /// Active `(context key, query id)` bindings of this thread,
    /// innermost last (see [`ProfContext::bind_query`]).
    static QUERY_BIND: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Innermost query id this thread has bound for context `key` (0 when
/// unbound).
fn thread_bound_qid(key: usize) -> Option<u64> {
    QUERY_BIND.with(|b| {
        b.borrow()
            .iter()
            .rev()
            .find(|&&(k, _)| k == key)
            .map(|&(_, qid)| qid)
    })
}

struct ProfState {
    /// Cumulative profile across all queries (and outside queries).
    total: Profile,
    /// Queries being profiled, keyed by query id. Concurrent serving
    /// profiles many queries at once on one shared context.
    active: std::collections::BTreeMap<u64, QueryProfile>,
    /// Completed per-query profiles, in completion order.
    finished: Vec<QueryProfile>,
    /// Cumulative exact event counters.
    counters: std::collections::BTreeMap<String, u64>,
    /// `estimator_calls` atomic value when each active query began.
    /// Per-query deltas are exact for serially profiled queries; for
    /// queries active concurrently the windows overlap, so the delta is
    /// an upper bound on that query's own calls.
    est_at_begin: std::collections::BTreeMap<u64, u64>,
}

struct ProfInner {
    config: ProfConfig,
    /// Entry ticker for `phase_hot` sampling decisions.
    ticks: AtomicU64,
    /// Decision ticker for `sample_detail` (kept separate from `ticks`
    /// so per-entry and per-query sampling strides stay independent).
    detail_ticks: AtomicU64,
    /// Guard-token source (tokens tie stack entries to their guards).
    tokens: AtomicU64,
    /// Query-id source; 0 is reserved for "no query".
    query_ids: AtomicU64,
    /// Dedicated hot counter: calls reaching a base estimator.
    estimator_calls: AtomicU64,
    /// Span mirror: recorded phases also open spans here.
    obs: ObsContext,
    state: Mutex<ProfState>,
}

/// Shared handle to one profiling session. Cheap to clone; a disabled
/// context is a `None` and every operation returns immediately.
#[derive(Clone, Default)]
pub struct ProfContext {
    inner: Option<Arc<ProfInner>>,
}

impl ProfContext {
    /// An enabled context with the given configuration, mirroring
    /// recorded phases as spans on `obs` (pass
    /// [`ObsContext::disabled`] for no mirroring).
    pub fn new(config: ProfConfig, obs: ObsContext) -> ProfContext {
        let config = ProfConfig {
            sample_every: config.sample_every.max(1),
        };
        ProfContext {
            inner: Some(Arc::new(ProfInner {
                config,
                ticks: AtomicU64::new(0),
                detail_ticks: AtomicU64::new(0),
                tokens: AtomicU64::new(0),
                query_ids: AtomicU64::new(0),
                estimator_calls: AtomicU64::new(0),
                obs,
                state: Mutex::new(ProfState {
                    total: Profile::new(),
                    active: std::collections::BTreeMap::new(),
                    finished: Vec::new(),
                    counters: std::collections::BTreeMap::new(),
                    est_at_begin: std::collections::BTreeMap::new(),
                }),
            })),
        }
    }

    /// An enabled, exact (stride-1) context without span mirroring.
    pub fn enabled() -> ProfContext {
        ProfContext::new(ProfConfig::default(), ObsContext::disabled())
    }

    /// An enabled context in sampling mode (stride `n`, clamped to ≥1).
    pub fn sampling(n: u64) -> ProfContext {
        ProfContext::new(ProfConfig { sample_every: n }, ObsContext::disabled())
    }

    /// The no-op context.
    pub fn disabled() -> ProfContext {
        ProfContext { inner: None }
    }

    /// Whether this context records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured sampling stride (1 when disabled).
    pub fn sample_every(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(1, |inner| inner.config.sample_every)
    }

    fn key(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| Arc::as_ptr(inner) as usize)
    }

    /// Open a phase; it closes (timed and attributed to the current
    /// path) when the guard drops. Always exact — use for per-query
    /// structure (parse/plan/execute). Names are `&'static str` so
    /// opening never allocates.
    pub fn phase(&self, name: &'static str) -> ProfPhase {
        match &self.inner {
            None => ProfPhase::noop(),
            Some(inner) => self.open(inner, name, 1),
        }
    }

    /// Open a *hot* phase: with sampling stride n, one entry in n is
    /// timed (weighted by n); the rest cost one atomic increment and
    /// are not pushed on the path stack, so hot phases must be leaves.
    pub fn phase_hot(&self, name: &'static str) -> ProfPhase {
        match &self.inner {
            None => ProfPhase::noop(),
            Some(inner) => {
                let every = inner.config.sample_every;
                if every > 1 {
                    let tick = inner.ticks.fetch_add(1, Ordering::Relaxed);
                    if tick % every != 0 {
                        return ProfPhase::noop();
                    }
                }
                self.open(inner, name, every)
            }
        }
    }

    /// One detail-sampling decision: always true at stride 1, true one
    /// call in `sample_every` in sampling mode, false when disabled.
    /// Callers that would open many exact phases per query (the
    /// per-operator plan tree) ask once per query and skip the whole
    /// subtree on unsampled queries, pairing the sampled ones with
    /// [`ProfContext::phase_sampled`] so call counts stay unbiased.
    pub fn sample_detail(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                let every = inner.config.sample_every;
                every <= 1 || inner.detail_ticks.fetch_add(1, Ordering::Relaxed) % every == 0
            }
        }
    }

    /// Open an exact-timed phase whose call count carries the sampling
    /// stride as weight — the companion of
    /// [`ProfContext::sample_detail`]: a detail subtree recorded on one
    /// query in n counts n entries per phase.
    pub fn phase_sampled(&self, name: &'static str) -> ProfPhase {
        match &self.inner {
            None => ProfPhase::noop(),
            Some(inner) => self.open(inner, name, inner.config.sample_every),
        }
    }

    /// The query id phases opened by this thread attribute to: the
    /// innermost [`QueryBind`] for this context (0 = outside any query).
    fn active_qid(key: usize) -> u64 {
        thread_bound_qid(key).unwrap_or(0)
    }

    fn open(&self, inner: &Arc<ProfInner>, name: &'static str, weight: u64) -> ProfPhase {
        let token = inner.tokens.fetch_add(1, Ordering::Relaxed);
        let key = Arc::as_ptr(inner) as usize;
        let qid = Self::active_qid(key);
        PHASE_STACK.with(|s| {
            s.borrow_mut().push(OpenPhase {
                key,
                qid,
                token,
                name,
                units: 0.0,
            })
        });
        ProfPhase {
            ctx: Some(inner.clone()),
            token,
            weight,
            start: Instant::now(),
            _span: inner.obs.span(name),
        }
    }

    /// The `;`-joined path of currently open phases of this context on
    /// this thread (empty when none), restricted to the query this
    /// thread currently attributes to — interleaved queries sharing the
    /// thread do not appear in each other's paths.
    pub fn current_path(&self) -> String {
        let key = self.key();
        let qid = Self::active_qid(key);
        PHASE_STACK.with(|s| {
            let stack = s.borrow();
            let mut path = String::new();
            for p in stack.iter() {
                if p.key == key && p.qid == qid {
                    if !path.is_empty() {
                        path.push(PATH_SEP);
                    }
                    path.push_str(p.name);
                }
            }
            path
        })
    }

    /// Charge deterministic work units to the innermost open phase of
    /// this thread *belonging to the query this thread attributes to*
    /// (or to the `(root)` frame when none is open). Charges are exact —
    /// never sampled away. They accumulate lock-free on the
    /// thread-local stack entry and are committed when the phase
    /// closes, so [`ProfContext::total`] sees them once the carrying
    /// phase has ended.
    pub fn charge(&self, units: f64) {
        if let Some(inner) = &self.inner {
            let key = Arc::as_ptr(inner) as usize;
            let qid = Self::active_qid(key);
            let deferred = PHASE_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                match stack
                    .iter_mut()
                    .rev()
                    .find(|p| p.key == key && p.qid == qid)
                {
                    Some(p) => {
                        p.units += units;
                        true
                    }
                    None => false,
                }
            });
            if !deferred {
                let mut state = inner.state.lock();
                state.total.charge("(root)", units);
                if let Some(q) = state.active.get_mut(&qid) {
                    q.profile.charge("(root)", units);
                }
            }
        }
    }

    /// Record a completed child phase under the current path without
    /// opening a guard — how coordinators attribute work measured
    /// elsewhere (per-morsel and per-worker busy/idle times come from
    /// the pool's stats, not from guards on worker threads).
    pub fn record_child(&self, name: &str, calls: u64, wall_ns: u64, units: f64) {
        if self.inner.is_some() {
            let parent = self.current_path();
            let path = if parent.is_empty() {
                name.to_string()
            } else {
                format!("{parent}{PATH_SEP}{name}")
            };
            self.record_at(&path, calls, wall_ns, units);
        }
    }

    /// Record a completed phase at an absolute path. `calls` entries,
    /// all counted as sampled, `wall_ns` total. Deterministic input →
    /// deterministic profile, which is what the folded-stack golden
    /// test is built on.
    pub fn record_at(&self, path: &str, calls: u64, wall_ns: u64, units: f64) {
        if let Some(inner) = &self.inner {
            let key = Arc::as_ptr(inner) as usize;
            let qid = Self::active_qid(key);
            let mut state = inner.state.lock();
            state.total.add(path, calls, calls, wall_ns, units);
            if let Some(q) = state.active.get_mut(&qid) {
                q.profile.add(path, calls, calls, wall_ns, units);
            }
        }
    }

    /// Add `delta` to the named exact event counter (cumulative and,
    /// when the calling thread attributes to an active query,
    /// per-query).
    pub fn bump(&self, counter: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let key = Arc::as_ptr(inner) as usize;
            let qid = Self::active_qid(key);
            let mut state = inner.state.lock();
            *state.counters.entry(counter.to_string()).or_default() += delta;
            if let Some(q) = state.active.get_mut(&qid) {
                *q.counters.entry(counter.to_string()).or_default() += delta;
            }
        }
    }

    /// Count one call reaching a base cardinality estimator. Kept on a
    /// dedicated atomic (not the counter map) because it sits on the
    /// planning hot path; per-query deltas land in the query profile's
    /// counters at `end_query_id`.
    pub fn note_estimator_call(&self) {
        if let Some(inner) = &self.inner {
            inner.estimator_calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total base-estimator calls recorded so far.
    pub fn estimator_calls(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.estimator_calls.load(Ordering::Relaxed))
    }

    /// Start profiling a query under a fresh query id and return that
    /// id (0 when disabled). Any number of queries can be active at
    /// once on one shared context — the concurrent-serving case; worker
    /// threads attribute their phases to a specific id with
    /// [`ProfContext::bind_query`].
    pub fn begin_query_id(&self, query: &str) -> u64 {
        let Some(inner) = self.inner.as_deref() else {
            return 0;
        };
        let qid = inner.query_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let est_now = inner.estimator_calls.load(Ordering::Relaxed);
        let mut state = inner.state.lock();
        state.est_at_begin.insert(qid, est_now);
        state.active.insert(
            qid,
            QueryProfile {
                query: query.to_string(),
                ..QueryProfile::default()
            },
        );
        qid
    }

    /// Bind the calling thread to active query `qid` until the returned
    /// guard drops: phases opened, units charged and counters bumped on
    /// this thread meanwhile attribute to that query, even while other
    /// queries interleave on the same thread. Bindings nest; the
    /// innermost wins. No-op on a disabled context.
    pub fn bind_query(&self, qid: u64) -> QueryBind {
        let key = self.key();
        if key != 0 {
            QUERY_BIND.with(|b| b.borrow_mut().push((key, qid)));
        }
        QueryBind { key, qid }
    }

    /// Finish the active query `qid` and move its profile to the
    /// finished log; returns a clone, or `None` when no such query is
    /// active. Phases of *this query* still open on the calling thread
    /// are drained (not timed) and counted in
    /// [`QueryProfile::unclosed`] — never a panic, and never touching
    /// frames of other queries interleaved on the thread.
    pub fn end_query_id(&self, qid: u64) -> Option<QueryProfile> {
        let inner = self.inner.as_deref()?;
        if qid == 0 {
            return None;
        }
        let key = self.key();
        // Drain leftover open phases of this context AND this query from
        // this thread's stack. Their guards, if dropped later, find
        // their token gone and record nothing. Frames of other queries
        // stay untouched — the pre-fix drain swept every frame of the
        // context, silently mis-attributing interleaved queries.
        let leaked: Vec<(&'static str, f64)> = PHASE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let mut drained = Vec::new();
            stack.retain(|p| {
                if p.key == key && p.qid == qid {
                    drained.push((p.name, p.units));
                    false
                } else {
                    true
                }
            });
            drained
        });
        let est_now = inner.estimator_calls.load(Ordering::Relaxed);
        let mut state = inner.state.lock();
        let mut q = state.active.remove(&qid)?;
        q.unclosed += leaked.len() as u64;
        for (name, units) in &leaked {
            // Keep the frame visible in the tree, marked, untimed. Units
            // pending on the drained entry are conserved (charges are
            // exact even across a leak).
            let path = format!("(unclosed){PATH_SEP}{name}");
            q.profile.add(&path, 1, 0, 0, *units);
            if *units != 0.0 {
                state.total.add(&path, 0, 0, 0, *units);
            }
        }
        let est_delta = est_now - state.est_at_begin.remove(&qid).unwrap_or(est_now);
        if est_delta > 0 {
            *q.counters
                .entry(CTR_ESTIMATOR_CALLS.to_string())
                .or_default() += est_delta;
        }
        state.finished.push(q.clone());
        Some(q)
    }

    /// The cumulative profile across everything recorded so far.
    pub fn total(&self) -> Profile {
        match &self.inner {
            Some(inner) => inner.state.lock().total.clone(),
            None => Profile::new(),
        }
    }

    /// Cumulative exact event counters (the dedicated estimator-call
    /// atomic is folded in under [`CTR_ESTIMATOR_CALLS`]).
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        match &self.inner {
            Some(inner) => {
                let mut map = inner.state.lock().counters.clone();
                let est = inner.estimator_calls.load(Ordering::Relaxed);
                if est > 0 {
                    *map.entry(CTR_ESTIMATOR_CALLS.to_string()).or_default() += est;
                }
                map
            }
            None => std::collections::BTreeMap::new(),
        }
    }

    /// All finished per-query profiles so far (clones; the log is kept).
    pub fn finished(&self) -> Vec<QueryProfile> {
        match &self.inner {
            Some(inner) => inner.state.lock().finished.clone(),
            None => Vec::new(),
        }
    }

    /// Drain the finished-profile log.
    pub fn take_finished(&self) -> Vec<QueryProfile> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut inner.state.lock().finished),
            None => Vec::new(),
        }
    }
}

fn close_phase(inner: &Arc<ProfInner>, token: u64, weight: u64, elapsed_ns: u64) {
    let key = Arc::as_ptr(inner) as usize;
    let closed = PHASE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Drained by end_query_id → the token is gone → record nothing.
        let pos = stack
            .iter()
            .rposition(|p| p.key == key && p.token == token)?;
        let own = stack.remove(pos);
        // Ancestors are frames of the same context AND the same query:
        // frames of another query interleaved on this thread are
        // siblings in time but not parents in the tree.
        let mut path = String::new();
        for p in stack[..pos].iter() {
            if p.key == key && p.qid == own.qid {
                path.push_str(p.name);
                path.push(PATH_SEP);
            }
        }
        path.push_str(own.name);
        Some((path, own.units, own.qid))
    });
    if let Some((path, units, qid)) = closed {
        let mut state = inner.state.lock();
        state.total.add(&path, weight, 1, elapsed_ns, units);
        if let Some(q) = state.active.get_mut(&qid) {
            q.profile.add(&path, weight, 1, elapsed_ns, units);
        }
    }
}

/// RAII binding of one thread to one active query id (see
/// [`ProfContext::bind_query`]); unbinds on drop.
pub struct QueryBind {
    key: usize,
    qid: u64,
}

impl Drop for QueryBind {
    fn drop(&mut self) {
        if self.key != 0 {
            QUERY_BIND.with(|b| {
                let mut b = b.borrow_mut();
                if let Some(pos) = b.iter().rposition(|&(k, q)| k == self.key && q == self.qid) {
                    b.remove(pos);
                }
            });
        }
    }
}

/// RAII guard of one open phase; records on drop.
pub struct ProfPhase {
    ctx: Option<Arc<ProfInner>>,
    token: u64,
    weight: u64,
    start: Instant,
    _span: SpanGuard,
}

impl ProfPhase {
    fn noop() -> ProfPhase {
        ProfPhase {
            ctx: None,
            token: 0,
            weight: 0,
            start: Instant::now(),
            _span: SpanGuard::noop(),
        }
    }
}

impl Drop for ProfPhase {
    fn drop(&mut self) {
        if let Some(inner) = self.ctx.take() {
            let elapsed_ns = self.start.elapsed().as_nanos() as u64;
            close_phase(&inner, self.token, self.weight, elapsed_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_is_inert() {
        let prof = ProfContext::disabled();
        assert!(!prof.is_enabled());
        drop(prof.phase("a"));
        drop(prof.phase_hot("b"));
        prof.charge(1.0);
        prof.bump("model_calls", 1);
        prof.note_estimator_call();
        let qid = prof.begin_query_id("q");
        assert_eq!(qid, 0);
        drop(prof.bind_query(qid));
        assert!(prof.end_query_id(qid).is_none());
        assert!(prof.total().is_empty());
        assert!(prof.finished().is_empty());
        assert_eq!(prof.estimator_calls(), 0);
        assert_eq!(prof.sample_every(), 1);
        assert!(prof.counters().is_empty());
    }

    #[test]
    fn nested_phases_build_paths() {
        let prof = ProfContext::enabled();
        let qid = prof.begin_query_id("q1");
        let bind = prof.bind_query(qid);
        {
            let _plan = prof.phase("plan");
            {
                let _enu = prof.phase("enumerate");
                assert_eq!(prof.current_path(), "plan;enumerate");
                drop(prof.phase_hot("estimate"));
                drop(prof.phase_hot("estimate"));
            }
        }
        {
            let _exec = prof.phase("execute");
            prof.charge(42.0);
        }
        let q = prof.end_query_id(qid).expect("profile");
        drop(bind);
        assert_eq!(q.query, "q1");
        assert_eq!(q.unclosed, 0);
        let f = &q.profile.frames;
        assert_eq!(f["plan"].calls, 1);
        assert_eq!(f["plan;enumerate"].calls, 1);
        assert_eq!(f["plan;enumerate;estimate"].calls, 2);
        assert_eq!(f["plan;enumerate;estimate"].sampled, 2);
        assert!((f["execute"].units - 42.0).abs() < 1e-12);
        // The cumulative profile saw the same frames.
        assert_eq!(prof.total().frames["plan;enumerate;estimate"].calls, 2);
    }

    #[test]
    fn sampling_weights_call_counts() {
        let prof = ProfContext::sampling(8);
        for _ in 0..64 {
            drop(prof.phase_hot("estimate"));
        }
        let total = prof.total();
        let stat = &total.frames["estimate"];
        assert_eq!(stat.calls, 64, "8 sampled entries × weight 8");
        assert_eq!(stat.sampled, 8);
        // Cold phases stay exact under sampling.
        for _ in 0..3 {
            drop(prof.phase("plan"));
        }
        assert_eq!(prof.total().frames["plan"].calls, 3);
        assert_eq!(prof.total().frames["plan"].sampled, 3);
    }

    #[test]
    fn unclosed_phase_is_marked_not_fatal() {
        let prof = ProfContext::enabled();
        let qid = prof.begin_query_id("q");
        let bind = prof.bind_query(qid);
        let guard = prof.phase("execute");
        let q = prof.end_query_id(qid).expect("profile");
        drop(bind);
        assert_eq!(q.unclosed, 1);
        assert!(q.profile.frames.contains_key("(unclosed);execute"));
        // Dropping the stale guard afterwards is harmless and records
        // nothing new.
        drop(guard);
        assert!(!prof.total().frames.contains_key("execute"));
    }

    #[test]
    fn two_contexts_on_one_thread_do_not_cross_parent() {
        let a = ProfContext::enabled();
        let b = ProfContext::enabled();
        let _ga = a.phase("outer_a");
        {
            let _gb = b.phase("inner_b");
            assert_eq!(a.current_path(), "outer_a");
            assert_eq!(b.current_path(), "inner_b");
        }
        drop(_ga);
        assert!(a.total().frames.contains_key("outer_a"));
        assert!(b.total().frames.contains_key("inner_b"));
        assert!(!b.total().frames.contains_key("outer_a;inner_b"));
    }

    #[test]
    fn estimator_calls_delta_lands_per_query() {
        let prof = ProfContext::enabled();
        prof.note_estimator_call();
        let q1 = prof.begin_query_id("q1");
        for _ in 0..5 {
            prof.note_estimator_call();
        }
        let q1 = prof.end_query_id(q1).unwrap();
        assert_eq!(q1.counters[CTR_ESTIMATOR_CALLS], 5);
        let q2 = prof.begin_query_id("q2");
        let q2 = prof.end_query_id(q2).unwrap();
        assert!(!q2.counters.contains_key(CTR_ESTIMATOR_CALLS));
        assert_eq!(prof.estimator_calls(), 6);
        assert_eq!(prof.counters()[CTR_ESTIMATOR_CALLS], 6);
    }

    #[test]
    fn finished_log_keeps_completion_order() {
        let prof = ProfContext::enabled();
        let q1 = prof.begin_query_id("q1");
        let q2 = prof.begin_query_id("q2");
        prof.end_query_id(q2);
        prof.end_query_id(q1);
        let names: Vec<String> = prof.finished().iter().map(|q| q.query.clone()).collect();
        assert_eq!(names, ["q2", "q1"]);
        assert_eq!(prof.take_finished().len(), 2);
        assert!(prof.finished().is_empty());
    }

    #[test]
    fn record_child_attributes_under_open_phase() {
        let prof = ProfContext::enabled();
        let _exec = prof.phase("execute");
        prof.record_child("morsel", 16, 4096, 12.0);
        prof.record_child("worker0_busy", 1, 900, 0.0);
        drop(_exec);
        let total = prof.total();
        assert_eq!(total.frames["execute;morsel"].calls, 16);
        assert_eq!(total.frames["execute;worker0_busy"].wall_ns, 900);
        // With no phase open, record_child records at the root.
        prof.record_child("idle", 1, 7, 0.0);
        assert_eq!(prof.total().frames["idle"].wall_ns, 7);
    }

    #[test]
    fn interleaved_queries_on_one_thread_attribute_by_query_id() {
        // Two queries time-sliced on ONE worker thread — the serving
        // layer's normal steady state. Pre-fix, the profiler kept a
        // single `current` query and end_query drained EVERY open frame
        // of the context from the thread, so ending A swept B's parked
        // phase into A's profile as "unclosed" and B's charges landed on
        // the wrong query.
        let prof = ProfContext::enabled();
        let qa = prof.begin_query_id("qa");
        let qb = prof.begin_query_id("qb");
        // Slice 1: a step of A runs and finishes.
        {
            let _bind = prof.bind_query(qa);
            let _step = prof.phase("exec_step");
            prof.charge(10.0);
            prof.bump("steps", 1);
        }
        // Slice 2: a step of B runs and PARKS (guard kept open across
        // the interleave, as a suspended operator does).
        let parked = {
            let _bind = prof.bind_query(qb);
            let g = prof.phase("exec_step");
            prof.charge(20.0);
            g
        };
        // A finishes while B's frame is still open on this thread.
        let a = prof.end_query_id(qa).expect("qa profile");
        assert_eq!(a.query, "qa");
        assert_eq!(a.unclosed, 0, "B's parked frame must not drain into A");
        assert!((a.profile.frames["exec_step"].units - 10.0).abs() < 1e-12);
        assert_eq!(a.counters["steps"], 1);
        // B resumes, closes its frame, finishes with its own 20 units.
        {
            let _bind = prof.bind_query(qb);
            drop(parked);
        }
        let b = prof.end_query_id(qb).expect("qb profile");
        assert_eq!(b.unclosed, 0);
        assert!((b.profile.frames["exec_step"].units - 20.0).abs() < 1e-12);
        assert!(!b.counters.contains_key("steps"));
        // Ending an already-ended query is a clean None, not a panic.
        assert!(prof.end_query_id(qa).is_none());
    }

    #[test]
    fn nested_bindings_do_not_cross_parent() {
        // A frame of query B opened while a frame of query A is still on
        // the same thread's stack must NOT nest under A's frame.
        let prof = ProfContext::enabled();
        let qa = prof.begin_query_id("qa");
        let qb = prof.begin_query_id("qb");
        let bind_a = prof.bind_query(qa);
        let ga = prof.phase("exec_a");
        {
            let _bind_b = prof.bind_query(qb);
            let gb = prof.phase("exec_b");
            assert_eq!(prof.current_path(), "exec_b");
            drop(gb);
        }
        assert_eq!(prof.current_path(), "exec_a");
        drop(ga);
        drop(bind_a);
        let a = prof.end_query_id(qa).unwrap();
        let b = prof.end_query_id(qb).unwrap();
        assert!(a.profile.frames.contains_key("exec_a"));
        assert!(b.profile.frames.contains_key("exec_b"));
        assert!(
            !b.profile.frames.contains_key("exec_a;exec_b"),
            "B's frame must not parent under A's"
        );
        assert!(!prof.total().frames.contains_key("exec_a;exec_b"));
    }

    #[test]
    fn phases_mirror_into_obs_spans() {
        let obs = ObsContext::enabled();
        let prof = ProfContext::new(ProfConfig::default(), obs.clone());
        {
            let _outer = obs.span("query");
            drop(prof.phase("plan"));
        }
        let spans = obs.tracer().unwrap().closed_spans();
        let plan = spans.iter().find(|s| s.name == "plan").expect("plan span");
        assert!(plan.parent.is_some(), "prof phase nests under obs span");
    }
}
