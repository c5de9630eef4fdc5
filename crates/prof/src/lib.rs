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
//! * **Root sampling.** A *root* phase is one opened while no phase of
//!   the same context and query is open on the thread. With stride n
//!   ([`ProfConfig::sample_every`]) the profiler decides once per root,
//!   by a shared ticker, whether to record it: one root in n is
//!   recorded in full, every phase nested in it weighted by n so call
//!   counts stay unbiased. An unsampled root reads no clock, builds no
//!   path and opens no span; a phase opened inside it costs one
//!   thread-local read, and when it closes, its call and every unit
//!   charged in its subtree land on the root frame at once. Stride 1
//!   records everything. The `<2%` overhead bound is asserted by
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

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
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
    /// Root sampling stride: 1 records every phase; n > 1 records one
    /// root phase in n in full, the phases nested in it weighted by n,
    /// and of every other root only its call and its units.
    pub sample_every: u64,
}

impl Default for ProfConfig {
    fn default() -> ProfConfig {
        ProfConfig { sample_every: 1 }
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
    /// Work units charged while this phase was innermost — on an
    /// unsampled root, anywhere in its subtree.
    units: f64,
    /// False on an unsampled root, above which nothing is pushed.
    sampled: bool,
}

/// One thread's profiler state, behind a single thread-local so a call
/// inside an unsampled root costs one thread-local read.
struct ThreadState {
    /// Open phases of this thread, across all contexts, innermost last.
    stack: Vec<OpenPhase>,
    /// Active `(context key, query id)` bindings of this thread,
    /// innermost last (see [`ProfContext::bind_query`]).
    binds: Vec<(usize, u64)>,
    /// Guard-token source. Guards never leave their thread, so tokens
    /// need only be unique per thread.
    tokens: u64,
    /// Reused buffer the paths of recorded phases are built in.
    path: String,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            stack: Vec::new(),
            binds: Vec::new(),
            tokens: 0,
            path: String::new(),
        })
    };
    /// Key of the context whose innermost open phase for the thread's
    /// query is an unsampled root (0 = not known): the one read a phase
    /// inside an unsampled root costs. Set only when that holds, and
    /// cleared whenever the bindings change or an unsampled root leaves
    /// the stack, so a stale value is never read.
    static QUIET: Cell<usize> = const { Cell::new(0) };
}

impl ThreadState {
    /// The query id phases of context `key` opened on this thread
    /// attribute to: the innermost binding (0 = outside any query).
    fn qid(&self, key: usize) -> u64 {
        self.binds
            .iter()
            .rev()
            .find(|&&(k, _)| k == key)
            .map_or(0, |&(_, qid)| qid)
    }

    /// The thread's query id for context `key` and the innermost open
    /// phase of both (`None`: the next phase is a root).
    fn innermost(&mut self, key: usize) -> (u64, Option<&mut OpenPhase>) {
        let qid = self.qid(key);
        let open = self
            .stack
            .iter_mut()
            .rev()
            .find(|p| p.key == key && p.qid == qid);
        (qid, open)
    }

    /// `leaf` under the open phases of context `key` and query `qid` in
    /// `stack[..end]`, `;`-joined in the path buffer. Frames of another
    /// query interleaved on this thread are siblings in time, not
    /// parents in the tree.
    fn path(&mut self, key: usize, qid: u64, end: usize, leaf: &str) -> &str {
        self.path.clear();
        for p in self.stack[..end]
            .iter()
            .filter(|p| p.key == key && p.qid == qid)
        {
            self.path.push_str(p.name);
            self.path.push(PATH_SEP);
        }
        self.path.push_str(leaf);
        &self.path
    }
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
    /// Root ticker: at stride n > 1, every root phase takes one tick
    /// (see [`ProfInner::sample_root`]).
    ticks: AtomicU64,
    /// Query-id source; 0 is reserved for "no query".
    query_ids: AtomicU64,
    /// Dedicated hot counter: calls reaching a base estimator.
    estimator_calls: AtomicU64,
    /// Span mirror: recorded phases also open spans here.
    obs: ObsContext,
    state: Mutex<ProfState>,
}

impl ProfInner {
    /// Context identity on the thread-local stack.
    fn key(&self) -> usize {
        self as *const ProfInner as usize
    }

    /// Push a phase named `name` on this thread's stack; `None` inside
    /// an unsampled root, where nothing is recorded.
    fn open(&self, name: &'static str) -> Option<Open<'_>> {
        let (token, root, sampled) = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let (qid, parent) = t.innermost(self.key());
            let (root, sampled) = match parent {
                Some(p) if !p.sampled => {
                    QUIET.set(self.key());
                    return None;
                }
                Some(_) => (false, true),
                None => (true, self.sample_root()),
            };
            t.tokens += 1;
            let token = t.tokens;
            t.stack.push(OpenPhase {
                key: self.key(),
                qid,
                token,
                name,
                units: 0.0,
                sampled,
            });
            if !sampled {
                QUIET.set(self.key());
            }
            Some((token, root, sampled))
        })?;
        Some(Open {
            inner: self,
            token,
            root,
            start: sampled.then(Instant::now),
            _span: if sampled {
                self.obs.span(name)
            } else {
                SpanGuard::noop()
            },
        })
    }

    /// Whether the root being opened is recorded: one root in each
    /// window of `sample_every` ticks, at a spot that moves from window
    /// to window (Fibonacci hashing), so a workload opening a fixed
    /// number of roots per query does not sample only one of them.
    fn sample_root(&self) -> bool {
        let every = self.config.sample_every;
        if every == 1 {
            return true;
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let spot = (tick / every).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        tick % every == ((spot as u128 * every as u128) >> 64) as u64
    }

    /// Pop the phase `open` opened and commit it.
    fn close(&self, open: &Open<'_>) {
        let wall_ns = open.start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        let key = self.key();
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            // Drained by end_query_id → the token is gone → record nothing.
            let Some(pos) = t
                .stack
                .iter()
                .rposition(|p| p.key == key && p.token == open.token)
            else {
                return;
            };
            let own = t.stack.remove(pos);
            let (path, calls) = if open.root {
                // A root's path is its name: no path is built.
                if !own.sampled {
                    QUIET.set(0);
                }
                (own.name, 1)
            } else {
                let path = t.path(key, own.qid, pos, own.name);
                (path, self.config.sample_every)
            };
            let sampled = open.start.is_some() as u64;
            self.commit(own.qid, path, calls, sampled, wall_ns, own.units);
        });
    }

    /// Add one record at `path` to the cumulative profile and, when
    /// `qid` is active, to that query's profile.
    fn commit(&self, qid: u64, path: &str, calls: u64, sampled: u64, wall_ns: u64, units: f64) {
        let mut state = self.state.lock();
        state.total.add(path, calls, sampled, wall_ns, units);
        if let Some(q) = state.active.get_mut(&qid) {
            q.profile.add(path, calls, sampled, wall_ns, units);
        }
    }
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

    /// An enabled context sampling one root phase in `n` (clamped to
    /// ≥1), without span mirroring.
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

    /// Open a phase; it closes (timed and attributed to the current
    /// path) when the guard drops. A root phase takes the sampling
    /// decision; a nested one follows its root's: recorded with the
    /// stride as weight under a sampled root, a no-op under an unsampled
    /// one (see the crate docs). Names are `&'static str` so opening
    /// never allocates.
    #[inline]
    pub fn phase(&self, name: &'static str) -> ProfPhase<'_> {
        let open = match self.inner.as_deref() {
            Some(inner) if QUIET.get() != inner.key() => inner.open(name),
            _ => None,
        };
        ProfPhase {
            open,
            _thread: PhantomData,
        }
    }

    /// The `;`-joined path of currently open phases of this context on
    /// this thread (empty when none), restricted to the query this
    /// thread currently attributes to — interleaved queries sharing the
    /// thread do not appear in each other's paths.
    pub fn current_path(&self) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return String::new();
        };
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let (qid, end) = (t.qid(inner.key()), t.stack.len());
            let path = t.path(inner.key(), qid, end, "");
            path.strip_suffix(PATH_SEP).unwrap_or(path).to_string()
        })
    }

    /// Charge deterministic work units to the innermost open phase of
    /// this thread *belonging to the query this thread attributes to*
    /// (or to the `(root)` frame when none is open). Charges are exact —
    /// never sampled away: inside an unsampled root they land on the
    /// root. They accumulate lock-free on the thread-local stack entry
    /// and are committed when the phase closes, so
    /// [`ProfContext::total`] sees them once the carrying phase has
    /// ended.
    pub fn charge(&self, units: f64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let unclaimed = THREAD.with(|t| match t.borrow_mut().innermost(inner.key()) {
            (_, Some(p)) => {
                p.units += units;
                None
            }
            (qid, None) => Some(qid),
        });
        if let Some(qid) = unclaimed {
            let mut state = inner.state.lock();
            state.total.charge("(root)", units);
            if let Some(q) = state.active.get_mut(&qid) {
                q.profile.charge("(root)", units);
            }
        }
    }

    /// Record a completed child phase under the current path without
    /// opening a guard — how coordinators attribute work measured
    /// elsewhere (per-morsel and per-worker busy/idle times come from
    /// the pool's stats, not from guards on worker threads). Inside a
    /// sampled root, `calls` is weighted by the stride; inside an
    /// unsampled root only `units` count, charged to the root; with no
    /// phase open it is recorded at the top level as given.
    pub fn record_child(&self, name: &str, calls: u64, wall_ns: u64, units: f64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let (qid, parent) = t.innermost(inner.key());
            let weight = match parent {
                Some(p) if !p.sampled => {
                    p.units += units;
                    return;
                }
                Some(_) => inner.config.sample_every,
                None => 1,
            };
            let end = t.stack.len();
            let path = t.path(inner.key(), qid, end, name);
            inner.commit(qid, path, calls * weight, calls, wall_ns, units);
        });
    }

    /// Record a completed phase at an absolute path. `calls` entries,
    /// all counted as sampled, `wall_ns` total. Deterministic input →
    /// deterministic profile, which is what the folded-stack golden
    /// test is built on.
    pub fn record_at(&self, path: &str, calls: u64, wall_ns: u64, units: f64) {
        if let Some(inner) = self.inner.as_deref() {
            let qid = THREAD.with(|t| t.borrow().qid(inner.key()));
            inner.commit(qid, path, calls, calls, wall_ns, units);
        }
    }

    /// Add `delta` to the named exact event counter (cumulative and,
    /// when the calling thread attributes to an active query,
    /// per-query).
    pub fn bump(&self, counter: &str, delta: u64) {
        if let Some(inner) = self.inner.as_deref() {
            let qid = THREAD.with(|t| t.borrow().qid(inner.key()));
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
        let key = self.inner.as_deref().map_or(0, ProfInner::key);
        if key != 0 {
            QUIET.set(0);
            THREAD.with(|t| t.borrow_mut().binds.push((key, qid)));
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
        let key = inner.key();
        QUIET.set(0);
        // Drain leftover open phases of this context AND this query from
        // this thread's stack. Their guards, if dropped later, find
        // their token gone and record nothing. Frames of other queries
        // stay untouched — the pre-fix drain swept every frame of the
        // context, silently mis-attributing interleaved queries.
        let leaked: Vec<(&'static str, f64)> = THREAD.with(|t| {
            let mut drained = Vec::new();
            t.borrow_mut().stack.retain(|p| {
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

/// RAII binding of one thread to one active query id (see
/// [`ProfContext::bind_query`]); unbinds on drop.
pub struct QueryBind {
    key: usize,
    qid: u64,
}

impl Drop for QueryBind {
    fn drop(&mut self) {
        if self.key != 0 {
            QUIET.set(0);
            THREAD.with(|t| {
                let binds = &mut t.borrow_mut().binds;
                if let Some(pos) = binds
                    .iter()
                    .rposition(|&(k, q)| k == self.key && q == self.qid)
                {
                    binds.remove(pos);
                }
            });
        }
    }
}

/// RAII guard of one open phase; records on drop. It borrows its
/// context and must close on the thread that opened it.
pub struct ProfPhase<'a> {
    /// `None` when nothing is recorded: a disabled context, or a phase
    /// inside an unsampled root.
    open: Option<Open<'a>>,
    /// Tokens are unique per thread only, so the guard is `!Send`.
    _thread: PhantomData<*const ()>,
}

/// What a recording [`ProfPhase`] holds.
struct Open<'a> {
    inner: &'a ProfInner,
    token: u64,
    /// A root counts one call; a phase nested in a sampled root counts
    /// the stride.
    root: bool,
    /// Open time; `None` on an unsampled root, which reads no clock.
    start: Option<Instant>,
    _span: SpanGuard,
}

impl Drop for ProfPhase<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(open) = &self.open {
            open.inner.close(open);
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
                drop(prof.phase("estimate"));
                drop(prof.phase("estimate"));
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
    fn sampling_records_one_root_in_n_and_keeps_units_exact() {
        // Stride 8, 64 roots: one root in each 8 is sampled.
        let prof = ProfContext::sampling(8);
        for _ in 0..64 {
            let _plan = prof.phase("plan");
            prof.charge(0.5);
            let _enu = prof.phase("enumerate");
            for _ in 0..3 {
                let _est = prof.phase("estimate");
                prof.charge(1.0);
            }
            prof.record_child("cost", 1, 10, 2.0);
        }
        let f = prof.total().frames;
        // Root calls are exact; only sampled roots were timed.
        assert_eq!((f["plan"].calls, f["plan"].sampled), (64, 8));
        // Nested calls are the stride times the sampled entries.
        assert_eq!(
            (f["plan;enumerate"].calls, f["plan;enumerate"].sampled),
            (64, 8)
        );
        let est = &f["plan;enumerate;estimate"];
        assert_eq!((est.calls, est.sampled), (8 * 3 * 8, 3 * 8));
        let cost = &f["plan;enumerate;cost"];
        assert_eq!((cost.calls, cost.sampled, cost.wall_ns), (64, 8, 80));
        // Units are exact: sampled roots keep them on their frames, the
        // 56 unsampled ones put their whole subtree's on the root.
        assert_eq!(f["plan;enumerate;estimate"].units, 24.0);
        assert_eq!(f["plan;enumerate;cost"].units, 16.0);
        assert_eq!(f["plan"].units, 8.0 * 0.5 + 56.0 * 5.5);
        let total: f64 = f.values().map(|s| s.units).sum();
        assert_eq!(total, 64.0 * 5.5);
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn sampling_reaches_every_root_kind() {
        // Two roots per query at an even stride: sampling every n-th
        // tick would only ever record the first kind.
        let prof = ProfContext::sampling(64);
        for _ in 0..64 * 16 {
            drop(prof.phase("plan"));
            drop(prof.phase("execute"));
        }
        let f = prof.total().frames;
        assert_eq!(f["plan"].sampled + f["execute"].sampled, 32);
        assert!(f["plan"].sampled > 0 && f["execute"].sampled > 0, "{f:?}");
    }

    #[test]
    fn interleaved_queries_take_their_own_sampling_decision() {
        // Stride 2: the first root is sampled, the second is not, even
        // though both are open at once on one thread.
        let prof = ProfContext::sampling(2);
        let qa = prof.begin_query_id("qa");
        let qb = prof.begin_query_id("qb");
        let bind_a = prof.bind_query(qa);
        let root_a = prof.phase("exec_a");
        let parked_b = {
            let _bind_b = prof.bind_query(qb);
            let root_b = prof.phase("exec_b");
            let _scan = prof.phase("scan");
            prof.charge(3.0);
            root_b
        };
        {
            let _scan = prof.phase("scan");
            prof.charge(1.0);
        }
        drop(root_a);
        drop(bind_a);
        {
            let _bind_b = prof.bind_query(qb);
            assert_eq!(prof.current_path(), "exec_b");
            drop(parked_b);
        }
        let a = prof.end_query_id(qa).unwrap().profile.frames;
        let b = prof.end_query_id(qb).unwrap().profile.frames;
        assert_eq!((a["exec_a"].calls, a["exec_a"].sampled), (1, 1));
        assert_eq!((a["exec_a;scan"].calls, a["exec_a;scan"].sampled), (2, 1));
        assert_eq!(a["exec_a;scan"].units, 1.0);
        assert_eq!((b["exec_b"].calls, b["exec_b"].sampled), (1, 0));
        assert_eq!(b["exec_b"].units, 3.0);
        assert_eq!(b.len(), 1, "{b:?}");
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
