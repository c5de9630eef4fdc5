//! # lqo-obs — query-lifecycle observability
//!
//! A small, dependency-light observability layer threaded through the
//! learned-qo stack. Three pillars:
//!
//! * **Spans** ([`span::Tracer`]) — monotonic wall-clock timing of nested
//!   regions (parse → plan → execute → feedback, and anything inside).
//! * **Metrics** ([`metrics::MetricsRegistry`]) — named counters, gauges,
//!   and log-bucketed histograms. No global state: every registry is an
//!   explicit value owned by an [`ObsContext`].
//! * **Plan provenance** ([`trace::QueryTrace`]) — one structured record
//!   per query covering what the planner saw (cardinality lookups, cost
//!   evaluations, subproblems enumerated, chosen hints), what the executor
//!   did (per-operator true cardinalities and work units), and which
//!   driver made the decision.
//!
//! The whole layer is off by default. [`ObsContext::disabled`] carries no
//! allocation and every recording call on it is a branch on a `None` —
//! the hot path of an instrumented component does not pay for
//! observability it is not using.
//!
//! Metric naming convention: `lqo.<component>.<metric>` with `_ns`,
//! `_rows`, or `_units` suffixes for histograms, e.g.
//! `lqo.exec.queries`, `lqo.exec.work_units`, `lqo.plan.subproblems`,
//! `lqo.card.qerror`, `lqo.pilot.decision_ns`.

pub mod export;
pub mod metrics;
pub mod prom;
pub mod render;
pub mod span;
pub mod trace;

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

use metrics::MetricsRegistry;
use span::{SpanGuard, Tracer};
use trace::QueryTrace;

/// Shared handle to one observability session.
///
/// Cheap to clone (an `Option<Arc>`); a disabled context is a `None` and
/// every operation on it returns immediately. Components in the stack
/// hold a clone and record through it; whoever created the enabled
/// context harvests spans, metrics, and finished [`QueryTrace`]s.
#[derive(Clone, Default)]
pub struct ObsContext {
    inner: Option<Arc<ObsInner>>,
}

struct ObsInner {
    tracer: Tracer,
    metrics: MetricsRegistry,
    /// The query currently being traced (one at a time per context).
    current: Mutex<Option<QueryTrace>>,
    /// Completed query traces, in completion order.
    finished: Mutex<Vec<QueryTrace>>,
}

impl ObsContext {
    /// An enabled context with an empty tracer, registry, and trace log.
    pub fn enabled() -> ObsContext {
        ObsContext {
            inner: Some(Arc::new(ObsInner {
                tracer: Tracer::enabled(),
                metrics: MetricsRegistry::new(),
                current: Mutex::new(None),
                finished: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op context: all recording calls compile to a `None` check.
    pub fn disabled() -> ObsContext {
        ObsContext { inner: None }
    }

    /// Whether this context records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a named span; it closes (and records) when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.inner {
            Some(inner) => inner.tracer.span(name),
            None => SpanGuard::noop(),
        }
    }

    /// The span tracer, if enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.as_deref().map(|i| &i.tracer)
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// Add `delta` to the named counter (no-op when disabled).
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.inc_counter(name, delta);
        }
    }

    /// Set the named gauge (no-op when disabled).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set_gauge(name, value);
        }
    }

    /// Record one observation in the named histogram (no-op when disabled).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, value);
        }
    }

    /// Start tracing a query. Any previously current trace is finalized
    /// into the finished log first, so a panicking caller cannot lose it.
    pub fn begin_query(&self, query: &str) {
        if let Some(inner) = &self.inner {
            let mut cur = inner.current.lock();
            if let Some(prev) = cur.take() {
                inner.finished.lock().push(prev);
            }
            *cur = Some(QueryTrace::new(query));
        }
    }

    /// Mutate the in-flight query trace (no-op when disabled or when no
    /// query is being traced). This is how instrumented components deep
    /// in the stack attach planner and executor provenance.
    pub fn with_query<F: FnOnce(&mut QueryTrace)>(&self, f: F) {
        if let Some(inner) = &self.inner {
            if let Some(trace) = inner.current.lock().as_mut() {
                f(trace);
            }
        }
    }

    /// Time a named query phase (parse/plan/execute/feedback): runs `f`,
    /// records a span plus a phase entry on the current trace, and
    /// returns `f`'s output. When disabled this is just `f()`.
    pub fn phase<T, F: FnOnce() -> T>(&self, name: &str, f: F) -> T {
        match &self.inner {
            None => f(),
            Some(inner) => {
                let _span = inner.tracer.span(name);
                let start = Instant::now();
                let out = f();
                let elapsed_ns = start.elapsed().as_nanos() as u64;
                if let Some(trace) = inner.current.lock().as_mut() {
                    trace.record_phase(name, elapsed_ns);
                }
                out
            }
        }
    }

    /// Finish the current query trace and move it to the finished log.
    /// Returns a clone of the finalized trace.
    pub fn end_query(&self) -> Option<QueryTrace> {
        let inner = self.inner.as_deref()?;
        let trace = inner.current.lock().take()?;
        inner.finished.lock().push(trace.clone());
        Some(trace)
    }

    /// All finished query traces so far (clones; the log is kept).
    pub fn finished_traces(&self) -> Vec<QueryTrace> {
        match &self.inner {
            Some(inner) => inner.finished.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Drain the finished-trace log, returning the traces.
    pub fn take_finished_traces(&self) -> Vec<QueryTrace> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.finished.lock()),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_is_inert() {
        let obs = ObsContext::disabled();
        assert!(!obs.is_enabled());
        obs.count("lqo.test.counter", 5);
        obs.observe("lqo.test.hist", 1.0);
        obs.begin_query("SELECT 1");
        obs.with_query(|t| t.planner.subproblems += 1);
        let out = obs.phase("plan", || 42);
        assert_eq!(out, 42);
        assert!(obs.end_query().is_none());
        assert!(obs.finished_traces().is_empty());
        assert!(obs.metrics().is_none());
        assert!(obs.tracer().is_none());
        drop(obs.span("anything"));
    }

    #[test]
    fn query_lifecycle_collects_phases_and_provenance() {
        let obs = ObsContext::enabled();
        obs.begin_query("SELECT * FROM t0, t1");
        obs.phase("parse", || ());
        obs.phase("plan", || {
            obs.with_query(|t| {
                t.planner.algo = Some("dp".into());
                t.planner.subproblems = 7;
            });
        });
        obs.with_query(|t| t.driver = Some("BaoDriver".into()));
        let trace = obs.end_query().expect("trace");
        assert_eq!(trace.query, "SELECT * FROM t0, t1");
        assert_eq!(trace.driver.as_deref(), Some("BaoDriver"));
        assert_eq!(trace.planner.algo.as_deref(), Some("dp"));
        assert_eq!(trace.planner.subproblems, 7);
        let names: Vec<_> = trace.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["parse", "plan"]);
        assert_eq!(obs.finished_traces().len(), 1);
        assert_eq!(obs.take_finished_traces().len(), 1);
        assert!(obs.finished_traces().is_empty());
    }

    #[test]
    fn begin_query_flushes_unfinished_predecessor() {
        let obs = ObsContext::enabled();
        obs.begin_query("q1");
        obs.begin_query("q2");
        obs.end_query();
        let all = obs.finished_traces();
        let queries: Vec<_> = all.iter().map(|t| t.query.as_str()).collect();
        assert_eq!(queries, ["q1", "q2"]);
    }

    #[test]
    fn clones_share_state() {
        let obs = ObsContext::enabled();
        let clone = obs.clone();
        clone.count("lqo.shared", 3);
        obs.count("lqo.shared", 4);
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.shared"), Some(7));
    }
}
