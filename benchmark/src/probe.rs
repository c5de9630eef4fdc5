//! Measuring a layer from outside: a timing wrapper around any
//! `CardSource`, and executor passes the traced run adds beside the timed
//! requests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lqo_engine::exec::batch::DEFAULT_BATCH_SIZE;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{
    Catalog, ExecConfig, ExecMode, Executor, PhysNode, Relation, SpjQuery, TableSet, WorkMeter,
};

use crate::templates::Template;
use crate::trace::{Tracer, NONE};

/// The mode the closed-loop workloads execute in.
pub const BATCHED: ExecMode = ExecMode::Batched {
    batch_size: DEFAULT_BATCH_SIZE,
};

/// Counts every call into the wrapped source and, when given a span name,
/// records one span per call while the tracer is on.
pub struct TimingCardSource {
    inner: Arc<dyn CardSource>,
    span: Option<&'static str>,
    tracer: Arc<Tracer>,
    calls: AtomicU64,
}

impl TimingCardSource {
    pub fn new(
        inner: Arc<dyn CardSource>,
        span: Option<&'static str>,
        tracer: Arc<Tracer>,
    ) -> TimingCardSource {
        TimingCardSource {
            inner,
            span,
            tracer,
            calls: AtomicU64::new(0),
        }
    }

    /// Calls so far. Relaxed: a statistic that publishes no other data.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl CardSource for TimingCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match self.span {
            Some(name) => self
                .tracer
                .span(name, NONE, || self.inner.cardinality(query, set)),
            None => self.inner.cardinality(query, set),
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

pub fn executor(catalog: &Catalog, mode: ExecMode, max_work: Option<f64>) -> Executor<'_> {
    Executor::new(
        catalog,
        ExecConfig {
            mode,
            max_work,
            ..ExecConfig::default()
        },
    )
}

/// Work units per millisecond of `ExecMode::Serial` over each template's
/// native plan, and the digest of every output relation: the serving and
/// pilot paths step serially, so this is their executor speed.
pub fn serial_pass(catalog: &Catalog, templates: &[Template]) -> (f64, Vec<u64>) {
    let serial = executor(catalog, ExecMode::Serial, None);
    let (mut work, mut secs) = (0.0, 0.0);
    let digests = templates
        .iter()
        .map(|t| {
            let start = Instant::now();
            let (result, rel) = serial
                .execute_collect(&t.query, &t.native_plan)
                .expect("serial execution of a template's native plan");
            secs += start.elapsed().as_secs_f64();
            work += result.work;
            assert_eq!(result.count, t.expected, "serial answer of {}", t.query);
            rel.digest()
        })
        .collect();
    (work / (secs * 1e3), digests)
}

/// Digest of each template's batched output relation.
pub fn batched_digests(catalog: &Catalog, templates: &[Template]) -> Vec<u64> {
    let batched = executor(catalog, BATCHED, None);
    templates
        .iter()
        .map(|t| {
            batched
                .execute_collect(&t.query, &t.native_plan)
                .expect("batched execution of a template's native plan")
                .1
                .digest()
        })
        .collect()
}

/// Run `plan` one operator at a time through the executor's step seam,
/// one span per step, so scans and joins can be told apart from outside.
pub fn stepped(
    ex: &Executor<'_>,
    query: &SpjQuery,
    plan: &PhysNode,
    meter: &mut WorkMeter,
    tracer: &Tracer,
) -> Relation {
    match plan {
        PhysNode::Scan { pos } => tracer.span("engine.exec.scan_step", NONE, || {
            ex.exec_scan_step(query, *pos, meter)
                .expect("scan step of a checked plan")
        }),
        PhysNode::Join { algo, left, right } => {
            let l = stepped(ex, query, left, meter, tracer);
            let r = stepped(ex, query, right, meter, tracer);
            tracer.span("engine.exec.join_step", NONE, || {
                ex.exec_join_step(query, *algo, l, r, meter)
                    .expect("join step of a checked plan")
            })
        }
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
