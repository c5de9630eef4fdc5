//! Re-optimization holds no more heap than counting execution: the
//! checkpointed executor steps through the counting, slot-pruned step
//! seam and drops each intermediate once its consumer has run, so a
//! switched query peaks where `Executor::execute` peaks — not where
//! `execute_collect`, which materializes every slot of the answer,
//! does. A counting global allocator tracks the live heap of the test
//! thread (every execution below runs in-thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::InjectedCardSource;
use lqo_engine::query::parse_query;
use lqo_engine::{
    CardSource, CatalogStats, ExecConfig, Executor, JoinAlgo, PhysNode, TableSet,
    TraditionalCardSource,
};
use lqo_reopt::{ReoptConfig, ReoptExecutor};

/// Slack for what re-optimization itself holds: the runtime tree, the
/// re-planning pass, the report.
const SLACK: usize = 64 * 1024;

thread_local! {
    /// Bytes this thread holds.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most `LIVE` reached since the last reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(n: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + n;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

/// The system allocator, tracking each thread's live and peak bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-locals without destructor, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak bytes this thread held above its starting point while running `f`.
fn peak_heap(f: impl FnOnce()) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    f();
    PEAK.with(Cell::get) - base
}

#[test]
fn switched_reopt_peaks_like_counting_execution() {
    let catalog = Arc::new(stats_like(90, 7).unwrap());
    let stats = Arc::new(CatalogStats::build_default(&catalog));
    let native: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
    // Users with their comments and votes: the answer is large, every
    // intermediate small.
    let q = parse_query(
        "SELECT COUNT(*) FROM users u, comments c, votes v \
         WHERE c.user_id = u.id AND v.user_id = u.id",
    )
    .unwrap();
    let (u, c, v) = (0, 1, 2);
    let plan = PhysNode::join(
        JoinAlgo::Hash,
        PhysNode::join(JoinAlgo::Hash, PhysNode::scan(u), PhysNode::scan(v)),
        PhysNode::scan(c),
    );
    // The plan believed `v` held one row: its scan's checkpoint trips,
    // and the residual joins `c` to `u` before the kept `v`.
    let poisoned = InjectedCardSource::new(native);
    poisoned.inject(&q, TableSet::singleton(v), 1.0);
    let reopt = ReoptExecutor::new(
        &catalog,
        ExecConfig::default(),
        Arc::new(poisoned),
        ReoptConfig {
            q_error_threshold: 4.0,
            confirm_streak: 1,
            ..Default::default()
        },
    );
    let plain = Executor::with_defaults(&catalog);

    let counted = peak_heap(|| {
        plain.execute(&q, &plan).unwrap();
    });
    let collected = peak_heap(|| {
        plain.execute_collect(&q, &plan).unwrap();
    });
    let mut report = None;
    let reopted = peak_heap(|| {
        report = Some(reopt.execute(&q, &plan).unwrap().1);
    });
    let report = report.unwrap();
    assert_eq!(report.switches, 1, "events: {:?}", report.events);
    assert_ne!(report.plan, plan);
    let ran = peak_heap(|| {
        plain.execute(&q, &report.plan).unwrap();
    });
    assert!(
        collected >= 10 * counted,
        "the fixture no longer separates collecting from counting: {collected} vs {counted}"
    );
    assert!(
        reopted <= counted + SLACK,
        "reopt peaked at {reopted} B, execute at {counted} B"
    );
    assert!(
        reopted <= ran + SLACK,
        "reopt peaked at {reopted} B, execute of the executed plan at {ran} B"
    );
    assert!(
        reopted < collected,
        "reopt peaked at {reopted} B, execute_collect at {collected} B"
    );
}
