//! Morsel partitioning and the shared per-query run state.
//!
//! A *morsel* is a contiguous range of input indices (base-table rows for
//! scans, input tuples for join sides) small enough to be cache-resident.
//! Workers pull morsel indices from a shared atomic counter, so scheduling
//! is dynamic, but every morsel's *output* is stitched back together in
//! morsel index order — which is what makes the pool runner's output
//! byte-identical to the in-thread runner's (see the determinism argument
//! in DESIGN.md §11).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

/// Split `0..n` into contiguous ranges of at most `morsel_rows` indices.
///
/// The partition depends only on `n` and `morsel_rows` — never on thread
/// count or timing — so the set of morsels (and therefore the
/// concatenation of their outputs) is deterministic.
pub(crate) fn morsels(n: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    let mut out = Vec::with_capacity(n.div_ceil(step));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + step).min(n);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Relative + absolute slack applied before tripping the approximate
/// budget. The worker-side work accumulator sums the same charges as the
/// exact meter but in a different association order, so it can differ
/// from the exact value by float rounding. The slack guarantees we only
/// cancel when the exact meter is certain to exceed the limit too, keeping
/// budget outcomes identical across execution modes.
const BUDGET_SLACK_REL: f64 = 1e-9;
const BUDGET_SLACK_ABS: f64 = 1e-6;

/// Shared state for one parallel query execution: cooperative
/// cancellation, the approximate work accumulator that makes morsel
/// dispatch budget-aware, contained worker faults, and the global morsel
/// sequence used for deterministic fault injection.
pub(crate) struct SharedRun {
    /// Set when workers should stop pulling morsels (budget or fault).
    cancelled: AtomicBool,
    /// Set when the approximate work accumulator exceeded the budget.
    budget_tripped: AtomicBool,
    /// Operator label of a contained worker panic, if one occurred.
    fault: Mutex<Option<String>>,
    /// Approximate accumulated work, stored as `f64::to_bits`. Seeded
    /// with the exact meter value after every exact charge; workers add
    /// their morsel-local output work on top.
    work_bits: AtomicU64,
    /// The work budget, if any.
    limit: Option<f64>,
    /// Global dispatch sequence number across all operators of the run.
    morsel_seq: AtomicU64,
    /// Fault injection: panic inside the morsel with this sequence number.
    panic_on_morsel: Option<u64>,
}

impl SharedRun {
    pub(crate) fn new(limit: Option<f64>, panic_on_morsel: Option<u64>) -> SharedRun {
        SharedRun {
            cancelled: AtomicBool::new(false),
            budget_tripped: AtomicBool::new(false),
            fault: Mutex::new(None),
            work_bits: AtomicU64::new(0f64.to_bits()),
            limit,
            morsel_seq: AtomicU64::new(0),
            panic_on_morsel,
        }
    }

    /// Reset the approximate accumulator to the exact meter value. Called
    /// by the coordinator before every output-charging dispatch so the
    /// approximation never drifts across operators.
    pub(crate) fn seed_work(&self, exact: f64) {
        self.work_bits.store(exact.to_bits(), Ordering::Relaxed);
    }

    /// Add `w` to the approximate accumulator; trips cancellation when the
    /// budget is exceeded beyond float-rounding doubt.
    pub(crate) fn add_approx(&self, w: f64) {
        let mut cur = self.work_bits.load(Ordering::Relaxed);
        let total = loop {
            let total = f64::from_bits(cur) + w;
            match self.work_bits.compare_exchange_weak(
                cur,
                total.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break total,
                Err(seen) => cur = seen,
            }
        };
        if let Some(lim) = self.limit {
            if total > lim * (1.0 + BUDGET_SLACK_REL) + BUDGET_SLACK_ABS {
                self.budget_tripped.store(true, Ordering::Relaxed);
                self.cancelled.store(true, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    pub(crate) fn budget_tripped(&self) -> bool {
        self.budget_tripped.load(Ordering::Relaxed)
    }

    pub(crate) fn limit(&self) -> Option<f64> {
        self.limit
    }

    /// Record a contained worker panic and stop the run.
    pub(crate) fn set_fault(&self, op: &str) {
        let mut slot = self.fault.lock();
        if slot.is_none() {
            *slot = Some(op.to_string());
        }
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub(crate) fn take_fault(&self) -> Option<String> {
        self.fault.lock().take()
    }

    /// Next global morsel sequence number.
    pub(crate) fn next_seq(&self) -> u64 {
        self.morsel_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Should the morsel with sequence number `seq` panic (fault injection)?
    pub(crate) fn should_panic(&self, seq: u64) -> bool {
        self.panic_on_morsel == Some(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_range_contiguously() {
        for n in [0usize, 1, 7, 100, 65_536, 65_537] {
            for step in [1usize, 8, 4096] {
                let ms = morsels(n, step);
                let mut expect = 0;
                for m in &ms {
                    assert_eq!(m.start, expect);
                    assert!(m.len() <= step && !m.is_empty());
                    expect = m.end;
                }
                assert_eq!(expect, n);
            }
        }
    }

    #[test]
    fn budget_trips_only_beyond_slack() {
        let s = SharedRun::new(Some(100.0), None);
        s.seed_work(0.0);
        s.add_approx(100.0);
        assert!(!s.budget_tripped(), "exactly at limit must not trip");
        s.add_approx(1.0);
        assert!(s.budget_tripped());
        assert!(s.is_cancelled());
    }

    #[test]
    fn fault_is_first_writer_wins() {
        let s = SharedRun::new(None, None);
        s.set_fault("HashJoin");
        s.set_fault("Scan");
        assert_eq!(s.take_fault().as_deref(), Some("HashJoin"));
        assert!(s.is_cancelled());
    }

    #[test]
    fn injected_panic_matches_sequence() {
        let s = SharedRun::new(None, Some(2));
        assert!(!s.should_panic(s.next_seq()));
        assert!(!s.should_panic(s.next_seq()));
        assert!(s.should_panic(s.next_seq()));
    }
}
