//! Deterministic, seeded fault injection for learned components.
//!
//! A [`FaultPlan`] decides — purely from a seed and the per-plan call
//! index — whether each call to a wrapped model misbehaves and how. The
//! same seed always produces the same fault sequence, so every robustness
//! property in this workspace is reproducible offline: a chaos test that
//! fails once fails forever, under the same seed.
//!
//! Faults model the real failure modes of learned estimators and cost
//! models: panics inside inference code, NaN/∞/negative outputs from
//! numerically unstable networks, latency stalls from oversized models or
//! contended accelerators, and silently wrong-by-orders-of-magnitude
//! estimates from distribution drift. [`FaultyCardSource`] applies a plan
//! to any cardinality source; a learned estimator is wrapped once it is
//! a source (`lqo_card::estimator::EstimatorCardSource`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lqo_engine::optimizer::CardSource;
use lqo_engine::{SpjQuery, TableSet};

/// One way a learned component can misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The model panics mid-inference.
    Panic,
    /// The model returns `NaN`.
    Nan,
    /// The model returns `+∞`.
    Infinite,
    /// The model returns a negative estimate.
    Negative,
    /// The model stalls for the plan's configured stall duration, then
    /// answers correctly — a latency fault, not a value fault.
    Stall,
    /// The model answers wrong by a factor of `10^k` (k may be negative).
    WrongBy(i32),
}

impl FaultKind {
    /// Every kind, with representative wrong-by exponents.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Panic,
        FaultKind::Nan,
        FaultKind::Infinite,
        FaultKind::Negative,
        FaultKind::Stall,
        FaultKind::WrongBy(4),
        FaultKind::WrongBy(-4),
    ];

    /// Short stable label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Nan => "nan",
            FaultKind::Infinite => "inf",
            FaultKind::Negative => "negative",
            FaultKind::Stall => "stall",
            FaultKind::WrongBy(k) if k >= 0 => "wrong-high",
            FaultKind::WrongBy(_) => "wrong-low",
        }
    }

    /// Apply this fault to a correct value. Panics for [`FaultKind::Panic`]
    /// (that is the fault); sleeps for [`FaultKind::Stall`].
    pub fn corrupt(self, value: f64, stall: Duration) -> f64 {
        match self {
            FaultKind::Panic => panic!("injected model fault: panic"),
            FaultKind::Nan => f64::NAN,
            FaultKind::Infinite => f64::INFINITY,
            FaultKind::Negative => -value.abs() - 1.0,
            FaultKind::Stall => {
                std::thread::sleep(stall);
                value
            }
            FaultKind::WrongBy(k) => value * 10f64.powi(k),
        }
    }
}

/// Shape of a fault campaign.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the deterministic per-call fault decisions.
    pub seed: u64,
    /// Probability that any single call faults, in `[0, 1]`.
    pub rate: f64,
    /// The kinds to draw from (uniformly, by call hash). Empty = no faults.
    pub kinds: Vec<FaultKind>,
    /// How long a [`FaultKind::Stall`] fault sleeps.
    pub stall: Duration,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0x5EED,
            rate: 0.0,
            kinds: FaultKind::ALL.to_vec(),
            stall: Duration::from_millis(2),
        }
    }
}

impl FaultConfig {
    /// A campaign injecting every fault kind at `rate` under `seed`.
    pub fn all_kinds(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            rate,
            ..FaultConfig::default()
        }
    }
}

/// SplitMix64: a fast, well-distributed hash of the (seed, index) pair.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic schedule of faults over a call sequence.
///
/// Each call to [`FaultPlan::next_fault`] consumes one call index; whether
/// that index faults (and with which kind) is a pure function of the seed
/// and the index, so interleaving other work never changes the schedule.
pub struct FaultPlan {
    cfg: FaultConfig,
    calls: AtomicU64,
    faults: AtomicU64,
}

impl FaultPlan {
    /// A plan over a campaign configuration.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            calls: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        }
    }

    /// Whether call index `idx` faults, and how — without consuming a call.
    pub fn fault_at(&self, idx: u64) -> Option<FaultKind> {
        if self.cfg.kinds.is_empty() || self.cfg.rate <= 0.0 {
            return None;
        }
        let h = splitmix64(self.cfg.seed ^ idx.wrapping_mul(0xA076_1D64_78BD_642F));
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.cfg.rate {
            let pick = splitmix64(h) as usize % self.cfg.kinds.len();
            Some(self.cfg.kinds[pick])
        } else {
            None
        }
    }

    /// Consume the next call index and return its fault, if any.
    pub fn next_fault(&self) -> Option<FaultKind> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed);
        let fault = self.fault_at(idx);
        if fault.is_some() {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Calls consumed so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Corrupt `value` per the next call's scheduled fault (identity when
    /// the call is clean). Panics/stalls exactly as the schedule says.
    pub fn apply(&self, value: f64) -> f64 {
        match self.next_fault() {
            Some(kind) => kind.corrupt(value, self.cfg.stall),
            None => value,
        }
    }
}

/// A [`CardSource`] that injects scheduled faults over an inner source.
pub struct FaultyCardSource {
    inner: std::sync::Arc<dyn CardSource>,
    plan: std::sync::Arc<FaultPlan>,
}

impl FaultyCardSource {
    /// Wrap `inner`, faulting per `plan`.
    pub fn new(
        inner: std::sync::Arc<dyn CardSource>,
        plan: std::sync::Arc<FaultPlan>,
    ) -> FaultyCardSource {
        FaultyCardSource { inner, plan }
    }
}

impl CardSource for FaultyCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        match self.plan.next_fault() {
            // Fault before the inner call so Panic costs nothing.
            Some(kind) => kind.corrupt(
                match kind {
                    FaultKind::Panic => 0.0,
                    _ => self.inner.cardinality(query, set),
                },
                self.plan.cfg.stall,
            ),
            None => self.inner.cardinality(query, set),
        }
    }

    fn name(&self) -> &str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let a = FaultPlan::new(FaultConfig::all_kinds(7, 0.5));
        let b = FaultPlan::new(FaultConfig::all_kinds(7, 0.5));
        let seq_a: Vec<_> = (0..200).map(|_| a.next_fault()).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.next_fault()).collect();
        assert_eq!(seq_a, seq_b);
        let c = FaultPlan::new(FaultConfig::all_kinds(8, 0.5));
        let seq_c: Vec<_> = (0..200).map(|_| c.next_fault()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn rate_is_roughly_honored() {
        let plan = FaultPlan::new(FaultConfig::all_kinds(42, 0.2));
        let n = 5000;
        let faults = (0..n).filter(|_| plan.next_fault().is_some()).count();
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "observed fault rate {rate}");
        assert_eq!(plan.calls(), n);
        assert_eq!(plan.faults(), faults as u64);
    }

    #[test]
    fn zero_rate_never_faults_full_rate_always_does() {
        let none = FaultPlan::new(FaultConfig::all_kinds(1, 0.0));
        assert!((0..100).all(|_| none.next_fault().is_none()));
        let all = FaultPlan::new(FaultConfig::all_kinds(1, 1.0));
        assert!((0..100).all(|_| all.next_fault().is_some()));
    }

    #[test]
    fn corrupt_produces_each_failure_mode() {
        let stall = Duration::from_millis(0);
        assert!(FaultKind::Nan.corrupt(5.0, stall).is_nan());
        assert_eq!(FaultKind::Infinite.corrupt(5.0, stall), f64::INFINITY);
        assert!(FaultKind::Negative.corrupt(5.0, stall) < 0.0);
        assert_eq!(FaultKind::WrongBy(2).corrupt(5.0, stall), 500.0);
        assert_eq!(FaultKind::WrongBy(-1).corrupt(5.0, stall), 0.5);
        assert_eq!(FaultKind::Stall.corrupt(5.0, stall), 5.0);
        let panicked = std::panic::catch_unwind(|| FaultKind::Panic.corrupt(5.0, stall)).is_err();
        assert!(panicked);
    }
}
