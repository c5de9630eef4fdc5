//! A circuit breaker with call-count cooldowns and exponential backoff.
//!
//! Classic three-state breaker (closed → open → half-open), with one
//! deliberate twist: cooldowns are measured in *calls*, not wall-clock
//! time. A planner makes model calls at a high, workload-dependent rate,
//! and counting calls keeps every breaker trajectory deterministic for a
//! given call sequence — the property the chaos tests and the seeded E9
//! experiment rely on. The backoff doubles the cooldown each time a
//! half-open probe fails, up to a cap, exactly like time-based breakers
//! double their retry interval.

use parking_lot::Mutex;

/// Breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive faults (in the closed state) that open the breaker.
    pub failure_threshold: u32,
    /// Base cooldown: calls the breaker stays open before half-opening.
    pub cooldown_calls: u64,
    /// Cap on the backoff exponent: cooldown = `cooldown_calls << level`.
    pub max_backoff_level: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_calls: 16,
            max_backoff_level: 6,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls pass through.
    Closed,
    /// Tripped: calls are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next call is a probe.
    HalfOpen,
}

impl BreakerState {
    /// Numeric code for gauges: 0 closed, 1 half-open, 2 open.
    pub fn code(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Open => "open",
        }
    }
}

/// A point-in-time breaker snapshot, cheap to hand to health monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerStats {
    /// Current state.
    pub state: BreakerState,
    /// Current backoff exponent.
    pub backoff_level: u32,
    /// Lifetime open transitions.
    pub opens: u64,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    backoff_level: u32,
    cooldown_remaining: u64,
    opens: u64,
}

/// A thread-safe per-component circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker under `cfg`.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                backoff_level: 0,
                cooldown_remaining: 0,
                opens: 0,
            }),
        }
    }

    /// Current state (without consuming a call).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Current backoff exponent.
    pub fn backoff_level(&self) -> u32 {
        self.inner.lock().backoff_level
    }

    /// Times the breaker has transitioned to open.
    pub fn opens(&self) -> u64 {
        self.inner.lock().opens
    }

    /// A consistent snapshot of state, backoff level, and open count.
    pub fn stats(&self) -> BreakerStats {
        let g = self.inner.lock();
        BreakerStats {
            state: g.state,
            backoff_level: g.backoff_level,
            opens: g.opens,
        }
    }

    /// Gate one call: `true` means the protected component should be
    /// attempted (closed, or a half-open probe); `false` means skip it and
    /// use the fallback. Rejected calls tick the cooldown down, so the
    /// breaker half-opens after `cooldown_calls << backoff_level`
    /// rejections.
    pub fn allow(&self) -> bool {
        let mut g = self.inner.lock();
        match g.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                g.cooldown_remaining = g.cooldown_remaining.saturating_sub(1);
                if g.cooldown_remaining == 0 {
                    g.state = BreakerState::HalfOpen;
                }
                false
            }
        }
    }

    /// Report a successful guarded call. A successful half-open probe
    /// closes the breaker and resets the backoff schedule.
    pub fn record_success(&self) {
        let mut g = self.inner.lock();
        g.consecutive_failures = 0;
        if g.state == BreakerState::HalfOpen {
            g.state = BreakerState::Closed;
            g.backoff_level = 0;
        }
    }

    /// Report a faulted guarded call. In the closed state this counts
    /// toward the failure threshold; a failed half-open probe re-opens
    /// immediately with a doubled cooldown. Returns whether this call
    /// opened the breaker — decided under the breaker's lock, so of any
    /// number of concurrent callers exactly one sees each opening.
    pub fn record_failure(&self) -> bool {
        let mut g = self.inner.lock();
        match g.state {
            BreakerState::Closed => {
                g.consecutive_failures += 1;
                let opens = g.consecutive_failures >= self.cfg.failure_threshold;
                if opens {
                    Self::open(&self.cfg, &mut g);
                }
                opens
            }
            BreakerState::HalfOpen => {
                g.backoff_level = (g.backoff_level + 1).min(self.cfg.max_backoff_level);
                Self::open(&self.cfg, &mut g);
                true
            }
            BreakerState::Open => false,
        }
    }

    fn open(cfg: &BreakerConfig, g: &mut Inner) {
        g.state = BreakerState::Open;
        g.consecutive_failures = 0;
        g.cooldown_remaining = cfg.cooldown_calls << g.backoff_level;
        g.opens += 1;
    }
}

impl Default for CircuitBreaker {
    fn default() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_calls: 4,
            max_backoff_level: 2,
        }
    }

    #[test]
    fn opens_after_k_consecutive_failures() {
        let b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allow());
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = CircuitBreaker::new(cfg());
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_opens_after_cooldown_and_probe_success_closes() {
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure();
        }
        // 4 rejected calls tick the cooldown to zero.
        for _ in 0..4 {
            assert!(!b.allow());
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow()); // the probe
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.backoff_level(), 0);
    }

    fn rejections_until_half_open(b: &CircuitBreaker) -> u64 {
        let mut n = 0;
        while b.state() == BreakerState::Open {
            assert!(!b.allow());
            n += 1;
        }
        n
    }

    #[test]
    fn failed_probe_doubles_the_cooldown_up_to_the_cap() {
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure();
        }
        // Cooldowns: 4 initially, then 8, 16, and capped at 16.
        assert_eq!(rejections_until_half_open(&b), 4);
        for expected in [8u64, 16, 16] {
            assert!(b.allow()); // the probe
            b.record_failure(); // probe fails
            assert_eq!(rejections_until_half_open(&b), expected);
        }
        assert_eq!(b.backoff_level(), 2);
        assert_eq!(b.opens(), 4);
    }

    #[test]
    fn state_codes_for_gauges() {
        assert_eq!(BreakerState::Closed.code(), 0.0);
        assert_eq!(BreakerState::HalfOpen.code(), 1.0);
        assert_eq!(BreakerState::Open.code(), 2.0);
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }

    #[test]
    fn record_failure_reports_the_call_that_opened() {
        let b = CircuitBreaker::new(cfg());
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure()); // the third opens
        assert!(!b.record_failure()); // already open
        assert_eq!(rejections_until_half_open(&b), 4);
        assert!(b.allow()); // the probe
        assert!(b.record_failure()); // a failed probe re-opens
        assert_eq!(b.opens(), 2);
    }

    #[test]
    fn concurrent_failures_report_each_opening_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_calls: 3,
            max_backoff_level: 2,
        });
        let reported = AtomicU64::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (b, reported, start) = (&b, &reported, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..2_000u64 {
                        match (i + t) % 5 {
                            0 => b.record_success(),
                            1 | 2 => {
                                if b.record_failure() {
                                    reported.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                b.allow();
                            }
                        }
                    }
                });
            }
        });
        let opens = b.opens();
        assert!(opens > 0, "the schedule never opened the breaker");
        assert_eq!(reported.load(Ordering::Relaxed), opens);
    }

    #[test]
    fn stats_snapshot_is_consistent() {
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure();
        }
        let s = b.stats();
        assert_eq!(s.state, BreakerState::Open);
        assert_eq!(s.opens, 1);
        assert_eq!(s.backoff_level, 0);
    }
}
