//! Metrics: named counters, gauges, and log-bucketed histograms.
//!
//! A [`MetricsRegistry`] is a plain value (no global state) guarded by
//! `parking_lot` mutexes, so one registry can be shared across the stack
//! through an `ObsContext`. Histograms bucket by powers of two, which is
//! cheap, monotonic, and wide enough to cover nanosecond latencies and
//! work-unit counts with one scheme.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Smallest histogram exponent: the first finite bucket is `(0, 2^MIN_EXP]`.
pub const HIST_MIN_EXP: i32 = -20;
/// Largest histogram exponent: the last finite bucket is
/// `(2^(MAX_EXP-1), 2^MAX_EXP]`; larger values overflow.
pub const HIST_MAX_EXP: i32 = 64;

/// Number of buckets: one underflow (`v <= 0`), one per exponent in
/// `[HIST_MIN_EXP, HIST_MAX_EXP]`, one overflow.
pub const HIST_BUCKETS: usize = (HIST_MAX_EXP - HIST_MIN_EXP + 1) as usize + 2;

/// A log₂-bucketed histogram with exact totals.
///
/// Bucket layout (`i` is the bucket index):
/// * `i == 0`: underflow — `v <= 0` (and NaN).
/// * `1 <= i <= N`: `v` in `(2^(e-1), 2^e]` where
///   `e = HIST_MIN_EXP + (i - 1)`; the first of these also catches every
///   positive value below `2^HIST_MIN_EXP`.
/// * `i == N + 1`: overflow — `v > 2^HIST_MAX_EXP`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index `value` falls into, in O(1): the bucket of a
    /// positive `value` is `e = ceil(log2 value)`, the smallest exponent
    /// with `value <= 2^e`, read off the exponent and mantissa bits. An
    /// exact power of two has an all-zero mantissa and stays in the lower
    /// bucket; exponents below [`HIST_MIN_EXP`] land in the first finite
    /// bucket and above [`HIST_MAX_EXP`] (`+inf` included) overflow.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0; // underflow: zero, negative, NaN
        }
        let bits = value.to_bits();
        let biased = (bits >> 52) as i32; // the sign bit is clear
        let ceil_log2 = if biased == 0 {
            // Subnormal: below 2^-1022, far under the first bucket.
            HIST_MIN_EXP
        } else if bits & ((1 << 52) - 1) == 0 {
            biased - 1023
        } else {
            biased - 1022
        };
        if ceil_log2 > HIST_MAX_EXP {
            HIST_BUCKETS - 1 // overflow
        } else {
            (ceil_log2.max(HIST_MIN_EXP) - HIST_MIN_EXP) as usize + 1
        }
    }

    /// The inclusive upper bound of bucket `i` (`f64::INFINITY` for the
    /// overflow bucket, `0.0` for underflow).
    pub fn bucket_upper_bound(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else if i >= HIST_BUCKETS - 1 {
            f64::INFINITY
        } else {
            pow2(HIST_MIN_EXP + (i as i32 - 1))
        }
    }

    /// The exclusive lower bound of bucket `i`. The first finite bucket
    /// catches every positive value below its upper bound, so its lower
    /// bound is `0.0`; the underflow bucket has no lower bound.
    pub fn bucket_lower_bound(i: usize) -> f64 {
        if i <= 1 {
            if i == 0 {
                f64::NEG_INFINITY
            } else {
                0.0
            }
        } else if i >= HIST_BUCKETS - 1 {
            pow2(HIST_MAX_EXP)
        } else {
            pow2(HIST_MIN_EXP + (i as i32 - 2))
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest finite observation, `None` if none.
    pub fn min(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Largest finite observation, `None` if none.
    pub fn max(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }

    /// Per-bucket counts (including under/overflow).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0 <= q <= 1`), `None` if empty. Bucketed, so an upper estimate
    /// within one power of two of the true quantile.
    pub fn quantile_upper(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_upper_bound(i));
            }
        }
        Some(f64::INFINITY)
    }

    /// The `q`-quantile with within-bucket linear interpolation, `None`
    /// if empty. The `k`-th of `c` observations in bucket `(lo, hi]` maps
    /// to `lo + (k/c)·(hi − lo)`, and the result is clamped to the exact
    /// observed `[min, max]` — so a histogram of identical values reports
    /// that value at every quantile, and quantiles are monotone in `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let value = if i == 0 {
                    0.0 // underflow: v <= 0, reported as the bound
                } else if i == HIST_BUCKETS - 1 {
                    // Overflow: no finite upper bound to interpolate to.
                    return Some(if self.max.is_finite() {
                        self.max
                    } else {
                        f64::INFINITY
                    });
                } else {
                    let lo = Self::bucket_lower_bound(i);
                    let hi = Self::bucket_upper_bound(i);
                    let frac = (target - seen) as f64 / c as f64;
                    lo + frac * (hi - lo)
                };
                return Some(if self.min.is_finite() && self.max.is_finite() {
                    value.clamp(self.min.min(self.max), self.max)
                } else {
                    value
                });
            }
            seen += c;
        }
        Some(f64::INFINITY)
    }

    /// Merge another histogram into this one: bucket counts add, totals
    /// and extrema combine. `a.merge(&b)` equals recording every
    /// observation of `b` into `a`.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

fn pow2(e: i32) -> f64 {
    // Exact for the exponent range used here.
    (2.0f64).powi(e)
}

/// An immutable snapshot of a registry, for reporting.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → histogram, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Thread-safe registry of named metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the named counter (created at zero on first use).
    pub fn inc_counter(&self, name: &str, delta: u64) {
        let mut c = self.counters.lock();
        match c.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                c.insert(name.to_string(), delta);
            }
        }
    }

    /// Set the named gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.gauges.lock().insert(name.to_string(), value);
    }

    /// Record `value` in the named histogram (created on first use).
    pub fn observe(&self, name: &str, value: f64) {
        let mut h = self.histograms.lock();
        match h.get_mut(name) {
            Some(hist) => hist.record(value),
            None => {
                let mut hist = Histogram::new();
                hist.record(value);
                h.insert(name.to_string(), hist);
            }
        }
    }

    /// Capture a point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear bucket search `bucket_index` replaced, kept as its
    /// oracle: the smallest exponent `e` in the range with
    /// `value <= 2^e`.
    fn bucket_index_by_search(value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0;
        }
        let exps = HIST_MIN_EXP..=HIST_MAX_EXP;
        for (i, e) in exps.enumerate() {
            if value <= pow2(e) {
                return i + 1;
            }
        }
        HIST_BUCKETS - 1
    }

    fn assert_same_bucket(v: f64) {
        assert_eq!(
            Histogram::bucket_index(v),
            bucket_index_by_search(v),
            "value {v:e} (bits {:#018x})",
            v.to_bits()
        );
    }

    #[test]
    fn bucket_index_matches_the_search_at_every_power_of_two() {
        for e in -1074i32..=1023 {
            let p = if e < -1022 {
                f64::from_bits(1 << (e + 1074)) // subnormal
            } else {
                f64::from_bits(((e + 1023) as u64) << 52)
            };
            assert_eq!(p.log2(), e as f64);
            for v in [p, p.next_down(), p.next_up()] {
                assert_same_bucket(v);
                assert_same_bucket(-v);
            }
        }
    }

    #[test]
    fn bucket_index_matches_the_search_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_down(),
            f64::EPSILON,
            1.0,
            -1.0,
            3.0,
            1e300,
        ];
        for v in specials {
            assert_same_bucket(v);
        }
        // Subnormals: every mantissa bit pattern shape.
        for shift in 0..52 {
            for m in [
                1u64 << shift,
                (1u64 << shift) | 1,
                (1u64 << (shift + 1)) - 1,
            ] {
                assert_same_bucket(f64::from_bits(m));
                assert_same_bucket(-f64::from_bits(m));
            }
        }
    }

    #[test]
    fn bucket_index_matches_the_search_on_random_bit_patterns() {
        // SplitMix64 over the full 64-bit space: every sign, exponent,
        // NaN payload and mantissa shape shows up.
        let mut state = 0x5EED_0B5E_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..1_000_000 {
            let bits = next();
            assert_same_bucket(f64::from_bits(bits));
            // Half the raw patterns are negative or huge; also sweep the
            // exponents the histogram actually resolves.
            let e = (bits % 100) as i32 - 30;
            assert_same_bucket(f64::from_bits(bits >> 12 | ((1023 + e) as u64) << 52));
        }
    }

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::new();
        reg.inc_counter("lqo.exec.queries", 1);
        reg.inc_counter("lqo.exec.queries", 2);
        reg.set_gauge("lqo.plan.last_cost", 12.5);
        reg.set_gauge("lqo.plan.last_cost", 99.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lqo.exec.queries"), Some(3));
        assert_eq!(snap.gauge("lqo.plan.last_cost"), Some(99.0));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn histogram_totals() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 107.0);
        assert_eq!(h.mean(), Some(26.75));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(100.0));
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(3.0); // bucket (2, 4]
        }
        h.record(1000.0); // bucket (512, 1024]
        assert_eq!(h.quantile_upper(0.5), Some(4.0));
        assert_eq!(h.quantile_upper(1.0), Some(1024.0));
        assert_eq!(Histogram::new().quantile_upper(0.5), None);
    }

    #[test]
    fn interpolated_quantiles_pin_known_sample() {
        // 1..=64: bucket boundaries are powers of two, so within-bucket
        // linear interpolation lands exactly on the nearest-rank values.
        let mut h = Histogram::new();
        for i in 1..=64 {
            h.record(i as f64);
        }
        // p50: rank 32 closes bucket (16, 32] -> exactly 32.
        assert_eq!(h.quantile(0.5), Some(32.0));
        // p95: rank 61 is the 29th of 32 samples in (32, 64] -> 61.
        assert_eq!(h.quantile(0.95), Some(61.0));
        assert_eq!(h.quantile(1.0), Some(64.0));
        // Versus the old upper-bound report, a full power of two high.
        assert_eq!(h.quantile_upper(0.5), Some(32.0));
        assert_eq!(h.quantile_upper(0.95), Some(64.0));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn constant_samples_report_their_value_at_every_quantile() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(3.0); // bucket (2, 4]: interpolation clamps to max
        }
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(3.0), "q={q}");
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for i in 1..HIST_BUCKETS - 1 {
            let lo = Histogram::bucket_lower_bound(i);
            let hi = Histogram::bucket_upper_bound(i);
            assert!(lo < hi, "bucket {i}: {lo} >= {hi}");
            if i > 1 {
                assert_eq!(Histogram::bucket_upper_bound(i - 1), lo);
            }
        }
        assert_eq!(Histogram::bucket_lower_bound(1), 0.0);
        assert!(Histogram::bucket_upper_bound(HIST_BUCKETS - 1).is_infinite());
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        // Prep for concurrent serving: N threads hammering the same
        // registry must lose nothing — counter totals, histogram counts,
        // and histogram sums are all exact.
        use std::sync::Arc;
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 1000;
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        reg.inc_counter("lqo.shared.counter", 1);
                        reg.inc_counter(&format!("lqo.thread.{t}"), 2);
                        // Integer values ≤ 2^53 sum exactly in f64, so
                        // the histogram sum has one correct answer.
                        reg.observe("lqo.shared.hist", (i % 16) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("lqo.shared.counter"),
            Some(THREADS as u64 * PER_THREAD)
        );
        for t in 0..THREADS {
            assert_eq!(
                snap.counter(&format!("lqo.thread.{t}")),
                Some(2 * PER_THREAD)
            );
        }
        let h = snap.histogram("lqo.shared.hist").unwrap();
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let per_thread_sum: f64 = (0..PER_THREAD).map(|i| (i % 16) as f64).sum();
        assert_eq!(h.sum(), per_thread_sum * THREADS as f64);
        // Bucket counts account for every observation.
        assert_eq!(
            h.bucket_counts().iter().sum::<u64>(),
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [0.5, 3.0, 17.0, 900.0] {
            a.record(v);
            both.record(v);
        }
        for v in [-1.0, 2.0, 64.0] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 7);
    }
}
