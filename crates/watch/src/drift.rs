//! Two-window distribution-drift detection on scalar streams.
//!
//! The detector watches one numeric stream per component (this crate
//! feeds it raw true cardinalities; the PSI side buckets them
//! logarithmically, so pre-logged input would lose octave resolution):
//! after a
//! configurable warm-up it freezes a *reference* window, then maintains a
//! sliding *current* window and compares the two with a pair of
//! complementary tests —
//!
//! * **PSI** (population stability index) over the log₂ buckets of the
//!   two windows: `Σ (p − q)·ln(p/q)`, the industry-standard drift score
//!   (&lt; 0.1 stable, &gt; 0.25 drifted);
//! * a **KS** two-sample statistic `sup |F₁ − F₂|` on the raw window
//!   values, which catches shape changes PSI's coarse buckets can miss.
//!
//! At the window sizes an online monitor can afford (tens of
//! observations, not thousands), either score alone is noisy — PSI over
//! a handful of log₂ buckets fluctuates far past 0.25 on perfectly
//! stationary streams. The alarm therefore requires **both** scores over
//! their thresholds, **sustained** for [`DriftConfig::confirm`]
//! consecutive observations, and a *full* current window. Genuine
//! distribution shift drives both scores high and keeps them there, so
//! detection is delayed by only a few observations; transient noise
//! spikes in one score never fire. Both scores and the alarm are
//! deterministic functions of the observation sequence.

use std::collections::VecDeque;

use lqo_obs::metrics::{Histogram, HIST_BUCKETS};

/// Drift-detector tuning.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Observations discarded before the reference window starts filling
    /// (model warm-up transients are not a baseline).
    pub warmup: usize,
    /// Reference window size; frozen once filled. Below ~64 the scores
    /// are noise.
    pub reference: usize,
    /// Sliding current-window size; the detector only ever alarms with a
    /// full current window.
    pub window: usize,
    /// PSI above this is drift (jointly with the KS condition).
    pub psi_threshold: f64,
    /// KS distance above this is drift (jointly with the PSI condition).
    pub ks_threshold: f64,
    /// Consecutive observations the joint condition must hold before the
    /// alarm fires.
    pub confirm: usize,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            warmup: 8,
            reference: 64,
            window: 48,
            psi_threshold: 0.25,
            ks_threshold: 0.35,
            confirm: 3,
        }
    }
}

/// Point-in-time drift verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStatus {
    /// Population stability index between the windows (0 when not
    /// warmed up).
    pub psi: f64,
    /// Two-sample KS distance between the windows (0 when not warmed up).
    pub ks: f64,
    /// Whether both windows are full (scores are meaningful).
    pub warmed_up: bool,
    /// Both scores over threshold, sustained for `confirm` observations.
    pub drifted: bool,
}

/// Two-window drift detector over one scalar stream.
///
/// An observation costs O(window) at most and recomputes the scores
/// once: the current window's log₂ bucket counts and a sorted copy of
/// it move with every push and eviction, and the reference is sorted
/// once, when it freezes. [`DriftDetector::status`] reads the scores
/// cached by the last observation. PSI sums over the buckets in index
/// order and KS walks the sorted arrays a rebuild would sort, so every
/// score is bit-identical to building both windows from scratch.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    seen: usize,
    /// Filling: arrival order. Frozen (full): sorted by `total_cmp`.
    reference: Vec<f64>,
    ref_hist: Histogram,
    /// The current window in arrival order, for eviction.
    current: VecDeque<f64>,
    /// The current window sorted by `total_cmp`.
    current_sorted: Vec<f64>,
    /// Log₂ bucket counts of the current window.
    current_counts: Vec<u64>,
    /// `(psi, ks, warmed_up)` as of the last observation.
    scores: (f64, f64, bool),
    /// Consecutive observations for which the joint raw condition held.
    streak: usize,
}

impl DriftDetector {
    /// An empty detector.
    pub fn new(cfg: DriftConfig) -> DriftDetector {
        let mut det = DriftDetector {
            cfg,
            seen: 0,
            reference: Vec::new(),
            ref_hist: Histogram::new(),
            current: VecDeque::new(),
            current_sorted: Vec::new(),
            current_counts: vec![0; HIST_BUCKETS],
            scores: (0.0, 0.0, false),
            streak: 0,
        };
        // Empty windows are already "full" when their sizes are zero.
        det.scores = det.scores();
        det
    }

    /// Feed one observation.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.seen += 1;
        if self.seen <= self.cfg.warmup {
            return;
        }
        if self.reference.len() < self.cfg.reference {
            self.reference.push(v);
            self.ref_hist.record(v);
            if self.reference.len() == self.cfg.reference {
                self.reference.sort_by(f64::total_cmp);
                self.scores = self.scores();
            }
            return;
        }
        self.current.push_back(v);
        self.current_counts[Histogram::bucket_index(v)] += 1;
        let at = self
            .current_sorted
            .partition_point(|x| x.total_cmp(&v).is_lt());
        self.current_sorted.insert(at, v);
        while self.current.len() > self.cfg.window {
            let old = self.current.pop_front().expect("window is not empty");
            self.current_counts[Histogram::bucket_index(old)] -= 1;
            // Values equal under `total_cmp` have equal bits, so which
            // copy goes does not matter.
            let at = self
                .current_sorted
                .binary_search_by(|x| x.total_cmp(&old))
                .expect("evicted value is in the sorted window");
            self.current_sorted.remove(at);
        }
        self.scores = self.scores();
        let (psi, ks, warmed_up) = self.scores;
        if warmed_up && psi > self.cfg.psi_threshold && ks > self.cfg.ks_threshold {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
    }

    /// Observations consumed so far (including warm-up).
    pub fn seen(&self) -> usize {
        self.seen
    }

    fn scores(&self) -> (f64, f64, bool) {
        let warmed_up =
            self.reference.len() == self.cfg.reference && self.current.len() >= self.cfg.window;
        if !warmed_up {
            return (0.0, 0.0, false);
        }
        let psi = psi_from_counts(
            self.ref_hist.bucket_counts(),
            self.ref_hist.count(),
            &self.current_counts,
            self.current.len() as u64,
        );
        let ks = ks_statistic_sorted(&self.reference, &self.current_sorted);
        (psi, ks, true)
    }

    /// Current verdict: the scores of the last observation.
    pub fn status(&self) -> DriftStatus {
        let (psi, ks, warmed_up) = self.scores;
        DriftStatus {
            psi,
            ks,
            warmed_up,
            drifted: self.streak >= self.cfg.confirm.max(1),
        }
    }
}

/// Population stability index between two bucketed distributions, with
/// +0.5 count smoothing on every bucket populated in either histogram.
pub fn psi(a: &Histogram, b: &Histogram) -> f64 {
    psi_from_counts(a.bucket_counts(), a.count(), b.bucket_counts(), b.count())
}

/// [`psi`] over raw bucket counts `ca` / `cb` (equal lengths) of `na` /
/// `nb` observations, summed over the buckets in index order.
fn psi_from_counts(ca: &[u64], na: u64, cb: &[u64], nb: u64) -> f64 {
    let active = ca.iter().zip(cb).filter(|&(a, b)| a + b > 0).count();
    if active == 0 {
        return 0.0;
    }
    let smooth = 0.5;
    let na = na as f64 + smooth * active as f64;
    let nb = nb as f64 + smooth * active as f64;
    if na <= 0.0 || nb <= 0.0 {
        return 0.0;
    }
    let mut out = 0.0;
    for (&a, &b) in ca.iter().zip(cb) {
        if a + b == 0 {
            continue;
        }
        let p = (a as f64 + smooth) / na;
        let q = (b as f64 + smooth) / nb;
        out += (p - q) * (p / q).ln();
    }
    out
}

/// Two-sample Kolmogorov–Smirnov statistic `sup |F₁ − F₂|` (0 when
/// either sample is empty).
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    ks_statistic_sorted(&sa, &sb)
}

/// [`ks_statistic`] over samples already sorted by `total_cmp`.
fn ks_statistic_sorted(sa: &[f64], sb: &[f64]) -> f64 {
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        let f1 = i as f64 / sa.len() as f64;
        let f2 = j as f64 / sb.len() as f64;
        d = d.max((f1 - f2).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DriftConfig {
        DriftConfig {
            warmup: 4,
            ..Default::default()
        }
    }

    /// Deterministic pseudo-uniform stream in [0, 1).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The detector as it was before its windows became incremental:
    /// every score rebuilt from the raw windows on every call. Kept as
    /// the bit-identity oracle of the cached scores.
    mod rebuilt {
        use std::collections::VecDeque;

        use lqo_obs::metrics::Histogram;

        use super::super::{DriftConfig, DriftStatus};

        pub struct Detector {
            cfg: DriftConfig,
            seen: usize,
            reference: Vec<f64>,
            ref_hist: Histogram,
            current: VecDeque<f64>,
            streak: usize,
        }

        impl Detector {
            pub fn new(cfg: DriftConfig) -> Detector {
                Detector {
                    cfg,
                    seen: 0,
                    reference: Vec::new(),
                    ref_hist: Histogram::new(),
                    current: VecDeque::new(),
                    streak: 0,
                }
            }

            pub fn observe(&mut self, v: f64) {
                if !v.is_finite() {
                    return;
                }
                self.seen += 1;
                if self.seen <= self.cfg.warmup {
                    return;
                }
                if self.reference.len() < self.cfg.reference {
                    self.reference.push(v);
                    self.ref_hist.record(v);
                    return;
                }
                self.current.push_back(v);
                while self.current.len() > self.cfg.window {
                    self.current.pop_front();
                }
                let (psi, ks, warmed_up) = self.scores();
                if warmed_up && psi > self.cfg.psi_threshold && ks > self.cfg.ks_threshold {
                    self.streak += 1;
                } else {
                    self.streak = 0;
                }
            }

            fn scores(&self) -> (f64, f64, bool) {
                let warmed_up = self.reference.len() == self.cfg.reference
                    && self.current.len() >= self.cfg.window;
                if !warmed_up {
                    return (0.0, 0.0, false);
                }
                let mut cur_hist = Histogram::new();
                for &v in &self.current {
                    cur_hist.record(v);
                }
                let psi = psi(&self.ref_hist, &cur_hist);
                let cur: Vec<f64> = self.current.iter().copied().collect();
                let ks = ks_statistic(&self.reference, &cur);
                (psi, ks, true)
            }

            pub fn status(&self) -> DriftStatus {
                let (psi, ks, warmed_up) = self.scores();
                DriftStatus {
                    psi,
                    ks,
                    warmed_up,
                    drifted: self.streak >= self.cfg.confirm.max(1),
                }
            }
        }

        fn psi(a: &Histogram, b: &Histogram) -> f64 {
            let (ca, cb) = (a.bucket_counts(), b.bucket_counts());
            let active: Vec<usize> = (0..ca.len()).filter(|&i| ca[i] + cb[i] > 0).collect();
            if active.is_empty() {
                return 0.0;
            }
            let smooth = 0.5;
            let na = a.count() as f64 + smooth * active.len() as f64;
            let nb = b.count() as f64 + smooth * active.len() as f64;
            if na <= 0.0 || nb <= 0.0 {
                return 0.0;
            }
            let mut out = 0.0;
            for i in active {
                let p = (ca[i] as f64 + smooth) / na;
                let q = (cb[i] as f64 + smooth) / nb;
                out += (p - q) * (p / q).ln();
            }
            out
        }

        pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
            if a.is_empty() || b.is_empty() {
                return 0.0;
            }
            let mut sa = a.to_vec();
            let mut sb = b.to_vec();
            sa.sort_by(f64::total_cmp);
            sb.sort_by(f64::total_cmp);
            let (mut i, mut j) = (0usize, 0usize);
            let mut d = 0.0f64;
            while i < sa.len() && j < sb.len() {
                let x = sa[i].min(sb[j]);
                while i < sa.len() && sa[i] <= x {
                    i += 1;
                }
                while j < sb.len() && sb[j] <= x {
                    j += 1;
                }
                let f1 = i as f64 / sa.len() as f64;
                let f2 = j as f64 / sb.len() as f64;
                d = d.max((f1 - f2).abs());
            }
            d
        }
    }

    /// Feed `stream` to the detector and to the rebuilt oracle, comparing
    /// every status bit after every observation.
    fn assert_matches_rebuilt(cfg: DriftConfig, stream: &[f64], label: &str) {
        let mut det = DriftDetector::new(cfg.clone());
        let mut oracle = rebuilt::Detector::new(cfg);
        let bits = |s: DriftStatus| (s.psi.to_bits(), s.ks.to_bits(), s.warmed_up, s.drifted);
        assert_eq!(bits(det.status()), bits(oracle.status()), "{label}: fresh");
        for (k, &v) in stream.iter().enumerate() {
            det.observe(v);
            oracle.observe(v);
            assert_eq!(
                bits(det.status()),
                bits(oracle.status()),
                "{label}: after observation {k} ({v:e})"
            );
        }
    }

    fn configs() -> Vec<DriftConfig> {
        vec![
            cfg(),
            DriftConfig::default(),
            DriftConfig {
                warmup: 0,
                reference: 5,
                window: 3,
                confirm: 1,
                ..Default::default()
            },
            DriftConfig {
                warmup: 1,
                reference: 0,
                window: 0,
                ..Default::default()
            },
            DriftConfig {
                warmup: 0,
                reference: 2,
                window: 0,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn cached_scores_match_a_rebuild_on_streams_with_repeats() {
        for seed in 1..=6 {
            let mut rng = lcg(seed);
            // Few distinct values: ties in both windows, on and off the
            // log2 bucket boundaries, with signed zeros, negatives and
            // skipped non-finite values mixed in.
            let palette = [
                1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 0.0, -0.0, -1.5, 1024.0, 1e-9, 7.5,
            ];
            let stream: Vec<f64> = (0..600)
                .map(|i| {
                    let pick = (rng() * palette.len() as f64) as usize;
                    match i % 97 {
                        13 => f64::NAN,
                        41 => f64::INFINITY,
                        _ if i > 300 => palette[pick] * 64.0,
                        _ => palette[pick],
                    }
                })
                .collect();
            for (c, config) in configs().into_iter().enumerate() {
                assert_matches_rebuilt(config, &stream, &format!("seed {seed} config {c}"));
            }
        }
    }

    #[test]
    fn cached_scores_match_a_rebuild_on_shift_and_burst_streams() {
        let mut rng = lcg(7);
        let mut shift: Vec<f64> = (0..200).map(|_| 1.0 + 9.0 * rng()).collect();
        shift.extend((0..150).map(|_| 400.0 + 90.0 * rng()));
        let mut rng = lcg(3);
        let mut burst: Vec<f64> = (0..200).map(|_| 1.0 + 9.0 * rng()).collect();
        burst.extend([1e6; 8]);
        burst.extend((0..100).map(|_| 1.0 + 9.0 * rng()));
        for (c, config) in configs().into_iter().enumerate() {
            assert_matches_rebuilt(config.clone(), &shift, &format!("shift, config {c}"));
            assert_matches_rebuilt(config, &burst, &format!("burst, config {c}"));
        }
    }

    #[test]
    fn ks_wrappers_match_the_rebuilt_statistic() {
        let mut rng = lcg(11);
        for n in [0usize, 1, 2, 5, 48, 64] {
            let a: Vec<f64> = (0..n).map(|_| (rng() * 8.0).floor()).collect();
            let b: Vec<f64> = (0..n + 3).map(|_| (rng() * 6.0).floor() - 1.0).collect();
            assert_eq!(
                ks_statistic(&a, &b).to_bits(),
                rebuilt::ks_statistic(&a, &b).to_bits()
            );
        }
    }

    #[test]
    fn stationary_stream_stays_quiet() {
        for seed in 1..=10 {
            let mut det = DriftDetector::new(cfg());
            let mut rng = lcg(seed);
            for _ in 0..400 {
                det.observe(1.0 + 9.0 * rng());
                assert!(
                    !det.status().drifted,
                    "seed {seed}: false alarm at {}",
                    det.seen()
                );
            }
            assert!(det.status().warmed_up);
        }
    }

    #[test]
    fn shifted_stream_fires_after_the_shift() {
        let mut det = DriftDetector::new(cfg());
        let mut rng = lcg(7);
        for _ in 0..200 {
            det.observe(1.0 + 9.0 * rng());
        }
        assert!(!det.status().drifted);
        // Order-of-magnitude shift: every post-drift value lands in new
        // log2 buckets and above the reference support.
        let mut fired_at = None;
        for k in 0..150 {
            det.observe(400.0 + 90.0 * rng());
            if det.status().drifted {
                fired_at = Some(k);
                break;
            }
        }
        let fired_at = fired_at.expect("detector never fired");
        // Needs a sustained shifted window, not one outlier.
        assert!(fired_at >= 4, "fired after only {fired_at} observations");
        let s = det.status();
        assert!(s.psi > 0.25 && s.ks > 0.35, "psi {} ks {}", s.psi, s.ks);
    }

    #[test]
    fn transient_outlier_burst_does_not_alarm() {
        let mut det = DriftDetector::new(cfg());
        let mut rng = lcg(3);
        for _ in 0..200 {
            det.observe(1.0 + 9.0 * rng());
        }
        // A short burst cannot hold the joint condition for the confirm
        // run once stationary data resumes.
        for _ in 0..8 {
            det.observe(1e6);
        }
        assert!(!det.status().drifted);
        for _ in 0..100 {
            det.observe(1.0 + 9.0 * rng());
            assert!(!det.status().drifted, "alarm after burst at {}", det.seen());
        }
    }

    #[test]
    fn not_warmed_up_never_alarms() {
        let mut det = DriftDetector::new(cfg());
        for _ in 0..40 {
            det.observe(1e9); // extreme, but reference not yet full
            let s = det.status();
            assert!(!s.warmed_up && !s.drifted);
        }
    }

    #[test]
    fn psi_of_identical_histograms_is_zero() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert!(psi(&h, &h).abs() < 1e-12);
    }

    #[test]
    fn ks_statistic_bounds() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 1000.0).collect();
        assert!(ks_statistic(&a, &a) < 1e-12);
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(ks_statistic(&[], &a), 0.0);
    }
}
