//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile, at most `want`, that still has at least ten
/// samples beyond it — a tail estimate resting on fewer is one outlier.
pub fn tail_quantile(samples: usize, want: f64) -> f64 {
    const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
    LADDER
        .into_iter()
        .filter(|&q| q <= want)
        .find(|&q| (samples as f64 * (1.0 - q)).floor() >= 10.0)
        .unwrap_or(0.5)
}

/// Median and tail of one set of samples, with what the tail rests on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// Value at `tail_q`.
    pub tail: f64,
    /// The quantile `tail` was read at: 0.99 when the sample allows it.
    pub tail_q: f64,
}

pub fn summarize(mut samples: Vec<f64>) -> Summary {
    samples.sort_unstable_by(f64::total_cmp);
    let tail_q = tail_quantile(samples.len(), 0.99);
    Summary {
        samples: samples.len(),
        p50: percentile(&samples, 0.5),
        tail: percentile(&samples, tail_q),
        tail_q,
    }
}

pub fn median(samples: Vec<f64>) -> f64 {
    summarize(samples).p50
}

/// The quartile on the better side of per-window values: the third when
/// `higher` is better, else the first.
pub fn better_quartile(mut windows: Vec<f64>, higher: bool) -> f64 {
    windows.sort_unstable_by(f64::total_cmp);
    percentile(&windows, if higher { 0.75 } else { 0.25 })
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// which is what the driver applies to the ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(2000, 0.99), 0.99);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(999, 0.99), 0.95);
        assert_eq!(tail_quantile(150, 0.99), 0.9);
        assert_eq!(tail_quantile(40, 0.99), 0.75);
        assert_eq!(tail_quantile(12, 0.99), 0.5);
        assert_eq!(tail_quantile(100_000, 0.99), 0.99);
        assert_eq!(tail_quantile(100_000, 0.999), 0.999);
    }

    #[test]
    fn better_quartile_reads_the_undisturbed_windows() {
        // Five of eight windows ran while the machine was slow.
        let rates = vec![
            3100.0, 3150.0, 3900.0, 3120.0, 3880.0, 3140.0, 3910.0, 3090.0,
        ];
        assert_eq!(better_quartile(rates, true), 3880.0);
        let p50s = vec![0.30, 0.31, 0.25, 0.32, 0.26, 0.31, 0.25, 0.30];
        assert_eq!(better_quartile(p50s, false), 0.25);
        assert_eq!(better_quartile(vec![3.0, 1.0, 2.0], true), 3.0);
        assert_eq!(better_quartile(vec![3.0], false), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
