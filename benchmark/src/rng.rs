//! The benchmark's own seeded generators. Nothing here calls into the
//! repo's vendored `rand`, so request lists stay a pure function of
//! `--seed` even when a later change edits that crate.

/// SplitMix64: small, fast, and good enough to drive workload sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`label`), so adding a draw
    /// to one part of a workload does not shift every other part.
    pub fn fork(&self, label: &str) -> Rng {
        let mut h = Fnv::new();
        h.u64(self.0);
        h.bytes(label.as_bytes());
        Rng(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `(r + 1)^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn weight(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }
}

/// Due times (ns from the phase start) of `n` Poisson arrivals at
/// `rate_per_s`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate_per_s;
            (t * 1e9) as u64
        })
        .collect()
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// FNV-1a, for request-list and answer digests.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_digest(seed: u64) -> u64 {
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(300, 1.1);
        let mut h = Fnv::new();
        for due in poisson_schedule(&mut rng.fork("arrivals"), 2000.0, 500) {
            h.u64(due);
            h.u64(zipf.sample(&mut rng) as u64);
        }
        h.finish()
    }

    #[test]
    fn request_list_is_a_pure_function_of_the_seed() {
        assert_eq!(request_digest(7), request_digest(7));
        assert_ne!(request_digest(7), request_digest(8));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(50, 1.1);
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 50];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[5] && hits[5] > hits[40]);
        let total: f64 = (0..50).map(|r| zipf.weight(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_schedule_is_increasing_with_the_requested_mean_gap() {
        let sched = poisson_schedule(&mut Rng::new(3), 1000.0, 10_000);
        assert!(sched.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap_ns = *sched.last().unwrap() as f64 / sched.len() as f64;
        assert!((mean_gap_ns - 1e6).abs() < 5e4, "mean gap {mean_gap_ns} ns");
    }

    #[test]
    fn shuffle_permutes_by_seed() {
        let base: Vec<u32> = (0..100).collect();
        let shuffled = |seed| {
            let mut v = base.clone();
            shuffle(&mut Rng::new(seed), &mut v);
            v
        };
        assert_eq!(shuffled(5), shuffled(5));
        assert_ne!(shuffled(5), shuffled(6));
        let mut sorted = shuffled(5);
        sorted.sort_unstable();
        assert_eq!(sorted, base);
    }
}
