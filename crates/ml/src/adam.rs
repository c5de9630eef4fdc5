//! Adam (Kingma & Ba, 2015), the one optimizer update of every
//! gradient-trained model in this crate.
//!
//! A model keeps one [`Adam`] per parameter set and visits its parameter
//! slices in the same order on every step, so moment `i` always belongs
//! to the same parameter. Each caller prepares its own gradient (batch
//! scaling, weight decay); the update itself is written once, here.
//!
//! **Subnormal moments are stored as 0.0.** A parameter whose gradient is
//! exactly zero (a one-hot feature absent from the batch, a dead ReLU)
//! decays its first moment by ×0.9 per step into the subnormal range,
//! where `0.9 · m` rounds back to `m` at four ulps and never reaches zero;
//! the second moment sticks the same way. Arithmetic on subnormal operands
//! is microcoded on x86 and tens of times slower, and the stuck moments
//! stay for the life of the model. The flush is done here in software: it
//! does not touch the process-wide FTZ/DAZ flags.
//!
//! Flushing does not move a trained parameter: with `|m| <
//! f64::MIN_POSITIVE` the step `lr · (m / corr1) / (sqrt(v / corr2) + ε)`
//! is below `2.3e-299 · lr` and rounds away against every parameter above
//! `1e-282 · lr` in magnitude, and with `v < f64::MIN_POSITIVE` the
//! denominator is exactly `ε` either way. `tests/training_bits.rs` pins
//! the prediction bits against the unflushed update.
//!
//! **Two shortcuts for settled weights.** A weight that receives no data
//! gradient under L2 weight decay (`g = l2 · p`) shrinks toward 1e-302 and
//! stays there; every later step of the full update then computes
//! `(1-β₁)·g` or `(1-β₂)·g·g` with a subnormal or underflowing result,
//! which x86 handles in slow microcode (Bao's head spent 80 µs per step
//! on 625 parameters). In two cases the update is fed a zero in place of
//! `g`, which gives the same `p`, `m` and `v` bits as the full update:
//!
//! - *Settled:* `m == 0` and `|g| < SETTLED_G`; `g` becomes 0.
//!   `SETTLED_G` (≈ 10 · `MIN_POSITIVE`) is the least `g` at which
//!   `(1-β₁)·g` rounds to `MIN_POSITIVE`; below it that product is
//!   subnormal or zero, so `β₁·m + (1-β₁)·g` is too and flushes to `+0`,
//!   as it does with `g = 0`. `(1-β₂)·g` is then below `2^-1029` and its
//!   product with `g` underflows to `+0` (both factors carry the sign of
//!   `g`), as `0·0` does. With `m = +0` the step is `+0` and `p - 0 = p`.
//! - *Vanishing square:* `|g| < SQUARE_G` and `β₂·v ≥ 2^-967`; the `g` of
//!   the square term becomes 0. Every value at or above `2^-967` has an
//!   ulp of at least `2^-1019`; `SQUARE_G` (≈ `2^-505.02`) is the least
//!   `g` at which `(1-β₂)·g·g` reaches `2^-1020`, half that ulp. Below it
//!   `β₂·v + (1-β₂)·g·g` rounds back to `β₂·v`, which is what adding `0`
//!   gives. `m` and `p` take the real `g`.
//!
//! Both thresholds are the exact boundaries, not safe round numbers: at
//! `g = SETTLED_G` the first moment becomes `MIN_POSITIVE`, and at
//! `g = SQUARE_G` the square moves `β₂·v = 2^-967 + ulp` up by one ulp.
//! The unit tests sweep both edges against the full update. What is left
//! is `lr · m` for a nonzero `|m| < 1e-305`, a subnormal product on the
//! way to a step that rounds away; removing it would take an exactly
//! scaled product.

const B1: f64 = 0.9;
const B2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Least `|g|` with `(1-β₁)·g ≥ f64::MIN_POSITIVE` (10.000000000000002 ·
/// `MIN_POSITIVE`): below it, a zero first moment stays zero.
const SETTLED_G: f64 = f64::from_bits(0x0044_0000_0000_0001);
/// Least `|g|` with `(1-β₂)·g·g ≥ 2^-1020` (≈ 9.434e-153): below it, the
/// square term is under half an ulp of any `β₂·v ≥` [`SQUARE_V`].
const SQUARE_G: f64 = f64::from_bits(0x205f_9f6e_4990_f224);
/// `2^-967`, whose ulp is `2^-1019`.
const SQUARE_V: f64 = f64::from_bits(0x0380_0000_0000_0000);

// Both thresholds are the exact boundaries the module doc describes.
const _: () = {
    const fn below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }
    assert!((1.0 - B1) * SETTLED_G >= f64::MIN_POSITIVE);
    assert!((1.0 - B1) * below(SETTLED_G) < f64::MIN_POSITIVE);
    let half_ulp = f64::from_bits(0x0030_0000_0000_0000); // 2^-1020
    assert!((1.0 - B2) * SQUARE_G * SQUARE_G >= half_ulp);
    assert!((1.0 - B2) * below(SQUARE_G) * below(SQUARE_G) < half_ulp);
};

/// Zero in place of a subnormal.
#[inline]
fn flush(x: f64) -> f64 {
    if x.abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

/// Adam moments of a fixed set of parameters.
pub(crate) struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Zero moments for `n` parameters.
    pub(crate) fn new(n: usize) -> Adam {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Start step `t + 1` at learning rate `lr`. Every parameter slice is
    /// then passed to [`AdamStep::update`] in the model's fixed order.
    pub(crate) fn step(&mut self, lr: f64) -> AdamStep<'_> {
        self.t += 1;
        let t = self.t as i32;
        AdamStep {
            m: &mut self.m,
            v: &mut self.v,
            lr,
            corr1: 1.0 - B1.powi(t),
            corr2: 1.0 - B2.powi(t),
        }
    }

    /// First and second moments, in parameter order.
    pub(crate) fn moments(&self) -> [&[f64]; 2] {
        [&self.m, &self.v]
    }
}

/// One Adam step in progress: the moments not yet visited.
pub(crate) struct AdamStep<'a> {
    m: &'a mut [f64],
    v: &'a mut [f64],
    lr: f64,
    corr1: f64,
    corr2: f64,
}

impl AdamStep<'_> {
    /// Update the next `params.len()` parameters; `grad(d, p)` is the
    /// gradient of the parameter whose raw gradient in `raw` is `d` and
    /// whose current value is `p`.
    #[inline]
    pub(crate) fn update(
        &mut self,
        params: &mut [f64],
        raw: &[f64],
        grad: impl Fn(f64, f64) -> f64,
    ) {
        let n = params.len();
        assert_eq!(raw.len(), n, "one raw gradient per parameter");
        let (m, m_rest) = std::mem::take(&mut self.m).split_at_mut(n);
        let (v, v_rest) = std::mem::take(&mut self.v).split_at_mut(n);
        self.m = m_rest;
        self.v = v_rest;
        for (((p, m), v), &d) in params.iter_mut().zip(m).zip(v).zip(raw) {
            let g = grad(d, *p);
            moments_and_param(p, m, v, g, self.lr, self.corr1, self.corr2);
        }
    }
}

/// One parameter's Adam update: the full formula, with the two settled
/// cases of the module doc fed a zero in place of the gradient that would
/// only produce a subnormal or underflowing product. Branch-free.
#[inline]
fn moments_and_param(p: &mut f64, m: &mut f64, v: &mut f64, g: f64, lr: f64, c1: f64, c2: f64) {
    let g = if *m == 0.0 && g.abs() < SETTLED_G {
        0.0
    } else {
        g
    };
    let gg = if g.abs() < SQUARE_G && B2 * *v >= SQUARE_V {
        0.0
    } else {
        g
    };
    *m = flush(B1 * *m + (1.0 - B1) * g);
    *v = flush(B2 * *v + (1.0 - B2) * gg * gg);
    *p -= lr * (*m / c1) / ((*v / c2).sqrt() + EPS);
}

/// The update without shortcuts, as the shortcuts must reproduce it.
#[cfg(test)]
fn full_update(p: &mut f64, m: &mut f64, v: &mut f64, g: f64, lr: f64, c1: f64, c2: f64) {
    *m = flush(B1 * *m + (1.0 - B1) * g);
    *v = flush(B2 * *v + (1.0 - B2) * g * g);
    *p -= lr * (*m / c1) / ((*v / c2).sqrt() + EPS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_gradient_decays_moments_to_exact_zero() {
        let mut adam = Adam::new(1);
        let mut p = [0.5];
        adam.step(1e-3).update(&mut p, &[1e-3], |d, _| d);
        for _ in 0..10_000 {
            adam.step(1e-3).update(&mut p, &[0.0], |d, _| d);
        }
        let [m, _] = adam.moments();
        assert_eq!(m[0].to_bits(), 0);
    }

    #[test]
    fn slices_take_consecutive_moments() {
        let mut adam = Adam::new(3);
        let (mut a, mut b) = ([1.0, 1.0], [1.0]);
        let mut s = adam.step(0.1);
        s.update(&mut a, &[1.0, 2.0], |d, _| d);
        s.update(&mut b, &[-1.0], |d, _| d);
        let [m, _] = adam.moments();
        assert!(m[0] > 0.0 && m[1] > m[0] && m[2] < 0.0);
        assert!(a[0] < 1.0 && b[0] > 1.0);
    }

    /// Neighbours of `x` a few ulps apart, and `x` itself.
    fn around(x: f64) -> Vec<f64> {
        let b = x.to_bits() as i64;
        (-2..=2).map(|d| f64::from_bits((b + d) as u64)).collect()
    }

    /// Every shortcut update equals the full formula in all of `p`, `m`
    /// and `v`, bit for bit, over the values around both edges.
    #[test]
    fn shortcuts_match_the_full_update_bit_for_bit() {
        let min = f64::MIN_POSITIVE;
        let mut gs: Vec<f64> = vec![0.0, 1e-300, 1e-200, 1e-160, 3e-4, 0.25, 7.0];
        gs.extend((1..=12).map(|k| k as f64 * min));
        for x in [
            8.0 * min,
            SETTLED_G,
            2f64.powi(-511),
            SQUARE_G,
            2f64.powi(-505),
        ] {
            gs.extend(around(x));
        }
        gs.extend(gs.clone().iter().map(|g| -g));
        // Second moments around the edge of `β₂·v ≥ 2^-967`, from both
        // sides, and ordinary ones.
        let mut vs: Vec<f64> = vec![0.0, -0.0, min, 1e-300, 1e-250, 1e-12, 0.5];
        for w in around(SQUARE_V).into_iter().chain(around(2f64.powi(-968))) {
            vs.extend(around(w / B2));
        }
        let ms = [0.0, -0.0, min, -min, 1e-300, 1e-160, -3e-5, 0.1];
        let ps = [0.0, -0.0, 1e-302, -1e-302, 1e-150, 0.3, -2.5];
        let (lr, c1, c2) = (5e-3, 1.0 - B1.powi(7), 1.0 - B2.powi(7));
        let mut seen = [0usize; 2];
        for &g in &gs {
            for &v0 in &vs {
                for &m0 in &ms {
                    for &p0 in &ps {
                        let (mut p, mut m, mut v) = (p0, m0, v0);
                        moments_and_param(&mut p, &mut m, &mut v, g, lr, c1, c2);
                        let (mut fp, mut fm, mut fv) = (p0, m0, v0);
                        full_update(&mut fp, &mut fm, &mut fv, g, lr, c1, c2);
                        let got = [p.to_bits(), m.to_bits(), v.to_bits()];
                        let want = [fp.to_bits(), fm.to_bits(), fv.to_bits()];
                        assert_eq!(got, want, "p {p0:e} m {m0:e} v {v0:e} g {g:e}");
                        seen[0] += (m0 == 0.0 && g.abs() < SETTLED_G) as usize;
                        seen[1] += (g.abs() < SQUARE_G && B2 * v0 >= SQUARE_V) as usize;
                    }
                }
            }
        }
        assert!(seen[0] > 0 && seen[1] > 0, "both shortcuts taken: {seen:?}");
    }
}
