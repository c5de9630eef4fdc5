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

const B1: f64 = 0.9;
const B2: f64 = 0.999;
const EPS: f64 = 1e-8;

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
    /// Update the next `params.len()` parameters; `grad(i, p)` is the
    /// gradient of `params[i]`, whose current value is `p`.
    #[inline]
    pub(crate) fn update(&mut self, params: &mut [f64], grad: impl Fn(usize, f64) -> f64) {
        let n = params.len();
        let (m, m_rest) = std::mem::take(&mut self.m).split_at_mut(n);
        let (v, v_rest) = std::mem::take(&mut self.v).split_at_mut(n);
        self.m = m_rest;
        self.v = v_rest;
        for (i, ((p, m), v)) in params.iter_mut().zip(m).zip(v).enumerate() {
            let g = grad(i, *p);
            *m = flush(B1 * *m + (1.0 - B1) * g);
            *v = flush(B2 * *v + (1.0 - B2) * g * g);
            *p -= self.lr * (*m / self.corr1) / ((*v / self.corr2).sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_gradient_decays_moments_to_exact_zero() {
        let mut adam = Adam::new(1);
        let mut p = [0.5];
        adam.step(1e-3).update(&mut p, |_, _| 1e-3);
        for _ in 0..10_000 {
            adam.step(1e-3).update(&mut p, |_, _| 0.0);
        }
        let [m, _] = adam.moments();
        assert_eq!(m[0].to_bits(), 0);
    }

    #[test]
    fn slices_take_consecutive_moments() {
        let mut adam = Adam::new(3);
        let (mut a, mut b) = ([1.0, 1.0], [1.0]);
        let mut s = adam.step(0.1);
        s.update(&mut a, |i, _| i as f64 + 1.0);
        s.update(&mut b, |_, _| -1.0);
        let [m, _] = adam.moments();
        assert!(m[0] > 0.0 && m[1] > m[0] && m[2] < 0.0);
        assert!(a[0] < 1.0 && b[0] > 1.0);
    }
}
