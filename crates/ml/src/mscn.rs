//! Multi-set convolutional networks (Kipf et al., CIDR 2019): one shared
//! MLP encoder per input-set type (tables, joins, predicates), average
//! pooling within each set, concatenation, and a dense output head — the
//! canonical deep query-driven cardinality estimator.
//!
//! A batch runs each encoder once over the items of all its samples,
//! stacked in sample order, and the head once over the pooled rows, in
//! `MlpWork` buffers: one set per training batch, and a per-thread one,
//! reused, for [`Mscn::predict`].
//!
//! A pool is the item outputs summed in item order from `+0.0`, then
//! divided by the count; each item gets its sample's pooled gradient times
//! `1 / count`. A sample's prediction does not depend on the rest of its
//! batch, and every weight gradient adds its terms item by item in sample
//! order.

use std::cell::RefCell;

use crate::mlp::{Activation, Mlp, MlpConfig, MlpGrads, MlpWork};

/// MSCN hyper-parameters.
#[derive(Debug, Clone)]
pub struct MscnConfig {
    /// Input feature dimension of each set type (e.g. `[t, j, p]` for
    /// table, join and predicate sets).
    pub set_dims: Vec<usize>,
    /// Hidden width of each set encoder (also its output width).
    pub hidden: usize,
    /// Hidden width of the output head.
    pub head_hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl MscnConfig {
    /// Default shape.
    pub fn new(set_dims: Vec<usize>) -> MscnConfig {
        MscnConfig {
            set_dims,
            hidden: 32,
            head_hidden: 32,
            learning_rate: 1e-3,
            seed: 13,
        }
    }
}

/// A multi-set convolutional network with a scalar head.
pub struct Mscn {
    encoders: Vec<Mlp>,
    head: Mlp,
    hidden: usize,
}

/// One batch's pass through an [`Mscn`].
#[derive(Default)]
struct MscnWork {
    /// Per set type: the items of every sample, stacked in sample order.
    enc: Vec<MlpWork>,
    /// Per set type and sample: its first item row and its item count.
    spans: Vec<Vec<(usize, usize)>>,
    /// The pooled rows, one per sample.
    head: MlpWork,
    enc_grads: Vec<MlpGrads>,
    head_grads: MlpGrads,
}

thread_local! {
    /// Buffers of [`Mscn::predict`] on this thread.
    static PREDICT: RefCell<MscnWork> = RefCell::default();
}

impl Mscn {
    /// Initialize the network.
    pub fn new(cfg: MscnConfig) -> Mscn {
        assert!(!cfg.set_dims.is_empty());
        let encoders: Vec<Mlp> = cfg
            .set_dims
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                Mlp::new(MlpConfig {
                    learning_rate: cfg.learning_rate,
                    activation: Activation::Relu,
                    seed: cfg.seed ^ (i as u64 + 1),
                    ..MlpConfig::new(vec![d, cfg.hidden, cfg.hidden])
                })
            })
            .collect();
        let head = Mlp::new(MlpConfig {
            learning_rate: cfg.learning_rate,
            activation: Activation::Relu,
            seed: cfg.seed ^ 0xBEEF,
            ..MlpConfig::new(vec![cfg.set_dims.len() * cfg.hidden, cfg.head_hidden, 1])
        });
        Mscn {
            encoders,
            head,
            hidden: cfg.hidden,
        }
    }

    /// Every parameter and Adam moment of encoders and head, as flat
    /// slices (for audits of the trained state, e.g. that no value is
    /// subnormal).
    pub fn params_and_moments(&self) -> Vec<&[f64]> {
        let mut out = Vec::new();
        for enc in self.encoders.iter().chain([&self.head]) {
            out.extend(enc.params_and_moments());
        }
        out
    }

    /// Number of set types.
    pub fn num_sets(&self) -> usize {
        self.encoders.len()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.encoders.iter().map(Mlp::num_params).sum::<usize>() + self.head.num_params()
    }

    /// Forward pass of `n` samples `sets(s)`: every encoder over its
    /// stacked items, average pooling per sample and set (a zero vector
    /// for an empty set), the head over the concatenated pools.
    fn forward<'s>(
        &self,
        work: &mut MscnWork,
        n: usize,
        sets: impl Fn(usize) -> &'s [Vec<Vec<f64>>],
    ) {
        let k = self.encoders.len();
        work.enc.resize_with(k, MlpWork::default);
        work.spans.resize_with(k, Vec::new);
        for (e, enc) in self.encoders.iter().enumerate() {
            let spans = &mut work.spans[e];
            spans.clear();
            let mut rows = 0;
            for s in 0..n {
                let sample = sets(s);
                assert_eq!(sample.len(), k, "one set per encoder");
                spans.push((rows, sample[e].len()));
                rows += sample[e].len();
            }
            let w = &mut work.enc[e];
            enc.begin(w, rows);
            for (s, &(first, _)) in spans.iter().enumerate() {
                for (i, item) in sets(s)[e].iter().enumerate() {
                    w.input_mut(first + i).copy_from_slice(item);
                }
            }
            enc.forward(w);
        }
        self.head.begin(&mut work.head, n);
        for s in 0..n {
            let pooled = work.head.input_mut(s);
            for (e, (w, spans)) in work.enc.iter().zip(&work.spans).enumerate() {
                let avg = &mut pooled[e * self.hidden..(e + 1) * self.hidden];
                avg.fill(0.0);
                let (first, len) = spans[s];
                if len == 0 {
                    continue;
                }
                for i in first..first + len {
                    for (a, &v) in avg.iter_mut().zip(w.output(i)) {
                        *a += v;
                    }
                }
                for a in avg {
                    *a /= len as f64;
                }
            }
        }
        self.head.forward(&mut work.head);
    }

    /// Predicted scalar for one sample (a slice of sets, one per type).
    pub fn predict(&self, sets: &[Vec<Vec<f64>>]) -> f64 {
        PREDICT.with(|work| {
            let work = &mut work.borrow_mut();
            self.forward(work, 1, |_| sets);
            work.head.output(0)[0]
        })
    }

    /// One Adam step of squared-error regression over a batch. Returns the
    /// batch MSE before the update.
    pub fn train_batch(&mut self, samples: &[(&[Vec<Vec<f64>>], f64)]) -> f64 {
        // Fresh buffers per batch: a fitted estimator keeps no training
        // state (batches of many sets would otherwise stay resident).
        let mut work = MscnWork::default();
        let n = samples.len();
        self.forward(&mut work, n, |s| samples[s].0);
        self.head.begin_grads(&mut work.head);
        let mut loss = 0.0;
        for (s, &(_, y)) in samples.iter().enumerate() {
            let (out, grad) = work.head.output_and_grad(s);
            let pred = out[0];
            loss += (pred - y) * (pred - y);
            grad[0] = 2.0 * (pred - y);
        }
        self.head.zero_grads(&mut work.head_grads);
        work.head_grads.count = n;
        self.head
            .backward(&mut work.head, &mut work.head_grads, true);
        // Each item of a set gets its sample's pooled gradient over the
        // set's size.
        work.enc_grads
            .resize_with(self.encoders.len(), MlpGrads::default);
        for (e, enc) in self.encoders.iter().enumerate() {
            let w = &mut work.enc[e];
            enc.begin_grads(w);
            for (s, &(first, len)) in work.spans[e].iter().enumerate() {
                let g = &work.head.grad(s)[e * self.hidden..(e + 1) * self.hidden];
                let scale = 1.0 / len as f64;
                for i in first..first + len {
                    for (d, &v) in w.grad_mut(i).iter_mut().zip(g) {
                        *d = v * scale;
                    }
                }
            }
            let grads = &mut work.enc_grads[e];
            enc.zero_grads(grads);
            grads.count = w.rows();
            enc.backward(w, grads, false);
        }
        self.head.step(&work.head_grads);
        for (enc, grads) in self.encoders.iter_mut().zip(&work.enc_grads) {
            enc.step(grads);
        }
        loss / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Target = (sum of first components of set 0) - (count of set 1) / 4.
    fn sample(i: usize) -> (Vec<Vec<Vec<f64>>>, f64) {
        let n0 = 1 + i % 3;
        let n1 = i % 4;
        let set0: Vec<Vec<f64>> = (0..n0)
            .map(|j| vec![((i + j) % 5) as f64 / 5.0, 1.0])
            .collect();
        let set1: Vec<Vec<f64>> = (0..n1).map(|j| vec![(j % 2) as f64]).collect();
        let y = set0.iter().map(|v| v[0]).sum::<f64>() - n1 as f64 / 4.0;
        (vec![set0, set1], y)
    }

    #[test]
    fn learns_set_function() {
        let mut net = Mscn::new(MscnConfig {
            learning_rate: 3e-3,
            ..MscnConfig::new(vec![2, 1])
        });
        let data: Vec<(Vec<Vec<Vec<f64>>>, f64)> = (0..40).map(sample).collect();
        let mut loss = f64::INFINITY;
        for _ in 0..400 {
            let batch: Vec<(&[Vec<Vec<f64>>], f64)> =
                data.iter().map(|(s, y)| (s.as_slice(), *y)).collect();
            loss = net.train_batch(&batch);
        }
        assert!(loss < 0.05, "mscn loss {loss}");
    }

    #[test]
    fn empty_sets_are_handled() {
        let net = Mscn::new(MscnConfig::new(vec![2, 1]));
        let sets: Vec<Vec<Vec<f64>>> = vec![vec![], vec![]];
        assert!(net.predict(&sets).is_finite());
    }

    #[test]
    fn permutation_invariance() {
        let net = Mscn::new(MscnConfig::new(vec![2]));
        let a = vec![vec![vec![0.1, 0.9], vec![0.7, 0.3], vec![0.5, 0.5]]];
        let b = vec![vec![vec![0.5, 0.5], vec![0.1, 0.9], vec![0.7, 0.3]]];
        assert!((net.predict(&a) - net.predict(&b)).abs() < 1e-12);
    }

    #[test]
    fn shapes() {
        let net = Mscn::new(MscnConfig::new(vec![3, 4, 5]));
        assert_eq!(net.num_sets(), 3);
        assert!(net.num_params() > 0);
    }
}
