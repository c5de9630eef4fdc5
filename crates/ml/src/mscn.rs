//! Multi-set convolutional networks (Kipf et al., CIDR 2019): one shared
//! MLP encoder per input-set type (tables, joins, predicates), average
//! pooling within each set, concatenation, and a dense output head — the
//! canonical deep query-driven cardinality estimator.

use crate::mlp::{Activation, Cache, Mlp, MlpConfig};

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

    /// Pooled encoding of all sets, concatenated, and the encoder pass of
    /// every item, per set, for back-propagation.
    fn pool(&self, sets: &[Vec<Vec<f64>>]) -> (Vec<f64>, Vec<Vec<Cache>>) {
        assert_eq!(sets.len(), self.encoders.len());
        let mut pooled = Vec::with_capacity(self.encoders.len() * self.hidden);
        let mut passes = Vec::with_capacity(sets.len());
        for (enc, set) in self.encoders.iter().zip(sets) {
            let items: Vec<Cache> = set.iter().map(|item| enc.forward_cache(item)).collect();
            let mut avg = vec![0.0; self.hidden];
            if !items.is_empty() {
                for item in &items {
                    for (a, &v) in avg.iter_mut().zip(item.output()) {
                        *a += v;
                    }
                }
                for a in &mut avg {
                    *a /= items.len() as f64;
                }
            }
            pooled.extend(avg);
            passes.push(items);
        }
        (pooled, passes)
    }

    /// Predicted scalar for one sample (a slice of sets, one per type).
    pub fn predict(&self, sets: &[Vec<Vec<f64>>]) -> f64 {
        self.head.predict_scalar(&self.pool(sets).0)
    }

    /// One Adam step of squared-error regression over a batch. Returns the
    /// batch MSE before the update.
    pub fn train_batch(&mut self, samples: &[(&[Vec<Vec<f64>>], f64)]) -> f64 {
        let mut head_buf = self.head.zero_grads();
        let mut enc_bufs: Vec<_> = self.encoders.iter().map(Mlp::zero_grads).collect();
        let mut loss = 0.0;
        for (sets, y) in samples {
            let (pooled, passes) = self.pool(sets);
            let cache = self.head.forward_cache(&pooled);
            let pred = cache.output()[0];
            loss += (pred - y) * (pred - y);
            let grad_pooled = self
                .head
                .backward(&cache, vec![2.0 * (pred - y)], &mut head_buf);
            Mlp::bump_count(&mut head_buf);
            // Distribute the pooled gradient back through each encoder.
            for (k, (enc, items)) in self.encoders.iter().zip(&passes).enumerate() {
                if items.is_empty() {
                    continue;
                }
                let g = &grad_pooled[k * self.hidden..(k + 1) * self.hidden];
                let scale = 1.0 / items.len() as f64;
                for item in items {
                    let gi: Vec<f64> = g.iter().map(|&v| v * scale).collect();
                    enc.backward(item, gi, &mut enc_bufs[k]);
                    Mlp::bump_count(&mut enc_bufs[k]);
                }
            }
        }
        self.head.step(head_buf);
        for (enc, buf) in self.encoders.iter_mut().zip(enc_bufs) {
            enc.step(buf);
        }
        loss / samples.len().max(1) as f64
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
