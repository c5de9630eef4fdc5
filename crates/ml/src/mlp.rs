//! Dense multi-layer perceptrons with manual backprop and Adam.
//!
//! Supports three training heads used across the learned-QO literature:
//! squared-error regression (cost/cardinality models), softmax
//! classification (autoregressive conditionals), and pairwise logistic
//! ranking (Lero/LEON-style plan comparators).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::linalg::{axpy, Matrix};

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *activated* value.
    #[inline]
    fn grad_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// MLP hyper-parameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Layer sizes including input and output, e.g. `\[16, 64, 64, 1\]`.
    pub layers: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub l2: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl MlpConfig {
    /// A sensible default configuration for the given shape.
    pub fn new(layers: Vec<usize>) -> MlpConfig {
        MlpConfig {
            layers,
            activation: Activation::Relu,
            learning_rate: 1e-3,
            l2: 1e-5,
            seed: 7,
        }
    }
}

/// Forward-pass cache used by backprop.
pub(crate) struct Cache {
    /// `acts\[0\]` is the input; `acts[l+1]` the activated output of layer l.
    pub(crate) acts: Vec<Vec<f64>>,
}

impl Cache {
    /// The raw (linear) output of the pass.
    pub(crate) fn output(&self) -> &[f64] {
        self.acts.last().expect("non-empty activation stack")
    }
}

/// Accumulated gradients over a batch.
pub(crate) struct GradBuf {
    dw: Vec<Matrix>,
    db: Vec<Vec<f64>>,
    count: usize,
}

/// A dense feed-forward network.
pub struct Mlp {
    cfg: MlpConfig,
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
    /// Moments in layer order, each layer's weights then its biases.
    adam: Adam,
}

impl Mlp {
    /// Initialize with Xavier weights.
    pub fn new(cfg: MlpConfig) -> Mlp {
        assert!(cfg.layers.len() >= 2, "need at least input and output");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in cfg.layers.windows(2) {
            weights.push(Matrix::xavier(w[1], w[0], &mut rng));
            biases.push(vec![0.0; w[1]]);
        }
        let n = weights.iter().map(|w| w.data.len() + w.rows).sum();
        Mlp {
            cfg,
            weights,
            biases,
            adam: Adam::new(n),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.cfg.layers[0]
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        *self.cfg.layers.last().unwrap()
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights
            .iter()
            .map(|w| w.data.len())
            .chain(self.biases.iter().map(|b| b.len()))
            .sum()
    }

    /// Every weight, bias and Adam moment, as flat slices (for audits of
    /// the trained state, e.g. that no value is subnormal).
    pub fn params_and_moments(&self) -> Vec<&[f64]> {
        let mut out: Vec<&[f64]> = Vec::new();
        for (w, b) in self.weights.iter().zip(&self.biases) {
            out.push(&w.data);
            out.push(b);
        }
        out.extend(self.adam.moments());
        out
    }

    pub(crate) fn forward_cache(&self, x: &[f64]) -> Cache {
        debug_assert_eq!(x.len(), self.input_dim());
        let last = self.weights.len() - 1;
        let mut acts = Vec::with_capacity(self.weights.len() + 1);
        acts.push(x.to_vec());
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let mut z = w.matvec(acts.last().unwrap());
            axpy(1.0, b, &mut z);
            if l < last {
                for v in &mut z {
                    *v = self.cfg.activation.apply(*v);
                }
            }
            acts.push(z);
        }
        Cache { acts }
    }

    /// Raw (linear-output) forward pass.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut cache = self.forward_cache(x);
        cache.acts.pop().expect("non-empty activation stack")
    }

    /// First output of the raw forward pass.
    pub fn predict_scalar(&self, x: &[f64]) -> f64 {
        self.predict(x)[0]
    }

    /// Softmax probabilities over the output layer.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        softmax(&self.predict(x))
    }

    /// Activation after layer `layer` (1-based; `layers.len()-1` is the
    /// output). Exposes bottleneck codes of auto-encoders.
    pub fn hidden_activation(&self, x: &[f64], layer: usize) -> Vec<f64> {
        let cache = self.forward_cache(x);
        cache.acts[layer.min(cache.acts.len() - 1)].clone()
    }

    pub(crate) fn zero_grads(&self) -> GradBuf {
        GradBuf {
            dw: self
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows, w.cols))
                .collect(),
            db: self.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
            count: 0,
        }
    }

    /// Backprop `grad_out` (dL/d raw-output) through the cached forward
    /// pass, accumulating parameter gradients. Returns the gradient with
    /// respect to the network input (needed when the MLP is the head of a
    /// larger model, e.g. tree convolution).
    pub(crate) fn backward(
        &self,
        cache: &Cache,
        mut grad: Vec<f64>,
        buf: &mut GradBuf,
    ) -> Vec<f64> {
        let last = self.weights.len() - 1;
        for l in (0..self.weights.len()).rev() {
            if l < last {
                // Through the activation of layer l.
                for (g, &y) in grad.iter_mut().zip(&cache.acts[l + 1]) {
                    *g *= self.cfg.activation.grad_from_output(y);
                }
            }
            buf.dw[l].add_outer(1.0, &grad, &cache.acts[l]);
            axpy(1.0, &grad, &mut buf.db[l]);
            grad = self.weights[l].matvec_t(&grad);
        }
        grad
    }

    pub(crate) fn bump_count(buf: &mut GradBuf) {
        buf.count += 1;
    }

    pub(crate) fn step(&mut self, buf: GradBuf) {
        if buf.count == 0 {
            return;
        }
        let scale = 1.0 / buf.count as f64;
        let l2 = self.cfg.l2;
        let mut step = self.adam.step(self.cfg.learning_rate);
        for l in 0..self.weights.len() {
            let (dw, db) = (&buf.dw[l].data, &buf.db[l]);
            step.update(&mut self.weights[l].data, |i, w| dw[i] * scale + l2 * w);
            step.update(&mut self.biases[l], |i, _| db[i] * scale);
        }
    }

    /// One Adam step on a regression batch (squared error, vector targets).
    /// Returns the mean squared error of the batch before the update.
    pub fn train_batch(&mut self, xs: &[impl AsRef<[f64]>], ys: &[impl AsRef<[f64]>]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let mut buf = self.zero_grads();
        let mut loss = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            let cache = self.forward_cache(x.as_ref());
            let out = cache.acts.last().unwrap();
            let grad: Vec<f64> = out
                .iter()
                .zip(y.as_ref())
                .map(|(&o, &t)| {
                    loss += (o - t) * (o - t);
                    2.0 * (o - t)
                })
                .collect();
            self.backward(&cache, grad, &mut buf);
            buf.count += 1;
        }
        let n = xs.len().max(1) as f64;
        self.step(buf);
        loss / n
    }

    /// Scalar-target convenience wrapper around [`Mlp::train_batch`].
    pub fn train_scalar_batch(&mut self, xs: &[impl AsRef<[f64]>], ys: &[f64]) -> f64 {
        let targets: Vec<[f64; 1]> = ys.iter().map(|&y| [y]).collect();
        self.train_batch(xs, &targets)
    }

    /// One Adam step on a softmax cross-entropy batch (`ys` are class
    /// indices). Returns mean cross-entropy before the update.
    pub fn train_softmax_batch(&mut self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let mut buf = self.zero_grads();
        let mut loss = 0.0;
        for (x, &y) in xs.iter().zip(ys) {
            let cache = self.forward_cache(x);
            let probs = softmax(cache.acts.last().unwrap());
            loss -= probs[y].max(1e-12).ln();
            let mut grad = probs;
            grad[y] -= 1.0;
            self.backward(&cache, grad, &mut buf);
            buf.count += 1;
        }
        self.step(buf);
        loss / xs.len().max(1) as f64
    }

    /// One Adam step on a pairwise-ranking batch: each element is
    /// `(a, b, y)` with `y = +1` when `a` should score higher than `b`.
    /// The first output unit is the score. Returns mean logistic loss.
    pub fn train_pairwise_batch(&mut self, pairs: &[(Vec<f64>, Vec<f64>, f64)]) -> f64 {
        let mut buf = self.zero_grads();
        let mut loss = 0.0;
        for (a, b, y) in pairs {
            let ca = self.forward_cache(a);
            let cb = self.forward_cache(b);
            let sa = ca.acts.last().unwrap()[0];
            let sb = cb.acts.last().unwrap()[0];
            let margin = y * (sa - sb);
            loss += (1.0 + (-margin).exp()).ln();
            // dL/d(sa - sb) = -y * sigmoid(-margin)
            let g = -y / (1.0 + margin.exp());
            let mut ga = vec![0.0; self.output_dim()];
            ga[0] = g;
            let mut gb = vec![0.0; self.output_dim()];
            gb[0] = -g;
            self.backward(&ca, ga, &mut buf);
            self.backward(&cb, gb, &mut buf);
            buf.count += 2;
        }
        self.step(buf);
        loss / pairs.len().max(1) as f64
    }

    /// Mini-batch regression training loop with shuffling. Returns the
    /// final epoch's mean loss.
    pub fn fit_regression(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        epochs: usize,
        batch_size: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        let mut last = f64::NAN;
        for _ in 0..epochs {
            idx.shuffle(&mut rng);
            let mut total = 0.0;
            let mut batches = 0usize;
            for chunk in idx.chunks(batch_size.max(1)) {
                let bx: Vec<&[f64]> = chunk.iter().map(|&i| xs[i].as_slice()).collect();
                let by: Vec<f64> = chunk.iter().map(|&i| ys[i]).collect();
                total += self.train_scalar_batch(&bx, &by);
                batches += 1;
            }
            last = total / batches.max(1) as f64;
        }
        last
    }
}

/// Numerically-stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_function() {
        let mut mlp = Mlp::new(MlpConfig {
            learning_rate: 5e-3,
            ..MlpConfig::new(vec![2, 16, 1])
        });
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64 / 20.0, (i % 7) as f64 / 7.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 0.5).collect();
        let loss = mlp.fit_regression(&xs, &ys, 300, 32, 1);
        assert!(loss < 0.01, "final loss {loss}");
        let pred = mlp.predict_scalar(&[0.5, 0.5]);
        assert!((pred - 1.0).abs() < 0.25, "pred {pred}");
    }

    #[test]
    fn learns_nonlinear_xor() {
        let mut mlp = Mlp::new(MlpConfig {
            learning_rate: 1e-2,
            activation: Activation::Tanh,
            ..MlpConfig::new(vec![2, 16, 16, 1])
        });
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0.0, 1.0, 1.0, 0.0];
        let loss = mlp.fit_regression(&xs, &ys, 800, 4, 2);
        assert!(loss < 0.02, "xor loss {loss}");
    }

    #[test]
    fn softmax_classification_converges() {
        // Two linearly separable classes.
        let mut mlp = Mlp::new(MlpConfig {
            learning_rate: 1e-2,
            ..MlpConfig::new(vec![2, 16, 2])
        });
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let c = i % 2;
                vec![c as f64 + (i as f64 % 10.0) * 0.01, 1.0 - c as f64]
            })
            .collect();
        let ys: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let mut loss = f64::INFINITY;
        for _ in 0..200 {
            loss = mlp.train_softmax_batch(&xs, &ys);
        }
        assert!(loss < 0.1, "ce loss {loss}");
        let p = mlp.predict_proba(&xs[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.8);
    }

    #[test]
    fn pairwise_ranking_orders_scores() {
        let mut mlp = Mlp::new(MlpConfig {
            learning_rate: 1e-2,
            ..MlpConfig::new(vec![1, 8, 1])
        });
        // Inputs with larger value should rank higher.
        let pairs: Vec<(Vec<f64>, Vec<f64>, f64)> = (0..50)
            .map(|i| {
                let a = (i % 10) as f64 / 10.0 + 0.3;
                let b = (i % 10) as f64 / 10.0;
                (vec![a], vec![b], 1.0)
            })
            .collect();
        for _ in 0..300 {
            mlp.train_pairwise_batch(&pairs);
        }
        assert!(mlp.predict_scalar(&[0.9]) > mlp.predict_scalar(&[0.1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-9);
        let p = softmax(&[-1000.0, 0.0]);
        assert!(p[1] > 0.999);
    }

    #[test]
    fn shapes_and_param_count() {
        let mlp = Mlp::new(MlpConfig::new(vec![4, 8, 2]));
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(mlp.predict(&[0.0; 4]).len(), 2);
    }
}
