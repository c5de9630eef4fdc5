//! Dense multi-layer perceptrons with manual backprop and Adam.
//!
//! Supports three training heads used across the learned-QO literature:
//! squared-error regression (cost/cardinality models), softmax
//! classification (autoregressive conditionals), and pairwise logistic
//! ranking (Lero/LEON-style plan comparators).
//!
//! Every pass runs a whole batch at once: rows are stacked in an
//! `MlpWork`, each layer is one column-form product over all of them
//! (`linalg::gemm_acc`, reading a transposed copy of the weights that is
//! refreshed after every step) and the backward pass accumulates into an
//! `MlpGrads`. Both are reused from batch to batch, so a training step
//! allocates nothing; tree convolution and MSCN drive their heads and
//! encoders through the same buffers.
//!
//! **Numerics.** Each sum has a fixed start and order: a layer output
//! starts from `-0.0` (what `Iterator::sum` starts from), adds `w·x` in
//! ascending input index and then the bias; a gradient starts from `+0.0`
//! and adds one term per sample in batch order (the input gradient, one
//! per output in ascending order). A zero factor makes a term `±0`, which
//! leaves a nonzero sum unchanged and keeps a `+0.0` one, so the dense
//! kernel needs no zero tests. `tests/training_bits.rs` pins the bits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::adam::{Adam, AdamStep};
use crate::linalg::{gemm_acc, padded, Matrix, PAD};

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

/// One fully connected layer: `y = W x + b`. `W` (`out × in`) is stored
/// row-major with rows `padded(in)` long, the layout the input gradient
/// reads, and also transposed, the layout the output pass reads; the copy
/// is refreshed after every update.
pub(crate) struct Dense {
    outs: usize,
    ins: usize,
    /// `W`, rows `padded(in)` long, then `PAD` cells of slack; cells past
    /// `in` stay zero.
    w: Vec<f64>,
    pub(crate) b: Vec<f64>,
    /// `Wᵀ`, rows `padded(out)` long.
    wt: Vec<f64>,
}

/// A [`Dense`] layer's gradient summed over a batch: `dw` is `out × in`.
#[derive(Default)]
pub(crate) struct DenseGrad {
    pub(crate) dw: Vec<f64>,
    pub(crate) db: Vec<f64>,
}

impl Dense {
    pub(crate) fn new(w: Matrix, b: Vec<f64>) -> Dense {
        let (outs, ins) = (w.rows, w.cols);
        let ldi = padded(ins);
        let mut padded_w = vec![0.0; outs * ldi + PAD];
        for (dst, src) in padded_w.chunks_exact_mut(ldi).zip(w.data.chunks_exact(ins)) {
            dst[..ins].copy_from_slice(src);
        }
        let mut d = Dense {
            outs,
            ins,
            w: padded_w,
            b,
            wt: vec![0.0; ins * padded(outs)],
        };
        d.refresh();
        d
    }

    /// Output width.
    pub(crate) fn outs(&self) -> usize {
        self.outs
    }

    /// Input width.
    pub(crate) fn ins(&self) -> usize {
        self.ins
    }

    /// Number of parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.outs * self.ins + self.outs
    }

    /// Rows of `W`.
    pub(crate) fn weight_rows(&self) -> impl Iterator<Item = &[f64]> {
        let ins = self.ins;
        let rows = self.w.chunks_exact(padded(ins)).take(self.outs);
        rows.map(move |row| &row[..ins])
    }

    /// `Wᵀ` from input `k` on, rows `padded(out)` long.
    pub(crate) fn wt_from(&self, k: usize) -> &[f64] {
        &self.wt[k * padded(self.outs)..]
    }

    /// `W` from column `k` on, rows `padded(in)` long.
    pub(crate) fn w_from(&self, k: usize) -> &[f64] {
        &self.w[k..]
    }

    /// Rewrite `Wᵀ` from `W`.
    fn refresh(&mut self) {
        let ldo = padded(self.outs);
        let rows = self.w.chunks_exact(padded(self.ins)).take(self.outs);
        for (r, row) in rows.enumerate() {
            for (k, &w) in row[..self.ins].iter().enumerate() {
                self.wt[k * ldo + r] = w;
            }
        }
    }

    /// One Adam step: `weight(d, w)` is the gradient of the weight whose
    /// summed gradient in `grad` is `d` and whose value is `w`; a bias's is
    /// `d · scale`. The moments run over `W` row by row, then `b`.
    pub(crate) fn update(
        &mut self,
        step: &mut AdamStep<'_>,
        grad: &DenseGrad,
        scale: f64,
        weight: impl Fn(f64, f64) -> f64,
    ) {
        let ins = self.ins;
        let rows = self.w.chunks_exact_mut(padded(ins));
        for (row, dw) in rows.zip(grad.dw.chunks_exact(ins)) {
            step.update(&mut row[..ins], dw, &weight);
        }
        step.update(&mut self.b, &grad.db, |d, _| d * scale);
        self.refresh();
    }

    /// `y = (init + W x) + b` for `rows` inputs `x` (rows `padded(in)`
    /// long) into `y` (rows `padded(out)` long).
    pub(crate) fn forward(&self, rows: usize, x: &[f64], y: &mut [f64], init: f64) {
        let (ldi, ldo) = (padded(self.ins()), padded(self.outs()));
        y[..rows * ldo].fill(init);
        gemm_acc(
            (rows, self.outs(), self.ins()),
            (x, ldi, 1),
            (&self.wt, ldo),
            (y, ldo),
        );
        for row in y.chunks_exact_mut(ldo).take(rows) {
            for (y, &b) in row.iter_mut().zip(&self.b) {
                *y += b;
            }
        }
    }

    /// `db += g`, `dw += g ⊗ x` for `rows` output gradients `g` (rows
    /// `padded(out)` long) and inputs `x`, in row order.
    pub(crate) fn backward_params(&self, rows: usize, g: &[f64], x: &[f64], grad: &mut DenseGrad) {
        let (ldi, ldo) = (padded(self.ins()), padded(self.outs()));
        for row in g.chunks_exact(ldo).take(rows) {
            for (d, &g) in grad.db.iter_mut().zip(row) {
                *d += g;
            }
        }
        gemm_acc(
            (self.outs(), self.ins(), rows),
            (g, 1, ldo),
            (x, ldi),
            (&mut grad.dw, self.ins()),
        );
    }

    /// `dx = Wᵀ g` from `+0.0` for `rows` output gradients, into `dx`
    /// (rows `padded(in)` long).
    pub(crate) fn backward_input(&self, rows: usize, g: &[f64], dx: &mut [f64]) {
        let (ldi, ldo) = (padded(self.ins()), padded(self.outs()));
        dx[..rows * ldi].fill(0.0);
        gemm_acc(
            (rows, self.ins(), self.outs()),
            (g, ldo, 1),
            (&self.w, ldi),
            (dx, ldi),
        );
    }
}

impl DenseGrad {
    /// Zero, sized for `layer`.
    pub(crate) fn zero(&mut self, layer: &Dense) {
        self.dw.clear();
        self.dw.resize(layer.outs * layer.ins, 0.0);
        self.db.clear();
        self.db.resize(layer.b.len(), 0.0);
    }
}

/// A batch of rows on its way through an [`Mlp`]: one row per sample, of
/// padded width, in buffers reused from batch to batch.
#[derive(Default)]
pub(crate) struct MlpWork {
    rows: usize,
    /// `acts[0]` holds the inputs, `acts[l + 1]` the outputs of layer `l`
    /// (activated below the last).
    acts: Vec<Vec<f64>>,
    /// dL/d output of the layer being back-propagated; after a backward
    /// pass with input gradient, dL/d input.
    grad: Vec<f64>,
    grad_below: Vec<f64>,
    /// Width and padded width of the input, of the output, and of the
    /// rows in `grad`.
    input: (usize, usize),
    output: (usize, usize),
    grad_dim: (usize, usize),
}

impl MlpWork {
    /// Rows of the current batch.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Input row `s`.
    pub(crate) fn input_mut(&mut self, s: usize) -> &mut [f64] {
        let (d, ld) = self.input;
        &mut self.acts[0][s * ld..s * ld + d]
    }

    /// Output row `s`.
    pub(crate) fn output(&self, s: usize) -> &[f64] {
        let (d, ld) = self.output;
        &self.acts.last().expect("a batch was begun")[s * ld..s * ld + d]
    }

    /// Gradient row `s`: of the output before the backward pass, of the
    /// input after it.
    pub(crate) fn grad_mut(&mut self, s: usize) -> &mut [f64] {
        let (d, ld) = self.grad_dim;
        &mut self.grad[s * ld..s * ld + d]
    }

    /// Output row `s` and its gradient row, before the backward pass.
    pub(crate) fn output_and_grad(&mut self, s: usize) -> (&[f64], &mut [f64]) {
        let (d, ld) = self.output;
        let out = &self.acts.last().expect("a batch was begun")[s * ld..s * ld + d];
        (out, &mut self.grad[s * ld..s * ld + d])
    }

    /// See [`MlpWork::grad_mut`].
    pub(crate) fn grad(&self, s: usize) -> &[f64] {
        let (d, ld) = self.grad_dim;
        &self.grad[s * ld..s * ld + d]
    }
}

/// Gradients of every layer of an [`Mlp`] over one batch, and the number
/// of samples they sum.
#[derive(Default)]
pub(crate) struct MlpGrads {
    layers: Vec<DenseGrad>,
    pub(crate) count: usize,
}

/// A dense feed-forward network.
pub struct Mlp {
    cfg: MlpConfig,
    layers: Vec<Dense>,
    /// Moments in layer order, each layer's weights then its biases.
    adam: Adam,
    /// Buffers of the training methods, reused across batches.
    work: MlpWork,
    grads: MlpGrads,
}

impl Mlp {
    /// Initialize with Xavier weights.
    pub fn new(cfg: MlpConfig) -> Mlp {
        assert!(cfg.layers.len() >= 2, "need at least input and output");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let layers: Vec<Dense> = cfg
            .layers
            .windows(2)
            .map(|w| Dense::new(Matrix::xavier(w[1], w[0], &mut rng), vec![0.0; w[1]]))
            .collect();
        let n = layers.iter().map(Dense::num_params).sum();
        Mlp {
            cfg,
            layers,
            adam: Adam::new(n),
            work: MlpWork::default(),
            grads: MlpGrads::default(),
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
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Every weight, bias and Adam moment, as flat slices (for audits of
    /// the trained state, e.g. that no value is subnormal).
    pub fn params_and_moments(&self) -> Vec<&[f64]> {
        let mut out: Vec<&[f64]> = Vec::new();
        for l in &self.layers {
            out.extend(l.weight_rows());
            out.push(&l.b);
        }
        out.extend(self.adam.moments());
        out
    }

    /// Size `work` for a batch of `rows` inputs, to be written through
    /// [`MlpWork::input_mut`] before [`Mlp::forward`].
    pub(crate) fn begin(&self, work: &mut MlpWork, rows: usize) {
        let dims = &self.cfg.layers;
        work.rows = rows;
        work.input = (dims[0], padded(dims[0]));
        work.output = (self.output_dim(), padded(self.output_dim()));
        work.acts.resize_with(dims.len(), Vec::new);
        for (a, &d) in work.acts.iter_mut().zip(dims) {
            a.resize(rows * padded(d), 0.0);
        }
    }

    /// Forward pass of the batch in `work`.
    pub(crate) fn forward(&self, work: &mut MlpWork) {
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            let (below, above) = work.acts.split_at_mut(l + 1);
            let y = &mut above[0];
            layer.forward(work.rows, &below[l], y, -0.0);
            if l < last {
                let ld = padded(layer.outs());
                for row in y.chunks_exact_mut(ld).take(work.rows) {
                    for v in &mut row[..layer.outs()] {
                        *v = self.cfg.activation.apply(*v);
                    }
                }
            }
        }
    }

    /// Zero output gradients for the batch in `work`, to be written
    /// through [`MlpWork::grad_mut`] before [`Mlp::backward`].
    pub(crate) fn begin_grads(&self, work: &mut MlpWork) {
        work.grad_dim = work.output;
        work.grad.clear();
        work.grad.resize(work.rows * work.grad_dim.1, 0.0);
    }

    /// Zero gradients of every layer.
    pub(crate) fn zero_grads(&self, grads: &mut MlpGrads) {
        grads
            .layers
            .resize_with(self.layers.len(), DenseGrad::default);
        for (g, l) in grads.layers.iter_mut().zip(&self.layers) {
            g.zero(l);
        }
        grads.count = 0;
    }

    /// Back-propagate the output gradients in `work` through its forward
    /// pass, accumulating into `grads`. With `input_grad`, the gradient
    /// rows of `work` end up holding dL/d input.
    pub(crate) fn backward(&self, work: &mut MlpWork, grads: &mut MlpGrads, input_grad: bool) {
        let last = self.layers.len() - 1;
        for l in (0..self.layers.len()).rev() {
            let layer = &self.layers[l];
            if l < last {
                // Through the activation of layer l.
                let ld = padded(layer.outs());
                let acts = work.acts[l + 1].chunks_exact(ld);
                for (g, y) in work.grad.chunks_exact_mut(ld).zip(acts).take(work.rows) {
                    for (g, &y) in g.iter_mut().zip(&y[..layer.outs()]) {
                        *g *= self.cfg.activation.grad_from_output(y);
                    }
                }
            }
            layer.backward_params(work.rows, &work.grad, &work.acts[l], &mut grads.layers[l]);
            if l > 0 || input_grad {
                let ld = padded(layer.ins());
                work.grad_below.resize(work.rows * ld, 0.0);
                layer.backward_input(work.rows, &work.grad, &mut work.grad_below);
                std::mem::swap(&mut work.grad, &mut work.grad_below);
                work.grad_dim = (layer.ins(), ld);
            }
        }
    }

    /// One Adam step from gradients summed over `grads.count` samples.
    pub(crate) fn step(&mut self, grads: &MlpGrads) {
        if grads.count == 0 {
            return;
        }
        let scale = 1.0 / grads.count as f64;
        let l2 = self.cfg.l2;
        let mut step = self.adam.step(self.cfg.learning_rate);
        for (layer, grad) in self.layers.iter_mut().zip(&grads.layers) {
            layer.update(&mut step, grad, scale, |d, w| d * scale + l2 * w);
        }
    }

    /// Forward pass of one input, in a batch of its own.
    fn single(&self, x: &[f64]) -> MlpWork {
        let mut work = MlpWork::default();
        self.begin(&mut work, 1);
        work.input_mut(0).copy_from_slice(x);
        self.forward(&mut work);
        work
    }

    /// Raw (linear-output) forward pass.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.single(x).output(0).to_vec()
    }

    /// First output of the raw forward pass.
    pub fn predict_scalar(&self, x: &[f64]) -> f64 {
        self.single(x).output(0)[0]
    }

    /// Softmax probabilities over the output layer.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        softmax(self.single(x).output(0))
    }

    /// Activation after layer `layer` (1-based; `layers.len()-1` is the
    /// output). Exposes bottleneck codes of auto-encoders.
    pub fn hidden_activation(&self, x: &[f64], layer: usize) -> Vec<f64> {
        let l = layer.min(self.layers.len());
        let work = self.single(x);
        work.acts[l][..self.cfg.layers[l]].to_vec()
    }

    /// One training step over `rows` inputs `x(s)`: forward, then `loss`
    /// writes the output gradient of every row (through
    /// [`MlpWork::grad_mut`]) and returns the summed loss, then backward
    /// and an Adam step averaged over `rows` samples.
    fn train_rows<'x>(
        &mut self,
        rows: usize,
        x: impl Fn(usize) -> &'x [f64],
        loss: impl FnOnce(&mut MlpWork) -> f64,
    ) -> f64 {
        let mut work = std::mem::take(&mut self.work);
        let mut grads = std::mem::take(&mut self.grads);
        self.begin(&mut work, rows);
        for s in 0..rows {
            work.input_mut(s).copy_from_slice(x(s));
        }
        self.forward(&mut work);
        self.begin_grads(&mut work);
        let total = loss(&mut work);
        self.zero_grads(&mut grads);
        grads.count = rows;
        self.backward(&mut work, &mut grads, false);
        self.step(&grads);
        self.work = work;
        self.grads = grads;
        total
    }

    /// One Adam step on a regression batch (squared error, vector targets).
    /// Returns the mean squared error of the batch before the update.
    pub fn train_batch(&mut self, xs: &[impl AsRef<[f64]>], ys: &[impl AsRef<[f64]>]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let loss = self.train_rows(
            xs.len(),
            |s| xs[s].as_ref(),
            |work| squared_error(work, |s| ys[s].as_ref()),
        );
        loss / xs.len().max(1) as f64
    }

    /// Scalar-target convenience wrapper around [`Mlp::train_batch`].
    pub fn train_scalar_batch(&mut self, xs: &[impl AsRef<[f64]>], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let loss = self.train_rows(
            xs.len(),
            |s| xs[s].as_ref(),
            |work| squared_error(work, |s| std::slice::from_ref(&ys[s])),
        );
        loss / xs.len().max(1) as f64
    }

    /// One Adam step on a softmax cross-entropy batch (`ys` are class
    /// indices). Returns mean cross-entropy before the update.
    pub fn train_softmax_batch(&mut self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let loss = self.train_rows(
            xs.len(),
            |s| &xs[s],
            |work| {
                let mut loss = 0.0;
                for (s, &y) in ys.iter().enumerate() {
                    let (logits, grad) = work.output_and_grad(s);
                    softmax_into(logits, grad);
                    loss -= grad[y].max(1e-12).ln();
                    grad[y] -= 1.0;
                }
                loss
            },
        );
        loss / xs.len().max(1) as f64
    }

    /// One Adam step on a pairwise-ranking batch: each element is
    /// `(a, b, y)` with `y = +1` when `a` should score higher than `b`.
    /// The first output unit is the score. Returns mean logistic loss.
    pub fn train_pairwise_batch(&mut self, pairs: &[(Vec<f64>, Vec<f64>, f64)]) -> f64 {
        // Rows `2p` and `2p + 1` are the two sides of pair `p`.
        let row = |s: usize| {
            let (a, b, _) = &pairs[s / 2];
            if s.is_multiple_of(2) {
                a.as_slice()
            } else {
                b.as_slice()
            }
        };
        let loss = self.train_rows(2 * pairs.len(), row, |work| {
            let mut loss = 0.0;
            for (p, (_, _, y)) in pairs.iter().enumerate() {
                let (sa, sb) = (work.output(2 * p)[0], work.output(2 * p + 1)[0]);
                let margin = y * (sa - sb);
                loss += (1.0 + (-margin).exp()).ln();
                // dL/d(sa - sb) = -y * sigmoid(-margin)
                let g = -y / (1.0 + margin.exp());
                work.grad_mut(2 * p)[0] = g;
                work.grad_mut(2 * p + 1)[0] = -g;
            }
            loss
        });
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
                let loss = self.train_rows(
                    chunk.len(),
                    |s| &xs[chunk[s]],
                    |work| squared_error(work, |s| std::slice::from_ref(&ys[chunk[s]])),
                );
                total += loss / chunk.len() as f64;
                batches += 1;
            }
            last = total / batches.max(1) as f64;
        }
        last
    }
}

/// Squared error of every output row of `work` against its target row
/// `y(s)`, writing the output gradients; returns the summed loss.
fn squared_error<'y>(work: &mut MlpWork, y: impl Fn(usize) -> &'y [f64]) -> f64 {
    let mut loss = 0.0;
    for s in 0..work.rows {
        let y = y(s);
        assert_eq!(y.len(), work.output.0, "target dimension");
        let (out, grad) = work.output_and_grad(s);
        for ((&o, &t), g) in out.iter().zip(y).zip(grad) {
            loss += (o - t) * (o - t);
            *g = 2.0 * (o - t);
        }
    }
    loss
}

/// Softmax of `logits` into `out`, with the arithmetic of [`softmax`].
fn softmax_into(logits: &[f64], out: &mut [f64]) {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (e, &l) in out.iter_mut().zip(logits) {
        *e = (l - max).exp();
    }
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// Numerically-stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; logits.len()];
    softmax_into(logits, &mut out);
    out
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
