//! Tree convolution networks (Mou et al. 2016), as used by Neo, Bao and
//! plan-structured cost models: per-node convolution over (node, left
//! child, right child) feature triples, stacked, followed by dynamic
//! max+mean pooling and a dense head.
//!
//! `predict`, `train_batch` and `train_pairwise_batch` run one kernel,
//! `TreeConvNet::forward`/`backward`, over a whole minibatch at once: the
//! nodes of all its trees (both trees of each pair, in pair order) are
//! stacked node-major in a `Workspace`, each conv layer runs once over
//! them, and the head runs once over the pooled rows. The forward pass of
//! the batch runs before its backward pass; weights do not change inside
//! a batch, so every tree's pass is the one it would have alone. The net
//! owns its training workspace; `predict` uses one per thread, so after
//! its first call it allocates nothing.
//!
//! Layer 0 reads plan features, which are mostly one-hot: a node's input
//! is visited through the nonzero indices [`FeatTree`] records as each
//! node is added, and its outputs are accumulated in blocks of up to 16
//! columns held in registers. Hidden layers read ReLU outputs and run
//! dense and branch-free, as column-form products (`linalg::gemm_acc`):
//! every node's sums first run over its own slot, then an internal node's
//! continue over its children's slots, in a compact copy of the internal
//! nodes' rows (a leaf's child slots are all zero).
//!
//! **Numerics.** Every output and gradient sum adds its terms in ascending
//! input index, one by one, and gradient sums add node after node in
//! stacked order (tree by tree, then node by node within a tree). Zero
//! terms change no bit for finite values: a term `w · 0 = ±0` leaves a
//! nonzero partial sum unchanged, and the sums here start at `+0.0`, which
//! adding `±0` keeps (a sum of nonzero terms that cancels is `+0.0` too).
//! So skipping zero features in layer 0, skipping a leaf's child slots,
//! and adding ReLU zeros densely in hidden layers all give the same bits.
//! The input gradient of a hidden layer also lands on slots whose
//! activation below was zero; the ReLU below discards it.
//! `tests/training_bits.rs` pins the bits.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::linalg::{gemm_acc, padded, Matrix, PAD};
use crate::mlp::{Activation, Dense, DenseGrad, Mlp, MlpConfig, MlpGrads, MlpWork};

/// A featurized binary tree in bottom-up (children-first) node order,
/// built through [`FeatTree::leaf`] and [`FeatTree::internal`]. Every node
/// has a feature vector of the same width; a node's children are indices
/// smaller than its own.
#[derive(Debug, Clone, Default)]
pub struct FeatTree {
    /// Feature width, fixed by the first node.
    dim: usize,
    /// Node features, node-major.
    feats: Vec<f64>,
    nodes: Vec<Node>,
    /// Indices of each node's nonzero features, ascending, node after
    /// node: built once, as the node is added.
    nonzero: Vec<u16>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Left and right child.
    kids: Option<[u32; 2]>,
    /// End of the node's run in `nonzero`.
    nonzero_end: u32,
}

impl FeatTree {
    /// Empty tree.
    pub fn new() -> FeatTree {
        FeatTree::default()
    }

    fn push(&mut self, feat: &[f64], kids: Option<[usize; 2]>) -> usize {
        if self.nodes.is_empty() {
            assert!(feat.len() <= 1 << 16, "node feature dimension");
            self.dim = feat.len();
        }
        assert_eq!(feat.len(), self.dim, "node feature dimension");
        // Trees are small and many are kept (a retrain holds one per
        // sample): grow every buffer to the exact size.
        self.feats.reserve_exact(feat.len());
        self.feats.extend_from_slice(feat);
        let nonzero = feat.iter().enumerate().filter(|(_, &v)| v != 0.0);
        let count = nonzero.clone().count();
        self.nonzero.reserve_exact(count);
        self.nonzero.extend(nonzero.map(|(c, _)| c as u16));
        self.nodes.reserve_exact(1);
        let idx = |j: usize| u32::try_from(j).expect("fewer than 2^32 nodes");
        self.nodes.push(Node {
            kids: kids.map(|[l, r]| [idx(l), idx(r)]),
            nonzero_end: idx(self.nonzero.len()),
        });
        self.nodes.len() - 1
    }

    /// Add a leaf, returning its index.
    pub fn leaf(&mut self, feat: Vec<f64>) -> usize {
        self.push(&feat, None)
    }

    /// Add an internal node over two existing children, returning its index.
    pub fn internal(&mut self, feat: Vec<f64>, left: usize, right: usize) -> usize {
        assert!(left < self.nodes.len() && right < self.nodes.len());
        self.push(&feat, Some([left, right]))
    }

    /// Features of node `i`.
    pub fn feat(&self, i: usize) -> &[f64] {
        &self.feats[i * self.dim..(i + 1) * self.dim]
    }

    /// Left and right child of node `i`, `None` for a leaf.
    pub fn children(&self, i: usize) -> Option<(usize, usize)> {
        self.nodes[i].kids.map(|[l, r]| (l as usize, r as usize))
    }

    /// Node `i`'s convolution input `[node; left; right]` as three slots
    /// `(first column, features, nonzero indices)`; a leaf's child slots
    /// are empty.
    fn conv_slots(&self, i: usize) -> [(usize, &[f64], &[u16]); 3] {
        let slot = |s: usize, j: usize| {
            let start = if j == 0 {
                0
            } else {
                self.nodes[j - 1].nonzero_end
            };
            let nonzero = &self.nonzero[start as usize..self.nodes[j].nonzero_end as usize];
            (s * self.dim, self.feat(j), nonzero)
        };
        match self.children(i) {
            Some((l, r)) => [slot(0, i), slot(1, l), slot(2, r)],
            None => [slot(0, i), (0, &[], &[]), (0, &[], &[])],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Tree-convolution hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeConvConfig {
    /// Per-node input feature dimension.
    pub input_dim: usize,
    /// Output channels of each convolution layer.
    pub channels: Vec<usize>,
    /// Hidden sizes of the dense head (input is `2 * channels.last()`).
    pub head_hidden: Vec<usize>,
    /// Adam learning rate (shared by conv layers and head).
    pub learning_rate: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl TreeConvConfig {
    /// Default shape for plan-value networks.
    pub fn new(input_dim: usize) -> TreeConvConfig {
        TreeConvConfig {
            input_dim,
            channels: vec![32, 16],
            head_hidden: vec![32],
            learning_rate: 1e-3,
            seed: 5,
        }
    }
}

/// A tree convolution network with a scalar dense head.
pub struct TreeConvNet {
    cfg: TreeConvConfig,
    /// Conv layer `l` maps `[node; left; right]` (`3 · ch_in`) to `ch_out`.
    convs: Vec<Dense>,
    head: Mlp,
    /// Moments of the conv layers, each layer's weights then its biases.
    adam: Adam,
    /// Training buffers, reused across batches.
    train: Train,
}

/// What a training step needs besides the pass itself.
#[derive(Default)]
struct Train {
    ws: Workspace,
    grads: Vec<DenseGrad>,
    head_grads: MlpGrads,
}

thread_local! {
    /// Buffers of [`TreeConvNet::predict`] on this thread.
    static PREDICT: RefCell<Workspace> = RefCell::default();
}

/// One minibatch's pass through the network: node-indexed buffers have
/// one row per stacked node, of padded width. Every buffer grows to the
/// largest batch seen and is reused.
#[derive(Default)]
struct Workspace {
    /// First stacked node of each tree, then the total.
    starts: Vec<usize>,
    /// Stacked index of each internal node, ascending, and of its left and
    /// right child.
    inner: Vec<(usize, [usize; 2])>,
    /// Per conv layer.
    layers: Vec<LayerBuf>,
    /// Stacked node holding the maximum, per tree and channel of the last
    /// layer.
    argmax: Vec<usize>,
    /// dL/d activation of the layer being back-propagated.
    gh: Vec<f64>,
    /// The same for the layer below it.
    gh_below: Vec<f64>,
    /// Rows of the internal nodes only: their partial sums in the forward
    /// pass, their output gradients in the backward pass.
    inner_rows: Vec<f64>,
    /// Input gradient of a hidden layer: the node's own slot per node, and
    /// both child slots per internal node.
    dz: Vec<f64>,
    dz_kids: Vec<f64>,
    /// Layer 0's weight gradient, input-major.
    dw0t: Vec<f64>,
    /// The pooled rows, one per tree.
    head: MlpWork,
}

/// One conv layer's rows.
#[derive(Default)]
struct LayerBuf {
    /// `[left; right]` inputs per internal node (hidden layers only).
    kids: Vec<f64>,
    /// ReLU outputs per node.
    act: Vec<f64>,
}

impl TreeConvNet {
    /// Initialize the network.
    pub fn new(cfg: TreeConvConfig) -> TreeConvNet {
        assert!(!cfg.channels.is_empty());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut convs = Vec::new();
        let mut ch_in = cfg.input_dim;
        for &ch_out in &cfg.channels {
            let w = Matrix::xavier(ch_out, 3 * ch_in, &mut rng);
            convs.push(Dense::new(w, vec![0.0; ch_out]));
            ch_in = ch_out;
        }
        let last = *cfg.channels.last().unwrap();
        let mut head_layers = vec![2 * last];
        head_layers.extend_from_slice(&cfg.head_hidden);
        head_layers.push(1);
        let head = Mlp::new(MlpConfig {
            learning_rate: cfg.learning_rate,
            activation: Activation::Relu,
            ..MlpConfig::new(head_layers)
        });
        let adam = Adam::new(convs.iter().map(Dense::num_params).sum());
        TreeConvNet {
            cfg,
            convs,
            head,
            adam,
            train: Train::default(),
        }
    }

    /// Number of trainable parameters (model-size metric).
    pub fn num_params(&self) -> usize {
        self.convs.iter().map(Dense::num_params).sum::<usize>() + self.head.num_params()
    }

    /// Every parameter and Adam moment of conv layers and head, as flat
    /// slices (for audits of the trained state, e.g. that no value is
    /// subnormal).
    pub fn params_and_moments(&self) -> Vec<&[f64]> {
        let mut out: Vec<&[f64]> = Vec::new();
        for c in &self.convs {
            out.extend(c.weight_rows());
            out.push(&c.b);
        }
        out.extend(self.adam.moments());
        out.extend(self.head.params_and_moments());
        out
    }

    /// Conv layers, pooling and head over the `n` trees `tree(t)`, into
    /// `ws`; the score of tree `t` is `ws.head.output(t)[0]`.
    fn forward<'t>(&self, ws: &mut Workspace, n: usize, tree: impl Fn(usize) -> &'t FeatTree) {
        ws.starts.clear();
        ws.inner.clear();
        let mut total = 0;
        for t in 0..n {
            let tr = tree(t);
            assert!(!tr.is_empty(), "cannot evaluate an empty tree");
            assert_eq!(tr.dim, self.cfg.input_dim, "node feature dimension");
            ws.starts.push(total);
            for i in 0..tr.len() {
                if let Some((l, r)) = tr.children(i) {
                    ws.inner.push((total + i, [total + l, total + r]));
                }
            }
            total += tr.len();
        }
        ws.starts.push(total);
        ws.layers.resize_with(self.convs.len(), LayerBuf::default);

        // Layer 0: sparse, over each node's nonzero inputs.
        let conv = &self.convs[0];
        let ld = padded(conv.outs());
        let act = &mut ws.layers[0].act;
        act.clear();
        act.resize(total * ld, 0.0);
        for t in 0..n {
            let tr = tree(t);
            for i in 0..tr.len() {
                let out = &mut act[(ws.starts[t] + i) * ld..][..ld];
                let entries = tr.conv_slots(i);
                for (j0, w) in col_blocks(ld) {
                    match w {
                        16 => sparse_product::<16>(entries, conv.wt_from(0), ld, j0, out),
                        8 => sparse_product::<8>(entries, conv.wt_from(0), ld, j0, out),
                        _ => sparse_product::<PAD>(entries, conv.wt_from(0), ld, j0, out),
                    }
                }
                for (y, &b) in out.iter_mut().zip(&conv.b) {
                    *y = (*y + b).max(0.0);
                }
            }
        }

        // Hidden layers: dense. Every node's sums run over its own slot;
        // an internal node's then continue over its children's slots in a
        // compact copy (a leaf's child slots are zero).
        for l in 1..self.convs.len() {
            let conv = &self.convs[l];
            let (below, rest) = ws.layers.split_at_mut(l);
            let (below, LayerBuf { kids, act }) = (&below[l - 1].act, &mut rest[0]);
            let ch_in = conv.ins() / 3;
            let (ldb, ldk, ld) = (padded(ch_in), padded(2 * ch_in), padded(conv.outs()));
            let m = ws.inner.len();
            act.clear();
            act.resize(total * ld, 0.0);
            gemm_acc(
                (total, conv.outs(), ch_in),
                (below, ldb, 1),
                (conv.wt_from(0), ld),
                (act, ld),
            );
            kids.resize(m * ldk, 0.0);
            ws.inner_rows.resize(m * ld, 0.0);
            let rows = kids
                .chunks_exact_mut(ldk)
                .zip(ws.inner_rows.chunks_exact_mut(ld));
            for ((x, y), &(g, [left, right])) in rows.zip(&ws.inner) {
                x[..ch_in].copy_from_slice(&below[left * ldb..][..ch_in]);
                x[ch_in..2 * ch_in].copy_from_slice(&below[right * ldb..][..ch_in]);
                y.copy_from_slice(&act[g * ld..][..ld]);
            }
            gemm_acc(
                (m, conv.outs(), 2 * ch_in),
                (kids, ldk, 1),
                (conv.wt_from(ch_in), ld),
                (&mut ws.inner_rows, ld),
            );
            for (y, &(g, _)) in ws.inner_rows.chunks_exact(ld).zip(&ws.inner) {
                act[g * ld..][..ld].copy_from_slice(y);
            }
            for row in act.chunks_exact_mut(ld) {
                for (y, &b) in row.iter_mut().zip(&conv.b) {
                    *y = (*y + b).max(0.0);
                }
            }
        }

        // Dynamic pooling: [max; mean] over each tree's nodes of the last
        // layer, one head row per tree.
        let ch = self.convs[self.convs.len() - 1].outs();
        let ld = padded(ch);
        let last = &ws.layers[self.convs.len() - 1].act;
        self.head.begin(&mut ws.head, n);
        ws.argmax.clear();
        ws.argmax.resize(n * ch, 0);
        for t in 0..n {
            let (start, end) = (ws.starts[t], ws.starts[t + 1]);
            let (maxv, meanv) = ws.head.input_mut(t).split_at_mut(ch);
            let argmax = &mut ws.argmax[t * ch..(t + 1) * ch];
            maxv.fill(f64::NEG_INFINITY);
            meanv.fill(0.0);
            for (g, node) in last[start * ld..end * ld].chunks_exact(ld).enumerate() {
                for c in 0..ch {
                    let above = node[c] > maxv[c];
                    maxv[c] = if above { node[c] } else { maxv[c] };
                    argmax[c] = if above { start + g } else { argmax[c] };
                    meanv[c] += node[c];
                }
            }
            for m in meanv.iter_mut() {
                *m /= (end - start) as f64;
            }
        }
        self.head.forward(&mut ws.head);
    }

    /// Predicted scalar value of a tree.
    pub fn predict(&self, tree: &FeatTree) -> f64 {
        PREDICT.with(|ws| {
            let ws = &mut ws.borrow_mut();
            self.forward(ws, 1, |_| tree);
            ws.head.output(0)[0]
        })
    }

    /// Backprop the score gradients the caller wrote into `ws.head` (after
    /// `Mlp::begin_grads`) through the pass `forward` left in `ws`,
    /// accumulating conv gradients into `grads` and head gradients into
    /// `head_grads`.
    fn backward<'t>(
        &self,
        ws: &mut Workspace,
        tree: impl Fn(usize) -> &'t FeatTree,
        grads: &mut [DenseGrad],
        head_grads: &mut MlpGrads,
    ) {
        let n = ws.starts.len() - 1;
        head_grads.count += n;
        self.head.backward(&mut ws.head, head_grads, true);

        let total = ws.starts[n];
        let ch = self.convs[self.convs.len() - 1].outs();
        let ld = padded(ch);
        ws.gh.clear();
        ws.gh.resize(total * ld, 0.0);
        for t in 0..n {
            let (start, end) = (ws.starts[t], ws.starts[t + 1]);
            let gp = ws.head.grad(t);
            for c in 0..ch {
                ws.gh[ws.argmax[t * ch + c] * ld + c] += gp[c]; // max half
            }
            for node in ws.gh[start * ld..end * ld].chunks_exact_mut(ld) {
                for c in 0..ch {
                    node[c] += gp[ch + c] / (end - start) as f64; // mean half
                }
            }
        }
        // Conv layers, top down. Nothing reads the gradient of the
        // features themselves, so layer 0 forms no input gradient.
        for l in (0..self.convs.len()).rev() {
            let (conv, grad) = (&self.convs[l], &mut grads[l]);
            let ld = padded(conv.outs());
            // Through the ReLU; then db += g node by node.
            for (g, &y) in ws.gh.iter_mut().zip(&ws.layers[l].act) {
                *g = if y > 0.0 { *g } else { 0.0 };
            }
            for g in ws.gh.chunks_exact(ld) {
                for (d, &g) in grad.db.iter_mut().zip(g) {
                    *d += g;
                }
            }
            if l == 0 {
                self.backward_layer0(ws, tree, grad);
                break;
            }
            // dW += g ⊗ x and dz = Wᵀ g: the own slot over every node, the
            // child slots over the internal nodes (a leaf's are zero).
            let below = &ws.layers[l - 1].act;
            let kids = &ws.layers[l].kids;
            let ch_in = conv.ins() / 3;
            let (ldb, ldk, ldw) = (padded(ch_in), padded(2 * ch_in), padded(conv.ins()));
            let m = ws.inner.len();
            ws.inner_rows.resize(m * ld, 0.0);
            for (y, &(g, _)) in ws.inner_rows.chunks_exact_mut(ld).zip(&ws.inner) {
                y.copy_from_slice(&ws.gh[g * ld..][..ld]);
            }
            let dw = (&mut grad.dw[..], conv.ins());
            gemm_acc(
                (conv.outs(), ch_in, total),
                (&ws.gh, 1, ld),
                (below, ldb),
                dw,
            );
            let dw = (&mut grad.dw[ch_in..], conv.ins());
            gemm_acc(
                (conv.outs(), 2 * ch_in, m),
                (&ws.inner_rows, 1, ld),
                (kids, ldk),
                dw,
            );
            ws.dz.clear();
            ws.dz.resize(total * ldb, 0.0);
            let dz = (&mut ws.dz[..], ldb);
            gemm_acc(
                (total, ch_in, conv.outs()),
                (&ws.gh, ld, 1),
                (conv.w_from(0), ldw),
                dz,
            );
            ws.dz_kids.clear();
            ws.dz_kids.resize(m * ldk, 0.0);
            let dz = (&mut ws.dz_kids[..], ldk);
            let g = (&ws.inner_rows[..], ld, 1);
            gemm_acc(
                (m, 2 * ch_in, conv.outs()),
                g,
                (conv.w_from(ch_in), ldw),
                dz,
            );
            // Distribute to the slots below: each node's own first, then
            // each parent's, in node order (a child precedes its parents).
            ws.gh_below.clear();
            ws.gh_below.resize(total * ldb, 0.0);
            for (d, &s) in ws.gh_below.iter_mut().zip(&ws.dz) {
                *d += s;
            }
            for (dz, &(_, kids)) in ws.dz_kids.chunks_exact(ldk).zip(&ws.inner) {
                for (src, j) in dz.chunks_exact(ch_in).zip(kids) {
                    for (d, &s) in ws.gh_below[j * ldb..][..ch_in].iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
            std::mem::swap(&mut ws.gh, &mut ws.gh_below);
        }
    }

    /// Layer 0's `dW += g ⊗ x` at the nonzero inputs, node by node.
    fn backward_layer0<'t>(
        &self,
        ws: &mut Workspace,
        tree: impl Fn(usize) -> &'t FeatTree,
        grad: &mut DenseGrad,
    ) {
        let conv = &self.convs[0];
        let (k, ld) = (conv.ins(), padded(conv.outs()));
        ws.dw0t.clear();
        ws.dw0t.resize(k * ld, 0.0);
        for t in 0..ws.starts.len() - 1 {
            let tr = tree(t);
            for i in 0..tr.len() {
                let g = &ws.gh[(ws.starts[t] + i) * ld..][..ld];
                let (entries, dw) = (tr.conv_slots(i), &mut ws.dw0t);
                for (j0, w) in col_blocks(ld) {
                    match w {
                        16 => sparse_outer::<16>(entries, g, ld, j0, dw),
                        8 => sparse_outer::<8>(entries, g, ld, j0, dw),
                        _ => sparse_outer::<PAD>(entries, g, ld, j0, dw),
                    }
                }
            }
        }
        for (r, row) in grad.dw.chunks_exact_mut(k).enumerate() {
            for (d, col) in row.iter_mut().zip(ws.dw0t.chunks_exact(ld)) {
                *d = col[r];
            }
        }
    }

    /// Score gradients are in: back-propagate and take one Adam step over
    /// conv layers and head, the conv gradient averaged over `batch`.
    fn learn<'t>(&mut self, train: &mut Train, tree: impl Fn(usize) -> &'t FeatTree, batch: usize) {
        train
            .grads
            .resize_with(self.convs.len(), DenseGrad::default);
        for (g, c) in train.grads.iter_mut().zip(&self.convs) {
            g.zero(c);
        }
        self.head.zero_grads(&mut train.head_grads);
        self.backward(&mut train.ws, tree, &mut train.grads, &mut train.head_grads);
        let scale = 1.0 / batch.max(1) as f64;
        let mut step = self.adam.step(self.cfg.learning_rate);
        for (conv, grad) in self.convs.iter_mut().zip(&train.grads) {
            conv.update(&mut step, grad, scale, |d, _| d * scale);
        }
        self.head.step(&train.head_grads);
    }

    /// One Adam step of squared-error regression on a batch of trees.
    /// Returns the batch MSE before the update.
    pub fn train_batch(&mut self, trees: &[&FeatTree], ys: &[f64]) -> f64 {
        assert_eq!(trees.len(), ys.len());
        let mut train = std::mem::take(&mut self.train);
        let ws = &mut train.ws;
        self.forward(ws, trees.len(), |t| trees[t]);
        self.head.begin_grads(&mut ws.head);
        let mut loss = 0.0;
        for (t, &y) in ys.iter().enumerate() {
            let (out, grad) = ws.head.output_and_grad(t);
            let pred = out[0];
            loss += (pred - y) * (pred - y);
            grad[0] = 2.0 * (pred - y);
        }
        self.learn(&mut train, |t| trees[t], trees.len());
        self.train = train;
        loss / trees.len().max(1) as f64
    }

    /// One Adam step of pairwise logistic ranking: `y = +1` when `a`
    /// should score higher than `b`. Returns mean logistic loss.
    pub fn train_pairwise_batch(&mut self, pairs: &[(&FeatTree, &FeatTree, f64)]) -> f64 {
        let mut train = std::mem::take(&mut self.train);
        let ws = &mut train.ws;
        // Trees `2p` and `2p + 1` are the two sides of pair `p`.
        let tree = |t: usize| {
            if t.is_multiple_of(2) {
                pairs[t / 2].0
            } else {
                pairs[t / 2].1
            }
        };
        self.forward(ws, 2 * pairs.len(), tree);
        self.head.begin_grads(&mut ws.head);
        let mut loss = 0.0;
        for (p, &(_, _, y)) in pairs.iter().enumerate() {
            let margin = y * (ws.head.output(2 * p)[0] - ws.head.output(2 * p + 1)[0]);
            loss += (1.0 + (-margin).exp()).ln();
            let g = -y / (1.0 + margin.exp());
            ws.head.grad_mut(2 * p)[0] = g;
            ws.head.grad_mut(2 * p + 1)[0] = -g;
        }
        self.learn(&mut train, tree, 2 * pairs.len());
        self.train = train;
        loss / pairs.len().max(1) as f64
    }
}

/// Column blocks `(first, width)` of a row `ld` wide (a multiple of
/// `PAD`): 16 wide while they fit, then 8, then `PAD`, so that a block's
/// accumulators stay in registers.
fn col_blocks(ld: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let w = [16, 8, PAD].into_iter().find(|&w| j0 + w <= ld)?;
        j0 += w;
        Some((j0 - w, w))
    })
}

/// The nonzero inputs of one node: `(first column, features, nonzero
/// indices)` per slot, as [`FeatTree`] keeps them.
type Slots<'a> = [(usize, &'a [f64], &'a [u16]); 3];

/// `out[j] = Σ x · wt[k][j]` over the nonzero inputs `(k, x)` in
/// ascending `k`, from `+0.0`, for the `W` columns from `j0`.
#[inline]
fn sparse_product<const W: usize>(
    inputs: Slots,
    wt: &[f64],
    ld: usize,
    j0: usize,
    out: &mut [f64],
) {
    let mut acc = [0.0; W];
    for (first, feat, nonzero) in inputs {
        for &c in nonzero {
            let (k, x) = (first + c as usize, feat[c as usize]);
            let w: &[f64; W] = wt[k * ld + j0..][..W].try_into().expect("W wide");
            for j in 0..W {
                acc[j] += w[j] * x;
            }
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

/// `dwt[k][j] += g[j] · x` over the nonzero inputs `(k, x)`, for the `W`
/// columns from `j0`.
#[inline]
fn sparse_outer<const W: usize>(inputs: Slots, g: &[f64], ld: usize, j0: usize, dwt: &mut [f64]) {
    let g: &[f64; W] = g[j0..j0 + W].try_into().expect("W wide");
    for (first, feat, nonzero) in inputs {
        for &c in nonzero {
            let (k, x) = (first + c as usize, feat[c as usize]);
            let d: &mut [f64; W] = (&mut dwt[k * ld + j0..][..W]).try_into().expect("W wide");
            for j in 0..W {
                d[j] += g[j] * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree whose value is the sum of leaf features: left-deep chains of
    /// varying depth.
    fn chain_tree(leaf_vals: &[f64]) -> FeatTree {
        let mut t = FeatTree::new();
        let mut prev = t.leaf(vec![leaf_vals[0], 1.0]);
        for &v in &leaf_vals[1..] {
            let leaf = t.leaf(vec![v, 1.0]);
            prev = t.internal(vec![0.0, 0.0], prev, leaf);
        }
        t
    }

    #[test]
    fn builder_orders_children_first() {
        let t = chain_tree(&[1.0, 2.0, 3.0]);
        assert_eq!(t.len(), 5);
        for i in 0..t.len() {
            if let Some((l, r)) = t.children(i) {
                assert!(l < i && r < i);
            }
        }
    }

    #[test]
    fn learns_sum_of_leaves() {
        let mut net = TreeConvNet::new(TreeConvConfig {
            learning_rate: 3e-3,
            channels: vec![16],
            head_hidden: vec![16],
            ..TreeConvConfig::new(2)
        });
        // Trees of varying depth whose target is the (scaled) leaf sum.
        let data: Vec<(FeatTree, f64)> = (0..60)
            .map(|i| {
                let vals: Vec<f64> = (0..2 + i % 4).map(|j| ((i + j) % 5) as f64 / 5.0).collect();
                let target = vals.iter().sum::<f64>() / 4.0;
                (chain_tree(&vals), target)
            })
            .collect();
        let trees: Vec<&FeatTree> = data.iter().map(|(t, _)| t).collect();
        let ys: Vec<f64> = data.iter().map(|(_, y)| *y).collect();
        let mut loss = f64::INFINITY;
        for _ in 0..400 {
            loss = net.train_batch(&trees, &ys);
        }
        assert!(loss < 0.01, "tree-conv loss {loss}");
    }

    #[test]
    fn pairwise_ranking_on_trees() {
        let mut net = TreeConvNet::new(TreeConvConfig {
            learning_rate: 5e-3,
            channels: vec![8],
            head_hidden: vec![8],
            ..TreeConvConfig::new(2)
        });
        // Bigger leaf value should rank higher.
        let lo = chain_tree(&[0.1, 0.1]);
        let hi = chain_tree(&[0.9, 0.9]);
        let pairs = vec![(&hi, &lo, 1.0)];
        for _ in 0..200 {
            net.train_pairwise_batch(&pairs);
        }
        assert!(net.predict(&hi) > net.predict(&lo));
    }

    #[test]
    fn handles_single_leaf_tree() {
        let net = TreeConvNet::new(TreeConvConfig::new(2));
        let mut t = FeatTree::new();
        t.leaf(vec![0.5, 0.5]);
        let v = net.predict(&t);
        assert!(v.is_finite());
    }

    #[test]
    fn param_count_positive() {
        let net = TreeConvNet::new(TreeConvConfig::new(4));
        assert!(net.num_params() > 100);
    }
}
