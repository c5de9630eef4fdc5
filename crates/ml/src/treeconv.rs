//! Tree convolution networks (Mou et al. 2016), as used by Neo, Bao and
//! plan-structured cost models: per-node convolution over (node, left
//! child, right child) feature triples, stacked, followed by dynamic
//! max+mean pooling and a dense head.
//!
//! `predict`, `train_batch` and `train_pairwise_batch` run one kernel,
//! `TreeConvNet::forward`/`backward`, over flat per-layer buffers in a
//! `Workspace` (one per `predict` call; two owned by the net for
//! training). A node's convolution input `[node; left; right]` is kept as
//! the list of its nonzero entries: plan features are mostly one-hot, a
//! leaf has no child slots, and ReLU zeroes much of every hidden layer.
//!
//! **Numerics.** Every output and gradient sum adds its terms in ascending
//! input index, one by one, exactly as the dense product did, so skipping
//! zero inputs cannot change a bit for finite values: a skipped term is
//! `w · 0 = ±0`, which leaves a nonzero partial sum unchanged; a zero
//! conv-output sum can differ only in its sign, which `+ b` erases (a bias
//! is never `-0.0`); and gradient accumulators start at `+0.0`, which adding
//! `±0` keeps. The input gradient of layers above the first is formed only
//! at nonzero inputs: the others are ReLU outputs that were zero, whose
//! derivative discards the gradient anyway. `tests/training_bits.rs`
//! pins the bits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::linalg::Matrix;
use crate::mlp::{Activation, Cache, GradBuf, Mlp, MlpConfig};

/// A node of a featurized binary tree. Children are indices into the
/// owning [`FeatTree`]'s node vector and must be smaller than the node's
/// own index (build trees bottom-up).
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Node feature vector (fixed dimension across the tree).
    pub feat: Vec<f64>,
    /// Left child index.
    pub left: Option<usize>,
    /// Right child index.
    pub right: Option<usize>,
}

/// A featurized binary tree in bottom-up (children-first) node order.
#[derive(Debug, Clone, Default)]
pub struct FeatTree {
    /// Nodes; the last node is the root.
    pub nodes: Vec<TreeNode>,
}

impl FeatTree {
    /// Empty tree.
    pub fn new() -> FeatTree {
        FeatTree::default()
    }

    /// Add a leaf, returning its index.
    pub fn leaf(&mut self, feat: Vec<f64>) -> usize {
        self.nodes.push(TreeNode {
            feat,
            left: None,
            right: None,
        });
        self.nodes.len() - 1
    }

    /// Add an internal node over two existing children, returning its index.
    pub fn internal(&mut self, feat: Vec<f64>, left: usize, right: usize) -> usize {
        assert!(left < self.nodes.len() && right < self.nodes.len());
        self.nodes.push(TreeNode {
            feat,
            left: Some(left),
            right: Some(right),
        });
        self.nodes.len() - 1
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

/// Weights of one convolution layer, or their gradient over a batch.
struct ConvLayer {
    w: Matrix, // ch_out x 3*ch_in
    b: Vec<f64>,
}

impl ConvLayer {
    fn zeros_like(&self) -> ConvLayer {
        ConvLayer {
            w: Matrix::zeros(self.w.rows, self.w.cols),
            b: vec![0.0; self.b.len()],
        }
    }
}

/// A tree convolution network with a scalar dense head.
pub struct TreeConvNet {
    cfg: TreeConvConfig,
    convs: Vec<ConvLayer>,
    head: Mlp,
    /// Moments of the conv layers, each layer's weights then its biases.
    adam: Adam,
    /// Training workspaces, one per tree of a pair, reused across batches.
    ws: [Workspace; 2],
}

/// One tree's pass through the network. Every buffer is flat, grows to
/// the largest tree seen and is reused from tree to tree.
#[derive(Default)]
struct Workspace {
    /// Per conv layer.
    layers: Vec<LayerBuf>,
    /// `[max; mean]` over the nodes of the last layer.
    pooled: Vec<f64>,
    /// Node holding the maximum, per channel of the last layer.
    argmax: Vec<usize>,
    /// dL/d activation of the layer being back-propagated, node-major.
    gh: Vec<f64>,
    /// The same for the layer below it.
    gh_below: Vec<f64>,
    /// One node's output gradient through the ReLU.
    g: Vec<f64>,
    /// One node's input gradient, per nonzero input.
    dz: Vec<f64>,
}

/// One conv layer's inputs and outputs for every node.
#[derive(Default)]
struct LayerBuf {
    /// Node `i`'s nonzero inputs are `idx[off[i]..off[i + 1]]` (column in
    /// `[node; left; right]`, ascending) with values in `val`.
    off: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
    /// ReLU outputs, `n × ch_out`, node-major.
    act: Vec<f64>,
}

/// Conv input slice of node `j`: its features below the first layer, its
/// activations in `below` otherwise.
fn node_input<'a>(
    tree: &'a FeatTree,
    below: Option<&'a LayerBuf>,
    ch: usize,
    j: usize,
) -> &'a [f64] {
    match below {
        None => &tree.nodes[j].feat,
        Some(b) => &b.act[j * ch..(j + 1) * ch],
    }
}

impl TreeConvNet {
    /// Initialize the network.
    pub fn new(cfg: TreeConvConfig) -> TreeConvNet {
        assert!(!cfg.channels.is_empty());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut convs = Vec::new();
        let mut ch_in = cfg.input_dim;
        for &ch_out in &cfg.channels {
            convs.push(ConvLayer {
                w: Matrix::xavier(ch_out, 3 * ch_in, &mut rng),
                b: vec![0.0; ch_out],
            });
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
        let adam = Adam::new(convs.iter().map(|c| c.w.data.len() + c.b.len()).sum());
        TreeConvNet {
            cfg,
            convs,
            head,
            adam,
            ws: Default::default(),
        }
    }

    /// Number of trainable parameters (model-size metric).
    pub fn num_params(&self) -> usize {
        self.convs
            .iter()
            .map(|c| c.w.data.len() + c.b.len())
            .sum::<usize>()
            + self.head.num_params()
    }

    /// Every parameter and Adam moment of conv layers and head, as flat
    /// slices (for audits of the trained state, e.g. that no value is
    /// subnormal).
    pub fn params_and_moments(&self) -> Vec<&[f64]> {
        let mut out: Vec<&[f64]> = Vec::new();
        for c in &self.convs {
            out.push(&c.w.data);
            out.push(&c.b);
        }
        out.extend(self.adam.moments());
        out.extend(self.head.params_and_moments());
        out
    }

    /// Conv layers and pooling of `tree` into `ws`, then the head on the
    /// pooled vector.
    fn forward(&self, tree: &FeatTree, ws: &mut Workspace) -> Cache {
        let n = tree.nodes.len();
        assert!(n > 0, "cannot evaluate an empty tree");
        ws.layers.resize_with(self.convs.len(), LayerBuf::default);
        for (l, conv) in self.convs.iter().enumerate() {
            let (below, rest) = ws.layers.split_at_mut(l);
            let below = below.last();
            let LayerBuf { off, idx, val, act } = &mut rest[0];
            let ch_in = conv.w.cols / 3;
            off.clear();
            idx.clear();
            val.clear();
            off.push(0);
            for (i, node) in tree.nodes.iter().enumerate() {
                for (slot, j) in [Some(i), node.left, node.right].into_iter().enumerate() {
                    let Some(j) = j else { continue };
                    let x = node_input(tree, below, ch_in, j);
                    assert_eq!(x.len(), ch_in, "node feature dimension");
                    for (c, &v) in x.iter().enumerate() {
                        if v != 0.0 {
                            idx.push(slot * ch_in + c);
                            val.push(v);
                        }
                    }
                }
                off.push(idx.len());
            }
            let ch_out = conv.w.rows;
            act.clear();
            act.resize(n * ch_out, 0.0);
            for (i, out) in act.chunks_exact_mut(ch_out).enumerate() {
                let (idx, val) = (&idx[off[i]..off[i + 1]], &val[off[i]..off[i + 1]]);
                for (r, y) in out.iter_mut().enumerate() {
                    let row = conv.w.row(r);
                    let mut s = 0.0;
                    for (&k, &x) in idx.iter().zip(val) {
                        s += row[k] * x;
                    }
                    *y = (s + conv.b[r]).max(0.0);
                }
            }
        }
        // Dynamic pooling: concat(max, mean) over nodes of the last layer.
        let ch = self.convs[self.convs.len() - 1].w.rows;
        ws.pooled.clear();
        ws.pooled.resize(ch, f64::NEG_INFINITY);
        ws.pooled.resize(2 * ch, 0.0);
        ws.argmax.clear();
        ws.argmax.resize(ch, 0);
        let (maxv, meanv) = ws.pooled.split_at_mut(ch);
        for (i, node) in ws.layers[self.convs.len() - 1]
            .act
            .chunks_exact(ch)
            .enumerate()
        {
            for c in 0..ch {
                if node[c] > maxv[c] {
                    maxv[c] = node[c];
                    ws.argmax[c] = i;
                }
                meanv[c] += node[c];
            }
        }
        for m in meanv.iter_mut() {
            *m /= n as f64;
        }
        self.head.forward_cache(&ws.pooled)
    }

    /// Predicted scalar value of a tree.
    pub fn predict(&self, tree: &FeatTree) -> f64 {
        self.forward(tree, &mut Workspace::default()).output()[0]
    }

    /// Backprop `grad_out` (dL/d score) through the pass `forward` left in
    /// `ws` and `head`, accumulating conv gradients into `grads` and head
    /// gradients into `head_buf`.
    fn backward(
        &self,
        tree: &FeatTree,
        ws: &mut Workspace,
        head: &Cache,
        grad_out: f64,
        grads: &mut [ConvLayer],
        head_buf: &mut GradBuf,
    ) {
        let grad_pooled = self.head.backward(head, vec![grad_out], head_buf);
        Mlp::bump_count(head_buf);

        let n = tree.nodes.len();
        let ch = self.convs[self.convs.len() - 1].w.rows;
        ws.gh.clear();
        ws.gh.resize(n * ch, 0.0);
        for c in 0..ch {
            ws.gh[ws.argmax[c] * ch + c] += grad_pooled[c]; // max half
        }
        for node in ws.gh.chunks_exact_mut(ch) {
            for c in 0..ch {
                node[c] += grad_pooled[ch + c] / n as f64; // mean half
            }
        }
        // Conv layers, top down. Nothing reads the gradient of the
        // features themselves, so layer 0 forms no input gradient.
        for l in (0..self.convs.len()).rev() {
            let (conv, grad, buf) = (&self.convs[l], &mut grads[l], &ws.layers[l]);
            let (ch_in, ch_out) = (conv.w.cols / 3, conv.w.rows);
            ws.g.resize(ch_out, 0.0);
            ws.gh_below.clear();
            if l > 0 {
                ws.gh_below.resize(n * ch_in, 0.0);
            }
            for i in 0..n {
                let (act, gh) = (&buf.act[i * ch_out..], &ws.gh[i * ch_out..]);
                let mut live = false;
                for ((g, &y), &gy) in ws.g.iter_mut().zip(act).zip(gh) {
                    *g = if y > 0.0 { gy } else { 0.0 }; // through ReLU
                    live |= *g != 0.0;
                }
                if !live {
                    continue;
                }
                let (idx, val) = (
                    &buf.idx[buf.off[i]..buf.off[i + 1]],
                    &buf.val[buf.off[i]..buf.off[i + 1]],
                );
                // dW += g ⊗ z; db += g.
                for (r, &gr) in ws.g.iter().enumerate() {
                    if gr == 0.0 {
                        continue;
                    }
                    grad.b[r] += gr;
                    let drow = grad.w.row_mut(r);
                    for (&k, &x) in idx.iter().zip(val) {
                        drow[k] += gr * x;
                    }
                }
                if l == 0 {
                    continue;
                }
                // dz = Wᵀ g, distributed to self / left / right below.
                ws.dz.clear();
                ws.dz.resize(idx.len(), 0.0);
                for (r, &gr) in ws.g.iter().enumerate() {
                    if gr == 0.0 {
                        continue;
                    }
                    let row = conv.w.row(r);
                    for (d, &k) in ws.dz.iter_mut().zip(idx) {
                        *d += gr * row[k];
                    }
                }
                let node = &tree.nodes[i];
                let child = |c: Option<usize>| c.expect("a child slot has a child");
                for (&d, &k) in ws.dz.iter().zip(idx) {
                    let (j, c) = if k < ch_in {
                        (i, k)
                    } else if k < 2 * ch_in {
                        (child(node.left), k - ch_in)
                    } else {
                        (child(node.right), k - 2 * ch_in)
                    };
                    ws.gh_below[j * ch_in + c] += d;
                }
            }
            std::mem::swap(&mut ws.gh, &mut ws.gh_below);
        }
    }

    /// Zeroed conv gradients.
    fn zero_grads(&self) -> Vec<ConvLayer> {
        self.convs.iter().map(ConvLayer::zeros_like).collect()
    }

    fn apply_grads(&mut self, grads: &[ConvLayer], head_buf: GradBuf, batch: usize) {
        let scale = 1.0 / batch.max(1) as f64;
        let mut step = self.adam.step(self.cfg.learning_rate);
        for (conv, grad) in self.convs.iter_mut().zip(grads) {
            step.update(&mut conv.w.data, |i, _| grad.w.data[i] * scale);
            step.update(&mut conv.b, |i, _| grad.b[i] * scale);
        }
        self.head.step(head_buf);
    }

    /// One Adam step of squared-error regression on a batch of trees.
    /// Returns the batch MSE before the update.
    pub fn train_batch(&mut self, trees: &[&FeatTree], ys: &[f64]) -> f64 {
        assert_eq!(trees.len(), ys.len());
        let [mut ws, spare] = std::mem::take(&mut self.ws);
        let mut grads = self.zero_grads();
        let mut head_buf = self.head.zero_grads();
        let mut loss = 0.0;
        for (tree, &y) in trees.iter().zip(ys) {
            let head = self.forward(tree, &mut ws);
            let pred = head.output()[0];
            loss += (pred - y) * (pred - y);
            let g = 2.0 * (pred - y);
            self.backward(tree, &mut ws, &head, g, &mut grads, &mut head_buf);
        }
        let n = trees.len().max(1);
        self.apply_grads(&grads, head_buf, n);
        self.ws = [ws, spare];
        loss / n as f64
    }

    /// One Adam step of pairwise logistic ranking: `y = +1` when `a`
    /// should score higher than `b`. Returns mean logistic loss.
    pub fn train_pairwise_batch(&mut self, pairs: &[(&FeatTree, &FeatTree, f64)]) -> f64 {
        let [mut wa, mut wb] = std::mem::take(&mut self.ws);
        let mut grads = self.zero_grads();
        let mut head_buf = self.head.zero_grads();
        let mut loss = 0.0;
        for (a, b, y) in pairs {
            let ha = self.forward(a, &mut wa);
            let hb = self.forward(b, &mut wb);
            let margin = y * (ha.output()[0] - hb.output()[0]);
            loss += (1.0 + (-margin).exp()).ln();
            let g = -y / (1.0 + margin.exp());
            self.backward(a, &mut wa, &ha, g, &mut grads, &mut head_buf);
            self.backward(b, &mut wb, &hb, -g, &mut grads, &mut head_buf);
        }
        let n = pairs.len().max(1);
        self.apply_grads(&grads, head_buf, 2 * n);
        self.ws = [wa, wb];
        loss / n as f64
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
        for (i, n) in t.nodes.iter().enumerate() {
            if let (Some(l), Some(r)) = (n.left, n.right) {
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
