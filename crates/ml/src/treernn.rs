//! Recursive neural networks over binary trees: a bottom-up encoder
//! `h(node) = tanh(W · [x_node; h_left; h_right])` with a linear scalar
//! head on the root embedding — the Tree-LSTM-style end-to-end plan
//! encoders of Sun & Li (2019) and RTOS, with the gating simplified to a
//! plain recurrent cell (documented substitution).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::linalg::{dot, Matrix};
use crate::treeconv::FeatTree;

/// TreeRNN hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeRnnConfig {
    /// Per-node input feature dimension.
    pub input_dim: usize,
    /// Hidden (embedding) width.
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl TreeRnnConfig {
    /// Default shape.
    pub fn new(input_dim: usize) -> TreeRnnConfig {
        TreeRnnConfig {
            input_dim,
            hidden: 32,
            learning_rate: 2e-3,
            seed: 19,
        }
    }
}

/// A recursive tree encoder with a scalar head.
pub struct TreeRnn {
    cfg: TreeRnnConfig,
    /// `hidden x (input + 2*hidden)`.
    w: Matrix,
    b: Vec<f64>,
    /// Scalar head on the root embedding.
    head_w: Vec<f64>,
    head_b: f64,
    /// Moments of `w`, `b`, `head_w`, `head_b`, in that order.
    adam: Adam,
}

impl TreeRnn {
    /// Initialize.
    pub fn new(cfg: TreeRnnConfig) -> TreeRnn {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let w = Matrix::xavier(cfg.hidden, cfg.input_dim + 2 * cfg.hidden, &mut rng);
        let head_w: Vec<f64> = Matrix::xavier(1, cfg.hidden, &mut rng).data;
        let nparams = w.data.len() + cfg.hidden + head_w.len() + 1;
        TreeRnn {
            b: vec![0.0; cfg.hidden],
            head_w,
            head_b: 0.0,
            adam: Adam::new(nparams),
            w,
            cfg,
        }
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.data.len() + self.b.len() + self.head_w.len() + 1
    }

    /// Every parameter and Adam moment, as flat slices (for audits of the
    /// trained state, e.g. that no value is subnormal).
    pub fn params_and_moments(&self) -> Vec<&[f64]> {
        let mut out: Vec<&[f64]> = vec![
            &self.w.data,
            &self.b,
            &self.head_w,
            std::slice::from_ref(&self.head_b),
        ];
        out.extend(self.adam.moments());
        out
    }

    /// Bottom-up embeddings of every node (children-first order assumed).
    fn embed_all(&self, tree: &FeatTree) -> Vec<Vec<f64>> {
        let h = self.cfg.hidden;
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(tree.len());
        for i in 0..tree.len() {
            let mut z = vec![0.0; self.cfg.input_dim + 2 * h];
            z[..self.cfg.input_dim].copy_from_slice(tree.feat(i));
            if let Some((l, r)) = tree.children(i) {
                z[self.cfg.input_dim..self.cfg.input_dim + h].copy_from_slice(&out[l]);
                z[self.cfg.input_dim + h..].copy_from_slice(&out[r]);
            }
            let mut e = self.w.matvec(&z);
            for (ei, &bi) in e.iter_mut().zip(&self.b) {
                *ei = (*ei + bi).tanh();
            }
            out.push(e);
        }
        out
    }

    /// Root embedding of a tree.
    pub fn embed(&self, tree: &FeatTree) -> Vec<f64> {
        self.embed_all(tree).pop().expect("non-empty tree")
    }

    /// Predicted scalar for a tree.
    pub fn predict(&self, tree: &FeatTree) -> f64 {
        dot(&self.head_w, &self.embed(tree)) + self.head_b
    }

    /// One Adam step of squared-error regression. Returns batch MSE before
    /// the update.
    pub fn train_batch(&mut self, trees: &[&FeatTree], ys: &[f64]) -> f64 {
        assert_eq!(trees.len(), ys.len());
        let h = self.cfg.hidden;
        let d = self.cfg.input_dim;
        let mut dw = vec![0.0; self.w.data.len()];
        let mut db = vec![0.0; h];
        let mut dhw = vec![0.0; h];
        let mut dhb = 0.0;
        let mut loss = 0.0;
        for (tree, &y) in trees.iter().zip(ys) {
            let emb = self.embed_all(tree);
            let root = emb.last().unwrap();
            let pred = dot(&self.head_w, root) + self.head_b;
            let g = 2.0 * (pred - y);
            loss += (pred - y) * (pred - y);
            // Head gradients.
            for (dwi, &ri) in dhw.iter_mut().zip(root) {
                *dwi += g * ri;
            }
            dhb += g;
            // Backprop through the recursion, top-down.
            let n = tree.len();
            let mut gh: Vec<Vec<f64>> = vec![vec![0.0; h]; n];
            for (gi, &wi) in gh[n - 1].iter_mut().zip(&self.head_w) {
                *gi = g * wi;
            }
            for i in (0..n).rev() {
                // Through tanh.
                let grad: Vec<f64> = gh[i]
                    .iter()
                    .zip(&emb[i])
                    .map(|(&gv, &ev)| gv * (1.0 - ev * ev))
                    .collect();
                if grad.iter().all(|&x| x == 0.0) {
                    continue;
                }
                // Rebuild input z.
                let mut z = vec![0.0; d + 2 * h];
                z[..d].copy_from_slice(tree.feat(i));
                if let Some((l, r)) = tree.children(i) {
                    z[d..d + h].copy_from_slice(&emb[l]);
                    z[d + h..].copy_from_slice(&emb[r]);
                }
                for r_i in 0..h {
                    let gr = grad[r_i];
                    if gr == 0.0 {
                        continue;
                    }
                    db[r_i] += gr;
                    let cols = d + 2 * h;
                    for k in 0..cols {
                        dw[r_i * cols + k] += gr * z[k];
                    }
                }
                // Gradients to children embeddings.
                let cols = d + 2 * h;
                if let Some((l, r)) = tree.children(i) {
                    for (j, off) in [(l, d), (r, d + h)] {
                        for k in 0..h {
                            let mut s = 0.0;
                            for r_i in 0..h {
                                s += grad[r_i] * self.w.data[r_i * cols + off + k];
                            }
                            gh[j][k] += s;
                        }
                    }
                }
            }
        }
        let nb = trees.len().max(1) as f64;
        let mut step = self.adam.step(self.cfg.learning_rate);
        step.update(&mut self.w.data, &dw, |d, _| d / nb);
        step.update(&mut self.b, &db, |d, _| d / nb);
        step.update(&mut self.head_w, &dhw, |d, _| d / nb);
        step.update(std::slice::from_mut(&mut self.head_b), &[dhb], |d, _| {
            d / nb
        });
        loss / nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_tree(vals: &[f64]) -> FeatTree {
        let mut t = FeatTree::new();
        let mut prev = t.leaf(vec![vals[0], 1.0]);
        for &v in &vals[1..] {
            let leaf = t.leaf(vec![v, 1.0]);
            prev = t.internal(vec![0.0, 0.0], prev, leaf);
        }
        t
    }

    #[test]
    fn learns_leaf_sum() {
        let mut net = TreeRnn::new(TreeRnnConfig {
            learning_rate: 5e-3,
            hidden: 16,
            ..TreeRnnConfig::new(2)
        });
        let data: Vec<(FeatTree, f64)> = (0..50)
            .map(|i| {
                let vals: Vec<f64> = (0..2 + i % 3).map(|j| ((i + j) % 4) as f64 / 4.0).collect();
                let y = vals.iter().sum::<f64>() / 3.0;
                (chain_tree(&vals), y)
            })
            .collect();
        let trees: Vec<&FeatTree> = data.iter().map(|(t, _)| t).collect();
        let ys: Vec<f64> = data.iter().map(|(_, y)| *y).collect();
        let mut loss = f64::INFINITY;
        for _ in 0..600 {
            loss = net.train_batch(&trees, &ys);
        }
        assert!(loss < 0.01, "treernn loss {loss}");
    }

    #[test]
    fn embeddings_distinguish_structure() {
        let net = TreeRnn::new(TreeRnnConfig::new(2));
        let a = chain_tree(&[0.1, 0.9]);
        let b = chain_tree(&[0.9, 0.1]);
        let ea = net.embed(&a);
        let eb = net.embed(&b);
        assert_eq!(ea.len(), 32);
        assert_ne!(ea, eb);
    }

    #[test]
    fn param_count_matches() {
        let net = TreeRnn::new(TreeRnnConfig::new(3));
        // w: 32 x (3 + 64); b: 32; head: 32 + 1.
        assert_eq!(net.num_params(), 32 * 67 + 32 + 33);
    }
}
