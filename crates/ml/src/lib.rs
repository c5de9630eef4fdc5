//! # lqo-ml
//!
//! A from-scratch ML substrate for the `learned-qo` framework. The offline
//! build environment has no ML crates, and the survey's methods are defined
//! by their model *structure*, so this crate implements each family
//! directly:
//!
//! * [`mlp`] — dense multi-layer perceptrons with SGD/Adam, regression and
//!   softmax heads (backbone of MSCN-, Naru- and DQ-style models);
//! * [`treeconv`] — tree convolution with dynamic pooling (Neo/Bao-style
//!   plan value networks, Marcus & Papaemmanouil cost models);
//! * [`tree`] and [`gbdt`] — CART regression trees, random forests and
//!   gradient-boosted ensembles (Dutt et al.-style query-driven
//!   estimators);
//! * [`linreg`] — ordinary/ridge least squares (the earliest query-driven
//!   estimators, and QuickSel's mixture weight fit);
//! * [`bayesnet`] — Chow–Liu tree Bayesian networks with exact message
//!   passing (BayesNet/BayesCard-style data-driven estimators);
//! * [`spn`] — sum-product networks learned by recursive row/column
//!   splitting (DeepDB/FLAT-style);
//! * [`autoregressive`] — discrete autoregressive models with progressive
//!   sampling (Naru/NeuroCard-style);
//! * [`kde`] — Gaussian kernel density estimators (Heimel/Kiefer-style);
//! * [`gmm`] — Gaussian mixtures fit by EM;
//! * [`kmeans`] — k-means (SPN row splits, Eraser's plan clustering);
//! * [`qlearn`] — tabular Q-learning (Eddy-RL style);
//! * [`mcts`] — UCT Monte-Carlo tree search (SkinnerDB style);
//! * [`scaler`], [`metrics`], [`linalg`] — shared utilities.

#![warn(missing_docs)]
// Indexed loops over matrix rows/columns are the clearest way to write
// the hand-rolled numeric kernels in this crate.
#![allow(clippy::needless_range_loop)]

mod adam;
pub mod autoregressive;
pub mod bayesnet;
pub mod gbdt;
pub mod gmm;
pub mod kde;
pub mod kmeans;
pub mod linalg;
pub mod linreg;
pub mod mcts;
pub mod metrics;
pub mod mlp;
pub mod mscn;
pub mod qlearn;
pub mod scaler;
pub mod spn;
pub mod tree;
pub mod treeconv;
pub mod treernn;

pub use linalg::Matrix;
pub use mlp::{Activation, Mlp, MlpConfig};
pub use scaler::StandardScaler;
