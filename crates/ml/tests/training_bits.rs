//! Bit-exactness of training. Every gradient-trained model family of this
//! crate runs a fixed number of Adam steps on fixed inputs, and the bit
//! pattern of every prediction is compared with the committed golden file
//! `tests/golden/training_bits.txt`.
//!
//! Each fixture has an input feature that is active for the first
//! [`EARLY`] steps only and zero for the [`LATE`] steps after, so that the
//! parameters it feeds get an exactly-zero gradient for long enough that
//! Adam's first moment decays below `f64::MIN_POSITIVE`. The golden pins
//! the predictions through that regime.
//!
//! The same fixtures check that training leaves no parameter and no Adam
//! moment subnormal: the moments of those long-zero gradients are flushed
//! to zero rather than left stuck a few ulps above it.
//!
//! Two more kinds of fixture: `mlp_settled` trains under L2 weight decay
//! with an input that is zero throughout, until decay has driven a weight
//! below 1e-290 (asserted), where Adam's `(1-β₁)·g` and `(1-β₂)·g²` terms
//! underflow; `bao_batch` and `bao_pairwise` train tree convolution at the
//! shape Bao and Lero use (14-wide one-hot nodes, channels `[24, 12]`,
//! head `[24]`, batches of 16).
//!
//! The file is written, never edited by hand, and only for an intended
//! change of the numbers:
//!
//! ```text
//! BLESS=1 cargo test -p lqo-ml --test training_bits
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use lqo_ml::mlp::{Mlp, MlpConfig};
use lqo_ml::mscn::{Mscn, MscnConfig};
use lqo_ml::treeconv::{FeatTree, TreeConvConfig, TreeConvNet};
use lqo_ml::treernn::{TreeRnn, TreeRnnConfig};

/// Steps with the transient feature active.
const EARLY: usize = 40;
/// Steps after, with the transient feature zero.
const LATE: usize = 8_400;

/// Predictions of one fixture at one checkpoint.
struct Snapshot {
    fixture: &'static str,
    step: usize,
    preds: Vec<f64>,
}

/// Runs `EARLY + LATE` steps of `step(net, transient)` and snapshots
/// `preds(net)` at the end of each phase.
fn run<N>(
    fixture: &'static str,
    net: &mut N,
    mut step: impl FnMut(&mut N, bool),
    preds: impl Fn(&N) -> Vec<f64>,
) -> Vec<Snapshot> {
    let mut snaps = Vec::new();
    for s in 1..=EARLY + LATE {
        step(net, s <= EARLY);
        if s == EARLY || s == EARLY + LATE {
            snaps.push(Snapshot {
                fixture,
                step: s,
                preds: preds(net),
            });
        }
    }
    snaps
}

fn render(snaps: &[Snapshot]) -> String {
    let mut out = String::new();
    for s in snaps {
        for (i, p) in s.preds.iter().enumerate() {
            let (name, step, bits) = (s.fixture, s.step, p.to_bits());
            writeln!(out, "{name} {step} {i} {bits:016x} {p:e}").unwrap();
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("training_bits.txt")
}

/// Compare with the golden file, or write it under `BLESS=1`.
fn check_golden(actual: &str) {
    let path = golden_path();
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "training bits differ at line {}", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden line count"
    );
}

// ---------------------------------------------------------------- trees

/// Node features: `[leaf, join, value, transient]`.
fn feat(leaf: bool, value: f64, transient: bool) -> Vec<f64> {
    vec![
        if leaf { 1.0 } else { 0.0 },
        if leaf { 0.0 } else { 1.0 },
        value,
        if transient && value > 0.0 { 1.0 } else { 0.0 },
    ]
}

/// Six plan-shaped trees — single leaves, left-deep, bushy, and one join
/// whose two inputs are the same node — with the target of each.
fn trees(transient: bool) -> Vec<(FeatTree, f64)> {
    let leaf = |t: &mut FeatTree, v: f64| t.leaf(feat(true, v, transient));
    let join = |t: &mut FeatTree, l: usize, r: usize| t.internal(feat(false, 0.0, transient), l, r);
    let mut out = Vec::new();

    let mut t = FeatTree::new();
    leaf(&mut t, 0.5);
    out.push((t, 0.25));

    let mut t = FeatTree::new();
    let (a, b) = (leaf(&mut t, 0.2), leaf(&mut t, -0.4));
    join(&mut t, a, b);
    out.push((t, -0.1));

    let mut t = FeatTree::new();
    let (a, b) = (leaf(&mut t, 0.9), leaf(&mut t, 0.0));
    let ab = join(&mut t, a, b);
    let c = leaf(&mut t, 0.3);
    join(&mut t, ab, c);
    out.push((t, 0.6));

    let mut t = FeatTree::new();
    let (a, b) = (leaf(&mut t, 0.1), leaf(&mut t, 0.7));
    let ab = join(&mut t, a, b);
    let (c, d) = (leaf(&mut t, -0.6), leaf(&mut t, 0.25));
    let cd = join(&mut t, c, d);
    join(&mut t, ab, cd);
    out.push((t, 0.2));

    let mut t = FeatTree::new();
    let a = leaf(&mut t, 0.8);
    join(&mut t, a, a);
    out.push((t, 0.8));

    let mut t = FeatTree::new();
    leaf(&mut t, 0.0);
    out.push((t, 0.0));
    out
}

/// One training step on all six trees.
fn tree_step(transient: bool, step: impl FnOnce(&[&FeatTree], &[f64])) {
    let data = trees(transient);
    let refs: Vec<&FeatTree> = data.iter().map(|(t, _)| t).collect();
    let ys: Vec<f64> = data.iter().map(|(_, y)| *y).collect();
    step(&refs, &ys);
}

/// Predictions on the early and the late trees.
fn tree_preds(f: impl Fn(&FeatTree) -> f64) -> Vec<f64> {
    [true, false]
        .into_iter()
        .flat_map(|transient| trees(transient).into_iter().map(|(t, _)| f(&t)))
        .collect()
}

fn treeconv(seed: u64) -> TreeConvNet {
    TreeConvNet::new(TreeConvConfig {
        learning_rate: 5e-3,
        channels: vec![6, 4],
        head_hidden: vec![5],
        seed,
        ..TreeConvConfig::new(4)
    })
}

fn treeconv_batch() -> (TreeConvNet, Vec<Snapshot>) {
    let mut net = treeconv(3);
    let snaps = run(
        "treeconv_batch",
        &mut net,
        |net, tr| {
            tree_step(tr, |t, y| {
                net.train_batch(t, y);
            })
        },
        |net| tree_preds(|t| net.predict(t)),
    );
    (net, snaps)
}

fn treeconv_pairwise() -> (TreeConvNet, Vec<Snapshot>) {
    let mut net = treeconv(11);
    let snaps = run(
        "treeconv_pairwise",
        &mut net,
        |net, tr| {
            tree_step(tr, |t, y| {
                let pairs: Vec<(&FeatTree, &FeatTree, f64)> = (1..t.len())
                    .map(|i| (t[i - 1], t[i], if y[i - 1] > y[i] { 1.0 } else { -1.0 }))
                    .collect();
                net.train_pairwise_batch(&pairs);
            })
        },
        |net| tree_preds(|t| net.predict(t)),
    );
    (net, snaps)
}

fn treernn() -> (TreeRnn, Vec<Snapshot>) {
    let mut net = TreeRnn::new(TreeRnnConfig {
        hidden: 5,
        learning_rate: 5e-3,
        ..TreeRnnConfig::new(4)
    });
    let snaps = run(
        "treernn",
        &mut net,
        |net, tr| {
            tree_step(tr, |t, y| {
                net.train_batch(t, y);
            })
        },
        |net| tree_preds(|t| net.predict(t)),
    );
    (net, snaps)
}

// ----------------------------------------------------------------- rows

/// Eight rows `[x0, x1, x2, transient]` with a regression target and a
/// class in `0..3`.
fn rows(transient: bool) -> Vec<(Vec<f64>, f64, usize)> {
    (0..8)
        .map(|i| {
            let x0 = (i % 4) as f64 / 4.0;
            let x1 = if i % 3 == 0 {
                0.0
            } else {
                1.0 - (i as f64) / 8.0
            };
            let x2 = -((i % 2) as f64) * 0.5;
            let tr = if transient && i % 2 == 0 { 1.0 } else { 0.0 };
            let y = 2.0 * x0 - x1 + x2;
            (vec![x0, x1, x2, tr], y, i % 3)
        })
        .collect()
}

/// Every output of `net` on the early and the late rows.
fn row_preds(net: &Mlp) -> Vec<f64> {
    let xs: Vec<Vec<f64>> = [true, false]
        .into_iter()
        .flat_map(|transient| rows(transient).into_iter().map(|(x, _, _)| x))
        .collect();
    (0..net.output_dim())
        .flat_map(|k| xs.iter().map(move |x| net.predict(x)[k]))
        .collect()
}

fn mlp(l2: f64, out: usize, seed: u64) -> Mlp {
    Mlp::new(MlpConfig {
        learning_rate: 5e-3,
        l2,
        seed,
        ..MlpConfig::new(vec![4, 6, 5, out])
    })
}

fn mlp_fit_regression() -> (Mlp, Vec<Snapshot>) {
    let mut net = mlp(0.0, 1, 21);
    let mut snaps = Vec::new();
    // Eight rows in batches of two: four steps per epoch.
    for (transient, epochs, seed) in [(true, EARLY / 4, 1), (false, LATE / 4, 2)] {
        let data = rows(transient);
        let xs: Vec<Vec<f64>> = data.iter().map(|(x, _, _)| x.clone()).collect();
        let ys: Vec<f64> = data.iter().map(|(_, y, _)| *y).collect();
        net.fit_regression(&xs, &ys, epochs, 2, seed);
        snaps.push(Snapshot {
            fixture: "mlp_fit_regression",
            step: if transient { EARLY } else { EARLY + LATE },
            preds: row_preds(&net),
        });
    }
    (net, snaps)
}

fn mlp_softmax() -> (Mlp, Vec<Snapshot>) {
    let mut net = mlp(1e-5, 3, 22);
    let snaps = run(
        "mlp_softmax",
        &mut net,
        |net, tr| {
            let data = rows(tr);
            let xs: Vec<Vec<f64>> = data.iter().map(|(x, _, _)| x.clone()).collect();
            let cs: Vec<usize> = data.iter().map(|(_, _, c)| *c).collect();
            net.train_softmax_batch(&xs, &cs);
        },
        row_preds,
    );
    (net, snaps)
}

fn mlp_pairwise() -> (Mlp, Vec<Snapshot>) {
    let mut net = mlp(0.0, 1, 23);
    let snaps = run(
        "mlp_pairwise",
        &mut net,
        |net, tr| {
            let pairs: Vec<(Vec<f64>, Vec<f64>, f64)> = rows(tr)
                .windows(2)
                .map(|w| {
                    let y = if w[0].1 > w[1].1 { 1.0 } else { -1.0 };
                    (w[0].0.clone(), w[1].0.clone(), y)
                })
                .collect();
            net.train_pairwise_batch(&pairs);
        },
        row_preds,
    );
    (net, snaps)
}

// ----------------------------------------------------------------- sets

/// Six samples of two sets: `[v, w, transient]` items and `[u, 1]` items
/// (the second set is empty in two samples).
fn set_samples(transient: bool) -> Vec<(Vec<Vec<Vec<f64>>>, f64)> {
    (0..6)
        .map(|i| {
            let set0: Vec<Vec<f64>> = (0..1 + i % 3)
                .map(|j| {
                    let v = ((i + j) % 5) as f64 / 5.0;
                    let tr = if transient && j == 0 { 1.0 } else { 0.0 };
                    vec![v, if j % 2 == 0 { 0.0 } else { 0.5 }, tr]
                })
                .collect();
            let set1: Vec<Vec<f64>> = (0..i % 3).map(|j| vec![j as f64 / 2.0, 1.0]).collect();
            let y = set0.iter().map(|x| x[0]).sum::<f64>() - set1.len() as f64 / 4.0;
            (vec![set0, set1], y)
        })
        .collect()
}

fn mscn() -> (Mscn, Vec<Snapshot>) {
    let mut net = Mscn::new(MscnConfig {
        hidden: 6,
        head_hidden: 5,
        learning_rate: 5e-3,
        ..MscnConfig::new(vec![3, 2])
    });
    let snaps = run(
        "mscn",
        &mut net,
        |net, tr| {
            let data = set_samples(tr);
            let batch: Vec<(&[Vec<Vec<f64>>], f64)> =
                data.iter().map(|(x, y)| (x.as_slice(), *y)).collect();
            net.train_batch(&batch);
        },
        |net| {
            [true, false]
                .into_iter()
                .flat_map(|transient| set_samples(transient).into_iter())
                .map(|(sets, _)| net.predict(&sets))
                .collect()
        },
    );
    (net, snaps)
}

// ------------------------------------------------------------- settling

/// Steps of [`mlp_settled`]: enough for weight decay to drive the weights
/// of its dead input below 1e-290.
const SETTLE: usize = 13_000;

/// An `Mlp` under L2 weight decay whose last input is zero from step 1:
/// the weights it feeds see no data gradient, only decay, and shrink
/// toward 1e-302, where Adam's moment and gradient-square terms underflow.
fn mlp_settled() -> (Mlp, Vec<Snapshot>) {
    let mut net = mlp(1e-5, 1, 24);
    let data = rows(false);
    let xs: Vec<&[f64]> = data.iter().map(|(x, _, _)| x.as_slice()).collect();
    let ys: Vec<f64> = data.iter().map(|(_, y, _)| *y).collect();
    let mut snaps = Vec::new();
    for s in 1..=SETTLE {
        net.train_scalar_batch(&xs, &ys);
        if [EARLY, SETTLE / 2, SETTLE].contains(&s) {
            snaps.push(Snapshot {
                fixture: "mlp_settled",
                step: s,
                preds: row_preds(&net),
            });
        }
    }
    (net, snaps)
}

// ------------------------------------------------------------ bao-shaped

/// Bao's plan-node width: 4 operator slots, 8 table slots, log
/// cardinality and predicate count.
const BAO_DIM: usize = 14;
/// Training epochs of the Bao-shaped fixtures.
const BAO_EPOCHS: usize = 60;

/// 48 one-hot plan trees of 3, 5 or 7 nodes (2–4 scans joined left-deep
/// or bushy) with a target per tree.
fn bao_trees() -> Vec<(FeatTree, f64)> {
    let scan = |t: &mut FeatTree, table: usize, card: f64, preds: usize| {
        let mut f = vec![0.0; BAO_DIM];
        f[0] = 1.0;
        f[4 + table] = 1.0;
        f[12] = card;
        f[13] = preds as f64 / 4.0;
        t.leaf(f)
    };
    let join = |t: &mut FeatTree, algo: usize, card: f64, l: usize, r: usize| {
        let mut f = vec![0.0; BAO_DIM];
        f[1 + algo] = 1.0;
        f[12] = card;
        t.internal(f, l, r)
    };
    (0..48)
        .map(|i| {
            let mut t = FeatTree::new();
            let leaves = 2 + i % 3;
            let card = |k: usize| ((i * 7 + k * 13) % 23) as f64 / 23.0;
            let mut nodes: Vec<usize> = (0..leaves)
                .map(|k| scan(&mut t, (i + 3 * k) % 8, card(k), (i + k) % 3))
                .collect();
            let mut cost = 0.0;
            let mut k = 0;
            while nodes.len() > 1 {
                // Odd trees join the last two inputs (bushy at four
                // leaves), even ones the first two (left-deep).
                let at = if i % 2 == 1 { nodes.len() - 2 } else { 0 };
                let (l, r) = (nodes[at], nodes.remove(at + 1));
                let (algo, c) = ((i + k) % 3, card(leaves + k));
                cost += c * [1.0, 2.5, 1.5][algo];
                nodes[at] = join(&mut t, algo, c, l, r);
                k += 1;
            }
            (t, cost - 0.5)
        })
        .collect()
}

fn bao_net(seed: u64) -> TreeConvNet {
    TreeConvNet::new(TreeConvConfig {
        learning_rate: 2e-3,
        channels: vec![24, 12],
        head_hidden: vec![24],
        seed,
        ..TreeConvConfig::new(BAO_DIM)
    })
}

/// Trains `net` for [`BAO_EPOCHS`] epochs of `epoch` and snapshots its
/// predictions on every tree after the first and the last epoch.
fn bao_run(
    fixture: &'static str,
    net: &mut TreeConvNet,
    mut epoch: impl FnMut(&mut TreeConvNet, &[&FeatTree], &[f64]),
) -> Vec<Snapshot> {
    let data = bao_trees();
    let trees: Vec<&FeatTree> = data.iter().map(|(t, _)| t).collect();
    let ys: Vec<f64> = data.iter().map(|(_, y)| *y).collect();
    let mut snaps = Vec::new();
    for e in 1..=BAO_EPOCHS {
        epoch(net, &trees, &ys);
        if e == 1 || e == BAO_EPOCHS {
            snaps.push(Snapshot {
                fixture,
                step: e,
                preds: trees.iter().map(|t| net.predict(t)).collect(),
            });
        }
    }
    snaps
}

/// Bao's value network: pointwise regression in batches of 16 trees.
fn bao_batch() -> (TreeConvNet, Vec<Snapshot>) {
    let mut net = bao_net(5);
    let snaps = bao_run("bao_batch", &mut net, |net, trees, ys| {
        for (t, y) in trees.chunks(16).zip(ys.chunks(16)) {
            net.train_batch(t, y);
        }
    });
    (net, snaps)
}

/// Lero's comparator shape: pairwise ranking in batches of 16 pairs.
fn bao_pairwise() -> (TreeConvNet, Vec<Snapshot>) {
    let mut net = bao_net(29);
    let snaps = bao_run("bao_pairwise", &mut net, |net, trees, ys| {
        let pairs: Vec<(&FeatTree, &FeatTree, f64)> = (0..trees.len())
            .map(|i| {
                let j = (i * 5 + 3) % trees.len();
                (trees[i], trees[j], if ys[i] < ys[j] { 1.0 } else { -1.0 })
            })
            .collect();
        for chunk in pairs.chunks(16) {
            net.train_pairwise_batch(chunk);
        }
    });
    (net, snaps)
}

// ---------------------------------------------------------------- tests

/// Every fixture, trained once and shared by the tests of this file.
struct Trained {
    snaps: Vec<Snapshot>,
    /// Subnormal parameters and moments per fixture after training.
    subnormal: Vec<(&'static str, usize)>,
    /// Smallest weight magnitude of `mlp_settled` after training.
    settled_min: f64,
}

fn trained() -> &'static Trained {
    static TRAINED: OnceLock<Trained> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let mut t = Trained {
            snaps: Vec::new(),
            subnormal: Vec::new(),
            settled_min: f64::INFINITY,
        };
        let mut add = |state: Vec<&[f64]>, snaps: Vec<Snapshot>| {
            let n = state
                .iter()
                .flat_map(|s| s.iter())
                .filter(|x| x.is_subnormal());
            t.subnormal.push((snaps[0].fixture, n.count()));
            t.snaps.extend(snaps);
        };
        let (net, s) = treeconv_batch();
        add(net.params_and_moments(), s);
        let (net, s) = treeconv_pairwise();
        add(net.params_and_moments(), s);
        let (net, s) = treernn();
        add(net.params_and_moments(), s);
        let (net, s) = mlp_fit_regression();
        add(net.params_and_moments(), s);
        let (net, s) = mlp_softmax();
        add(net.params_and_moments(), s);
        let (net, s) = mlp_pairwise();
        add(net.params_and_moments(), s);
        let (net, s) = mscn();
        add(net.params_and_moments(), s);
        let (net, s) = bao_batch();
        add(net.params_and_moments(), s);
        let (net, s) = bao_pairwise();
        add(net.params_and_moments(), s);
        let (net, s) = mlp_settled();
        let state = net.params_and_moments();
        // Weights and biases, without the two moment slices.
        let params = &state[..state.len() - 2];
        let settled_min = params
            .iter()
            .flat_map(|s| s.iter())
            .fold(f64::INFINITY, |a, w| a.min(w.abs()));
        add(state, s);
        t.settled_min = settled_min;
        t
    })
}

#[test]
fn predictions_match_golden_bits() {
    check_golden(&render(&trained().snaps));
}

#[test]
fn no_parameter_or_moment_is_subnormal() {
    let bad: Vec<_> = trained().subnormal.iter().filter(|(_, n)| *n > 0).collect();
    assert!(bad.is_empty(), "subnormal values after training: {bad:?}");
}

#[test]
fn weight_decay_settles_a_dead_weight_below_1e_290() {
    let min = trained().settled_min;
    assert!(min < 1e-290, "smallest mlp_settled weight {min:e}");
}
