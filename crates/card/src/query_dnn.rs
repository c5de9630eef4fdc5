//! Query-driven estimators with deep models: MLP \[32\], MSCN \[23\],
//! Robust-MSCN \[45\], Fauce-style deep ensembles with uncertainty \[33\],
//! NNGP-style Bayesian regression \[75\] and LPCE-style progressive
//! refinement \[59\].

use parking_lot::Mutex;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lqo_engine::{SpjQuery, SubqueryKey, TableSet};
use lqo_ml::gbdt::{Gbdt, GbdtConfig};
use lqo_ml::linalg::{dot, solve, Matrix};
use lqo_ml::mlp::{Mlp, MlpConfig};
use lqo_ml::mscn::{Mscn, MscnConfig};
use lqo_ml::scaler::log_label;

use crate::estimator::{CardEstimator, Category, FitContext, LabeledSubquery};
use crate::featurize::Featurizer;
use crate::query_driven::training_matrix;

/// Fully-connected network on flat query features \[32\].
pub struct MlpQdEstimator {
    feat: Featurizer,
    model: Mlp,
}

impl MlpQdEstimator {
    /// Fit on a labeled workload.
    pub fn fit(ctx: &FitContext, workload: &[LabeledSubquery]) -> MlpQdEstimator {
        let feat = Featurizer::new(&ctx.catalog, &ctx.stats);
        let (xs, ys) = training_matrix(&feat, workload);
        let mut model = Mlp::new(MlpConfig {
            learning_rate: 2e-3,
            ..MlpConfig::new(vec![feat.dim(), 64, 64, 1])
        });
        model.fit_regression(&xs, &ys, 60, 32, 41);
        MlpQdEstimator { feat, model }
    }
}

impl CardEstimator for MlpQdEstimator {
    fn name(&self) -> &'static str {
        "MLP-QD"
    }
    fn category(&self) -> Category {
        Category::QueryDrivenDnn
    }
    fn technique(&self) -> &'static str {
        "Fully Connected Neural Network"
    }
    fn estimate(&self, query: &SpjQuery, set: TableSet) -> f64 {
        log_label::decode(self.model.predict_scalar(&self.feat.featurize(query, set))).max(1.0)
    }
    fn model_size(&self) -> usize {
        self.model.num_params()
    }
}

fn fit_mscn(
    ctx: &FitContext,
    workload: &[LabeledSubquery],
    mask_prob: f64,
    seed: u64,
) -> (Featurizer, Mscn) {
    let feat = Featurizer::new(&ctx.catalog, &ctx.stats);
    let mut model = Mscn::new(MscnConfig {
        learning_rate: 2e-3,
        seed,
        ..MscnConfig::new(vec![
            feat.table_item_dim(),
            feat.join_item_dim(),
            feat.pred_item_dim(),
        ])
    });
    let samples: Vec<(Vec<Vec<Vec<f64>>>, f64)> = workload
        .iter()
        .map(|l| {
            (
                feat.featurize_sets(&l.query, l.set),
                log_label::encode(l.card),
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
    let mut idx: Vec<usize> = (0..samples.len()).collect();
    use rand::seq::SliceRandom;
    for _ in 0..40 {
        idx.shuffle(&mut rng);
        for chunk in idx.chunks(32) {
            let mut masked: Vec<(Vec<Vec<Vec<f64>>>, f64)> = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let (sets, y) = &samples[i];
                let mut sets = sets.clone();
                if mask_prob > 0.0 {
                    // Robust-MSCN query masking: drop predicate items at
                    // random during training to simulate unseen workloads.
                    sets[2].retain(|_| !rng.gen_bool(mask_prob));
                }
                masked.push((sets, *y));
            }
            let batch: Vec<(&[Vec<Vec<f64>>], f64)> =
                masked.iter().map(|(s, y)| (s.as_slice(), *y)).collect();
            model.train_batch(&batch);
        }
    }
    (feat, model)
}

/// Multi-set convolutional network \[23\].
pub struct MscnEstimator {
    feat: Featurizer,
    model: Mscn,
}

impl MscnEstimator {
    /// Fit on a labeled workload.
    pub fn fit(ctx: &FitContext, workload: &[LabeledSubquery]) -> MscnEstimator {
        let (feat, model) = fit_mscn(ctx, workload, 0.0, 43);
        MscnEstimator { feat, model }
    }
}

impl CardEstimator for MscnEstimator {
    fn name(&self) -> &'static str {
        "MSCN"
    }
    fn category(&self) -> Category {
        Category::QueryDrivenDnn
    }
    fn technique(&self) -> &'static str {
        "Multi-Set Convolutional Network"
    }
    fn estimate(&self, query: &SpjQuery, set: TableSet) -> f64 {
        log_label::decode(self.model.predict(&self.feat.featurize_sets(query, set))).max(1.0)
    }
    fn model_size(&self) -> usize {
        self.model.num_params()
    }
}

/// MSCN trained with query masking for robustness to workload drift \[45\].
pub struct RobustMscnEstimator {
    feat: Featurizer,
    model: Mscn,
}

impl RobustMscnEstimator {
    /// Fit on a labeled workload with 25% predicate masking.
    pub fn fit(ctx: &FitContext, workload: &[LabeledSubquery]) -> RobustMscnEstimator {
        let (feat, model) = fit_mscn(ctx, workload, 0.25, 47);
        RobustMscnEstimator { feat, model }
    }
}

impl CardEstimator for RobustMscnEstimator {
    fn name(&self) -> &'static str {
        "Robust-MSCN"
    }
    fn category(&self) -> Category {
        Category::QueryDrivenDnn
    }
    fn technique(&self) -> &'static str {
        "Query Masking"
    }
    fn estimate(&self, query: &SpjQuery, set: TableSet) -> f64 {
        log_label::decode(self.model.predict(&self.feat.featurize_sets(query, set))).max(1.0)
    }
    fn model_size(&self) -> usize {
        self.model.num_params()
    }
}

/// Deep ensemble with uncertainty \[33\]: several MLPs from different seeds;
/// the spread of their predictions is the uncertainty estimate.
pub struct FauceEstimator {
    feat: Featurizer,
    models: Vec<Mlp>,
}

impl FauceEstimator {
    /// Fit a 5-member ensemble.
    pub fn fit(ctx: &FitContext, workload: &[LabeledSubquery]) -> FauceEstimator {
        let feat = Featurizer::new(&ctx.catalog, &ctx.stats);
        let (xs, ys) = training_matrix(&feat, workload);
        let models = (0..5)
            .map(|k| {
                let mut m = Mlp::new(MlpConfig {
                    learning_rate: 2e-3,
                    seed: 100 + k,
                    ..MlpConfig::new(vec![feat.dim(), 48, 48, 1])
                });
                m.fit_regression(&xs, &ys, 50, 32, 200 + k);
                m
            })
            .collect();
        FauceEstimator { feat, models }
    }

    /// `(estimate, relative uncertainty)` — the std-dev of the ensemble's
    /// log-space predictions.
    pub fn estimate_with_uncertainty(&self, query: &SpjQuery, set: TableSet) -> (f64, f64) {
        let x = self.feat.featurize(query, set);
        let preds: Vec<f64> = self.models.iter().map(|m| m.predict_scalar(&x)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64;
        (log_label::decode(mean).max(1.0), var.sqrt())
    }
}

impl CardEstimator for FauceEstimator {
    fn name(&self) -> &'static str {
        "Fauce"
    }
    fn category(&self) -> Category {
        Category::QueryDrivenDnn
    }
    fn technique(&self) -> &'static str {
        "Ensemble of Deep Models"
    }
    fn estimate(&self, query: &SpjQuery, set: TableSet) -> f64 {
        self.estimate_with_uncertainty(query, set).0
    }
    fn model_size(&self) -> usize {
        self.models.iter().map(Mlp::num_params).sum()
    }
}

/// Random-feature Bayesian linear regression — a finite-width stand-in for
/// the neural-network Gaussian process of \[75\], keeping its key property:
/// calibrated predictive uncertainty alongside the estimate.
pub struct NngpEstimator {
    feat: Featurizer,
    /// Random projection `omega` (features x dim) and phases.
    omega: Matrix,
    phase: Vec<f64>,
    /// Posterior mean weights.
    mean_w: Vec<f64>,
    /// Gram matrix `A = PhiᵀPhi + sigma² I` for predictive variance.
    gram: Matrix,
    noise: f64,
}

const NNGP_FEATURES: usize = 64;

impl NngpEstimator {
    fn features(&self, x: &[f64]) -> Vec<f64> {
        let proj = self.omega.matvec(x);
        proj.iter()
            .zip(&self.phase)
            .map(|(&p, &b)| ((p + b).cos()) * (2.0 / NNGP_FEATURES as f64).sqrt())
            .collect()
    }

    /// Fit the posterior on a labeled workload.
    pub fn fit(ctx: &FitContext, workload: &[LabeledSubquery]) -> NngpEstimator {
        let feat = Featurizer::new(&ctx.catalog, &ctx.stats);
        let (xs, ys) = training_matrix(&feat, workload);
        let mut rng = StdRng::seed_from_u64(53);
        let dim = feat.dim();
        let lengthscale = 1.5;
        let mut omega = Matrix::zeros(NNGP_FEATURES, dim);
        for v in &mut omega.data {
            // Box–Muller standard normals scaled by 1/lengthscale.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            *v = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() / lengthscale;
        }
        let phase: Vec<f64> = (0..NNGP_FEATURES)
            .map(|_| rng.gen_range(0.0..2.0 * std::f64::consts::PI))
            .collect();
        let noise = 0.1;
        let mut this = NngpEstimator {
            feat,
            omega,
            phase,
            mean_w: vec![0.0; NNGP_FEATURES],
            gram: Matrix::zeros(NNGP_FEATURES, NNGP_FEATURES),
            noise,
        };
        let mut a = Matrix::zeros(NNGP_FEATURES, NNGP_FEATURES);
        let mut b = vec![0.0; NNGP_FEATURES];
        for (x, &y) in xs.iter().zip(&ys) {
            let phi = this.features(x);
            for i in 0..NNGP_FEATURES {
                b[i] += phi[i] * y;
                for j in 0..NNGP_FEATURES {
                    a.data[i * NNGP_FEATURES + j] += phi[i] * phi[j];
                }
            }
        }
        for i in 0..NNGP_FEATURES {
            a.data[i * NNGP_FEATURES + i] += noise;
        }
        this.gram = a.clone();
        this.mean_w = solve(a, b).unwrap_or(vec![0.0; NNGP_FEATURES]);
        this
    }

    /// `(estimate, predictive std)` in log space.
    pub fn estimate_with_uncertainty(&self, query: &SpjQuery, set: TableSet) -> (f64, f64) {
        let phi = self.features(&self.feat.featurize(query, set));
        let mean = dot(&self.mean_w, &phi);
        // Predictive variance sigma²(1 + phiᵀ A⁻¹ phi).
        let var = match solve(self.gram.clone(), phi.clone()) {
            Some(ainv_phi) => self.noise * (1.0 + dot(&phi, &ainv_phi)),
            None => self.noise,
        };
        (log_label::decode(mean).max(1.0), var.max(0.0).sqrt())
    }
}

impl CardEstimator for NngpEstimator {
    fn name(&self) -> &'static str {
        "NNGP"
    }
    fn category(&self) -> Category {
        Category::QueryDrivenDnn
    }
    fn technique(&self) -> &'static str {
        "Bayesian Deep Learning"
    }
    fn estimate(&self, query: &SpjQuery, set: TableSet) -> f64 {
        self.estimate_with_uncertainty(query, set).0
    }
    fn model_size(&self) -> usize {
        self.omega.data.len() + self.mean_w.len()
    }
}

/// Progressive cardinality refinement \[59\]: a fast initial model answers
/// before execution; observed true cardinalities of executed sub-plans
/// override future estimates of the same sub-query (the re-optimization
/// loop of LPCE).
pub struct LpceEstimator {
    feat: Featurizer,
    initial: Gbdt,
    refined: Mutex<HashMap<SubqueryKey, f64>>,
}

impl LpceEstimator {
    /// Fit the initial model.
    pub fn fit(ctx: &FitContext, workload: &[LabeledSubquery]) -> LpceEstimator {
        let feat = Featurizer::new(&ctx.catalog, &ctx.stats);
        let (xs, ys) = training_matrix(&feat, workload);
        let initial = Gbdt::fit(&xs, &ys, &GbdtConfig::default());
        LpceEstimator {
            feat,
            initial,
            refined: Mutex::new(HashMap::new()),
        }
    }

    /// Number of refined sub-queries so far.
    pub fn num_refined(&self) -> usize {
        self.refined.lock().len()
    }
}

impl CardEstimator for LpceEstimator {
    fn name(&self) -> &'static str {
        "LPCE"
    }
    fn category(&self) -> Category {
        Category::QueryDrivenDnn
    }
    fn technique(&self) -> &'static str {
        "Query Re-Optimization"
    }
    fn estimate(&self, query: &SpjQuery, set: TableSet) -> f64 {
        if let Some(&card) = self.refined.lock().get(&query.subquery_key(set)) {
            return card.max(1.0);
        }
        log_label::decode(self.initial.predict(&self.feat.featurize(query, set))).max(1.0)
    }
    fn observe(&self, query: &SpjQuery, set: TableSet, true_card: f64) {
        self.refined
            .lock()
            .insert(query.subquery_key(set), true_card);
    }
    fn model_size(&self) -> usize {
        self.initial.num_nodes() + self.refined.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::label_workload;
    use crate::estimator::test_support::{fixture, median_q_error};

    #[test]
    fn mlp_fits_workload() {
        let (ctx, oracle, queries) = fixture();
        let labeled = label_workload(&oracle, &queries, 4).unwrap();
        let est = MlpQdEstimator::fit(&ctx, &labeled);
        let med = median_q_error(&est, &labeled);
        assert!(med < 10.0, "mlp median q-error {med}");
    }

    #[test]
    fn mscn_fits_workload() {
        let (ctx, oracle, queries) = fixture();
        let labeled = label_workload(&oracle, &queries, 4).unwrap();
        let est = MscnEstimator::fit(&ctx, &labeled);
        let med = median_q_error(&est, &labeled);
        assert!(med < 8.0, "mscn median q-error {med}");
        assert!(est.model_size() > 1000);
    }

    #[test]
    fn robust_mscn_survives_predicate_removal() {
        let (ctx, oracle, queries) = fixture();
        let labeled = label_workload(&oracle, &queries, 4).unwrap();
        let est = RobustMscnEstimator::fit(&ctx, &labeled);
        // Evaluate on queries with all predicates dropped (unseen shape).
        let mut total = 0.0;
        for q in &queries {
            let mut bare = q.clone();
            bare.predicates.clear();
            let truth = oracle.true_card_full(&bare).unwrap() as f64;
            total += lqo_ml::metrics::q_error(est.estimate(&bare, bare.all_tables()), truth);
        }
        let avg = total / queries.len() as f64;
        assert!(avg < 100.0, "robust mscn under shift: avg q-error {avg}");
    }

    #[test]
    fn fauce_uncertainty_is_finite_and_nonnegative() {
        let (ctx, oracle, queries) = fixture();
        let labeled = label_workload(&oracle, &queries, 2).unwrap();
        let est = FauceEstimator::fit(&ctx, &labeled);
        for q in &queries {
            let (e, u) = est.estimate_with_uncertainty(q, q.all_tables());
            assert!(e >= 1.0 && e.is_finite());
            assert!(u >= 0.0 && u.is_finite());
        }
    }

    #[test]
    fn nngp_uncertainty_grows_off_distribution() {
        let (ctx, oracle, queries) = fixture();
        let labeled = label_workload(&oracle, &queries[..4], 3).unwrap();
        let est = NngpEstimator::fit(&ctx, &labeled);
        let (_, u_in) = est.estimate_with_uncertainty(&queries[0], queries[0].all_tables());
        assert!(u_in.is_finite() && u_in >= 0.0);
        let med = median_q_error(&est, &labeled);
        assert!(med < 20.0, "nngp median q-error {med}");
    }

    #[test]
    fn lpce_refines_from_observations() {
        let (ctx, oracle, queries) = fixture();
        let labeled = label_workload(&oracle, &queries, 2).unwrap();
        let est = LpceEstimator::fit(&ctx, &labeled);
        let q = &queries[0];
        let truth = oracle.true_card_full(q).unwrap() as f64;
        est.observe(q, q.all_tables(), truth);
        assert_eq!(est.estimate(q, q.all_tables()), truth.max(1.0));
        assert_eq!(est.num_refined(), 1);
    }

    #[test]
    fn lpce_refinements_survive_contained_panic_while_locked() {
        let (ctx, oracle, queries) = fixture();
        let labeled = label_workload(&oracle, &queries, 2).unwrap();
        let est = std::sync::Arc::new(LpceEstimator::fit(&ctx, &labeled));
        let q = &queries[0];
        let truth = oracle.true_card_full(q).unwrap() as f64;
        est.observe(q, q.all_tables(), truth);
        // A contained panic while holding the refined-map guard used to
        // poison the std mutex, after which every estimate/observe call
        // crashed on `lock().unwrap()`.
        let e2 = std::sync::Arc::clone(&est);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _guard = e2.refined.lock();
            panic!("injected fault while holding the refined-map lock");
        })
        .join();
        std::panic::set_hook(prev);
        assert_eq!(est.num_refined(), 1);
        assert_eq!(est.estimate(q, q.all_tables()), truth.max(1.0));
    }
}
