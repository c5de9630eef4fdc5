//! Learned risk models for plan selection.

use std::collections::HashMap;

use lqo_cost::PlanFeaturizer;
use lqo_engine::optimizer::plan_cost;
use lqo_engine::{PhysNode, SpjQuery};
use lqo_ml::mlp::{Mlp, MlpConfig};
use lqo_ml::scaler::log_label;
use lqo_ml::treeconv::{FeatTree, TreeConvConfig, TreeConvNet};

use crate::framework::{CandidatePlan, ExecutionSample, OptContext, RiskModel};

/// Native analytical cost of a plan (the cold-start fallback of every
/// learned risk model — exactly how Bao defaults to the native optimizer
/// until its model has seen enough executions).
///
/// A `plan_cost` failure is *surfaced*, not swallowed: the error lands on
/// the current query trace (and the flight ring) as a guard event and in
/// the `lqo.guard.native_cost_errors` counter before the plan is scored ∞
/// (so it still loses every comparison, but now visibly).
pub(crate) fn native_cost(ctx: &OptContext, query: &SpjQuery, plan: &PhysNode) -> f64 {
    match plan_cost(plan, query, &ctx.catalog, ctx.card.as_ref(), &ctx.params) {
        Ok(cost) => cost,
        Err(e) => {
            ctx.telemetry.obs.count("lqo.guard.native_cost_errors", 1);
            ctx.telemetry.guard_event(
                lqo_flight::Producer::Guard,
                "risk:native-cost",
                &e.to_string(),
                "score:infinity",
            );
            f64::INFINITY
        }
    }
}

/// Minimum observations before a learned model overrides the native cost.
const MIN_SAMPLES: usize = 8;

/// Whether a training set carries enough signal to trust a pointwise
/// model over the native cost. A history saturated with duplicates — the
/// same native plan re-executed every epoch, which is exactly what an
/// untrained selector produces — has no ranking signal: a net fit on it
/// predicts near-constants and then picks arbitrarily among candidates.
/// Require [`MIN_SAMPLES`] *distinct* (query, plan) observations, not
/// just raw count. (The pairwise comparator gets this for free: identical
/// plans form no training pairs.)
fn has_training_diversity(samples: &[ExecutionSample]) -> bool {
    let mut distinct = std::collections::HashSet::new();
    for s in samples {
        distinct.insert((s.query.to_string(), s.plan.fingerprint()));
        if distinct.len() >= MIN_SAMPLES {
            return true;
        }
    }
    false
}

/// Pointwise tree-convolution latency prediction — Bao's and Neo's value
/// model \[37, 38\].
pub struct PointwiseTcnnRisk {
    ctx: OptContext,
    feat: PlanFeaturizer,
    net: TreeConvNet,
    trained: bool,
    /// Epochs per retrain.
    pub epochs: usize,
}

impl PointwiseTcnnRisk {
    /// Untrained model over a context.
    pub fn new(ctx: OptContext) -> PointwiseTcnnRisk {
        let feat = PlanFeaturizer::new(ctx.catalog.clone());
        let net = TreeConvNet::new(TreeConvConfig {
            learning_rate: 2e-3,
            channels: vec![24, 12],
            head_hidden: vec![24],
            ..TreeConvConfig::new(feat.node_dim())
        });
        PointwiseTcnnRisk {
            ctx,
            feat,
            net,
            trained: false,
            epochs: 60,
        }
    }
}

impl RiskModel for PointwiseTcnnRisk {
    fn name(&self) -> &'static str {
        "TCNN (pointwise)"
    }

    fn score(&self, query: &SpjQuery, plan: &PhysNode) -> f64 {
        if !self.trained {
            return native_cost(self.ctx(), query, plan);
        }
        let tree = self.feat.tree(query, plan);
        log_label::decode(self.net.predict(&tree) * 25.0)
    }

    fn train(&mut self, samples: &[ExecutionSample]) {
        if !has_training_diversity(samples) {
            return;
        }
        let trees: Vec<FeatTree> = samples
            .iter()
            .map(|s| self.feat.tree(&s.query, &s.plan))
            .collect();
        let ys: Vec<f64> = samples
            .iter()
            .map(|s| log_label::encode(s.work) / 25.0)
            .collect();
        let refs: Vec<&FeatTree> = trees.iter().collect();
        for _ in 0..self.epochs {
            for (ct, cy) in refs.chunks(16).zip(ys.chunks(16)) {
                self.net.train_batch(ct, cy);
            }
        }
        self.trained = true;
    }
}

impl PointwiseTcnnRisk {
    fn ctx(&self) -> &OptContext {
        &self.ctx
    }
}

/// Pairwise plan comparator — Lero's learning-to-rank model \[79\]. Trains
/// on pairs of executed plans *of the same query*; the scalar score it
/// produces is a ranking utility (selection still minimizes it, which for
/// a transitive scalar comparator coincides with Lero's most-wins rule).
pub struct PairwiseTcnnRisk {
    ctx: OptContext,
    feat: PlanFeaturizer,
    net: TreeConvNet,
    trained: bool,
    /// Epochs per retrain.
    pub epochs: usize,
}

impl PairwiseTcnnRisk {
    /// Untrained comparator over a context.
    pub fn new(ctx: OptContext) -> PairwiseTcnnRisk {
        let feat = PlanFeaturizer::new(ctx.catalog.clone());
        let net = TreeConvNet::new(TreeConvConfig {
            learning_rate: 2e-3,
            channels: vec![24, 12],
            head_hidden: vec![24],
            seed: 29,
            ..TreeConvConfig::new(feat.node_dim())
        });
        PairwiseTcnnRisk {
            ctx,
            feat,
            net,
            trained: false,
            epochs: 80,
        }
    }
}

impl RiskModel for PairwiseTcnnRisk {
    fn name(&self) -> &'static str {
        "pairwise comparator"
    }

    fn score(&self, query: &SpjQuery, plan: &PhysNode) -> f64 {
        if !self.trained {
            return native_cost(&self.ctx, query, plan);
        }
        // Higher net output = ranked better; negate so lower = better.
        -self.net.predict(&self.feat.tree(query, plan))
    }

    fn train(&mut self, samples: &[ExecutionSample]) {
        let pairs_idx = ranking_pairs(samples);
        if pairs_idx.len() < MIN_SAMPLES {
            return;
        }
        let trees: Vec<FeatTree> = samples
            .iter()
            .map(|s| self.feat.tree(&s.query, &s.plan))
            .collect();
        for _ in 0..self.epochs {
            for chunk in pairs_idx.chunks(16) {
                let batch: Vec<(&FeatTree, &FeatTree, f64)> = chunk
                    .iter()
                    .map(|&(i, j, y)| (&trees[i], &trees[j], y))
                    .collect();
                self.net.train_pairwise_batch(&batch);
            }
        }
        self.trained = true;
    }
}

/// Within-query training pairs `(i, j, y)` for `i < j`, ascending in `i`
/// then `j`, labeled `+1` when plan `i` did less work than plan `j`;
/// near-ties (work within 5 %) teach nothing and are left out.
///
/// Samples are grouped by query first, so only samples of the same query
/// are compared: the history holds many executions of each query, and
/// comparing every pair of queries made each retrain quadratic in it.
fn ranking_pairs(samples: &[ExecutionSample]) -> Vec<(usize, usize, f64)> {
    // Equal queries print equally; within one printed form, groups are
    // told apart by `==`, which defines "the same query".
    let mut by_text: HashMap<String, Vec<usize>> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        let candidates = by_text.entry(s.query.to_string()).or_default();
        let found = candidates
            .iter()
            .copied()
            .find(|&g| samples[groups[g][0]].query == s.query);
        let g = found.unwrap_or_else(|| {
            candidates.push(groups.len());
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
        group_of.push(g);
    }
    let mut pairs = Vec::new();
    for (i, &g) in group_of.iter().enumerate() {
        let group = &groups[g];
        let after = group.partition_point(|&j| j <= i);
        for &j in &group[after..] {
            let (wi, wj) = (samples[i].work, samples[j].work);
            if (wi - wj).abs() / wi.max(wj).max(1.0) < 0.05 {
                continue; // ties teach nothing
            }
            // +1 when i is the better (cheaper) plan.
            pairs.push((i, j, if wi < wj { 1.0 } else { -1.0 }));
        }
    }
    pairs
}

/// Multi-head ensemble with variance filtering — HyperQO's regression
/// defence \[72\]: candidates whose ensemble members disagree strongly are
/// discarded before the mean-score minimum is taken.
pub struct EnsembleRisk {
    ctx: OptContext,
    feat: PlanFeaturizer,
    heads: Vec<Mlp>,
    trained: bool,
    /// Drop candidates whose prediction variance exceeds this multiple of
    /// the candidate-set median variance.
    pub variance_cutoff: f64,
    /// Epochs per retrain.
    pub epochs: usize,
}

impl EnsembleRisk {
    /// Untrained 4-head ensemble.
    pub fn new(ctx: OptContext) -> EnsembleRisk {
        let feat = PlanFeaturizer::new(ctx.catalog.clone());
        let heads = (0..4)
            .map(|k| {
                Mlp::new(MlpConfig {
                    learning_rate: 3e-3,
                    seed: 300 + k,
                    ..MlpConfig::new(vec![feat.flat_dim(), 32, 1])
                })
            })
            .collect();
        EnsembleRisk {
            ctx,
            feat,
            heads,
            trained: false,
            variance_cutoff: 2.0,
            epochs: 80,
        }
    }

    fn predict_stats(&self, query: &SpjQuery, plan: &PhysNode) -> (f64, f64) {
        let x = self.feat.flat(query, plan);
        let preds: Vec<f64> = self.heads.iter().map(|h| h.predict_scalar(&x)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64;
        (mean, var)
    }
}

impl RiskModel for EnsembleRisk {
    fn name(&self) -> &'static str {
        "ensemble + variance filter"
    }

    fn score(&self, query: &SpjQuery, plan: &PhysNode) -> f64 {
        if !self.trained {
            return native_cost(&self.ctx, query, plan);
        }
        log_label::decode(self.predict_stats(query, plan).0 * 25.0)
    }

    fn train(&mut self, samples: &[ExecutionSample]) {
        if !has_training_diversity(samples) {
            return;
        }
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| self.feat.flat(&s.query, &s.plan))
            .collect();
        let ys: Vec<f64> = samples
            .iter()
            .map(|s| log_label::encode(s.work) / 25.0)
            .collect();
        for (k, head) in self.heads.iter_mut().enumerate() {
            // Each head sees a different bootstrap-ish slice.
            let idx: Vec<usize> = (0..xs.len()).filter(|i| (i + k) % 5 != 0).collect();
            let hx: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
            let hy: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
            head.fit_regression(&hx, &hy, self.epochs, 16, 400 + k as u64);
        }
        self.trained = true;
    }

    fn select(&self, query: &SpjQuery, candidates: &[CandidatePlan]) -> usize {
        if !self.trained || candidates.len() <= 1 {
            let scores: Vec<f64> = candidates
                .iter()
                .map(|c| self.score(query, &c.plan))
                .collect();
            return (0..candidates.len())
                .min_by(|&a, &b| scores[a].total_cmp(&scores[b]))
                .unwrap_or(0);
        }
        let stats: Vec<(f64, f64)> = candidates
            .iter()
            .map(|c| self.predict_stats(query, &c.plan))
            .collect();
        let mut vars: Vec<f64> = stats.iter().map(|s| s.1).collect();
        vars.sort_by(f64::total_cmp);
        let median = vars[vars.len() / 2];
        let cutoff = (median * self.variance_cutoff).max(1e-12);
        let filtered: Vec<usize> = (0..candidates.len())
            .filter(|&i| stats[i].1 <= cutoff)
            .collect();
        let pool = if filtered.is_empty() {
            (0..candidates.len()).collect::<Vec<_>>()
        } else {
            filtered
        };
        pool.into_iter()
            .min_by(|&a, &b| stats[a].0.total_cmp(&stats[b].0))
            .unwrap_or(0)
    }
}

/// LEON-style calibrated comparator \[4\]: a convex blend of the native
/// cost (in log space) and a learned pairwise ranking utility, so the
/// model only overrides the cost model where it has learned to.
pub struct CalibratedPairwiseRisk {
    inner: PairwiseTcnnRisk,
    /// Weight on the native cost (1 = pure native, 0 = pure learned).
    pub alpha: f64,
}

impl CalibratedPairwiseRisk {
    /// Default blend.
    pub fn new(ctx: OptContext) -> CalibratedPairwiseRisk {
        CalibratedPairwiseRisk {
            inner: PairwiseTcnnRisk::new(ctx),
            alpha: 0.5,
        }
    }
}

impl RiskModel for CalibratedPairwiseRisk {
    fn name(&self) -> &'static str {
        "calibrated pairwise"
    }

    fn score(&self, query: &SpjQuery, plan: &PhysNode) -> f64 {
        let native = native_cost(&self.inner.ctx, query, plan).max(1.0).ln();
        if !self.inner.trained {
            return native;
        }
        let learned = -self.inner.net.predict(&self.inner.feat.tree(query, plan));
        self.alpha * native + (1.0 - self.alpha) * learned
    }

    fn train(&mut self, samples: &[ExecutionSample]) {
        self.inner.train(samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorers::BaoExplorer;
    use crate::framework::test_support::fixture;
    use crate::framework::PlanExplorer;
    use lqo_engine::Executor;
    use std::sync::Arc;

    fn collect_samples(ctx: &OptContext, queries: &[SpjQuery]) -> Vec<ExecutionSample> {
        let explorer = BaoExplorer::standard();
        let executor = Executor::with_defaults(&ctx.catalog);
        let mut out = Vec::new();
        for q in queries {
            for c in explorer.explore(ctx, q).unwrap() {
                if let Ok(r) = executor.execute(q, &c.plan) {
                    out.push(ExecutionSample {
                        query: Arc::new(q.clone()),
                        plan: c.plan,
                        work: r.work,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn pointwise_ranks_after_training() {
        let (ctx, queries) = fixture();
        let samples = collect_samples(&ctx, &queries);
        let mut risk = PointwiseTcnnRisk::new(ctx);
        risk.train(&samples);
        let scores: Vec<f64> = samples
            .iter()
            .map(|s| risk.score(&s.query, &s.plan).ln())
            .collect();
        let truth: Vec<f64> = samples.iter().map(|s| s.work.ln()).collect();
        let rho = lqo_ml::metrics::spearman(&scores, &truth);
        assert!(rho > 0.6, "pointwise rank correlation {rho}");
    }

    #[test]
    fn pairwise_orders_within_query() {
        let (ctx, queries) = fixture();
        let samples = collect_samples(&ctx, &queries);
        let mut risk = PairwiseTcnnRisk::new(ctx);
        risk.train(&samples);
        // Within each query, the cheapest sampled plan should not be
        // scored worst.
        let mut wins = 0;
        let mut total = 0;
        for q in &queries {
            let of_q: Vec<&ExecutionSample> =
                samples.iter().filter(|s| s.query.as_ref() == q).collect();
            if of_q.len() < 2 {
                continue;
            }
            let best = of_q
                .iter()
                .min_by(|a, b| a.work.total_cmp(&b.work))
                .unwrap();
            let worst = of_q
                .iter()
                .max_by(|a, b| a.work.total_cmp(&b.work))
                .unwrap();
            if best.work == worst.work {
                continue;
            }
            total += 1;
            if risk.score(q, &best.plan) < risk.score(q, &worst.plan) {
                wins += 1;
            }
        }
        assert!(total > 0);
        assert!(
            wins * 2 >= total,
            "pairwise model wrong on {} of {total} best/worst pairs",
            total - wins
        );
    }

    #[test]
    fn grouped_ranking_pairs_equal_the_all_pairs_scan() {
        let (ctx, queries) = fixture();
        // Every query three times over, each execution with its own copy
        // of the query, interleaved.
        let mut samples = Vec::new();
        for _ in 0..3 {
            for s in collect_samples(&ctx, &queries) {
                samples.push(ExecutionSample {
                    query: Arc::new(s.query.as_ref().clone()),
                    ..s
                });
            }
        }
        let mut naive = Vec::new();
        for i in 0..samples.len() {
            for j in i + 1..samples.len() {
                if samples[i].query != samples[j].query {
                    continue;
                }
                let (wi, wj) = (samples[i].work, samples[j].work);
                if (wi - wj).abs() / wi.max(wj).max(1.0) < 0.05 {
                    continue;
                }
                naive.push((i, j, if wi < wj { 1.0 } else { -1.0 }));
            }
        }
        assert!(naive.len() > queries.len(), "the history repeats queries");
        assert_eq!(ranking_pairs(&samples), naive);
    }

    #[test]
    fn untrained_models_fall_back_to_native_cost() {
        let (ctx, queries) = fixture();
        let q = &queries[0];
        let plan = ctx
            .optimizer()
            .optimize_default(q, ctx.card.as_ref())
            .unwrap()
            .plan;
        let point = PointwiseTcnnRisk::new(ctx.clone());
        let native = native_cost(&ctx, q, &plan);
        assert_eq!(point.score(q, &plan), native);
        let ens = EnsembleRisk::new(ctx.clone());
        assert_eq!(ens.score(q, &plan), native);
    }

    #[test]
    fn ensemble_variance_filter_selects_reasonably() {
        let (ctx, queries) = fixture();
        let samples = collect_samples(&ctx, &queries);
        let mut risk = EnsembleRisk::new(ctx.clone());
        risk.train(&samples);
        let explorer = BaoExplorer::standard();
        let cands = explorer.explore(&ctx, &queries[1]).unwrap();
        let idx = risk.select(&queries[1], &cands);
        assert!(idx < cands.len());
    }

    #[test]
    fn calibrated_blend_interpolates() {
        let (ctx, queries) = fixture();
        let q = &queries[0];
        let plan = ctx
            .optimizer()
            .optimize_default(q, ctx.card.as_ref())
            .unwrap()
            .plan;
        let mut leon = CalibratedPairwiseRisk::new(ctx.clone());
        leon.alpha = 1.0;
        let samples = collect_samples(&ctx, &queries[..2]);
        leon.train(&samples);
        // alpha = 1 → pure (log) native cost even after training.
        let expected = native_cost(&ctx, q, &plan).max(1.0).ln();
        assert!((leon.score(q, &plan) - expected).abs() < 1e-9);
    }
}
