//! The unified learned-optimizer framework: exploration + risk selection.

use std::sync::Arc;

use lqo_engine::exec::workunits::CostParams;
use lqo_engine::optimizer::CardSource;
use lqo_engine::stats::table_stats::CatalogStats;
use lqo_engine::{
    Catalog, Optimizer, PhysNode, Result, SpjQuery, Telemetry, TraditionalCardSource,
};

/// Shared context for plan exploration: the database, its statistics, the
/// native cardinality source and cost constants.
#[derive(Clone)]
pub struct OptContext {
    /// The database.
    pub catalog: Arc<Catalog>,
    /// Collected statistics.
    pub stats: Arc<CatalogStats>,
    /// The native (traditional) estimator steered by explorers.
    pub card: Arc<dyn CardSource>,
    /// Cost constants.
    pub params: CostParams,
    /// Telemetry; disabled by default. Risk models report guard-relevant
    /// events (e.g. native-cost failures) through it.
    pub telemetry: Telemetry,
}

impl OptContext {
    /// Build with freshly collected statistics and the traditional
    /// estimator.
    pub fn new(catalog: Arc<Catalog>) -> OptContext {
        let stats = Arc::new(CatalogStats::build_default(&catalog));
        let card: Arc<dyn CardSource> =
            Arc::new(TraditionalCardSource::new(catalog.clone(), stats.clone()));
        OptContext {
            catalog,
            stats,
            card,
            params: CostParams::default(),
            telemetry: Telemetry::default(),
        }
    }

    /// Attach telemetry (threaded into risk models, the optimizers built
    /// from this context, and a cache attached afterwards).
    pub fn with_telemetry(mut self, telemetry: impl Into<Telemetry>) -> OptContext {
        self.telemetry = telemetry.into();
        self
    }

    /// Memoize this context's cardinality source through a shared plan &
    /// inference cache: estimates are looked up under canonical sub-query
    /// keys across queries, explorers, and clones of this context.
    /// Observationally transparent — cached estimates are bit-identical
    /// to fresh ones, so exploration and risk training are unchanged.
    pub fn with_cache(mut self, cache: Arc<lqo_cache::LqoCache>) -> OptContext {
        cache.attach_telemetry(&self.telemetry);
        self.card = Arc::new(lqo_cache::MemoCardSource::new(self.card, cache));
        self
    }

    /// A native optimizer over this context.
    pub fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::new(&self.catalog, self.params.clone()).with_telemetry(self.telemetry.clone())
    }
}

/// A candidate plan with the label of the exploration knob that produced
/// it (hint-set name, scaling factor, …) — useful in reports.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The physical plan.
    pub plan: PhysNode,
    /// Which exploration knob produced it.
    pub label: String,
}

/// A plan exploration strategy: generates the candidate set `P_Q`.
pub trait PlanExplorer: Send + Sync {
    /// Strategy name.
    fn name(&self) -> &'static str;
    /// Generate (deduplicated) candidate plans for a query.
    fn explore(&self, ctx: &OptContext, query: &SpjQuery) -> Result<Vec<CandidatePlan>>;
}

/// One observed execution, the unit of feedback all risk models train on.
#[derive(Clone)]
pub struct ExecutionSample {
    /// The query.
    pub query: Arc<SpjQuery>,
    /// The executed plan.
    pub plan: PhysNode,
    /// Measured work units.
    pub work: f64,
}

/// A learned risk model: predicts plan goodness and selects from a
/// candidate set.
pub trait RiskModel: Send {
    /// Model name.
    fn name(&self) -> &'static str;

    /// Predicted badness (≈ latency) of one plan; lower is better.
    fn score(&self, query: &SpjQuery, plan: &PhysNode) -> f64;

    /// Retrain/refine from accumulated execution feedback.
    fn train(&mut self, samples: &[ExecutionSample]);

    /// Pick the index of the plan to execute. The default takes the
    /// minimum score; pairwise comparators and variance filters override.
    /// NaN scores sort last (`total_cmp`), so a misbehaving model can
    /// never panic the selection or win it with garbage.
    fn select(&self, query: &SpjQuery, candidates: &[CandidatePlan]) -> usize {
        let scores: Vec<f64> = candidates
            .iter()
            .map(|c| self.score(query, &c.plan))
            .collect();
        (0..candidates.len())
            .min_by(|&a, &b| scores[a].total_cmp(&scores[b]))
            .unwrap_or(0)
    }
}

/// Common interface of every end-to-end learned optimizer.
pub trait LearnedOptimizer: Send {
    /// System name ("Bao", "Lero", …).
    fn name(&self) -> &str;

    /// Produce the plan to execute for a query.
    fn plan(&mut self, query: &SpjQuery) -> Result<PhysNode>;

    /// Feed back one observed execution.
    fn observe(&mut self, query: &SpjQuery, plan: &PhysNode, work: f64);

    /// Retrain internal models from everything observed so far.
    fn retrain(&mut self);
}

/// The survey's framework instantiated: one explorer + one risk model.
pub struct ExploreSelectOptimizer {
    name: String,
    ctx: OptContext,
    explorer: Box<dyn PlanExplorer>,
    risk: Box<dyn RiskModel>,
    history: Vec<ExecutionSample>,
    /// Executions accumulated since the last retrain.
    fresh: usize,
    /// Retrain after this many new observations (0 = only explicit).
    pub retrain_every: usize,
}

impl ExploreSelectOptimizer {
    /// Assemble a system.
    pub fn new(
        name: impl Into<String>,
        ctx: OptContext,
        explorer: Box<dyn PlanExplorer>,
        risk: Box<dyn RiskModel>,
    ) -> ExploreSelectOptimizer {
        ExploreSelectOptimizer {
            name: name.into(),
            ctx,
            explorer,
            risk,
            history: Vec::new(),
            fresh: 0,
            retrain_every: 16,
        }
    }

    /// The exploration strategy (for reports).
    pub fn explorer_name(&self) -> &'static str {
        self.explorer.name()
    }

    /// The risk model (for reports).
    pub fn risk_name(&self) -> &'static str {
        self.risk.name()
    }

    /// Number of executions observed.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Candidate plans for a query (exposed for Eraser and tests).
    pub fn candidates(&self, query: &SpjQuery) -> Result<Vec<CandidatePlan>> {
        self.explorer.explore(&self.ctx, query)
    }

    /// Risk-model score of one plan (exposed for Eraser).
    pub fn score(&self, query: &SpjQuery, plan: &PhysNode) -> f64 {
        self.risk.score(query, plan)
    }

    /// The optimization context.
    pub fn context(&self) -> &OptContext {
        &self.ctx
    }
}

impl LearnedOptimizer for ExploreSelectOptimizer {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan(&mut self, query: &SpjQuery) -> Result<PhysNode> {
        let candidates = self.explorer.explore(&self.ctx, query)?;
        if candidates.is_empty() {
            return Err(lqo_engine::EngineError::NoPlanFound(
                "explorer produced no candidates".into(),
            ));
        }
        let idx = self.risk.select(query, &candidates);
        Ok(candidates[idx].plan.clone())
    }

    fn observe(&mut self, query: &SpjQuery, plan: &PhysNode, work: f64) {
        self.history.push(ExecutionSample {
            query: Arc::new(query.clone()),
            plan: plan.clone(),
            work,
        });
        self.fresh += 1;
        if self.retrain_every > 0 && self.fresh >= self.retrain_every {
            self.retrain();
        }
    }

    fn retrain(&mut self) {
        if !self.history.is_empty() {
            self.risk.train(&self.history);
        }
        self.fresh = 0;
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use lqo_engine::datagen::imdb_like;
    use lqo_engine::query::parse_query;

    /// Small IMDB-like context plus a 6-query workload.
    pub fn fixture() -> (OptContext, Vec<SpjQuery>) {
        let catalog = Arc::new(imdb_like(150, 11).unwrap());
        let ctx = OptContext::new(catalog);
        let queries = vec![
            parse_query(
                "SELECT COUNT(*) FROM title t, cast_info ci \
                 WHERE t.id = ci.movie_id AND t.production_year > 1990",
            )
            .unwrap(),
            parse_query(
                "SELECT COUNT(*) FROM title t, movie_companies mc, company c \
                 WHERE t.id = mc.movie_id AND mc.company_id = c.id AND c.country_code < 8",
            )
            .unwrap(),
            parse_query(
                "SELECT COUNT(*) FROM title t, cast_info ci, person p \
                 WHERE t.id = ci.movie_id AND ci.person_id = p.id AND p.gender = 1 \
                 AND t.votes > 20",
            )
            .unwrap(),
            parse_query(
                "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword kw \
                 WHERE t.id = mk.movie_id AND mk.keyword_id = kw.id AND kw.category = 2",
            )
            .unwrap(),
            parse_query(
                "SELECT COUNT(*) FROM person p, cast_info ci \
                 WHERE p.id = ci.person_id AND ci.role_id < 6 AND p.birth_year > 1960",
            )
            .unwrap(),
            parse_query(
                "SELECT COUNT(*) FROM title t, kind k, movie_companies mc \
                 WHERE t.kind_id = k.id AND t.id = mc.movie_id AND t.production_year < 2000",
            )
            .unwrap(),
        ];
        (ctx, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::fixture;
    use super::*;

    struct OnePlan;
    impl PlanExplorer for OnePlan {
        fn name(&self) -> &'static str {
            "one"
        }
        fn explore(&self, ctx: &OptContext, query: &SpjQuery) -> Result<Vec<CandidatePlan>> {
            let choice = ctx.optimizer().optimize_default(query, ctx.card.as_ref())?;
            Ok(vec![CandidatePlan {
                plan: choice.plan,
                label: "native".into(),
            }])
        }
    }

    struct ZeroRisk;
    impl RiskModel for ZeroRisk {
        fn name(&self) -> &'static str {
            "zero"
        }
        fn score(&self, _q: &SpjQuery, _p: &PhysNode) -> f64 {
            0.0
        }
        fn train(&mut self, _s: &[ExecutionSample]) {}
    }

    #[test]
    fn explore_select_runs_end_to_end() {
        let (ctx, queries) = fixture();
        let mut opt =
            ExploreSelectOptimizer::new("test", ctx.clone(), Box::new(OnePlan), Box::new(ZeroRisk));
        let plan = opt.plan(&queries[0]).unwrap();
        assert_eq!(plan.tables(), queries[0].all_tables());
        opt.observe(&queries[0], &plan, 123.0);
        assert_eq!(opt.history_len(), 1);
        assert_eq!(opt.explorer_name(), "one");
        assert_eq!(opt.risk_name(), "zero");
    }
}
