//! The classical cost-based optimizer: pluggable cardinality sources, an
//! analytical cost model, hint sets, and DP/greedy plan enumeration.
//!
//! This is the "native optimizer" every learned method is measured against,
//! and — through [`CardSource`], [`HintSet`] and the enumeration entry
//! points — also the substrate learned methods steer (Bao steers hints,
//! Lero scales cardinalities, HyperQO constrains leading orders, injected
//! estimators replace cardinalities wholesale).
//!
//! There is one join enumerator ([`enumerate`]) and one plan-cost walker
//! ([`cost`]), both over leaves: the optimizer plans over the query's
//! scans, mid-query re-planning ([`residual`]) over materialized
//! intermediates beside pending scans. Telemetry stays here: only
//! [`Optimizer`] records enumeration counters and the chosen cost on the
//! query trace, so a re-plan never overwrites the planner's fields.

pub mod card_source;
pub mod cost;
pub mod enumerate;
pub mod hints;
pub mod residual;

use lqo_flight::{FlightEvent, Producer};

use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::workunits::CostParams;
use crate::plan::physical::PhysNode;
use crate::query::join_graph::JoinGraph;
use crate::query::spj::SpjQuery;
use crate::telemetry::Telemetry;
use enumerate::{fits_dp, scan_leaf, Enumerated, Lookup};

pub use card_source::{
    CardSource, InjectedCardSource, ScaledCardSource, TraditionalCardSource, TrueCardSource,
};
pub use cost::plan_cost;
pub use enumerate::{dp_optimize, greedy_optimize, PlanChoice};
pub use hints::HintSet;
pub use residual::{enumerate_residual, residual_cost, ResidualChoice, ResidualLeaf, ResidualNode};

/// The cost-based optimizer.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    params: CostParams,
    telemetry: Telemetry,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer with given cost parameters.
    pub fn new(catalog: &'a Catalog, params: CostParams) -> Optimizer<'a> {
        Optimizer {
            catalog,
            params,
            telemetry: Telemetry::default(),
        }
    }

    /// Optimizer with default cost parameters.
    pub fn with_defaults(catalog: &'a Catalog) -> Optimizer<'a> {
        Optimizer::new(catalog, CostParams::default())
    }

    /// Attach telemetry: planner provenance (enumeration counters,
    /// cardinality lookups, hints, chosen cost) lands on the obs context's
    /// current query trace; enumeration runs under a profiler `enumerate`
    /// phase with nested `estimate` (per card lookup) and `cost` (per
    /// subproblem) phases, every lookup reaching the cardinality source
    /// bumps the exact estimator-call counter; and the
    /// `plan.optimize` span boundaries are published onto the flight ring.
    pub fn with_telemetry(mut self, telemetry: impl Into<Telemetry>) -> Optimizer<'a> {
        self.telemetry = telemetry.into();
        self
    }

    /// Cost parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Optimize under a hint set. Uses exhaustive DP when the query is
    /// connected and small enough, greedy otherwise.
    pub fn optimize(
        &self,
        query: &SpjQuery,
        card: &dyn CardSource,
        hints: &HintSet,
    ) -> Result<PlanChoice> {
        if self.telemetry.obs.is_enabled() {
            let name = card.name().to_string();
            let label = hints.label();
            self.telemetry.obs.with_query(|t| {
                t.planner.card_source = Some(name);
                t.planner.hints = Some(label);
            });
        }
        if self.telemetry.flight.is_enabled() {
            self.telemetry.flight.publish(
                Producer::Optimizer,
                FlightEvent::Span {
                    name: "plan.optimize".to_string(),
                    begin: true,
                },
            );
        }
        let graph = JoinGraph::new(query);
        let dp = fits_dp(query.num_tables(), &graph, hints);
        let choice = self.enumerate(query, &graph, card, hints, dp);
        if self.telemetry.flight.is_enabled() {
            self.telemetry.flight.publish(
                Producer::Optimizer,
                FlightEvent::Span {
                    name: "plan.optimize".to_string(),
                    begin: false,
                },
            );
        }
        choice
    }

    /// Optimize with default hints.
    pub fn optimize_default(&self, query: &SpjQuery, card: &dyn CardSource) -> Result<PlanChoice> {
        self.optimize(query, card, &HintSet::default())
    }

    /// Greedy optimization regardless of size (used as a baseline).
    pub fn greedy(
        &self,
        query: &SpjQuery,
        card: &dyn CardSource,
        hints: &HintSet,
    ) -> Result<PlanChoice> {
        self.enumerate(query, &JoinGraph::new(query), card, hints, false)
    }

    /// Estimated cost of an arbitrary plan under a cardinality source.
    pub fn cost(&self, query: &SpjQuery, plan: &PhysNode, card: &dyn CardSource) -> Result<f64> {
        plan_cost(plan, query, self.catalog, card, &self.params)
    }

    /// Plan over the query's scans by DP or greedy enumeration, under an
    /// obs `plan.dp`/`plan.greedy` span and a profiler `enumerate` phase,
    /// with every lookup going through [`Lookup`]; then record the
    /// enumeration on the query trace and metrics.
    pub(crate) fn enumerate(
        &self,
        query: &SpjQuery,
        graph: &JoinGraph,
        card: &dyn CardSource,
        hints: &HintSet,
        dp: bool,
    ) -> Result<PlanChoice> {
        let Telemetry { obs, prof, .. } = &self.telemetry;
        let _span = obs.span(if dp { "plan.dp" } else { "plan.greedy" });
        let _prof_enum = prof.phase("enumerate");
        let mut lookup = Lookup { card, obs, prof };
        let leaves = (0..query.num_tables())
            .map(|pos| scan_leaf(query, self.catalog, &self.params, pos, &mut lookup))
            .collect::<Result<Vec<_>>>()?;
        let params = &self.params;
        let e: Enumerated<PhysNode> = if dp {
            enumerate::dp(query, graph, &leaves, params, hints, &mut lookup, prof)
        } else {
            enumerate::greedy(query, graph, &leaves, params, hints, &mut lookup, prof)
        }?;
        self.record(if dp { "dp" } else { "greedy" }, &e);
        Ok(PlanChoice {
            plan: e.plan,
            cost: e.cost,
        })
    }

    /// Attach enumeration provenance to the in-flight trace and metrics.
    fn record(&self, algo: &str, e: &Enumerated<PhysNode>) {
        let Telemetry { obs, prof, .. } = &self.telemetry;
        if prof.is_enabled() {
            // Exact cost-evaluation count as work units on the cost frame
            // (its wall clock comes from the per-subproblem cost phases);
            // the caller's `enumerate` phase is still open, so this lands at
            // `...;enumerate;cost`.
            prof.record_child("cost", 0, 0, e.cost_evals as f64);
        }
        if !obs.is_enabled() {
            return;
        }
        obs.with_query(|t| {
            t.planner.algo = Some(algo.to_string());
            t.planner.subproblems = e.subproblems;
            t.planner.cost_evals = e.cost_evals;
            t.planner.chosen_cost = Some(e.cost);
        });
        obs.count("lqo.plan.queries", 1);
        obs.observe("lqo.plan.subproblems", e.subproblems as f64);
        obs.observe("lqo.plan.cost_evals", e.cost_evals as f64);
    }
}
