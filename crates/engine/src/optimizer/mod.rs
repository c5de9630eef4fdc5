//! The classical cost-based optimizer: pluggable cardinality sources, an
//! analytical cost model, hint sets, and DP/greedy plan enumeration.
//!
//! This is the "native optimizer" every learned method is measured against,
//! and — through [`CardSource`], [`HintSet`] and the enumeration entry
//! points — also the substrate learned methods steer (Bao steers hints,
//! Lero scales cardinalities, HyperQO constrains leading orders, injected
//! estimators replace cardinalities wholesale).

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

pub use card_source::{
    CardSource, InjectedCardSource, ScaledCardSource, TraditionalCardSource, TrueCardSource,
};
pub use cost::plan_cost;
pub use enumerate::{
    dp_optimize, dp_optimize_obs, greedy_optimize, greedy_optimize_obs, PlanChoice,
};
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
        let choice = if query.num_tables() <= hints.dp_table_limit.min(enumerate::DP_MAX_TABLES)
            && graph.is_connected(query.all_tables())
        {
            dp_optimize_obs(
                query,
                &graph,
                self.catalog,
                card,
                &self.params,
                hints,
                &self.telemetry.obs,
                &self.telemetry.prof,
            )
        } else {
            greedy_optimize_obs(
                query,
                &graph,
                self.catalog,
                card,
                &self.params,
                hints,
                &self.telemetry.obs,
                &self.telemetry.prof,
            )
        };
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
        let graph = JoinGraph::new(query);
        greedy_optimize_obs(
            query,
            &graph,
            self.catalog,
            card,
            &self.params,
            hints,
            &self.telemetry.obs,
            &self.telemetry.prof,
        )
    }

    /// Estimated cost of an arbitrary plan under a cardinality source.
    pub fn cost(&self, query: &SpjQuery, plan: &PhysNode, card: &dyn CardSource) -> Result<f64> {
        plan_cost(plan, query, self.catalog, card, &self.params)
    }
}
