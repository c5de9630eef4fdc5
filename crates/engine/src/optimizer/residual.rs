//! Re-planning over a partially-materialized query: the residual join
//! graph whose leaves are a mix of already-materialized intermediate
//! relations (exact observed cardinality, zero acquisition cost) and
//! not-yet-executed base-table scans.
//!
//! This is the planning half of mid-query adaptive re-optimization: when
//! a materialization checkpoint observes a cardinality badly off its
//! estimate, the remaining work is re-planned *from here* — every
//! relation built so far becomes an opaque leaf, and only the joins
//! still ahead are enumerated. Re-planning runs the optimizer's own
//! enumerator and cost walker ([`crate::optimizer::enumerate`],
//! [`crate::optimizer::cost`]) over these leaves, with the same
//! 20-leaf DP cap, and honours the hints' join algorithms and
//! `dp_table_limit`; `leading` and `left_deep_only` describe the
//! original query's shape and are dropped. Unlike the full optimizer,
//! every cardinality lookup and cost evaluation here charges a
//! caller-supplied [`WorkMeter`], so re-planning effort is bounded by
//! the same work-unit currency as execution and trips
//! [`EngineError::WorkLimitExceeded`] when the reopt guard's budget runs
//! out. Nothing here touches the planner's telemetry.

use lqo_prof::ProfContext;

use crate::error::{EngineError, Result};
use crate::exec::executor::WorkMeter;
use crate::exec::workunits::CostParams;
use crate::optimizer::card_source::CardSource;
use crate::optimizer::cost::tree_cost;
use crate::optimizer::enumerate::{dp, fits_dp, greedy, Charge, LeafTree, Parts};
use crate::optimizer::hints::HintSet;
use crate::plan::physical::JoinAlgo;
use crate::query::join_graph::JoinGraph;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// Work units charged to the re-planning budget per cardinality lookup.
pub const RESIDUAL_LOOKUP_WORK: f64 = 4.0;
/// Work units charged to the re-planning budget per cost-model
/// evaluation.
pub const RESIDUAL_COST_EVAL_WORK: f64 = 0.25;

/// One leaf of enumeration: a table set with known rows and acquisition
/// cost. Re-planning's leaves are materialized intermediates and pending
/// scans; the optimizer's are the query's scans (none materialized).
#[derive(Debug, Clone)]
pub struct ResidualLeaf {
    /// Base tables this leaf covers.
    pub set: TableSet,
    /// Row count used for planning: the exact observed cardinality for
    /// materialized intermediates, the (calibrated) estimate for pending
    /// scans.
    pub rows: f64,
    /// Acquisition cost: zero for materialized intermediates (the work is
    /// sunk), the scan cost for pending scans.
    pub cost: f64,
    /// Whether the leaf is an already-materialized relation.
    pub materialized: bool,
}

/// A plan over residual leaves. Leaves are indices into the caller's
/// [`ResidualLeaf`] slice, so the same tree shape can be compared
/// structurally across re-planning rounds (the no-op-splice check).
#[derive(Debug, Clone, PartialEq)]
pub enum ResidualNode {
    /// The leaf at this index in the leaf slice.
    Leaf(usize),
    /// A join of two residual sub-plans (left = build side).
    Join {
        /// Join algorithm.
        algo: JoinAlgo,
        /// Build side.
        left: Box<ResidualNode>,
        /// Probe side.
        right: Box<ResidualNode>,
    },
}

impl ResidualNode {
    /// Base tables covered by this sub-plan.
    pub fn tables(&self, leaves: &[ResidualLeaf]) -> TableSet {
        match self {
            ResidualNode::Leaf(i) => leaves[*i].set,
            ResidualNode::Join { left, right, .. } => {
                left.tables(leaves).union(right.tables(leaves))
            }
        }
    }

    /// Number of join operators in this sub-plan.
    pub fn num_joins(&self) -> usize {
        match self {
            ResidualNode::Leaf(_) => 0,
            ResidualNode::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }
}

impl LeafTree for ResidualNode {
    fn leaf(i: usize) -> ResidualNode {
        ResidualNode::Leaf(i)
    }

    fn join(algo: JoinAlgo, left: ResidualNode, right: ResidualNode) -> ResidualNode {
        ResidualNode::Join {
            algo,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn parts(&self) -> Parts<'_, ResidualNode> {
        match self {
            ResidualNode::Leaf(i) => Parts::Leaf(*i),
            ResidualNode::Join { algo, left, right } => Parts::Join(*algo, left, right),
        }
    }
}

/// A residual plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct ResidualChoice {
    /// The chosen residual plan.
    pub plan: ResidualNode,
    /// Estimated cost (sunk acquisition costs of materialized leaves
    /// excluded — they are zero by construction).
    pub cost: f64,
}

/// The re-planner's charges: every cardinality lookup and cost-model
/// evaluation draws on its work meter.
struct Metered<'a> {
    card: &'a dyn CardSource,
    meter: &'a mut WorkMeter,
}

impl Charge for Metered<'_> {
    fn rows(&mut self, query: &SpjQuery, set: TableSet) -> Result<f64> {
        self.meter.add(RESIDUAL_LOOKUP_WORK)?;
        Ok(self.card.cardinality(query, set))
    }

    fn cost_eval(&mut self) -> Result<()> {
        self.meter.add(RESIDUAL_COST_EVAL_WORK)
    }
}

/// Enumerate the best plan over the residual leaves: the optimizer's DP
/// when the leaves fit the hints' DP limit and the 20-leaf cap and their
/// join graph is connected, its greedy otherwise. Every cardinality
/// lookup and cost evaluation charges `budget`, so a tight re-planning
/// budget aborts with [`EngineError::WorkLimitExceeded`] rather than
/// overrunning.
pub fn enumerate_residual(
    query: &SpjQuery,
    leaves: &[ResidualLeaf],
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
    budget: &mut WorkMeter,
) -> Result<ResidualChoice> {
    let n = leaves.len();
    if n > 64 {
        return Err(EngineError::NoPlanFound(
            "residual exceeds 64 leaves".into(),
        ));
    }
    if n == 1 {
        return Ok(ResidualChoice {
            plan: ResidualNode::Leaf(0),
            cost: leaves[0].cost,
        });
    }
    let hints = HintSet {
        leading: Vec::new(),
        left_deep_only: false,
        ..hints.clone()
    };
    let sets: Vec<TableSet> = leaves.iter().map(|l| l.set).collect();
    let graph = JoinGraph::new(query).quotient(&sets);
    let mut charge = Metered {
        card,
        meter: budget,
    };
    let prof = ProfContext::disabled();
    let e = if fits_dp(n, &graph, &hints) {
        dp(query, &graph, leaves, params, &hints, &mut charge, &prof)
    } else {
        greedy(query, &graph, leaves, params, &hints, &mut charge, &prof)
    }?;
    Ok(ResidualChoice {
        plan: e.plan,
        cost: e.cost,
    })
}

/// Re-cost an existing residual plan under (possibly different) leaf rows
/// and cardinalities, charging `budget` like [`enumerate_residual`] —
/// this is how the running plan's remaining cost is computed for the
/// keep-or-switch comparison, and how cached residual plans are re-scored
/// before reuse.
pub fn residual_cost(
    query: &SpjQuery,
    leaves: &[ResidualLeaf],
    node: &ResidualNode,
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
    budget: &mut WorkMeter,
) -> Result<f64> {
    if hints.num_allowed_algos() == 0 {
        return Err(EngineError::NoPlanFound(
            "all join algorithms disabled".into(),
        ));
    }
    let mut charge = Metered {
        card,
        meter: budget,
    };
    let mut leaf = |i: usize, _: &mut Metered| Ok(leaves[i].clone());
    Ok(tree_cost(node, query, params, &mut charge, &mut leaf)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::card_source::TraditionalCardSource;
    use crate::query::expr::{ColRef, JoinCond, TableRef};
    use crate::query::spj::SpjQuery;
    use crate::stats::table_stats::{CatalogStats, StatsConfig};
    use crate::table::TableBuilder;
    use crate::Catalog;
    use std::sync::Arc;

    /// Chain a -> b -> d (same shape as the enumerate tests).
    fn setup() -> (Arc<Catalog>, SpjQuery, TraditionalCardSource) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..50).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..500).collect())
                .int("a_id", (0..500).map(|i| i % 50).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("d")
                .int("id", (0..1500).collect())
                .int("b_id", (0..1500).map(|i| i % 500).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("d", "d"),
            ],
            vec![
                JoinCond::new(ColRef::new("a", "id"), ColRef::new("b", "a_id")),
                JoinCond::new(ColRef::new("b", "id"), ColRef::new("d", "b_id")),
            ],
            vec![],
        );
        let c = Arc::new(c);
        let stats = Arc::new(CatalogStats::build(&c, StatsConfig::default()));
        let card = TraditionalCardSource::new(c.clone(), stats);
        (c, q, card)
    }

    fn leaves_all_pending(q: &SpjQuery, card: &dyn CardSource) -> Vec<ResidualLeaf> {
        (0..q.num_tables())
            .map(|i| {
                let set = TableSet::singleton(i);
                ResidualLeaf {
                    set,
                    rows: card.cardinality(q, set),
                    cost: 10.0,
                    materialized: false,
                }
            })
            .collect()
    }

    #[test]
    fn residual_dp_covers_all_leaves() {
        let (_c, q, card) = setup();
        let leaves = leaves_all_pending(&q, &card);
        let mut budget = WorkMeter::new(None);
        let choice = enumerate_residual(
            &q,
            &leaves,
            &card,
            &CostParams::default(),
            &HintSet::default(),
            &mut budget,
        )
        .unwrap();
        assert_eq!(choice.plan.tables(&leaves), q.all_tables());
        assert_eq!(choice.plan.num_joins(), 2);
        assert!(choice.cost.is_finite());
        assert!(budget.work() > 0.0, "enumeration charged the budget");
    }

    #[test]
    fn materialized_leaf_becomes_input() {
        let (_c, q, card) = setup();
        // a⋈b is already materialized with its exact 500 rows.
        let ab = TableSet::singleton(0).union(TableSet::singleton(1));
        let leaves = vec![
            ResidualLeaf {
                set: ab,
                rows: 500.0,
                cost: 0.0,
                materialized: true,
            },
            ResidualLeaf {
                set: TableSet::singleton(2),
                rows: card.cardinality(&q, TableSet::singleton(2)),
                cost: 10.0,
                materialized: false,
            },
        ];
        let mut budget = WorkMeter::new(None);
        let choice = enumerate_residual(
            &q,
            &leaves,
            &card,
            &CostParams::default(),
            &HintSet::default(),
            &mut budget,
        )
        .unwrap();
        assert_eq!(choice.plan.tables(&leaves), q.all_tables());
        assert_eq!(choice.plan.num_joins(), 1);
    }

    #[test]
    fn tight_budget_trips_work_limit() {
        let (_c, q, card) = setup();
        let leaves = leaves_all_pending(&q, &card);
        let mut budget = WorkMeter::new(Some(RESIDUAL_LOOKUP_WORK / 2.0));
        let err = enumerate_residual(
            &q,
            &leaves,
            &card,
            &CostParams::default(),
            &HintSet::default(),
            &mut budget,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::WorkLimitExceeded { .. }));
    }

    #[test]
    fn recost_matches_enumerated_cost() {
        let (_c, q, card) = setup();
        let leaves = leaves_all_pending(&q, &card);
        let mut budget = WorkMeter::new(None);
        let params = CostParams::default();
        let hints = HintSet::default();
        let choice = enumerate_residual(&q, &leaves, &card, &params, &hints, &mut budget).unwrap();
        let recost = residual_cost(
            &q,
            &leaves,
            &choice.plan,
            &card,
            &params,
            &hints,
            &mut budget,
        )
        .unwrap();
        assert_eq!(recost.to_bits(), choice.cost.to_bits());
    }

    /// A residual past the DP's 20-leaf cap is planned greedily even when
    /// the hints' DP limit allows more: a 24-leaf chain at
    /// `dp_table_limit: 64` gives the plan, cost and meter work of a
    /// limit that forces greedy.
    #[test]
    fn residual_beyond_the_dp_cap_goes_greedy() {
        let (_c, _, card) = setup();
        let n = 24;
        let q = SpjQuery::new(
            (0..n)
                .map(|i| TableRef::new("a", format!("a{i}")))
                .collect(),
            (1..n)
                .map(|i| {
                    JoinCond::new(
                        ColRef::new(format!("a{}", i - 1), "id"),
                        ColRef::new(format!("a{i}"), "id"),
                    )
                })
                .collect(),
            vec![],
        );
        let leaves = leaves_all_pending(&q, &card);
        let plan = |dp_table_limit| {
            let hints = HintSet {
                dp_table_limit,
                ..HintSet::default()
            };
            let mut meter = WorkMeter::new(None);
            let choice = enumerate_residual(
                &q,
                &leaves,
                &card,
                &CostParams::default(),
                &hints,
                &mut meter,
            )
            .unwrap();
            (choice.plan, choice.cost.to_bits(), meter.work().to_bits())
        };
        assert_eq!(plan(64), plan(1));
    }

    #[test]
    fn disconnected_residual_falls_back_to_greedy() {
        let (_c, mut q, card) = setup();
        q.joins.pop(); // disconnect d
        let leaves = leaves_all_pending(&q, &card);
        let mut budget = WorkMeter::new(None);
        let choice = enumerate_residual(
            &q,
            &leaves,
            &card,
            &CostParams::default(),
            &HintSet::default(),
            &mut budget,
        )
        .unwrap();
        assert_eq!(choice.plan.tables(&leaves), q.all_tables());
        // The cross product must be a nested-loop join.
        fn check(n: &ResidualNode) {
            if let ResidualNode::Join { left, right, .. } = n {
                check(left);
                check(right);
            }
        }
        check(&choice.plan);
    }
}
