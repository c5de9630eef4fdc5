//! The native analytical cost model, and the one walker that costs a
//! join tree over leaves: [`plan_cost`] walks a physical plan over its
//! scans, residual re-costing
//! ([`crate::optimizer::residual::residual_cost`]) a residual plan over
//! its leaves.
//!
//! Predicts plan cost from estimated cardinalities using the same per-tuple
//! constants as the executor, but *without* the executor's runtime effects
//! (hash spills, nested-loop cache residency). See
//! [`crate::exec::workunits`] for why that gap is intentional.

use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::workunits::CostParams;
use crate::optimizer::card_source::CardSource;
use crate::optimizer::enumerate::{scan_leaf, Charge, LeafTree, Parts};
use crate::optimizer::residual::ResidualLeaf;
use crate::plan::physical::{JoinAlgo, PhysNode};
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// Estimated cost of one join operator, given input/output cardinalities.
pub fn join_op_cost(
    algo: JoinAlgo,
    params: &CostParams,
    left_rows: f64,
    right_rows: f64,
    out_rows: f64,
    out_width: usize,
    has_condition: bool,
) -> f64 {
    if !has_condition && algo != JoinAlgo::NestedLoop {
        // Hash/merge joins cannot evaluate a pure cross product.
        return f64::INFINITY;
    }
    match algo {
        JoinAlgo::Hash => params.hash_join_work(left_rows, right_rows, out_rows, out_width),
        JoinAlgo::NestedLoop => params.nl_join_work(left_rows, right_rows, out_rows, out_width),
        JoinAlgo::Merge => params.merge_join_work(left_rows, right_rows, out_rows, out_width),
    }
}

/// Estimated total cost of a plan under a cardinality source.
pub fn plan_cost(
    plan: &PhysNode,
    query: &SpjQuery,
    catalog: &Catalog,
    mut card: &dyn CardSource,
    params: &CostParams,
) -> Result<f64> {
    let mut scan = |pos, card: &mut &dyn CardSource| scan_leaf(query, catalog, params, pos, card);
    Ok(tree_cost(plan, query, params, &mut card, &mut scan)?.0)
}

/// `(cost, output rows, tables)` of a join tree over leaves: `leaf`
/// supplies each leaf when the walk reaches it, and `charge` answers
/// (and charges) every join's output-rows lookup and cost evaluation.
/// Plan costing and residual re-costing both walk here.
pub(crate) fn tree_cost<T: LeafTree, C: Charge>(
    tree: &T,
    query: &SpjQuery,
    params: &CostParams,
    charge: &mut C,
    leaf: &mut impl FnMut(usize, &mut C) -> Result<ResidualLeaf>,
) -> Result<(f64, f64, TableSet)> {
    match tree.parts() {
        Parts::Leaf(i) => {
            let l = leaf(i, charge)?;
            Ok((l.cost, l.rows, l.set))
        }
        Parts::Join(algo, left, right) => {
            let (lcost, lrows, lset) = tree_cost(left, query, params, charge, leaf)?;
            let (rcost, rrows, rset) = tree_cost(right, query, params, charge, leaf)?;
            let out_set = lset.union(rset);
            let out_rows = charge.rows(query, out_set)?;
            charge.cost_eval()?;
            let has_cond = !query.joins_between(lset, rset).is_empty();
            let op = join_op_cost(
                algo,
                params,
                lrows,
                rrows,
                out_rows,
                out_set.len(),
                has_cond,
            );
            Ok((lcost + rcost + op, out_rows, out_set))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::card_source::{CardSource, TraditionalCardSource};
    use crate::query::expr::{ColRef, JoinCond, TableRef};
    use crate::query::table_set::TableSet;
    use crate::stats::table_stats::{CatalogStats, StatsConfig};
    use crate::table::TableBuilder;
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, Arc<dyn CardSource>, SpjQuery) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..100).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..1000).collect())
                .int("a_id", (0..1000).map(|i| i % 100).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let c = Arc::new(c);
        let stats = Arc::new(CatalogStats::build(&c, StatsConfig::default()));
        let src: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(c.clone(), stats));
        let q = SpjQuery::new(
            vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
            vec![JoinCond::new(
                ColRef::new("a", "id"),
                ColRef::new("b", "a_id"),
            )],
            vec![],
        );
        (c, src, q)
    }

    #[test]
    fn hash_beats_nested_loop_on_large_inputs() {
        let (c, src, q) = setup();
        let hash = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let nl = PhysNode::join(JoinAlgo::NestedLoop, PhysNode::scan(0), PhysNode::scan(1));
        let ch = plan_cost(&hash, &q, &c, src.as_ref(), &CostParams::default()).unwrap();
        let cn = plan_cost(&nl, &q, &c, src.as_ref(), &CostParams::default()).unwrap();
        assert!(ch < cn);
    }

    #[test]
    fn cross_product_hash_is_infinite() {
        let (c, src, mut q) = setup();
        q.joins.clear();
        let hash = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let cost = plan_cost(&hash, &q, &c, src.as_ref(), &CostParams::default()).unwrap();
        assert!(cost.is_infinite());
        let nl = PhysNode::join(JoinAlgo::NestedLoop, PhysNode::scan(0), PhysNode::scan(1));
        let cost = plan_cost(&nl, &q, &c, src.as_ref(), &CostParams::default()).unwrap();
        assert!(cost.is_finite());
    }

    #[test]
    fn cost_tracks_estimated_cardinality() {
        // Doubling the cardinality estimate of the output raises cost.
        struct Fixed(f64);
        impl CardSource for Fixed {
            fn cardinality(&self, _q: &SpjQuery, set: TableSet) -> f64 {
                if set.len() > 1 {
                    self.0
                } else {
                    100.0
                }
            }
        }
        let (c, _, q) = setup();
        let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let small = plan_cost(&plan, &q, &c, &Fixed(10.0), &CostParams::default()).unwrap();
        let big = plan_cost(&plan, &q, &c, &Fixed(10_000.0), &CostParams::default()).unwrap();
        assert!(big > small);
    }
}
