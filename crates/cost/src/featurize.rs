//! Plan featurization: physical plans as featurized trees (for tree
//! convolution / TreeRNN) and as flat vectors (for the auto-encoder).

use std::sync::Arc;

use lqo_engine::optimizer::CardSource;
use lqo_engine::stats::table_stats::CatalogStats;
use lqo_engine::{Catalog, JoinAlgo, PhysNode, SpjQuery, TraditionalCardSource};
use lqo_ml::treeconv::FeatTree;

/// Featurizes plans against a fixed catalog. Node features are
/// `[scan, hash, nl, merge | table one-hot | log-est-rows | #preds]`,
/// with estimated rows supplied by the engine's traditional estimator —
/// matching the original TCNN cost model, which consumes optimizer
/// estimates rather than true cardinalities.
pub struct PlanFeaturizer {
    catalog: Arc<Catalog>,
    card: TraditionalCardSource,
    num_tables: usize,
}

impl PlanFeaturizer {
    /// Build over a catalog (statistics are collected internally).
    pub fn new(catalog: Arc<Catalog>) -> PlanFeaturizer {
        let stats = Arc::new(CatalogStats::build_default(&catalog));
        let num_tables = catalog.tables().len();
        PlanFeaturizer {
            card: TraditionalCardSource::new(catalog.clone(), stats),
            catalog,
            num_tables,
        }
    }

    /// Per-node feature dimension.
    pub fn node_dim(&self) -> usize {
        4 + self.num_tables + 2
    }

    fn node_features(&self, query: &SpjQuery, node: &PhysNode) -> Vec<f64> {
        let mut f = vec![0.0; self.node_dim()];
        match node {
            PhysNode::Scan { pos } => {
                f[0] = 1.0;
                if let Some(ti) = self
                    .catalog
                    .tables()
                    .iter()
                    .position(|t| t.name() == query.tables[*pos].table)
                {
                    f[4 + ti] = 1.0;
                }
                f[4 + self.num_tables + 1] = query.predicates_on(*pos).len() as f64 / 4.0;
            }
            PhysNode::Join { algo, .. } => {
                f[1 + algo.index()] = 1.0;
            }
        }
        let est = self.card.cardinality(query, node.tables());
        f[4 + self.num_tables] = (est + 1.0).ln() / 25.0;
        f
    }

    /// Convert a plan to a featurized tree (children-first node order).
    pub fn tree(&self, query: &SpjQuery, plan: &PhysNode) -> FeatTree {
        let mut tree = FeatTree::new();
        self.build(query, plan, &mut tree);
        tree
    }

    fn build(&self, query: &SpjQuery, node: &PhysNode, tree: &mut FeatTree) -> usize {
        match node {
            PhysNode::Scan { .. } => tree.leaf(self.node_features(query, node)),
            PhysNode::Join { left, right, .. } => {
                let l = self.build(query, left, tree);
                let r = self.build(query, right, tree);
                tree.internal(self.node_features(query, node), l, r)
            }
        }
    }

    /// Flat plan vector for the auto-encoder: operator counts, per-table
    /// usage, depth, and log-estimated output sizes of the root and the
    /// largest intermediate.
    pub fn flat(&self, query: &SpjQuery, plan: &PhysNode) -> Vec<f64> {
        let mut counts = [0.0f64; 4];
        let mut tables = vec![0.0; self.num_tables];
        let mut max_est: f64 = 0.0;
        plan.visit_bottom_up(&mut |n| {
            match n {
                PhysNode::Scan { pos } => {
                    counts[0] += 1.0;
                    if let Some(ti) = self
                        .catalog
                        .tables()
                        .iter()
                        .position(|t| t.name() == query.tables[*pos].table)
                    {
                        tables[ti] += 1.0;
                    }
                }
                PhysNode::Join { algo, .. } => match algo {
                    JoinAlgo::Hash => counts[1] += 1.0,
                    JoinAlgo::NestedLoop => counts[2] += 1.0,
                    JoinAlgo::Merge => counts[3] += 1.0,
                },
            }
            max_est = max_est.max(self.card.cardinality(query, n.tables()));
        });
        let root_est = self.card.cardinality(query, plan.tables());
        let mut out = counts.to_vec();
        out.extend(tables);
        out.push(plan.join_tree().height() as f64 / 8.0);
        out.push((root_est + 1.0).ln() / 25.0);
        out.push((max_est + 1.0).ln() / 25.0);
        out
    }

    /// Dimension of [`PlanFeaturizer::flat`].
    pub fn flat_dim(&self) -> usize {
        4 + self.num_tables + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::fixture;

    #[test]
    fn tree_shape_matches_plan() {
        let (catalog, _, samples) = fixture();
        let f = PlanFeaturizer::new(catalog);
        for s in &samples {
            let tree = f.tree(&s.query, &s.plan);
            assert_eq!(tree.len(), 2 * s.query.num_tables() - 1);
            assert!((0..tree.len()).all(|i| tree.feat(i).len() == f.node_dim()));
        }
    }

    #[test]
    fn flat_features_fixed_dim() {
        let (catalog, _, samples) = fixture();
        let f = PlanFeaturizer::new(catalog);
        for s in &samples {
            let x = f.flat(&s.query, &s.plan);
            assert_eq!(x.len(), f.flat_dim());
            assert!(x.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn different_algos_get_different_features() {
        let (catalog, queries, _) = fixture();
        let f = PlanFeaturizer::new(catalog);
        let q = &queries[0];
        let hash = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let merge = PhysNode::join(JoinAlgo::Merge, PhysNode::scan(0), PhysNode::scan(1));
        let th = f.tree(q, &hash);
        let tm = f.tree(q, &merge);
        assert_ne!(th.feat(th.len() - 1), tm.feat(tm.len() - 1));
    }
}
