//! The true-cardinality oracle.
//!
//! Learned estimators need ground-truth cardinalities for training and
//! evaluation; learned optimizers need true sub-plan sizes as labels. The
//! oracle computes them by actually executing (sub-)queries, with a cache
//! keyed by the induced sub-query's [`SpjQuery::subquery_key`] so
//! identical sub-plans across a workload are executed once.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::executor::{ExecConfig, Executor};
use crate::plan::physical::{JoinAlgo, PhysNode};
use crate::query::join_graph::JoinGraph;
use crate::query::key::SubqueryKey;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// Computes exact cardinalities of queries and their sub-queries.
#[derive(Debug)]
pub struct TrueCardOracle {
    catalog: Arc<Catalog>,
    cache: Mutex<HashMap<SubqueryKey, u64>>,
}

impl TrueCardOracle {
    /// Create an oracle over a shared catalog.
    pub fn new(catalog: Arc<Catalog>) -> TrueCardOracle {
        TrueCardOracle {
            catalog,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The catalog this oracle executes against.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Exact cardinality of the full query.
    pub fn true_card_full(&self, query: &SpjQuery) -> Result<u64> {
        self.true_card(query, query.all_tables())
    }

    /// Exact cardinality of the sub-query induced by `set`.
    ///
    /// Disconnected sets are decomposed into connected components whose
    /// cardinalities multiply (there are no join conditions across
    /// components), so a "cross-product subset" never materializes the
    /// cross product.
    pub fn true_card(&self, query: &SpjQuery, set: TableSet) -> Result<u64> {
        if set.is_empty() {
            return Ok(1);
        }
        let key = query.subquery_key(set);
        if let Some(&hit) = self.cache.lock().get(&key) {
            return Ok(hit);
        }
        let graph = JoinGraph::new(query);
        let mut product: u64 = 1;
        for component in components(&graph, set) {
            let card = self.connected_card(query, component)?;
            product = product.saturating_mul(card);
        }
        self.cache.lock().insert(key, product);
        Ok(product)
    }

    /// Number of cached sub-query cardinalities.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// Exact cardinality of a connected subset, by executing a greedy
    /// smallest-table-first left-deep hash-join plan over the induced
    /// sub-query.
    fn connected_card(&self, query: &SpjQuery, set: TableSet) -> Result<u64> {
        let key = query.subquery_key(set);
        if let Some(&hit) = self.cache.lock().get(&key) {
            return Ok(hit);
        }
        let sub = query.induced(set);
        let executor = Executor::new(&self.catalog, ExecConfig::default());
        let n = sub.num_tables();
        let plan = if n == 1 {
            PhysNode::scan(0)
        } else {
            // Filtered base sizes (cached as singleton sub-queries).
            let mut sizes = Vec::with_capacity(n);
            for pos in 0..n {
                sizes.push(self.true_card(&sub, TableSet::singleton(pos))? as f64);
            }
            let graph = JoinGraph::new(&sub);
            greedy_left_deep(&graph, &sizes)
        };
        let result = executor.execute(&sub, &plan)?;
        let mut cache = self.cache.lock();
        // Opportunistically cache all intermediate true cardinalities: they
        // are exact cards of induced sub-queries of `sub`.
        for (inner_set, card) in &result.intermediates {
            // `inner_set` is in `sub` coordinates; map back is unnecessary
            // because keys are computed on `sub` directly.
            cache.insert(sub.subquery_key(*inner_set), *card);
        }
        cache.insert(key, result.count);
        Ok(result.count)
    }
}

/// Connected components of the induced subgraph on `set`.
fn components(graph: &JoinGraph, set: TableSet) -> Vec<TableSet> {
    let mut out = Vec::new();
    let mut remaining = set;
    while let Some(start) = remaining.first() {
        let mut comp = TableSet::singleton(start);
        let mut frontier = comp;
        while !frontier.is_empty() {
            let mut next = TableSet::EMPTY;
            for p in frontier.iter() {
                next = next.union(graph.neighbors(p).intersect(remaining));
            }
            frontier = next.minus(comp);
            comp = comp.union(next);
        }
        out.push(comp);
        remaining = remaining.minus(comp);
    }
    out
}

/// Left-deep plan starting from the smallest filtered table, repeatedly
/// joining the smallest *connected* remaining table (hash joins throughout).
fn greedy_left_deep(graph: &JoinGraph, sizes: &[f64]) -> PhysNode {
    let n = sizes.len();
    let start = (0..n)
        .min_by(|&a, &b| sizes[a].total_cmp(&sizes[b]))
        .unwrap();
    let mut joined = TableSet::singleton(start);
    let mut plan = PhysNode::scan(start);
    while joined.len() < n {
        let candidates = graph.neighborhood(joined);
        let next = candidates
            .iter()
            .min_by(|&a, &b| sizes[a].total_cmp(&sizes[b]))
            .expect("connected subset must always have a joinable neighbor");
        plan = PhysNode::join(JoinAlgo::Hash, plan, PhysNode::scan(next));
        joined = joined.insert(next);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::{CmpOp, ColRef, JoinCond, Predicate, TableRef};
    use crate::table::TableBuilder;
    use crate::types::Value;

    fn fixture() -> (Arc<Catalog>, SpjQuery) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..50).collect())
                .int("v", (0..50).map(|i| i % 5).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..100).collect())
                .int("a_id", (0..100).map(|i| i % 50).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("d")
                .int("id", (0..20).collect())
                .int("b_id", (0..20).map(|i| i * 5).collect())
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
            vec![Predicate::new(
                ColRef::new("a", "v"),
                CmpOp::Lt,
                Value::Int(3),
            )],
        );
        (Arc::new(c), q)
    }

    #[test]
    fn singleton_cards_respect_predicates() {
        let (c, q) = fixture();
        let oracle = TrueCardOracle::new(c);
        // a.v < 3 keeps v in {0,1,2}: 30 of 50 rows.
        assert_eq!(oracle.true_card(&q, TableSet::singleton(0)).unwrap(), 30);
        assert_eq!(oracle.true_card(&q, TableSet::singleton(1)).unwrap(), 100);
    }

    #[test]
    fn full_query_card() {
        let (c, q) = fixture();
        let oracle = TrueCardOracle::new(c);
        // Each of 100 b-rows matches exactly one a-row; a-filter keeps 60%
        // (v%5 in {0,1,2}). d joins b.id = d.b_id for b.id in {0,5,...,95}:
        // those 20 b rows each match 1 d row; of those, a-filter keeps
        // b.a_id = b.id%50 in v<3, i.e. (b.id%50)%5 < 3.
        let expected: u64 = (0..20)
            .map(|i| i * 5 % 50)
            .filter(|a_id| a_id % 5 < 3)
            .count() as u64;
        assert_eq!(oracle.true_card_full(&q).unwrap(), expected);
    }

    #[test]
    fn pairwise_subset() {
        let (c, q) = fixture();
        let oracle = TrueCardOracle::new(c);
        // a ⋈ b with a.v < 3: 60 pairs (each b row matches its unique a).
        assert_eq!(
            oracle.true_card(&q, TableSet::from_iter([0, 1])).unwrap(),
            60
        );
    }

    #[test]
    fn disconnected_subset_multiplies_components() {
        let (c, q) = fixture();
        let oracle = TrueCardOracle::new(c);
        // {a, d} has no join edge: cross product 30 * 20.
        assert_eq!(
            oracle.true_card(&q, TableSet::from_iter([0, 2])).unwrap(),
            600
        );
    }

    #[test]
    fn empty_set_is_one() {
        let (c, q) = fixture();
        let oracle = TrueCardOracle::new(c);
        assert_eq!(oracle.true_card(&q, TableSet::EMPTY).unwrap(), 1);
    }

    #[test]
    fn cache_survives_contained_panic_while_locked() {
        let (c, q) = fixture();
        let oracle = Arc::new(TrueCardOracle::new(c));
        oracle.true_card_full(&q).unwrap();
        let len = oracle.cache_len();
        // A contained panic (catch_unwind containment, as the worker pool
        // and the serving layer use around query tasks) while the cache
        // guard is held used to poison the std mutex; every later lookup
        // then panicked on `lock().unwrap()` instead of answering.
        let o2 = Arc::clone(&oracle);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _guard = o2.cache.lock();
            panic!("injected fault while holding the oracle cache lock");
        })
        .join();
        std::panic::set_hook(prev);
        assert_eq!(oracle.cache_len(), len);
        oracle.true_card_full(&q).unwrap();
    }

    #[test]
    fn cache_hits_grow() {
        let (c, q) = fixture();
        let oracle = TrueCardOracle::new(c);
        oracle.true_card_full(&q).unwrap();
        let len = oracle.cache_len();
        assert!(len >= 3);
        // Second call must not add entries.
        oracle.true_card_full(&q).unwrap();
        assert_eq!(oracle.cache_len(), len);
    }
}
