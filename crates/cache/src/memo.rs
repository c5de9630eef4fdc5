//! Memoizing [`CardSource`] wrappers.
//!
//! [`MemoCardSource`] is the cross-query layer: it consults the shared
//! [`LqoCache`] inference cache under the sub-query's
//! [`SpjQuery::subquery_key`], which is stable across queries and
//! computed without allocating. It must wrap the **base** estimator —
//! below per-session injection/scaling decorators, whose answers vary
//! per query under identical keys.
//!
//! [`OptMemo`] is the per-optimization layer: it memoizes on raw
//! `TableSet` bits, which is only sound while a single query is being
//! optimized (table positions are not stable across queries), so one
//! `OptMemo` is created per `optimize` call and dropped with it. This is
//! what turns the greedy enumerator's repeated re-querying of the same
//! subsets into `O(1)` lookups.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use lqo_engine::optimizer::CardSource;
use lqo_engine::{SpjQuery, TableSet};

use crate::cache::LqoCache;

/// Cross-query memoization of an estimator through the shared cache.
///
/// Observationally transparent: `cardinality` returns bit-identical
/// values to the wrapped source (cached f64s are stored verbatim) and
/// `name` forwards, so plans, costs, and provenance are unchanged.
pub struct MemoCardSource {
    inner: Arc<dyn CardSource>,
    cache: Arc<LqoCache>,
}

impl MemoCardSource {
    /// Wrap `inner`, sharing `cache` across queries and sessions.
    pub fn new(inner: Arc<dyn CardSource>, cache: Arc<LqoCache>) -> MemoCardSource {
        MemoCardSource { inner, cache }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &Arc<dyn CardSource> {
        &self.inner
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<LqoCache> {
        &self.cache
    }
}

impl CardSource for MemoCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        let key = query.subquery_key(set);
        if let Some(est) = self.cache.card_lookup(key) {
            return est;
        }
        let est = self.inner.cardinality(query, set);
        self.cache.card_store(key, est, self.inner.name());
        est
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Per-optimization memo on raw table-set bits. Create one per
/// `optimize` call; never share across queries.
pub struct OptMemo<'a> {
    inner: &'a dyn CardSource,
    memo: Mutex<HashMap<u64, f64>>,
    hits: AtomicU64,
}

impl<'a> OptMemo<'a> {
    /// A fresh memo over `inner` for one optimization.
    pub fn new(inner: &'a dyn CardSource) -> OptMemo<'a> {
        OptMemo {
            inner,
            memo: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
        }
    }

    /// Lookups answered from the memo (estimator calls saved).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

impl CardSource for OptMemo<'_> {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        if let Some(&est) = self.memo.lock().get(&set.0) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return est;
        }
        let est = self.inner.cardinality(query, set);
        self.memo.lock().insert(set.0, est);
        est
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic fake estimator that counts its calls.
    struct Fake {
        calls: AtomicU64,
    }

    impl Fake {
        fn new() -> Fake {
            Fake {
                calls: AtomicU64::new(0),
            }
        }
        fn calls(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl CardSource for Fake {
        fn cardinality(&self, _query: &SpjQuery, set: TableSet) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            (set.0 as f64) * 3.5 + 1.0
        }
        fn name(&self) -> &str {
            "fake"
        }
    }

    fn query(tables: usize) -> SpjQuery {
        use lqo_engine::query::expr::{ColRef, JoinCond, TableRef};
        let refs: Vec<TableRef> = (0..tables)
            .map(|i| TableRef::new(format!("t{i}"), format!("a{i}")))
            .collect();
        let joins: Vec<JoinCond> = (1..tables)
            .map(|i| {
                JoinCond::new(
                    ColRef::new(format!("a{}", i - 1), "id"),
                    ColRef::new(format!("a{i}"), "id"),
                )
            })
            .collect();
        SpjQuery::new(refs, joins, vec![])
    }

    #[test]
    fn memo_source_saves_repeat_calls_and_is_transparent() {
        let inner = Arc::new(Fake::new());
        let cache = Arc::new(LqoCache::default());
        let memo = MemoCardSource::new(inner.clone(), cache.clone());
        let q = query(3);
        let set = q.all_tables();
        let first = memo.cardinality(&q, set);
        let second = memo.cardinality(&q, set);
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(inner.calls(), 1);
        assert_eq!(cache.stats().saved_inference_calls(), 1);
        assert_eq!(memo.name(), "fake");
    }

    #[test]
    fn memo_source_shares_across_equivalent_queries() {
        let inner = Arc::new(Fake::new());
        let cache = Arc::new(LqoCache::default());
        let memo = MemoCardSource::new(inner.clone(), cache.clone());
        let q = query(2);
        let _ = memo.cardinality(&q, q.all_tables());
        // A second, structurally identical query (fresh object) hits.
        let q2 = query(2);
        let _ = memo.cardinality(&q2, q2.all_tables());
        assert_eq!(inner.calls(), 1);
    }

    #[test]
    fn epoch_bump_forces_recompute() {
        let inner = Arc::new(Fake::new());
        let cache = Arc::new(LqoCache::default());
        let memo = MemoCardSource::new(inner.clone(), cache.clone());
        let q = query(2);
        let _ = memo.cardinality(&q, q.all_tables());
        cache.bump_stats_epoch();
        let _ = memo.cardinality(&q, q.all_tables());
        assert_eq!(inner.calls(), 2);
    }

    #[test]
    fn opt_memo_dedups_within_one_optimization() {
        let inner = Fake::new();
        let memo = OptMemo::new(&inner);
        let q = query(3);
        let set = q.all_tables();
        let a = memo.cardinality(&q, set);
        let b = memo.cardinality(&q, set);
        let c = memo.cardinality(&q, TableSet::singleton(1));
        assert_eq!(a.to_bits(), b.to_bits());
        assert_ne!(a.to_bits(), c.to_bits());
        assert_eq!(inner.calls(), 2);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.name(), "fake");
    }
}
