//! Cardinality sources: the seam through which every cardinality estimator
//! — classical, true, injected, or learned — plugs into the optimizer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::catalog::Catalog;
use crate::exec::oracle::TrueCardOracle;
use crate::query::join_graph::JoinGraph;
use crate::query::key::SubqueryKey;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;
use crate::stats::table_stats::CatalogStats;
use crate::telemetry::Telemetry;

/// Supplies (estimated) cardinalities of sub-queries to the cost model.
pub trait CardSource: Send + Sync {
    /// Estimated number of result tuples of the sub-query induced by `set`.
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "card-source"
    }
}

/// The perfect estimator: answers with exact cardinalities from the oracle.
/// Plans costed under it define the "TrueCard" upper bound used in the E3
/// end-to-end evaluation (as in the STATS benchmark paper).
pub struct TrueCardSource {
    oracle: Arc<TrueCardOracle>,
    misses: AtomicU64,
    telemetry: Telemetry,
}

impl TrueCardSource {
    /// Wrap an oracle.
    pub fn new(oracle: Arc<TrueCardOracle>) -> TrueCardSource {
        TrueCardSource {
            oracle,
            misses: AtomicU64::new(0),
            telemetry: Telemetry::default(),
        }
    }

    /// Report oracle misses to the telemetry's obs context (counter
    /// `lqo.card.true.misses`).
    pub fn with_telemetry(mut self, telemetry: impl Into<Telemetry>) -> TrueCardSource {
        self.telemetry = telemetry.into();
        self
    }

    /// How many lookups the oracle could not answer (each was substituted
    /// with `1.0`). A non-zero value means the "TrueCard upper bound" is
    /// not actually true cardinalities — callers defining baselines (E3)
    /// must assert this stays zero.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl CardSource for TrueCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        match self.oracle.true_card(query, set) {
            Ok(c) => c as f64,
            Err(_) => {
                // An oracle miss silently degrades the TrueCard baseline;
                // make it observable instead of papering over it.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.telemetry.obs.count("lqo.card.true.misses", 1);
                1.0
            }
        }
    }

    fn name(&self) -> &str {
        "true-card"
    }
}

/// PostgreSQL-style estimation: histogram/MCV selectivities per predicate,
/// attribute-independence across predicates, and `1/max(ndv_l, ndv_r)` per
/// join edge.
pub struct TraditionalCardSource {
    catalog: Arc<Catalog>,
    stats: Arc<CatalogStats>,
}

impl TraditionalCardSource {
    /// Build over a catalog and its statistics.
    pub fn new(catalog: Arc<Catalog>, stats: Arc<CatalogStats>) -> TraditionalCardSource {
        TraditionalCardSource { catalog, stats }
    }

    /// Estimated selectivity of all predicates on table position `pos`.
    pub fn table_selectivity(&self, query: &SpjQuery, pos: usize) -> f64 {
        let Ok(table) = self.catalog.table(&query.tables[pos].table) else {
            return 1.0;
        };
        let Some(tstats) = self.stats.table(table.name()) else {
            return 1.0;
        };
        let mut sel = 1.0;
        for pred in query.predicates_on(pos) {
            if let Ok(cstats) = tstats.column(table, &pred.col.column) {
                sel *= cstats.selectivity(pred.op, &pred.value);
            }
        }
        sel
    }

    /// NDV of the column a join condition references, post-nothing (base
    /// table NDV, as classical optimizers use).
    fn join_col_ndv(&self, query: &SpjQuery, col: &crate::query::expr::ColRef) -> f64 {
        let Ok(pos) = query.col_pos(col) else {
            return 1.0;
        };
        let Ok(table) = self.catalog.table(&query.tables[pos].table) else {
            return 1.0;
        };
        self.stats
            .table(table.name())
            .and_then(|ts| ts.column(table, &col.column).ok())
            .map(|cs| cs.ndv)
            .unwrap_or(1.0)
    }
}

impl CardSource for TraditionalCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        let mut card = 1.0f64;
        for pos in set.iter() {
            let nrows = self
                .catalog
                .table(&query.tables[pos].table)
                .map(|t| t.nrows() as f64)
                .unwrap_or(1.0);
            card *= nrows * self.table_selectivity(query, pos);
        }
        for join in query.joins_within(set) {
            let ndv_l = self.join_col_ndv(query, &join.left);
            let ndv_r = self.join_col_ndv(query, &join.right);
            card /= ndv_l.max(ndv_r).max(1.0);
        }
        card.max(1.0)
    }

    fn name(&self) -> &str {
        "traditional"
    }
}

/// A source that returns injected per-sub-query estimates (keyed by
/// [`SpjQuery::subquery_key`]) and falls back to an inner source otherwise.
/// This is the batch-injection interface PilotScope's cardinality driver
/// uses, and the hook through which learned estimators are evaluated
/// end-to-end (E3).
pub struct InjectedCardSource {
    overrides: Mutex<HashMap<SubqueryKey, f64>>,
    fallback: Arc<dyn CardSource>,
}

impl InjectedCardSource {
    /// Create with a fallback source.
    pub fn new(fallback: Arc<dyn CardSource>) -> InjectedCardSource {
        InjectedCardSource {
            overrides: Mutex::new(HashMap::new()),
            fallback,
        }
    }

    /// Inject an estimate for the sub-query induced by `set`. Non-finite
    /// injections (NaN/±∞, e.g. from a misbehaving learned estimator) are
    /// dropped rather than stored — the fallback source answers instead,
    /// so one bad push cannot poison every plan for the sub-query.
    pub fn inject(&self, query: &SpjQuery, set: TableSet, card: f64) {
        if !card.is_finite() {
            return;
        }
        self.overrides
            .lock()
            .insert(query.subquery_key(set), card.max(1.0));
    }

    /// Inject estimates for every connected sub-query of `query` from a
    /// closure (batch interface).
    pub fn inject_all(
        &self,
        query: &SpjQuery,
        max_size: usize,
        mut estimate: impl FnMut(&SpjQuery, TableSet) -> f64,
    ) {
        let graph = JoinGraph::new(query);
        for set in graph.connected_subsets(max_size) {
            self.inject(query, set, estimate(query, set));
        }
    }

    /// Number of injected entries.
    pub fn len(&self) -> usize {
        self.overrides.lock().len()
    }

    /// True when nothing is injected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all injected entries.
    pub fn clear(&self) {
        self.overrides.lock().clear();
    }
}

impl CardSource for InjectedCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        if let Some(&c) = self.overrides.lock().get(&query.subquery_key(set)) {
            return c;
        }
        self.fallback.cardinality(query, set)
    }

    fn name(&self) -> &str {
        "injected"
    }
}

/// Lero's tuning knob: multiply every join-level estimate by
/// `factor^(|set| - 1)`, leaving single tables untouched. Different factors
/// explore systematically different regions of the plan space.
pub struct ScaledCardSource {
    inner: Arc<dyn CardSource>,
    factor: f64,
}

impl ScaledCardSource {
    /// Scale join estimates of `inner` by powers of `factor`.
    pub fn new(inner: Arc<dyn CardSource>, factor: f64) -> ScaledCardSource {
        ScaledCardSource { inner, factor }
    }

    /// The scaling factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl CardSource for ScaledCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        let base = self.inner.cardinality(query, set);
        if set.len() <= 1 {
            base
        } else {
            (base * self.factor.powi(set.len() as i32 - 1)).max(1.0)
        }
    }

    fn name(&self) -> &str {
        "scaled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::{CmpOp, ColRef, JoinCond, Predicate, TableRef};
    use crate::stats::table_stats::StatsConfig;
    use crate::table::TableBuilder;
    use crate::types::Value;

    fn setup() -> (Arc<Catalog>, Arc<CatalogStats>, SpjQuery) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..100).collect())
                .int("v", (0..100).map(|i| i % 10).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..500).collect())
                .int("a_id", (0..500).map(|i| i % 100).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let c = Arc::new(c);
        let stats = Arc::new(CatalogStats::build(&c, StatsConfig::default()));
        let q = SpjQuery::new(
            vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
            vec![JoinCond::new(
                ColRef::new("a", "id"),
                ColRef::new("b", "a_id"),
            )],
            vec![Predicate::new(
                ColRef::new("a", "v"),
                CmpOp::Eq,
                Value::Int(3),
            )],
        );
        (c, stats, q)
    }

    #[test]
    fn traditional_estimates_are_reasonable() {
        let (c, stats, q) = setup();
        let src = TraditionalCardSource::new(c, stats);
        // Single table: 100 rows * sel(v = 3) = 100 * 0.1 = 10.
        let est = src.cardinality(&q, TableSet::singleton(0));
        assert!((est - 10.0).abs() < 1.0, "est = {est}");
        // Join: 10 * 500 / max(ndv=100, ndv=100) = 50.
        let est = src.cardinality(&q, q.all_tables());
        assert!((est - 50.0).abs() < 10.0, "est = {est}");
    }

    #[test]
    fn injected_overrides_survive_contained_panic_while_locked() {
        let (c, stats, q) = setup();
        let base: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(c, stats));
        let src = Arc::new(InjectedCardSource::new(base));
        src.inject(&q, TableSet::singleton(0), 42.0);
        // Poison the overrides mutex the way a contained worker panic
        // would: panic on another thread while holding the guard. Before
        // the poison-recovering lock, every later steering call and
        // estimate crashed on `lock().unwrap()`.
        let s2 = Arc::clone(&src);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _guard = s2.overrides.lock();
            panic!("injected fault while holding the overrides lock");
        })
        .join();
        std::panic::set_hook(prev);
        assert_eq!(src.len(), 1);
        assert_eq!(src.cardinality(&q, TableSet::singleton(0)), 42.0);
        src.clear();
        assert!(src.is_empty());
    }

    #[test]
    fn true_source_matches_oracle() {
        let (c, _, q) = setup();
        let oracle = Arc::new(TrueCardOracle::new(c));
        let src = TrueCardSource::new(oracle.clone());
        let true_card = oracle.true_card_full(&q).unwrap() as f64;
        assert_eq!(src.cardinality(&q, q.all_tables()), true_card);
        // True full card: a rows with v=3 are ids {3,13,...,93}; each
        // matches 5 b rows -> 50.
        assert_eq!(true_card, 50.0);
    }

    #[test]
    fn true_source_counts_oracle_misses() {
        let (c, _, q) = setup();
        let src = TrueCardSource::new(Arc::new(TrueCardOracle::new(c)));
        // Valid lookups are not misses.
        let _ = src.cardinality(&q, q.all_tables());
        let _ = src.cardinality(&q, TableSet::singleton(0));
        assert_eq!(src.misses(), 0);
        // A query over a table the catalog does not hold cannot be
        // executed: the substitute 1.0 must be counted, not silent.
        let bad = SpjQuery::new(vec![TableRef::new("missing", "m")], vec![], vec![]);
        assert_eq!(src.cardinality(&bad, bad.all_tables()), 1.0);
        assert_eq!(src.misses(), 1);
        assert_eq!(src.cardinality(&bad, bad.all_tables()), 1.0);
        assert_eq!(src.misses(), 2);
    }

    #[test]
    fn injection_overrides_and_falls_back() {
        let (c, stats, q) = setup();
        let fallback: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(c, stats));
        let injected = InjectedCardSource::new(fallback.clone());
        assert!(injected.is_empty());
        injected.inject(&q, q.all_tables(), 1234.0);
        assert_eq!(injected.cardinality(&q, q.all_tables()), 1234.0);
        // Non-injected subset falls back.
        assert_eq!(
            injected.cardinality(&q, TableSet::singleton(1)),
            fallback.cardinality(&q, TableSet::singleton(1))
        );
        injected.clear();
        assert!(injected.is_empty());
    }

    #[test]
    fn non_finite_injections_are_dropped() {
        let (c, stats, q) = setup();
        let fallback: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(c, stats));
        let injected = InjectedCardSource::new(fallback.clone());
        injected.inject(&q, q.all_tables(), f64::NAN);
        injected.inject(&q, q.all_tables(), f64::INFINITY);
        assert!(injected.is_empty());
        assert_eq!(
            injected.cardinality(&q, q.all_tables()),
            fallback.cardinality(&q, q.all_tables())
        );
    }

    #[test]
    fn inject_all_covers_connected_subsets() {
        let (c, stats, q) = setup();
        let fallback: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(c, stats));
        let injected = InjectedCardSource::new(fallback);
        injected.inject_all(&q, 4, |_, set| set.len() as f64 * 7.0);
        // 2 singletons + 1 pair = 3 connected subsets.
        assert_eq!(injected.len(), 3);
        assert_eq!(injected.cardinality(&q, q.all_tables()), 14.0);
    }

    #[test]
    fn scaling_leaves_singletons_untouched() {
        let (c, stats, q) = setup();
        let inner: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(c, stats));
        let scaled = ScaledCardSource::new(inner.clone(), 10.0);
        assert_eq!(
            scaled.cardinality(&q, TableSet::singleton(0)),
            inner.cardinality(&q, TableSet::singleton(0))
        );
        let base = inner.cardinality(&q, q.all_tables());
        assert!((scaled.cardinality(&q, q.all_tables()) - base * 10.0).abs() < 1e-6);
    }
}
