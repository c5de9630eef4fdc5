//! The shared cache facade: an epoch-tagged inference (cardinality)
//! cache and a plan cache, with invalidation wired to catalog-stats
//! epochs, model-drift alarms, and circuit-breaker opens.
//!
//! ## Keys and correctness
//!
//! Every cache keys on a [`SubqueryKey`]: 128 bits computed by
//! [`lqo_engine::SpjQuery::subquery_key`] without allocating. It hashes
//! exactly the element texts [`lqo_engine::SpjQuery::canonical_key`]
//! sorts and joins — `"{table} {alias}"` per table, each predicate's
//! `Display`, and `a=b` per join with its sides in text order — each
//! under a category tag, through two independent 64-bit lanes, and sums
//! the element hashes lane-wise. A sum is order-insensitive, so the key
//! has the same equivalence classes as the sorted canonical string: the
//! same logical sub-query always maps to the same key, whatever the
//! table positions, join order or join-side order. Two different
//! sub-queries share a key only by a 128-bit collision, with probability
//! about `m² / 2¹²⁹` for `m` distinct keys — under 10⁻²⁸ for the 10⁴–10⁵
//! keys a workload holds (`plan_learned_wide` has 7 571). The combination
//! is add, not xor: xor would cancel a repeated element (a predicate
//! written twice), merging sub-queries whose canonical keys differ.
//! `lqo-testkit`'s `subquery_key` test checks the equivalence on random
//! and permuted queries and sweeps the E-experiment workloads for
//! collisions. [`plan_key`] and [`residual_key`] extend the full-query
//! key through the same hasher with the hint label, source name and
//! leaf descriptors.
//!
//! Raw `TableSet` bitmasks are **never** used as cross-query keys (table
//! positions are not stable across queries); the per-optimization
//! [`crate::OptMemo`] is the only place set bits are used, and it lives
//! and dies inside a single `optimize` call.
//!
//! ## Invalidation
//!
//! Every entry is tagged with the stats epoch at insert time and the
//! name of the source that produced it. Lookups treat entries from an
//! older epoch as misses (and drop them); [`LqoCache::bump_stats_epoch`]
//! additionally purges eagerly so `len` stays honest.
//! [`LqoCache::note_health`] reacts to a component *entering* the
//! drifted state by invalidating that estimator's entries (all cached
//! cardinalities if the label cannot be matched) plus every cached plan;
//! [`LqoCache::on_breaker_open`] flushes cached plans when a driver or
//! estimator breaker newly opens.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use lqo_engine::{PhysNode, ResidualNode, SpjQuery, SubqueryKey, Telemetry};
use lqo_flight::{FlightEvent, Producer};
use lqo_obs::trace::CacheEvent;
use lqo_obs::ObsContext;

use crate::lru::BoundedLru;

/// A previously optimized query: the chosen plan and its estimated cost.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The chosen physical plan.
    pub plan: PhysNode,
    /// Estimated cost of that plan under the cardinalities in force when
    /// it was cached.
    pub cost: f64,
}

/// A previously re-optimized residual sub-plan: the plan over residual
/// leaves and its cost under the calibration in force when it was cached.
/// Because leaf descriptors are baked into the key, the leaf indices in
/// `plan` are valid for any lookup that hits.
#[derive(Debug, Clone)]
pub struct CachedResidual {
    /// The residual plan (leaf indices refer to the keyed leaf order).
    pub plan: ResidualNode,
    /// Estimated residual cost at store time. Callers must re-cost under
    /// their current calibration before trusting it.
    pub cost: f64,
}

struct CardEntry {
    est: f64,
    epoch: u64,
    source: String,
}

struct PlanEntry {
    planned: PlannedQuery,
    epoch: u64,
    source: String,
}

struct ResidualEntry {
    cached: CachedResidual,
    epoch: u64,
    source: String,
}

/// Cache sizing.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum cached sub-query cardinalities.
    pub card_capacity: usize,
    /// Maximum cached plans.
    pub plan_capacity: usize,
    /// Maximum cached residual sub-plans (mid-query re-optimizations).
    pub residual_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            card_capacity: 65_536,
            plan_capacity: 4_096,
            residual_capacity: 4_096,
        }
    }
}

/// Point-in-time counters of both caches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Inference-cache hits (each one is a saved estimator call).
    pub card_hits: u64,
    /// Inference-cache misses.
    pub card_misses: u64,
    /// Inference-cache capacity evictions.
    pub card_evictions: u64,
    /// Inference-cache entries dropped by invalidation.
    pub card_invalidations: u64,
    /// Plan-cache hits (each one is a saved optimization).
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Plan-cache capacity evictions.
    pub plan_evictions: u64,
    /// Plan-cache entries dropped by invalidation.
    pub plan_invalidations: u64,
    /// Plan lookups skipped because the session was steered.
    pub plan_bypasses: u64,
    /// Residual-cache hits (each one is a saved residual enumeration).
    pub residual_hits: u64,
    /// Residual-cache misses.
    pub residual_misses: u64,
    /// Residual-cache entries dropped by invalidation or eviction.
    pub residual_invalidations: u64,
    /// Current catalog-stats epoch.
    pub stats_epoch: u64,
}

impl CacheStats {
    /// Estimator calls the inference cache absorbed.
    pub fn saved_inference_calls(&self) -> u64 {
        self.card_hits
    }

    /// Inference-cache hit rate in `[0, 1]` (0 when never used).
    pub fn card_hit_rate(&self) -> f64 {
        let total = self.card_hits + self.card_misses;
        if total == 0 {
            0.0
        } else {
            self.card_hits as f64 / total as f64
        }
    }

    /// Plan-cache hit rate in `[0, 1]` (0 when never used).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// The shared, thread-safe cache over inference results and plans.
pub struct LqoCache {
    epoch: AtomicU64,
    cards: Mutex<BoundedLru<CardEntry>>,
    plans: Mutex<BoundedLru<PlanEntry>>,
    residuals: Mutex<BoundedLru<ResidualEntry>>,
    /// Components currently in the drifted state (for edge detection).
    drifted: Mutex<HashSet<String>>,
    /// Behind a lock because the cache is shared via `Arc` by the time
    /// telemetry is attached.
    telemetry: Mutex<Telemetry>,
    card_hits: AtomicU64,
    card_misses: AtomicU64,
    card_evictions: AtomicU64,
    card_invalidations: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    plan_invalidations: AtomicU64,
    plan_bypasses: AtomicU64,
    residual_hits: AtomicU64,
    residual_misses: AtomicU64,
    residual_invalidations: AtomicU64,
}

impl Default for LqoCache {
    fn default() -> LqoCache {
        LqoCache::new(CacheConfig::default())
    }
}

impl LqoCache {
    /// An empty cache under `cfg`.
    pub fn new(cfg: CacheConfig) -> LqoCache {
        LqoCache {
            epoch: AtomicU64::new(0),
            cards: Mutex::new(BoundedLru::new(cfg.card_capacity)),
            plans: Mutex::new(BoundedLru::new(cfg.plan_capacity)),
            residuals: Mutex::new(BoundedLru::new(cfg.residual_capacity)),
            drifted: Mutex::new(HashSet::new()),
            telemetry: Mutex::new(Telemetry::default()),
            card_hits: AtomicU64::new(0),
            card_misses: AtomicU64::new(0),
            card_evictions: AtomicU64::new(0),
            card_invalidations: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
            plan_invalidations: AtomicU64::new(0),
            plan_bypasses: AtomicU64::new(0),
            residual_hits: AtomicU64::new(0),
            residual_misses: AtomicU64::new(0),
            residual_invalidations: AtomicU64::new(0),
        }
    }

    /// Report metrics and trace events to the telemetry's obs context,
    /// and publish cache events and stats-epoch bumps onto its flight
    /// ring, from now on. Takes `&self` because the cache is typically
    /// shared via `Arc` by the time telemetry exists.
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        *self.telemetry.lock() = telemetry.clone();
    }

    fn obs(&self) -> ObsContext {
        self.telemetry.lock().obs.clone()
    }

    fn event(&self, obs: &ObsContext, cache: &str, event: &str, detail: String) {
        let tel = self.telemetry.lock();
        if tel.flight.is_enabled() {
            tel.flight.publish(
                Producer::Cache,
                FlightEvent::Cache {
                    cache: cache.to_string(),
                    event: event.to_string(),
                    detail: detail.clone(),
                },
            );
        }
        drop(tel);
        obs.with_query(|t| {
            t.push_cache(CacheEvent {
                cache: cache.to_string(),
                event: event.to_string(),
                detail,
            });
        });
    }

    fn publish_hit_rates(&self, obs: &ObsContext) {
        let stats = self.stats();
        obs.gauge("lqo.cache.card.hit_rate", stats.card_hit_rate());
        obs.gauge("lqo.cache.plan.hit_rate", stats.plan_hit_rate());
    }

    /// Current catalog-stats epoch.
    pub fn stats_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Catalog statistics changed: advance the epoch and purge every
    /// entry tagged with an older one. Returns how many entries were
    /// dropped.
    pub fn bump_stats_epoch(&self) -> usize {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let dropped_cards = self.cards.lock().retain(|_, e| e.epoch == epoch);
        let dropped_plans = self.plans.lock().retain(|_, e| e.epoch == epoch);
        let dropped_residuals = self.residuals.lock().retain(|_, e| e.epoch == epoch);
        self.card_invalidations
            .fetch_add(dropped_cards as u64, Ordering::Relaxed);
        self.plan_invalidations
            .fetch_add(dropped_plans as u64, Ordering::Relaxed);
        self.residual_invalidations
            .fetch_add(dropped_residuals as u64, Ordering::Relaxed);
        let obs = self.obs();
        obs.count("lqo.cache.card.invalidations", dropped_cards as u64);
        obs.count("lqo.cache.plan.invalidations", dropped_plans as u64);
        obs.count("lqo.cache.residual.invalidations", dropped_residuals as u64);
        obs.count("lqo.cache.epoch_bumps", 1);
        {
            let tel = self.telemetry.lock();
            if tel.flight.is_enabled() {
                tel.flight.publish(
                    Producer::Cache,
                    FlightEvent::EpochBump {
                        epoch,
                        detail: format!(
                            "dropped={}",
                            dropped_cards + dropped_plans + dropped_residuals
                        ),
                    },
                );
            }
        }
        self.event(
            &obs,
            "card",
            "invalidate",
            format!(
                "epoch={epoch} dropped={}",
                dropped_cards + dropped_plans + dropped_residuals
            ),
        );
        dropped_cards + dropped_plans + dropped_residuals
    }

    /// Look up a cached cardinality by sub-query key. Entries from an
    /// older stats epoch are dropped and count as misses.
    pub fn card_lookup(&self, key: SubqueryKey) -> Option<f64> {
        let epoch = self.stats_epoch();
        let mut cards = self.cards.lock();
        let hit = match cards.get(key) {
            Some(e) if e.epoch == epoch => Some(e.est),
            Some(_) => {
                cards.remove(key);
                self.card_invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        drop(cards);
        let obs = self.obs();
        if hit.is_some() {
            self.card_hits.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.cache.card.hits", 1);
            obs.count("lqo.cache.saved_inference_calls", 1);
        } else {
            self.card_misses.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.cache.card.misses", 1);
        }
        if obs.is_enabled() {
            let event = if hit.is_some() { "hit" } else { "miss" };
            self.event(&obs, "card", event, format!("{key:?}"));
            self.publish_hit_rates(&obs);
        }
        hit
    }

    /// Store a cardinality under the current stats epoch, tagged with the
    /// producing source's name.
    pub fn card_store(&self, key: SubqueryKey, est: f64, source: &str) {
        let entry = CardEntry {
            est,
            epoch: self.stats_epoch(),
            source: source.to_string(),
        };
        let evicted = self.cards.lock().insert(key, entry);
        if evicted > 0 {
            self.card_evictions
                .fetch_add(evicted as u64, Ordering::Relaxed);
            self.obs().count("lqo.cache.card.evictions", evicted as u64);
        }
    }

    /// Look up a cached plan by its [`plan_key`].
    pub fn plan_lookup(&self, key: SubqueryKey) -> Option<PlannedQuery> {
        let epoch = self.stats_epoch();
        let mut plans = self.plans.lock();
        let hit = match plans.get(key) {
            Some(e) if e.epoch == epoch => Some(e.planned.clone()),
            Some(_) => {
                plans.remove(key);
                self.plan_invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        drop(plans);
        let obs = self.obs();
        if hit.is_some() {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.cache.plan.hits", 1);
        } else {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.cache.plan.misses", 1);
        }
        if obs.is_enabled() {
            let event = if hit.is_some() { "hit" } else { "miss" };
            self.event(&obs, "plan", event, format!("epoch={epoch}"));
            self.publish_hit_rates(&obs);
        }
        hit
    }

    /// Store a plan under the current stats epoch, tagged with the name
    /// of the cardinality source it was optimized under.
    pub fn plan_store(&self, key: SubqueryKey, planned: PlannedQuery, source: &str) {
        let entry = PlanEntry {
            planned,
            epoch: self.stats_epoch(),
            source: source.to_string(),
        };
        let evicted = self.plans.lock().insert(key, entry);
        let obs = self.obs();
        if evicted > 0 {
            self.plan_evictions
                .fetch_add(evicted as u64, Ordering::Relaxed);
            obs.count("lqo.cache.plan.evictions", evicted as u64);
        }
        self.event(&obs, "plan", "store", String::new());
    }

    /// Look up a cached residual sub-plan by its [`residual_key`].
    /// Entries from an older stats epoch are dropped and count as misses.
    pub fn residual_lookup(&self, key: SubqueryKey) -> Option<CachedResidual> {
        let epoch = self.stats_epoch();
        let mut residuals = self.residuals.lock();
        let hit = match residuals.get(key) {
            Some(e) if e.epoch == epoch => Some(e.cached.clone()),
            Some(_) => {
                residuals.remove(key);
                self.residual_invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        drop(residuals);
        let obs = self.obs();
        if hit.is_some() {
            self.residual_hits.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.cache.residual.hits", 1);
        } else {
            self.residual_misses.fetch_add(1, Ordering::Relaxed);
            obs.count("lqo.cache.residual.misses", 1);
        }
        if obs.is_enabled() {
            let event = if hit.is_some() { "hit" } else { "miss" };
            self.event(&obs, "residual", event, format!("epoch={epoch}"));
        }
        hit
    }

    /// Store a re-optimized residual sub-plan under the current stats
    /// epoch, tagged with the calibrated source's name.
    pub fn residual_store(&self, key: SubqueryKey, cached: CachedResidual, source: &str) {
        let entry = ResidualEntry {
            cached,
            epoch: self.stats_epoch(),
            source: source.to_string(),
        };
        let evicted = self.residuals.lock().insert(key, entry);
        let obs = self.obs();
        if evicted > 0 {
            self.residual_invalidations
                .fetch_add(evicted as u64, Ordering::Relaxed);
            obs.count("lqo.cache.residual.evictions", evicted as u64);
        }
        self.event(&obs, "residual", "store", String::new());
    }

    /// Record that a plan lookup was skipped because the session was
    /// steered (injections or scaling in force): cached plans only stand
    /// for *unsteered* optimizations.
    pub fn plan_bypass(&self, reason: &str) {
        self.plan_bypasses.fetch_add(1, Ordering::Relaxed);
        let obs = self.obs();
        obs.count("lqo.cache.plan.bypasses", 1);
        self.event(&obs, "plan", "bypass", reason.to_string());
    }

    /// Drop every cardinality and plan produced by `source`; returns how
    /// many entries were removed.
    pub fn invalidate_source(&self, source: &str) -> usize {
        let dropped_cards = self.cards.lock().retain(|_, e| e.source != source);
        let dropped_plans = self.plans.lock().retain(|_, e| e.source != source);
        let dropped_residuals = self.residuals.lock().retain(|_, e| e.source != source);
        self.card_invalidations
            .fetch_add(dropped_cards as u64, Ordering::Relaxed);
        self.plan_invalidations
            .fetch_add(dropped_plans as u64, Ordering::Relaxed);
        self.residual_invalidations
            .fetch_add(dropped_residuals as u64, Ordering::Relaxed);
        let obs = self.obs();
        obs.count("lqo.cache.card.invalidations", dropped_cards as u64);
        obs.count("lqo.cache.plan.invalidations", dropped_plans as u64);
        obs.count("lqo.cache.residual.invalidations", dropped_residuals as u64);
        self.event(
            &obs,
            "card",
            "invalidate",
            format!(
                "source={source} dropped={}",
                dropped_cards + dropped_plans + dropped_residuals
            ),
        );
        dropped_cards + dropped_plans + dropped_residuals
    }

    fn flush_cards(&self) -> usize {
        let n = self.cards.lock().clear();
        self.card_invalidations
            .fetch_add(n as u64, Ordering::Relaxed);
        self.obs().count("lqo.cache.card.invalidations", n as u64);
        n
    }

    fn flush_plans(&self) -> usize {
        let n = self.plans.lock().clear();
        self.plan_invalidations
            .fetch_add(n as u64, Ordering::Relaxed);
        self.obs().count("lqo.cache.plan.invalidations", n as u64);
        // Residual sub-plans embed the same cardinality beliefs as whole
        // plans, so they never outlive a plan flush.
        n + self.flush_residuals()
    }

    fn flush_residuals(&self) -> usize {
        let n = self.residuals.lock().clear();
        self.residual_invalidations
            .fetch_add(n as u64, Ordering::Relaxed);
        self.obs()
            .count("lqo.cache.residual.invalidations", n as u64);
        n
    }

    /// Drop everything; returns how many entries were removed. `reason`
    /// lands on the current query trace, if one is open.
    pub fn flush_all(&self, reason: &str) -> usize {
        let n = self.flush_cards() + self.flush_plans();
        let obs = self.obs();
        obs.count("lqo.cache.flushes", 1);
        self.event(&obs, "card", "invalidate", format!("flush reason={reason}"));
        n
    }

    /// React to a model-health transition for `component` (a
    /// `lqo_watch`-style name: `"card:<source>"`, `"driver:<name>"`,
    /// `"planner"`). On the *transition into* drift, estimator components
    /// lose their cached cardinalities (by source tag when it matches,
    /// wholesale otherwise) and every cached plan is dropped — plans
    /// embed cardinality beliefs. Other components drop cached plans
    /// only. Returns how many entries were invalidated.
    pub fn note_health(&self, component: &str, drifted: bool) -> usize {
        let newly = {
            let mut set = self.drifted.lock();
            if drifted {
                set.insert(component.to_string())
            } else {
                set.remove(component);
                false
            }
        };
        if !newly {
            return 0;
        }
        self.obs().count("lqo.cache.drift_invalidations", 1);
        let mut n = 0;
        if let Some(source) = component.strip_prefix("card:") {
            let removed = self.invalidate_source(source);
            n += removed;
            if removed == 0 {
                // Decorators (injection, scaling) can rename the source
                // seen by the monitor; when the tag cannot be matched,
                // correctness beats retention.
                n += self.flush_cards();
            }
        }
        n += self.flush_plans();
        n
    }

    /// React to a circuit breaker newly opening on `component`: cached
    /// plans are dropped (the component's decisions were just ruled
    /// untrustworthy); estimator components also lose their cached
    /// cardinalities. Returns how many entries were invalidated.
    pub fn on_breaker_open(&self, component: &str) -> usize {
        let obs = self.obs();
        obs.count("lqo.cache.breaker_invalidations", 1);
        self.event(
            &obs,
            "plan",
            "invalidate",
            format!("breaker-open component={component}"),
        );
        let mut n = 0;
        if let Some(source) = component.strip_prefix("card:") {
            let removed = self.invalidate_source(source);
            n += removed;
            if removed == 0 {
                n += self.flush_cards();
            }
        }
        n += self.flush_plans();
        n
    }

    /// Entries currently held in the inference cache.
    pub fn card_len(&self) -> usize {
        self.cards.lock().len()
    }

    /// Entries currently held in the plan cache.
    pub fn plan_len(&self) -> usize {
        self.plans.lock().len()
    }

    /// Entries currently held in the residual sub-plan cache.
    pub fn residual_len(&self) -> usize {
        self.residuals.lock().len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            card_hits: self.card_hits.load(Ordering::Relaxed),
            card_misses: self.card_misses.load(Ordering::Relaxed),
            card_evictions: self.card_evictions.load(Ordering::Relaxed),
            card_invalidations: self.card_invalidations.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_evictions: self.plan_evictions.load(Ordering::Relaxed),
            plan_invalidations: self.plan_invalidations.load(Ordering::Relaxed),
            plan_bypasses: self.plan_bypasses.load(Ordering::Relaxed),
            residual_hits: self.residual_hits.load(Ordering::Relaxed),
            residual_misses: self.residual_misses.load(Ordering::Relaxed),
            residual_invalidations: self.residual_invalidations.load(Ordering::Relaxed),
            stats_epoch: self.stats_epoch(),
        }
    }
}

/// The plan-cache key of one (query, hints, estimator) combination: the
/// full query's [`SpjQuery::subquery_key`] extended with the hint label
/// and the estimator name. Two queries share a key exactly when the
/// native optimizer is guaranteed to see identical inputs for both.
pub fn plan_key(query: &SpjQuery, hints_label: &str, source: &str) -> SubqueryKey {
    let mut h = query.subquery_key(query.all_tables()).extend();
    let _ = write!(h, "|hints={hints_label}|card={source}");
    h.finish()
}

/// The residual-cache key of one mid-query re-optimization decision
/// point: the full query's key extended with a descriptor of every
/// residual leaf *in leaf order* — its table-set bits and a log2 bucket
/// of its row count — plus the calibrated source's name. Two checkpoints
/// share a key exactly when the residual enumerator is guaranteed to see
/// equivalent inputs (same logical query, same leaf partition, row
/// counts within a 2× bucket of each other, same estimator stack), which
/// also makes the cached plan's leaf indices directly reusable.
pub fn residual_key(
    query: &SpjQuery,
    leaves: &[lqo_engine::ResidualLeaf],
    source: &str,
) -> SubqueryKey {
    let mut h = query.subquery_key(query.all_tables()).extend();
    for leaf in leaves {
        let bucket = leaf.rows.max(1.0).log2().floor() as i64;
        let tag = if leaf.materialized { 'm' } else { 's' };
        let _ = write!(h, "|{}:{:x}@{}", tag, leaf.set.0, bucket);
    }
    let _ = write!(h, "|card={source}");
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SubqueryKey = SubqueryKey(0xa);
    const B: SubqueryKey = SubqueryKey(0xb);
    const K: SubqueryKey = SubqueryKey(0x4b);
    const P: SubqueryKey = SubqueryKey(0x50);
    const R: SubqueryKey = SubqueryKey(0x52);
    const R1: SubqueryKey = SubqueryKey(0x521);
    const R2: SubqueryKey = SubqueryKey(0x522);

    fn planned() -> PlannedQuery {
        PlannedQuery {
            plan: PhysNode::scan(0),
            cost: 42.0,
        }
    }

    #[test]
    fn card_cache_hits_and_misses() {
        let cache = LqoCache::default();
        assert_eq!(cache.card_lookup(K), None);
        cache.card_store(K, 17.5, "traditional");
        assert_eq!(cache.card_lookup(K), Some(17.5));
        let s = cache.stats();
        assert_eq!((s.card_hits, s.card_misses), (1, 1));
        assert_eq!(s.saved_inference_calls(), 1);
        assert!((s.card_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_bump_invalidates_lazily_and_eagerly() {
        let cache = LqoCache::default();
        cache.card_store(A, 1.0, "traditional");
        cache.plan_store(P, planned(), "traditional");
        assert_eq!(cache.bump_stats_epoch(), 2);
        assert_eq!(cache.stats_epoch(), 1);
        assert_eq!(cache.card_len(), 0);
        assert_eq!(cache.plan_len(), 0);
        assert_eq!(cache.card_lookup(A), None);
        assert_eq!(cache.stats().card_invalidations, 1);
        assert_eq!(cache.stats().plan_invalidations, 1);
        // Entries stored after the bump hit normally.
        cache.card_store(A, 2.0, "traditional");
        assert_eq!(cache.card_lookup(A), Some(2.0));
    }

    #[test]
    fn source_invalidation_is_targeted() {
        let cache = LqoCache::default();
        cache.card_store(A, 1.0, "traditional");
        cache.card_store(B, 2.0, "mscn");
        cache.plan_store(P, planned(), "mscn");
        assert_eq!(cache.invalidate_source("mscn"), 2);
        assert_eq!(cache.card_lookup(A), Some(1.0));
        assert_eq!(cache.card_lookup(B), None);
        assert_eq!(cache.plan_lookup(P).map(|p| p.cost), None);
    }

    #[test]
    fn drift_transition_invalidates_once() {
        let cache = LqoCache::default();
        cache.card_store(A, 1.0, "mscn");
        cache.plan_store(P, planned(), "mscn");
        // Healthy: nothing happens.
        assert_eq!(cache.note_health("card:mscn", false), 0);
        // Drift edge: estimator entries and plans go.
        assert!(cache.note_health("card:mscn", true) >= 2);
        // Still drifted: no repeat invalidation.
        cache.card_store(A, 1.0, "mscn");
        assert_eq!(cache.note_health("card:mscn", true), 0);
        // Recovery then re-drift fires again.
        assert_eq!(cache.note_health("card:mscn", false), 0);
        assert!(cache.note_health("card:mscn", true) >= 1);
    }

    #[test]
    fn drift_with_unmatched_label_flushes_cards() {
        let cache = LqoCache::default();
        cache.card_store(A, 1.0, "traditional");
        // The monitor saw the decorated name, not the base tag.
        assert_eq!(cache.note_health("card:injected", true), 1);
        assert_eq!(cache.card_len(), 0);
    }

    #[test]
    fn breaker_open_drops_plans() {
        let cache = LqoCache::default();
        cache.card_store(A, 1.0, "traditional");
        cache.plan_store(P, planned(), "traditional");
        assert_eq!(cache.on_breaker_open("driver:bao"), 1);
        assert_eq!(cache.plan_len(), 0);
        // Driver breakers do not touch cardinalities.
        assert_eq!(cache.card_len(), 1);
        // Estimator breakers do.
        assert_eq!(cache.on_breaker_open("card:traditional"), 1);
        assert_eq!(cache.card_len(), 0);
    }

    #[test]
    fn flush_all_empties_both() {
        let cache = LqoCache::default();
        cache.card_store(A, 1.0, "t");
        cache.plan_store(P, planned(), "t");
        assert_eq!(cache.flush_all("test"), 2);
        assert!(cache.card_len() == 0 && cache.plan_len() == 0);
    }

    fn residual() -> CachedResidual {
        CachedResidual {
            plan: ResidualNode::Join {
                algo: lqo_engine::JoinAlgo::Hash,
                left: Box::new(ResidualNode::Leaf(0)),
                right: Box::new(ResidualNode::Leaf(1)),
            },
            cost: 7.0,
        }
    }

    #[test]
    fn residual_cache_hits_and_misses() {
        let cache = LqoCache::default();
        assert!(cache.residual_lookup(R).is_none());
        cache.residual_store(R, residual(), "reopt-calibrated");
        let hit = cache.residual_lookup(R).unwrap();
        assert_eq!(hit.cost, 7.0);
        assert_eq!(hit.plan, residual().plan);
        let s = cache.stats();
        assert_eq!((s.residual_hits, s.residual_misses), (1, 1));
    }

    #[test]
    fn residual_entries_are_epoch_tagged() {
        let cache = LqoCache::default();
        cache.residual_store(R, residual(), "reopt-calibrated");
        cache.bump_stats_epoch();
        assert_eq!(cache.residual_len(), 0);
        assert!(cache.residual_lookup(R).is_none());
        assert_eq!(cache.stats().residual_invalidations, 1);
    }

    #[test]
    fn residuals_die_with_plans_on_drift_and_breaker_open() {
        let cache = LqoCache::default();
        cache.residual_store(R, residual(), "reopt-calibrated");
        assert!(cache.note_health("planner", true) >= 1);
        assert_eq!(cache.residual_len(), 0);
        cache.residual_store(R, residual(), "reopt-calibrated");
        assert!(cache.on_breaker_open("driver:bao") >= 1);
        assert_eq!(cache.residual_len(), 0);
    }

    #[test]
    fn residual_source_invalidation_is_targeted() {
        let cache = LqoCache::default();
        cache.residual_store(R1, residual(), "reopt-calibrated");
        cache.residual_store(R2, residual(), "other");
        assert_eq!(cache.invalidate_source("other"), 1);
        assert!(cache.residual_lookup(R1).is_some());
        assert!(cache.residual_lookup(R2).is_none());
    }

    #[test]
    fn derived_keys_separate_hints_sources_and_leaves() {
        use lqo_engine::{ColRef, JoinCond, ResidualLeaf, TableRef, TableSet};
        let q = SpjQuery::new(
            vec![TableRef::new("a", "x"), TableRef::new("b", "y")],
            vec![JoinCond::new(
                ColRef::new("x", "id"),
                ColRef::new("y", "a_id"),
            )],
            vec![],
        );
        let mut permuted = q.clone();
        permuted.tables.reverse();
        let key = plan_key(&q, "hash+nl+merge", "mscn");
        assert_eq!(key, plan_key(&permuted, "hash+nl+merge", "mscn"));
        assert_ne!(key, plan_key(&q, "hash", "mscn"));
        assert_ne!(key, plan_key(&q, "hash+nl+merge", "deepdb"));
        assert_ne!(key, q.subquery_key(q.all_tables()));
        let leaf = |set, rows| ResidualLeaf {
            set: TableSet::singleton(set),
            rows,
            cost: 0.0,
            materialized: true,
        };
        let r = residual_key(&q, &[leaf(0, 10.0), leaf(1, 100.0)], "c");
        // Rows in the same 2× bucket share a key; leaf order matters.
        assert_eq!(r, residual_key(&q, &[leaf(0, 11.0), leaf(1, 100.0)], "c"));
        assert_ne!(r, residual_key(&q, &[leaf(1, 100.0), leaf(0, 10.0)], "c"));
        assert_ne!(r, residual_key(&q, &[leaf(0, 10.0), leaf(1, 1e4)], "c"));
        assert_ne!(r, residual_key(&q, &[leaf(0, 10.0), leaf(1, 100.0)], "d"));
    }

    #[test]
    fn obs_counters_flow() {
        let obs = ObsContext::enabled();
        let cache = LqoCache::default();
        cache.attach_telemetry(&obs.clone().into());
        cache.card_lookup(K);
        cache.card_store(K, 3.0, "t");
        cache.card_lookup(K);
        cache.plan_bypass("steered");
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("lqo.cache.card.hits"), Some(1));
        assert_eq!(snap.counter("lqo.cache.card.misses"), Some(1));
        assert_eq!(snap.counter("lqo.cache.saved_inference_calls"), Some(1));
        assert_eq!(snap.counter("lqo.cache.plan.bypasses"), Some(1));
    }
}
