//! # lqo-cache — drift-aware plan & inference caching
//!
//! The deployment-cost layer of the learned-optimizer stack: repeated
//! model inference inside the planner's hot loop is what makes learned
//! components expensive in practice (Neo's planning time is dominated by
//! per-subplan model evaluation; template caching is the standard
//! remedy). This crate provides:
//!
//! * [`MemoCardSource`] — cross-query memoization of any
//!   [`lqo_engine::optimizer::CardSource`] through a bounded LRU keyed
//!   by the 128-bit [`lqo_engine::SubqueryKey`] and tagged with a
//!   catalog-stats epoch;
//! * [`OptMemo`] — a per-optimization memo on raw table-set bits,
//!   created fresh per `optimize` call;
//! * a plan cache ([`LqoCache::plan_lookup`] / [`LqoCache::plan_store`])
//!   keyed by [`plan_key`] (the query's key extended with hints and
//!   estimator), returning
//!   the previously optimized [`PlannedQuery`] while the stats epoch is
//!   unchanged;
//! * invalidation wired to real signals: stats-epoch bumps
//!   ([`LqoCache::bump_stats_epoch`]), confirmed drift alarms
//!   ([`LqoCache::note_health`]), and circuit-breaker opens
//!   ([`LqoCache::on_breaker_open`]);
//! * observability: hit/miss/eviction/invalidation counters, hit-rate
//!   gauges, saved-inference-call counts, and per-query
//!   [`lqo_obs::trace::CacheEvent`]s.
//!
//! Caching is observationally transparent: cached values are returned
//! bit-identically and cached plans are only served for unsteered
//! sessions under an unchanged epoch, so cache-on planning produces
//! byte-identical plans and results to cache-off (proven by the
//! differential and golden tests in `lqo-testkit` and `lqo-pilot`).

pub mod cache;
pub mod lru;
pub mod memo;

pub use cache::{
    plan_key, residual_key, CacheConfig, CacheStats, CachedResidual, LqoCache, PlannedQuery,
};
pub use lru::BoundedLru;
pub use memo::{MemoCardSource, OptMemo};
