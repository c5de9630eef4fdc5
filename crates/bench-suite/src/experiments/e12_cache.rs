//! **E12 — plan & inference caching on a repeated-template workload.**
//! Learned-optimizer inference is the deployment cost the survey keeps
//! returning to: Neo-style planners evaluate a model per candidate
//! subplan, so a workload that re-issues the same query templates pays
//! the same inference over and over. This experiment plans a fixed set
//! of templates for several rounds under three configurations —
//! `uncached` (estimator called directly), `memo` (cross-query
//! inference cache via `MemoCardSource` + per-optimization `OptMemo`),
//! and `plan+memo` (full `LqoCache`, reusing whole plans) — counting
//! every `CardSource::cardinality` call at the base estimator.
//!
//! Byte identity is asserted at every cell: all three configurations
//! must pick the identical plan (fingerprint) for every template in
//! every round, which is the cache's observational-transparency
//! contract. Artifacts: one JSONL record per (mode, round) in
//! `results/exp_e12_cache.jsonl` — the speedup curve — plus the summary
//! table; the binary asserts a ≥5× reduction in estimator calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use lqo_cache::{plan_key, LqoCache, MemoCardSource, OptMemo, PlannedQuery};
use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{
    Catalog, CatalogStats, HintSet, Optimizer, SpjQuery, TableSet, TraditionalCardSource,
};

use crate::report::TextTable;
use crate::workload::{generate_workload, WorkloadConfig};

/// E12 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `stats_like` scale (rows per table ∝ scale).
    pub scale: usize,
    /// Distinct query templates in the workload.
    pub num_templates: usize,
    /// How many times the whole template set is re-planned.
    pub rounds: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        let f = crate::report::scale_factor();
        Config {
            scale: (1_000.0 * f).max(200.0) as usize,
            num_templates: (10.0 * f).max(4.0) as usize,
            // The reduction factor is bounded by the round count (warm
            // rounds cost zero estimator calls), so keep at least 8
            // rounds even at small scale for a comfortable >=5x margin.
            rounds: (8.0 * f).max(8.0) as usize,
            seed: 0xE12,
        }
    }
}

/// One JSONL record: one planning round under one configuration.
#[derive(Debug, Clone, Serialize)]
pub struct RoundPoint {
    /// Configuration label: `uncached`, `memo`, or `plan+memo`.
    pub mode: String,
    /// Round index (0-based; round 0 is the cold round).
    pub round: usize,
    /// Wall time of this round's planning, seconds.
    pub wall_s: f64,
    /// `uncached_wall / wall` for the same round (1.0 for uncached).
    pub speedup: f64,
    /// Base-estimator calls in this round.
    pub card_calls: u64,
    /// Cumulative base-estimator calls up to and including this round.
    pub card_calls_cum: u64,
    /// Cumulative inference-cache hits (0 for uncached).
    pub card_hits: u64,
    /// Cumulative plan-cache hits (0 unless `plan+memo`).
    pub plan_hits: u64,
}

/// E12 output.
#[derive(Debug, Serialize)]
pub struct Output {
    /// Rendered summary table.
    pub table: TextTable,
    /// One record per (mode, round), uncached first.
    pub points: Vec<RoundPoint>,
    /// Total estimator calls without any caching.
    pub uncached_calls: u64,
    /// Total estimator calls under the full cache.
    pub cached_calls: u64,
    /// `uncached_calls / cached_calls` — the headline reduction.
    pub reduction: f64,
}

/// Counts every call that reaches the base estimator.
struct CountingCardSource {
    inner: Arc<dyn CardSource>,
    calls: AtomicU64,
}

impl CountingCardSource {
    fn new(inner: Arc<dyn CardSource>) -> CountingCardSource {
        CountingCardSource {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl CardSource for CountingCardSource {
    fn cardinality(&self, query: &SpjQuery, set: TableSet) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.cardinality(query, set)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

enum Mode {
    Uncached,
    Memo,
    PlanMemo,
}

impl Mode {
    fn label(&self) -> &'static str {
        match self {
            Mode::Uncached => "uncached",
            Mode::Memo => "memo",
            Mode::PlanMemo => "plan+memo",
        }
    }
}

struct ModeRun {
    points: Vec<RoundPoint>,
    /// `fingerprints[round][template]`.
    fingerprints: Vec<Vec<String>>,
    total_calls: u64,
}

fn run_mode(catalog: &Arc<Catalog>, queries: &[SpjQuery], cfg: &Config, mode: &Mode) -> ModeRun {
    let stats = Arc::new(CatalogStats::build_default(catalog));
    let base: Arc<dyn CardSource> = Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
    let counting = Arc::new(CountingCardSource::new(base));
    let cache = Arc::new(LqoCache::default());
    let card: Arc<dyn CardSource> = match mode {
        Mode::Uncached => counting.clone(),
        Mode::Memo | Mode::PlanMemo => Arc::new(MemoCardSource::new(
            counting.clone() as Arc<dyn CardSource>,
            cache.clone(),
        )),
    };
    let optimizer = Optimizer::with_defaults(catalog);
    let hints = HintSet::default();
    let source = counting.name().to_string();

    let mut points = Vec::with_capacity(cfg.rounds);
    let mut fingerprints = Vec::with_capacity(cfg.rounds);
    let mut calls_before_round;
    for round in 0..cfg.rounds {
        calls_before_round = counting.calls();
        let start = Instant::now();
        let mut round_fps = Vec::with_capacity(queries.len());
        for q in queries {
            let plan = match mode {
                Mode::Uncached => optimizer.optimize(q, card.as_ref(), &hints).unwrap().plan,
                Mode::Memo => {
                    let memo = OptMemo::new(card.as_ref());
                    optimizer.optimize(q, &memo, &hints).unwrap().plan
                }
                Mode::PlanMemo => {
                    let key = plan_key(q, &hints.label(), &source);
                    match cache.plan_lookup(key) {
                        Some(hit) => hit.plan,
                        None => {
                            let memo = OptMemo::new(card.as_ref());
                            let choice = optimizer.optimize(q, &memo, &hints).unwrap();
                            cache.plan_store(
                                key,
                                PlannedQuery {
                                    plan: choice.plan.clone(),
                                    cost: choice.cost,
                                },
                                &source,
                            );
                            choice.plan
                        }
                    }
                }
            };
            round_fps.push(plan.fingerprint());
        }
        let wall_s = start.elapsed().as_secs_f64();
        let cache_stats = cache.stats();
        points.push(RoundPoint {
            mode: mode.label().to_string(),
            round,
            wall_s,
            speedup: 1.0, // filled in against the uncached reference
            card_calls: counting.calls() - calls_before_round,
            card_calls_cum: counting.calls(),
            card_hits: cache_stats.card_hits,
            plan_hits: cache_stats.plan_hits,
        });
        fingerprints.push(round_fps);
    }
    ModeRun {
        points,
        fingerprints,
        total_calls: counting.calls(),
    }
}

/// Run the cache sweep. Panics if any configuration's plan for any
/// template in any round differs from the uncached reference — caching
/// must be observationally transparent.
pub fn run(cfg: &Config) -> Output {
    let catalog = Arc::new(stats_like(cfg.scale, 0xE12).expect("catalog"));
    let queries = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.num_templates,
            min_tables: 2,
            max_tables: 3,
            max_predicates: 3,
            seed: cfg.seed,
        },
    );
    assert!(!queries.is_empty(), "empty template set");

    let uncached = run_mode(&catalog, &queries, cfg, &Mode::Uncached);
    let mut all_points = uncached.points.clone();
    let mut cached_calls = 0;
    for mode in [Mode::Memo, Mode::PlanMemo] {
        let mut run = run_mode(&catalog, &queries, cfg, &mode);
        assert_eq!(
            run.fingerprints,
            uncached.fingerprints,
            "{} diverged from the uncached plans",
            mode.label()
        );
        for (p, reference) in run.points.iter_mut().zip(&uncached.points) {
            p.speedup = reference.wall_s / p.wall_s.max(1e-12);
        }
        if matches!(mode, Mode::PlanMemo) {
            cached_calls = run.total_calls;
        }
        all_points.extend(run.points);
    }

    let reduction = uncached.total_calls as f64 / (cached_calls.max(1)) as f64;
    let mut table = TextTable::new(
        "E12: plan & inference caching (plans byte-identical in every cell)",
        &[
            "mode",
            "round",
            "wall_s",
            "speedup",
            "card_calls",
            "plan_hits",
        ],
    );
    for p in &all_points {
        table.row(vec![
            p.mode.clone(),
            p.round.to_string(),
            format!("{:.6}", p.wall_s),
            format!("{:.2}", p.speedup),
            p.card_calls.to_string(),
            p.plan_hits.to_string(),
        ]);
    }
    Output {
        table,
        points: all_points,
        uncached_calls: uncached.total_calls,
        cached_calls,
        reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_jsonl;

    #[test]
    fn caching_cuts_estimator_calls_without_changing_plans() {
        let cfg = Config {
            scale: 200,
            num_templates: 4,
            rounds: 6,
            seed: 0xE12,
        };
        let out = run(&cfg); // plan identity asserted inside
        assert_eq!(out.points.len(), 3 * cfg.rounds);
        assert!(
            out.reduction >= 5.0,
            "expected >=5x estimator-call reduction, got {:.2}x \
             ({} uncached vs {} cached)",
            out.reduction,
            out.uncached_calls,
            out.cached_calls
        );
        // The warm plan-cache rounds make no estimator calls at all.
        let warm = out
            .points
            .iter()
            .filter(|p| p.mode == "plan+memo" && p.round > 0);
        for p in warm {
            assert_eq!(p.card_calls, 0, "round {} re-ran the estimator", p.round);
        }
        let jsonl = to_jsonl(&out.points);
        assert_eq!(jsonl.lines().count(), 3 * cfg.rounds);
        assert!(jsonl.contains("\"mode\":\"plan+memo\""));
    }
}
