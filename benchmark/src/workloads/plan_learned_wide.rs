//! `plan_learned_wide`: planning-dominated. Six-to-eight-table queries
//! are planned over learned cardinality sources (MSCN, DeepDB, FactorJoin,
//! a third of the requests each) behind `GuardedCardSource` +
//! `MemoCardSource`. The pool's distinct sub-query keys exceed the memo's
//! capacity, so both inference and the cache path matter; the chosen plan
//! runs on a small catalog and is compared with the native plan's work.

use std::sync::Arc;
use std::time::Instant;

use lqo_cache::{CacheConfig, LqoCache, MemoCardSource};
use lqo_card::{
    build_estimator, label_workload, CardEstimator, EstimatorCardSource, EstimatorKind, FitContext,
    LabeledSubquery,
};
use lqo_engine::datagen::imdb_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::query::JoinGraph;
use lqo_engine::{
    Catalog, CatalogStats, HintSet, Optimizer, SpjQuery, TraditionalCardSource, TrueCardOracle,
};
use lqo_guard::{GuardConfig, GuardedCardSource};
use lqo_obs::ObsContext;

use super::{
    closed_loop_windows, count_for, put_summary, setup_layers, timed_from, Latency, Pass, Workload,
    DATA_SEED,
};
use crate::metrics::Values;
use crate::probe::{self, TimingCardSource, BATCHED};
use crate::rng::{Fnv, Rng, Zipf};
use crate::stats::{better_quartile, percentile};
use crate::templates::{self, Shape, Template};
use crate::trace::{Rollup, Span, Tracer, NONE};

const ZIPF_S: f64 = 1.0;
/// Requests per latency/rate window: independent Zipf draws, so windows
/// are alike, and enough of them for a p99 each.
const WINDOW: usize = 3000;

const KINDS: [(EstimatorKind, &str); 3] = [
    (EstimatorKind::Mscn, "card.estimate.mscn"),
    (EstimatorKind::DeepDb, "card.estimate.deepdb"),
    (EstimatorKind::FactorJoin, "card.estimate.factorjoin"),
];

struct Config {
    /// `imdb_like` base titles. Small: execution stays a minor share, and
    /// the DeepDB-style estimator's unfiltered join sizes (computed by
    /// executing each join pattern once) stay affordable.
    scale: usize,
    templates: usize,
    wide: Shape,
    /// Two-to-three-table queries the query-driven estimator trains on.
    train_templates: usize,
    train: Shape,
    /// Capacity of each estimator's memo, below the pool's distinct
    /// sub-query keys (reported at set-up) so the hit rate is partial.
    card_capacity: usize,
    /// A learned plan may cost this many times the band's top before the
    /// executor gives up on it (counted as a failed request).
    learned_work_cap: f64,
    requests_per_s: f64,
}

impl Config {
    fn pinned() -> Config {
        Config {
            scale: 80,
            templates: 240,
            wide: Shape {
                min_tables: 6,
                max_tables: 8,
                min_preds: 2,
                max_preds: 4,
                loose: false,
                min_work: 500.0,
                max_work: 12_000.0,
                max_est_cost: 200_000.0,
            },
            train_templates: 40,
            train: Shape {
                min_tables: 2,
                max_tables: 3,
                min_preds: 1,
                max_preds: 3,
                loose: false,
                min_work: 100.0,
                max_work: 60_000.0,
                max_est_cost: f64::INFINITY,
            },
            card_capacity: 2048,
            learned_work_cap: 6_000_000.0,
            requests_per_s: 3300.0,
        }
    }

    fn smoke() -> Config {
        let mut cfg = Config::pinned();
        cfg.scale = 40;
        cfg.templates = 12;
        cfg.card_capacity = 256;
        cfg
    }
}

/// One learned source as the optimizer sees it, with the handles the
/// benchmark reads counts from.
struct Learned {
    /// Every lookup the optimizer makes (count only).
    top: Arc<TimingCardSource>,
    /// The trusted native rung: a call here is a guard fallback.
    fallback: Arc<TimingCardSource>,
    guarded: Arc<GuardedCardSource>,
    cache: Arc<LqoCache>,
}

pub struct World {
    cfg: Config,
    tracer: Arc<Tracer>,
    catalog: Arc<Catalog>,
    estimators: Vec<Arc<dyn CardEstimator>>,
    sources: Vec<Learned>,
    templates: Vec<Template>,
    /// Labeled sub-queries held out of training, for `card.qerror_p95`.
    held_out: Vec<LabeledSubquery>,
}

fn queries(templates: &[Template]) -> Vec<SpjQuery> {
    templates.iter().map(|t| t.query.clone()).collect()
}

impl World {
    pub fn setup(smoke: bool, tracer: Arc<Tracer>) -> World {
        let cfg = if smoke {
            Config::smoke()
        } else {
            Config::pinned()
        };
        let catalog = Arc::new(tracer.span("engine.datagen.build", NONE, || {
            imdb_like(cfg.scale, DATA_SEED).expect("imdb_like generates")
        }));
        let stats = Arc::new(tracer.span("engine.stats.collect", NONE, || {
            CatalogStats::build_default(&catalog)
        }));
        let native: Arc<dyn CardSource> =
            Arc::new(TraditionalCardSource::new(catalog.clone(), stats.clone()));
        let oracle = Arc::new(TrueCardOracle::new(catalog.clone()));
        let mut rng = Rng::new(DATA_SEED).fork("plan_learned_wide.templates");
        let templates = templates::generate(
            &catalog,
            native.as_ref(),
            &oracle,
            &mut rng,
            &cfg.wide,
            cfg.templates,
        );
        let small = templates::generate(
            &catalog,
            native.as_ref(),
            &oracle,
            &mut rng,
            &cfg.train,
            cfg.train_templates,
        );
        let (train, held) = small.split_at(cfg.train_templates * 3 / 4);
        let label = |part: &[Template]| {
            label_workload(&oracle, &queries(part), 3).expect("oracle labels small sub-queries")
        };
        let (labeled, held_out) = (label(train), label(held));

        let ctx = FitContext {
            catalog: catalog.clone(),
            stats,
        };
        let estimators: Vec<Arc<dyn CardEstimator>> = tracer.span("card.fit", NONE, || {
            let fitted: Vec<Arc<dyn CardEstimator>> = KINDS
                .iter()
                .map(|(kind, _)| Arc::from(build_estimator(*kind, &ctx, &oracle, &labeled)))
                .collect();
            // The DeepDB-style estimator sizes each unfiltered join pattern
            // on first use by executing it, which can take longer than the
            // guard's per-call deadline. Ask once for every sub-query here,
            // unguarded, so no timed lookup pays for (or times out on) it.
            for t in &templates {
                for set in JoinGraph::new(&t.query).connected_subsets(t.query.num_tables()) {
                    for est in &fitted {
                        est.estimate(&t.query, set);
                    }
                }
            }
            fitted
        });
        let sources = estimators
            .iter()
            .zip(KINDS)
            .map(|(est, (_, span))| {
                let learned: Arc<dyn CardSource> = Arc::new(TimingCardSource::new(
                    Arc::new(EstimatorCardSource::new(est.clone())),
                    Some(span),
                    tracer.clone(),
                ));
                let fallback =
                    Arc::new(TimingCardSource::new(native.clone(), None, tracer.clone()));
                let guarded = Arc::new(
                    GuardedCardSource::new("card", GuardConfig::default(), ObsContext::disabled())
                        .rung("learned", learned)
                        .rung("native", fallback.clone()),
                );
                let cache = Arc::new(LqoCache::new(CacheConfig {
                    card_capacity: cfg.card_capacity,
                    ..CacheConfig::default()
                }));
                let memo = Arc::new(MemoCardSource::new(guarded.clone(), cache.clone()));
                Learned {
                    top: Arc::new(TimingCardSource::new(
                        memo,
                        Some("cache.card_lookup"),
                        tracer.clone(),
                    )),
                    fallback,
                    guarded,
                    cache,
                }
            })
            .collect();
        let mut world = World {
            cfg,
            tracer,
            catalog,
            estimators,
            sources,
            templates,
            held_out,
        };
        // Warm-up: every template once, estimators in turn.
        let warm: Vec<(usize, usize)> = (0..world.templates.len())
            .map(|t| (t, t % KINDS.len()))
            .collect();
        let pass = world.drive(&warm, &Tracer::new(false));
        assert_eq!(pass.failed, 0, "warm-up request failed");
        world
    }

    /// Plan and execute `(template, estimator)` requests in order.
    fn drive(&mut self, requests: &[(usize, usize)], tracer: &Tracer) -> Pass {
        let optimizer = Optimizer::with_defaults(&self.catalog);
        let executor = probe::executor(&self.catalog, BATCHED, Some(self.cfg.learned_work_cap));
        let hints = HintSet::default();
        let mut pass = Pass::default();
        let mut latencies_ms = Vec::new();
        let mut digest = Fnv::new();
        let (mut learned_work, mut native_work) = (0.0, 0.0);
        for (i, &(t, k)) in requests.iter().enumerate() {
            let (template, source) = (&self.templates[t], &self.sources[k]);
            let start = Instant::now();
            tracer.begin("query", i as u32);
            source.guarded.begin_query();
            let choice = tracer.span("engine.optimizer.optimize", i as u32, || {
                optimizer.optimize(&template.query, source.top.as_ref(), &hints)
            });
            let result = choice.and_then(|c| {
                tracer.span("engine.exec.execute", i as u32, || {
                    executor.execute(&template.query, &c.plan)
                })
            });
            tracer.end();
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            pass.attempted += 1;
            match result {
                Ok(r) if r.count == template.expected => {
                    learned_work += r.work;
                    native_work += template.native_work;
                    digest.u64(r.count);
                }
                _ => pass.failed += 1,
            }
        }
        let ok = (pass.attempted - pass.failed).max(1) as f64;
        pass.work_units_per_query = learned_work / ok;
        pass.work_ratio_vs_native = learned_work / native_work.max(1.0);
        pass.request_wall_s = latencies_ms.iter().sum::<f64>() / 1e3;
        let (windows, rates) = closed_loop_windows(&latencies_ms, WINDOW);
        pass.latency = Latency::of_windows(&windows);
        pass.queries_per_s = better_quartile(rates, true);
        pass.answer_digest = digest.finish();
        pass
    }
}

impl Workload for World {
    fn run(&mut self, seed: u64, seconds: f64) -> Pass {
        let mut rng = Rng::new(seed).fork("plan_learned_wide.requests");
        let zipf = Zipf::new(self.templates.len(), ZIPF_S);
        let requests: Vec<(usize, usize)> = (0..count_for(seconds, self.cfg.requests_per_s))
            .map(|i| (zipf.sample(&mut rng), i % KINDS.len()))
            .collect();
        let before: Vec<_> = self
            .sources
            .iter()
            .map(|s| (s.top.calls(), s.fallback.calls(), s.cache.stats()))
            .collect();
        let tracer = self.tracer.clone();
        let mut pass = self.drive(&requests, &tracer);
        let (mut calls, mut fallbacks, mut hits, mut misses) = (0, 0, 0, 0);
        for (s, (calls0, fallbacks0, stats0)) in self.sources.iter().zip(before) {
            let stats = s.cache.stats();
            calls += s.top.calls() - calls0;
            fallbacks += s.fallback.calls() - fallbacks0;
            hits += stats.card_hits - stats0.card_hits;
            misses += stats.card_misses - stats0.card_misses;
        }
        let layer = &mut pass.layer;
        layer.insert(
            "engine.optimizer.card_calls_per_plan",
            calls as f64 / pass.attempted as f64,
        );
        layer.insert("guard.fallbacks", fallbacks as f64);
        layer.insert(
            "cache.card_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layer.insert("failed_share", pass.failed as f64 / pass.attempted as f64);
        pass
    }

    fn layers(&self, spans: &[Span], pass: &Pass) -> Values {
        let mut out = setup_layers(spans);
        // The learned sources also ran (and were traced) in warm-up.
        let roll = Rollup::since(spans, timed_from(spans));
        let window_ns = pass.request_wall_s * 1e9;
        put_summary(
            &mut out,
            "engine.optimizer.optimize_us_p50",
            Some("engine.optimizer.optimize_us_p99"),
            roll.durations("engine.optimizer.optimize"),
            1e3,
        );
        // Enumeration alone is the optimizer's self time; with the lookups
        // it makes (memo and inference) it is the whole planning share.
        let optimize_ns = roll.total_ns("engine.optimizer.optimize");
        out.insert("engine.optimizer.busy_share", optimize_ns / window_ns);
        out.insert(
            "engine.optimizer.self_share",
            roll.self_ns("engine.optimizer.optimize") / window_ns,
        );
        out.insert(
            "card.busy_share",
            roll.self_ns("card.estimate.") / window_ns,
        );
        for (name, (_, span)) in [
            "card.estimate_us_p50.mscn",
            "card.estimate_us_p50.deepdb",
            "card.estimate_us_p50.factorjoin",
        ]
        .into_iter()
        .zip(KINDS)
        {
            put_summary(&mut out, name, None, roll.durations(span), 1e3);
        }
        put_summary(
            &mut out,
            "engine.exec.execute_ms_p50",
            Some("engine.exec.execute_ms_p99"),
            roll.durations("engine.exec.execute"),
            1e6,
        );
        out.insert(
            "engine.exec.busy_share",
            roll.self_ns("engine.exec.execute") / window_ns,
        );

        // q-error of the three estimators on labeled sub-queries they were
        // not fitted on: a pure function of the pinned data.
        let mut qerrors: Vec<f64> = self
            .estimators
            .iter()
            .flat_map(|est| {
                self.held_out.iter().map(move |l| {
                    let (e, t) = (est.estimate(&l.query, l.set).max(1.0), l.card.max(1.0));
                    (e / t).max(t / e)
                })
            })
            .collect();
        qerrors.sort_unstable_by(f64::total_cmp);
        out.insert("card.qerror_p95", percentile(&qerrors, 0.95));
        let (rate, _) = probe::serial_pass(&self.catalog, &self.templates);
        out.insert("engine.exec.serial_work_units_per_ms", rate);
        out
    }
}
