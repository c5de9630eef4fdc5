//! `pilot_learn_loop`: the learning ("write") use of the stack beside
//! `plan_learned_wide`'s inference use. SQL text goes through
//! `PilotConsole::execute_sql` under a `BaoDriver` (every fifth query
//! under a `CardDriver` over a sampling estimator) for six epochs over
//! the same `stats_like` queries, `tick()` retraining after every fixed
//! number of queries (one epoch): parse, driver decision, steered plan,
//! execute, feedback, retrain.

use std::sync::Arc;
use std::time::Instant;

use learned_qo::framework::OptContext;
use lqo_card::traditional::SamplingEstimator;
use lqo_card::FitContext;
use lqo_engine::datagen::stats_like;
use lqo_engine::query::parse_query;
use lqo_engine::{Catalog, TrueCardOracle};
use lqo_pilot::{BaoDriver, CardDriver, EngineInteractor, PilotConsole};

use super::{count_for, put_summary, setup_layers, Latency, Pass, Workload, DATA_SEED};
use crate::metrics::Values;
use crate::probe;
use crate::rng::{shuffle, Fnv, Rng};
use crate::stats::median;
use crate::templates::{self, Shape, Template};
use crate::trace::{Rollup, Span, Tracer, NONE};

const EPOCHS: usize = 6;
const BAO: &str = "bao";
const CARD: &str = "learned-cardinality";

struct Config {
    /// `stats_like` base users.
    scale: usize,
    templates: usize,
    shape: Shape,
    /// Queries per epoch per second of `--seconds`, capped at the pool.
    /// `tick()` follows every epoch, that is every this-many queries.
    queries_per_epoch_per_s: f64,
}

impl Config {
    fn pinned() -> Config {
        Config {
            scale: 400,
            templates: 700,
            shape: Shape {
                min_tables: 2,
                max_tables: 4,
                min_preds: 1,
                max_preds: 3,
                loose: false,
                min_work: 500.0,
                max_work: 40_000.0,
                max_est_cost: f64::INFINITY,
            },
            queries_per_epoch_per_s: 35.0,
        }
    }

    fn smoke() -> Config {
        let mut cfg = Config::pinned();
        cfg.scale = 100;
        cfg.templates = 40;
        cfg.shape.min_work = 100.0;
        cfg
    }
}

pub struct World {
    cfg: Config,
    tracer: Arc<Tracer>,
    catalog: Arc<Catalog>,
    ctx: OptContext,
    sampling: Arc<SamplingEstimator>,
    templates: Vec<Template>,
    sql: Vec<String>,
}

impl World {
    pub fn setup(smoke: bool, tracer: Arc<Tracer>) -> World {
        let cfg = if smoke {
            Config::smoke()
        } else {
            Config::pinned()
        };
        let catalog = Arc::new(tracer.span("engine.datagen.build", NONE, || {
            stats_like(cfg.scale, DATA_SEED).expect("stats_like generates")
        }));
        let ctx = tracer.span("engine.stats.collect", NONE, || {
            OptContext::new(catalog.clone())
        });
        let oracle = TrueCardOracle::new(catalog.clone());
        let mut rng = Rng::new(DATA_SEED).fork("pilot_learn_loop.templates");
        let templates = templates::generate(
            &catalog,
            ctx.card.as_ref(),
            &oracle,
            &mut rng,
            &cfg.shape,
            cfg.templates,
        );
        let sql: Vec<String> = templates.iter().map(|t| t.query.to_string()).collect();
        let sampling = Arc::new(tracer.span("card.fit", NONE, || {
            SamplingEstimator::fit(&FitContext {
                catalog: catalog.clone(),
                stats: ctx.stats.clone(),
            })
        }));
        let world = World {
            cfg,
            tracer,
            catalog,
            ctx,
            sampling,
            templates,
            sql,
        };
        // Warm-up on the plain database, on a console of its own, so that
        // no driver of a timed pass has learned from it.
        let mut console = world.console();
        for (s, t) in world.sql.iter().zip(&world.templates).take(20) {
            let out = console.execute_sql(s).expect("warm-up query runs");
            assert_eq!(out.count, t.expected, "warm-up answer of {s}");
        }
        world
    }

    /// A console whose drivers have learned nothing yet.
    fn console(&self) -> PilotConsole {
        let mut console = PilotConsole::new(Arc::new(EngineInteractor::new(self.catalog.clone())));
        console
            .register_driver(Box::new(BaoDriver::new(self.ctx.clone())))
            .expect("bao driver registers");
        console
            .register_driver(Box::new(CardDriver::new(self.sampling.clone())))
            .expect("cardinality driver registers");
        console
    }
}

impl Workload for World {
    fn run(&mut self, seed: u64, seconds: f64) -> Pass {
        let per_epoch =
            count_for(seconds, self.cfg.queries_per_epoch_per_s).min(self.templates.len());
        let tracer = &self.tracer;
        let mut console = self.console();
        let rng = Rng::new(seed);
        let mut pass = Pass::default();
        let mut epochs: Vec<Vec<f64>> = Vec::with_capacity(EPOCHS);
        let mut digest = Fnv::new();
        let (mut last_work, mut last_native, mut last_ok) = (0.0, 0.0, 0u64);
        let (mut ticks_ms, mut decisions_us) = (Vec::new(), Vec::new());
        let mut seq = 0usize;
        let window = Instant::now();
        for epoch in 0..EPOCHS {
            // The same queries every epoch (that is what there is to learn
            // from), in an order drawn from the seed.
            let mut order: Vec<usize> = (0..per_epoch).collect();
            shuffle(&mut rng.fork(&format!("epoch{epoch}")), &mut order);
            let mut latencies_ms = Vec::with_capacity(per_epoch);
            for t in order {
                let driver = if seq % 5 == 4 { CARD } else { BAO };
                console
                    .start_driver(Some(driver))
                    .expect("registered driver");
                let start = Instant::now();
                let out = tracer.span("pilot.execute_sql", seq as u32, || {
                    console.execute_sql(&self.sql[t])
                });
                latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                pass.attempted += 1;
                match out {
                    Ok(o) if o.count == self.templates[t].expected => {
                        if epoch == EPOCHS - 1 {
                            last_work += o.work;
                            last_native += self.templates[t].native_work;
                            last_ok += 1;
                        }
                        digest.u64(o.count);
                        decisions_us.extend(o.decision.map(|d| d.as_secs_f64() * 1e6));
                    }
                    _ => pass.failed += 1,
                }
                seq += 1;
            }
            // Background model update, here in the foreground: the one
            // client waits for it, as a query arriving mid-retrain would.
            let start = Instant::now();
            tracer.span("pilot.tick", NONE, || console.tick());
            ticks_ms.push(start.elapsed().as_secs_f64() * 1e3);
            pass.request_wall_s += latencies_ms.iter().sum::<f64>() / 1e3;
            epochs.push(latencies_ms);
        }
        let window_s = window.elapsed().as_secs_f64();
        // Retraining blocks the one client, so it is inside the window.
        pass.queries_per_s = (pass.attempted - pass.failed) as f64 / window_s;
        // The tail is read per epoch: the epoch after the first retrain runs
        // many bad plans, and a tail over all epochs together would sit
        // inside that one cluster. Epochs are not alike (the model changes),
        // so the median is read over all samples, not as a quartile of epochs.
        pass.latency = Latency {
            p50_ms: median(epochs.concat()),
            ..Latency::of_windows(&epochs)
        };
        // Both work figures are of the final epoch: the earlier ones are the
        // learning transient, which the latency and throughput metrics show.
        pass.work_units_per_query = last_work / last_ok.max(1) as f64;
        pass.work_ratio_vs_native = last_work / f64::max(last_native, 1.0);
        pass.answer_digest = digest.finish();
        let train_s = ticks_ms.iter().sum::<f64>() / 1e3;
        let layer = &mut pass.layer;
        layer.insert("pilot.tick_total_s", train_s);
        layer.insert("pilot.train_s", train_s);
        layer.insert("pilot.tick_ms_p50", median(ticks_ms));
        layer.insert("pilot.decision_us_p50", median(decisions_us));
        layer.insert("guard.fallbacks", {
            // All the console shows of a failing driver from outside: how
            // often its breaker opened and its queries went to the plain
            // database.
            [BAO, CARD]
                .iter()
                .filter_map(|d| console.breaker_stats(d))
                .map(|s| s.opens as f64)
                .sum()
        });
        layer.insert("failed_share", pass.failed as f64 / pass.attempted as f64);
        pass
    }

    fn layers(&self, spans: &[Span], _pass: &Pass) -> Values {
        let mut out = setup_layers(spans);
        let roll = Rollup::new(spans);
        put_summary(
            &mut out,
            "pilot.execute_sql_ms_p50",
            Some("pilot.execute_sql_ms_p99"),
            roll.durations("pilot.execute_sql"),
            1e6,
        );

        // Probes beside the timed requests, on a fixed sample of the pool.
        let sample = &self.templates[..self.templates.len().min(50)];
        let timed = |f: &mut dyn FnMut(usize)| -> Vec<f64> {
            (0..sample.len())
                .map(|i| {
                    let start = Instant::now();
                    f(i);
                    start.elapsed().as_nanos() as f64
                })
                .collect()
        };
        let parse = timed(&mut |i| {
            parse_query(&self.sql[i]).expect("generated SQL parses");
        });
        put_summary(&mut out, "engine.query.parse_us_p50", None, parse, 1e3);
        let bao = learned_qo::systems::bao(self.ctx.clone());
        let candidates = timed(&mut |i| {
            bao.candidates(&sample[i].query)
                .expect("bao explores a template");
        });
        put_summary(&mut out, "core.candidates_us_p50", None, candidates, 1e3);
        let score = timed(&mut |i| {
            std::hint::black_box(bao.score(&sample[i].query, &sample[i].native_plan));
        });
        put_summary(&mut out, "core.score_us_p50", None, score, 1e3);
        let (rate, _) = probe::serial_pass(&self.catalog, &self.templates);
        out.insert("engine.exec.serial_work_units_per_ms", rate);
        out
    }
}
