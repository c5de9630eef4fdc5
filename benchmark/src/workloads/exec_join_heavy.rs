//! `exec_join_heavy`: one closed-loop client plans with native
//! cardinalities and executes batched. Four-to-six-table `imdb_like`
//! joins with loose predicates make four fifths of the requests,
//! single-table scan/filter queries the rest: the executor does nearly
//! all of the work, and the scan share uses it differently from the joins.

use std::sync::Arc;
use std::time::Instant;

use lqo_engine::datagen::imdb_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{
    Catalog, CatalogStats, HintSet, Optimizer, TraditionalCardSource, TrueCardOracle, WorkMeter,
};

use super::{
    closed_loop_windows, count_for, put_summary, setup_layers, Latency, Pass, Workload, DATA_SEED,
};
use crate::metrics::Values;
use crate::probe::{self, TimingCardSource, BATCHED};
use crate::rng::{shuffle, Fnv, Rng};
use crate::stats::{better_quartile, summarize};
use crate::templates::{self, Shape, Template};
use crate::trace::{Rollup, Span, Tracer};

struct Config {
    /// `imdb_like` base titles: cast_info has ten times as many rows.
    scale: usize,
    join_templates: usize,
    scan_templates: usize,
    joins: Shape,
    scans: Shape,
    /// Requests per second of `--seconds`, calibrated on the defining box.
    requests_per_s: f64,
}

impl Config {
    fn pinned() -> Config {
        Config {
            scale: 2500,
            join_templates: 32,
            scan_templates: 8,
            joins: Shape {
                min_tables: 4,
                max_tables: 6,
                min_preds: 1,
                max_preds: 3,
                loose: true,
                min_work: 900_000.0,
                max_work: 3_200_000.0,
                max_est_cost: 90_000.0,
            },
            scans: Shape {
                min_tables: 1,
                max_tables: 1,
                min_preds: 1,
                max_preds: 2,
                loose: true,
                min_work: 10_000.0,
                max_work: 3_200_000.0,
                max_est_cost: f64::INFINITY,
            },
            requests_per_s: 100.0,
        }
    }

    fn smoke() -> Config {
        let mut cfg = Config::pinned();
        cfg.scale = 300;
        cfg.join_templates = 8;
        cfg.scan_templates = 2;
        cfg.joins.min_work = 20_000.0;
        cfg.joins.max_work = 400_000.0;
        cfg.scans.min_work = 1_000.0;
        cfg
    }
}

pub struct World {
    cfg: Config,
    tracer: Arc<Tracer>,
    catalog: Arc<Catalog>,
    card: Arc<TimingCardSource>,
    joins: Vec<Template>,
    scans: Vec<Template>,
}

impl World {
    pub fn setup(smoke: bool, tracer: Arc<Tracer>) -> World {
        let cfg = if smoke {
            Config::smoke()
        } else {
            Config::pinned()
        };
        let catalog = Arc::new(tracer.span("engine.datagen.build", crate::trace::NONE, || {
            imdb_like(cfg.scale, DATA_SEED).expect("imdb_like generates")
        }));
        let stats = Arc::new(tracer.span("engine.stats.collect", crate::trace::NONE, || {
            CatalogStats::build_default(&catalog)
        }));
        let native: Arc<dyn CardSource> =
            Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
        let oracle = TrueCardOracle::new(catalog.clone());
        let mut rng = Rng::new(DATA_SEED).fork("exec_join_heavy.templates");
        let joins = templates::generate(
            &catalog,
            native.as_ref(),
            &oracle,
            &mut rng,
            &cfg.joins,
            cfg.join_templates,
        );
        let scans = templates::generate(
            &catalog,
            native.as_ref(),
            &oracle,
            &mut rng,
            &cfg.scans,
            cfg.scan_templates,
        );
        World {
            cfg,
            card: Arc::new(TimingCardSource::new(native, None, tracer.clone())),
            tracer,
            catalog,
            joins,
            scans,
        }
    }

    /// Blocks of every template once, each block in an order drawn from
    /// the seed. Every block (and so every window of blocks) holds the same
    /// queries, four joins to a scan, whatever the seed: only the order
    /// moves, and `work_units_per_query` does not depend on the seed.
    fn requests(&self, seed: u64, n: usize) -> Vec<&Template> {
        let block: Vec<&Template> = self.joins.iter().chain(&self.scans).collect();
        let rng = Rng::new(seed);
        (0..n.div_ceil(block.len()))
            .flat_map(|b| {
                let mut order = block.clone();
                shuffle(
                    &mut rng.fork(&format!("exec_join_heavy.block{b}")),
                    &mut order,
                );
                order
            })
            .collect()
    }
}

impl Workload for World {
    fn run(&mut self, seed: u64, seconds: f64) -> Pass {
        let tracer = &self.tracer;
        let requests = self.requests(seed, count_for(seconds, self.cfg.requests_per_s));
        let optimizer = Optimizer::with_defaults(&self.catalog);
        let executor = probe::executor(&self.catalog, BATCHED, None);
        let hints = HintSet::default();
        let mut pass = Pass::default();
        let mut latencies_ms = Vec::new();
        let mut digest = Fnv::new();
        let (mut work, mut rows, mut exec_s) = (0.0, 0u64, 0.0);
        let calls_before = self.card.calls();
        for (i, t) in requests.iter().enumerate() {
            let start = Instant::now();
            tracer.begin("query", i as u32);
            let choice = tracer.span("engine.optimizer.optimize", i as u32, || {
                optimizer.optimize(&t.query, self.card.as_ref(), &hints)
            });
            let exec_start = Instant::now();
            let result = choice.and_then(|c| {
                tracer.span("engine.exec.execute", i as u32, || {
                    executor.execute(&t.query, &c.plan)
                })
            });
            exec_s += exec_start.elapsed().as_secs_f64();
            tracer.end();
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            pass.attempted += 1;
            match result {
                Ok(r) if r.count == t.expected => {
                    work += r.work;
                    rows += r.count;
                    digest.u64(r.count);
                }
                _ => pass.failed += 1,
            }
        }
        let ok = (pass.attempted - pass.failed).max(1) as f64;
        pass.work_units_per_query = work / ok;
        pass.work_ratio_vs_native = 1.0;
        pass.request_wall_s = latencies_ms.iter().sum::<f64>() / 1e3;
        // Two blocks to a window: enough for a median, not for a tail, which
        // is read over all samples instead.
        let (windows, rates) =
            closed_loop_windows(&latencies_ms, 2 * (self.joins.len() + self.scans.len()));
        let all = summarize(latencies_ms);
        pass.latency = Latency {
            tail_ms: all.tail,
            tail_q: all.tail_q,
            ..Latency::of_windows(&windows)
        };
        pass.queries_per_s = better_quartile(rates, true);
        pass.answer_digest = digest.finish();
        pass.layer.insert(
            "engine.optimizer.card_calls_per_plan",
            (self.card.calls() - calls_before) as f64 / pass.attempted as f64,
        );
        pass.layer
            .insert("engine.exec.work_units_per_ms", work / (exec_s * 1e3));
        pass.layer
            .insert("engine.exec.rows_out_per_s", rows as f64 / exec_s);
        pass.layer
            .insert("failed_share", pass.failed as f64 / pass.attempted as f64);
        pass
    }

    fn layers(&self, spans: &[Span], pass: &Pass) -> Values {
        let mut out = setup_layers(spans);
        let roll = Rollup::new(spans);
        let window_ns = pass.request_wall_s * 1e9;
        put_summary(
            &mut out,
            "engine.optimizer.optimize_us_p50",
            Some("engine.optimizer.optimize_us_p99"),
            roll.durations("engine.optimizer.optimize"),
            1e3,
        );
        let optimizer_ns = roll.self_ns("engine.optimizer.");
        out.insert("engine.optimizer.busy_share", optimizer_ns / window_ns);
        out.insert("engine.optimizer.self_share", optimizer_ns / window_ns);
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

        // Beside the timed requests: every template once through the step
        // seam (scans and joins apart) and once serially (batched ≡ serial).
        let all: Vec<Template> = self.joins.iter().chain(&self.scans).cloned().collect();
        let stepper = Tracer::new(true);
        let batched = probe::executor(&self.catalog, BATCHED, None);
        for t in &all {
            let mut meter = WorkMeter::new(None);
            let rel = probe::stepped(&batched, &t.query, &t.native_plan, &mut meter, &stepper);
            assert_eq!(
                rel.len() as u64,
                t.expected,
                "stepped answer of {}",
                t.query
            );
        }
        let steps = stepper.take();
        let step_roll = Rollup::new(&steps);
        let (scan_ns, join_ns) = (
            step_roll.total_ns("engine.exec.scan_step"),
            step_roll.total_ns("engine.exec.join_step"),
        );
        out.insert("engine.exec.scan_share", scan_ns / (scan_ns + join_ns));
        out.insert("engine.exec.join_share", join_ns / (scan_ns + join_ns));
        let (serial_rate, serial_digests) = probe::serial_pass(&self.catalog, &all);
        assert_eq!(
            serial_digests,
            probe::batched_digests(&self.catalog, &all),
            "batched and serial relation digests differ"
        );
        out.insert("engine.exec.serial_work_units_per_ms", serial_rate);
        out
    }
}
