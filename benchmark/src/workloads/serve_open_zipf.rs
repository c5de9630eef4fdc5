//! `serve_open_zipf`: the client-facing serving path. One generator
//! thread sends to an `LqoServer` (shared `LqoCache`, native cards) on a
//! Poisson schedule at three pinned rates, then holds the admission queue
//! full in a closed loop. Tenants and templates are both drawn Zipf(1.1);
//! `bump_stats_epoch()` fires every fixed number of requests, the write
//! beside the reads.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lqo_cache::LqoCache;
use lqo_engine::datagen::stats_like;
use lqo_engine::optimizer::CardSource;
use lqo_engine::{Catalog, CatalogStats, ExecMode, TraditionalCardSource, TrueCardOracle};
use lqo_pilot::EngineInteractor;
use lqo_serve::{LqoServer, QueryOutcome, ServeConfig, ServeError, SessionRequest, Ticket};

use super::{count_for, put_summary, setup_layers, windows, Latency, Pass, Workload, DATA_SEED};
use crate::metrics::Values;
use crate::probe;
use crate::rng::{poisson_schedule, Fnv, Rng, Zipf};
use crate::stats::{better_quartile, median, summarize};
use crate::templates::{self, Shape, Template};
use crate::trace::{Span, Tracer, NONE};

const TENANTS: usize = 5;
const ZIPF_S: f64 = 1.1;

struct Config {
    /// `stats_like` base users.
    scale: usize,
    templates: usize,
    shape: Shape,
    /// Open-loop rates in queries per second: about 25/50/75 % of the
    /// closed-loop capacity measured when the benchmark was defined. Absolute,
    /// so both commits of a comparison see the same offered load.
    rates_qps: [f64; 3],
    /// Share of `--seconds` each open-loop phase lasts; the rest is the
    /// closed-loop saturation phase.
    phase_share: [f64; 3],
    /// Saturation requests per second of its share of `--seconds`.
    saturation_per_s: f64,
    /// `bump_stats_epoch()` before every this-many-th request.
    bump_every: usize,
    /// `query_p99_ms` at a rate must stay under this for the rate to count
    /// as met: 20x the unloaded median when the benchmark was defined.
    latency_limit_ms: f64,
}

impl Config {
    fn pinned() -> Config {
        Config {
            scale: 3000,
            templates: 320,
            shape: Shape {
                min_tables: 2,
                max_tables: 4,
                min_preds: 1,
                max_preds: 3,
                loose: false,
                min_work: 2_000.0,
                max_work: 60_000.0,
                max_est_cost: f64::INFINITY,
            },
            rates_qps: [650.0, 1300.0, 1900.0],
            phase_share: [0.06, 0.62, 0.1],
            saturation_per_s: 2600.0,
            bump_every: 1000,
            latency_limit_ms: 8.0,
        }
    }

    fn smoke() -> Config {
        let mut cfg = Config::pinned();
        cfg.scale = 200;
        cfg.templates = 30;
        cfg.shape.min_work = 200.0;
        cfg.bump_every = 50;
        cfg
    }
}

const PHASES: [&str; 3] = ["low", "mid", "high"];
/// Each phase is cut into this many parts, run round-robin.
const ROUNDS: usize = 4;
/// The server's admission queue. The sandbox now and then stops a thread
/// for 200 ms; at `high` that is 380 arrivals, which the default queue of
/// 256 refuses, and a refused request fails the run for no fault of the
/// program's. The saturation phase still holds the default 256 in flight.
const QUEUE_CAPACITY: usize = 4096;
/// Sends per rate window of the saturation phase.
const RATE_WINDOW: usize = 500;

/// One request of the seeded list.
struct Request {
    tenant: usize,
    template: usize,
}

/// What the generator saw of one request. Times are ns on the run's clock.
struct Sample {
    template: usize,
    due_ns: u64,
    sent_ns: u64,
    /// `submit` returned: the request is admitted (or refused).
    admitted_ns: u64,
    ticket: Result<Ticket, ServeError>,
}

/// A finished request: latency counted from when it was due.
struct Done {
    latency_ms: f64,
    late_ms: f64,
    submit_us: f64,
    queue_wait_ms: f64,
    ok: bool,
}

impl Done {
    /// `wall_ns` is the server's admission-to-completion time. Latency
    /// runs from when the request was due, not from when it was sent: a
    /// generator held up by a stall sends late, and the wait that imposes
    /// on the requests behind the stall is theirs.
    fn new(s: &Sample, wall_ns: u64, unloaded_ms: f64, ok: bool) -> Done {
        let done_ns = s.admitted_ns + wall_ns;
        Done {
            latency_ms: (done_ns - s.due_ns) as f64 / 1e6,
            late_ms: (s.sent_ns - s.due_ns) as f64 / 1e6,
            submit_us: (s.admitted_ns - s.sent_ns) as f64 / 1e3,
            queue_wait_ms: (wall_ns as f64 / 1e6 - unloaded_ms).max(0.0),
            ok,
        }
    }
}

/// Running totals over every finished request of a pass.
#[derive(Default)]
struct Tally {
    digest: Fnv,
    steps: u64,
    work: f64,
    ok: u64,
    admitted: u64,
    rejected_queue_full: u64,
    rejected_quota: u64,
    rejected_breaker: u64,
}

pub struct World {
    cfg: Config,
    tracer: Arc<Tracer>,
    catalog: Arc<Catalog>,
    templates: Vec<Template>,
    /// Median unloaded serial execute time per template, from set-up.
    unloaded_ms: Vec<f64>,
    server: LqoServer,
    cache: Arc<LqoCache>,
    bump_us: Vec<f64>,
    invalidated: Vec<f64>,
    tally: Tally,
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
        let stats = Arc::new(tracer.span("engine.stats.collect", NONE, || {
            CatalogStats::build_default(&catalog)
        }));
        let native: Arc<dyn CardSource> =
            Arc::new(TraditionalCardSource::new(catalog.clone(), stats));
        let oracle = TrueCardOracle::new(catalog.clone());
        let mut rng = Rng::new(DATA_SEED).fork("serve_open_zipf.templates");
        let templates = templates::generate(
            &catalog,
            native.as_ref(),
            &oracle,
            &mut rng,
            &cfg.shape,
            cfg.templates,
        );

        let serial = probe::executor(&catalog, ExecMode::Serial, None);
        let unloaded_ms = templates
            .iter()
            .map(|t| {
                median(
                    (0..3)
                        .map(|_| {
                            let start = Instant::now();
                            serial
                                .execute(&t.query, &t.native_plan)
                                .expect("serial execution of a template");
                            start.elapsed().as_secs_f64() * 1e3
                        })
                        .collect(),
                )
            })
            .collect();

        let workers =
            std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1));
        let cache = Arc::new(LqoCache::default());
        let server = LqoServer::new(
            Arc::new(EngineInteractor::new(catalog.clone())),
            ServeConfig {
                workers,
                queue_capacity: QUEUE_CAPACITY,
                ..ServeConfig::default()
            },
        )
        .with_cache(cache.clone());
        let mut world = World {
            cfg,
            tracer,
            catalog,
            templates,
            unloaded_ms,
            server,
            cache,
            bump_us: Vec::new(),
            invalidated: Vec::new(),
            tally: Tally::default(),
        };
        // Warm-up: every template once, so the plan cache is full and the
        // workers have run before the first timed request.
        let warm: Vec<Request> = (0..world.templates.len())
            .map(|template| Request {
                tenant: template % TENANTS,
                template,
            })
            .collect();
        let (done, _) = world.closed_loop(&warm, &Instant::now(), false);
        assert!(done.iter().all(|d| d.ok), "warm-up request failed");
        world
    }

    fn requests(&self, rng: &mut Rng, n: usize) -> Vec<Request> {
        let tenants = Zipf::new(TENANTS, ZIPF_S);
        let templates = Zipf::new(self.templates.len(), ZIPF_S);
        (0..n)
            .map(|_| Request {
                tenant: tenants.sample(rng),
                template: templates.sample(rng),
            })
            .collect()
    }

    fn session(&self, r: &Request) -> SessionRequest {
        SessionRequest::new(
            format!("tenant{}", r.tenant),
            self.templates[r.template].query.clone(),
        )
    }

    /// Submit one request now; `due_ns` is when it should have been sent.
    fn send(
        &mut self,
        clock: &Instant,
        seq: usize,
        r: &Request,
        due_ns: u64,
        bump: bool,
    ) -> Sample {
        let sent_ns = clock.elapsed().as_nanos() as u64;
        if bump && seq % self.cfg.bump_every == self.cfg.bump_every - 1 {
            let start = Instant::now();
            let dropped = self.cache.bump_stats_epoch();
            self.bump_us.push(start.elapsed().as_secs_f64() * 1e6);
            self.invalidated.push(dropped as f64);
        }
        let ticket = self.server.submit(self.session(r));
        Sample {
            template: r.template,
            due_ns,
            sent_ns,
            admitted_ns: clock.elapsed().as_nanos() as u64,
            ticket,
        }
    }

    /// Wait for a sent request and check its answer. Completion is taken
    /// as admission plus the server's admission-to-completion time.
    fn finish(&mut self, s: &Sample) -> Done {
        let tally = &mut self.tally;
        let outcome: Option<QueryOutcome> = match &s.ticket {
            Ok(ticket) => {
                tally.admitted += 1;
                Some(self.server.wait(*ticket))
            }
            Err(e) => {
                match e {
                    ServeError::QueueFull { .. } => tally.rejected_queue_full += 1,
                    ServeError::QuotaExceeded { .. } => tally.rejected_quota += 1,
                    ServeError::TenantBreakerOpen { .. } => tally.rejected_breaker += 1,
                    ServeError::ShuttingDown | ServeError::Engine(_) => {}
                }
                None
            }
        };
        let wall_ns = outcome.as_ref().map_or(0, |o| o.wall_ns);
        let ok = match outcome.as_ref().map(|o| &o.result) {
            Some(Ok(answer)) if answer.count == self.templates[s.template].expected => {
                tally.digest.u64(answer.count);
                tally.work += answer.work;
                tally.ok += 1;
                true
            }
            _ => false,
        };
        tally.steps += outcome.as_ref().map_or(0, |o| o.steps);
        Done::new(s, wall_ns, self.unloaded_ms[s.template], ok)
    }

    /// Closed loop: keep the default `queue_capacity` (256) requests in
    /// flight, waiting for the oldest before sending the next.
    /// Also returns the clock at every `RATE_WINDOW`-th send: once the
    /// queue is full a send follows each completion, so the marks pace
    /// completions.
    fn closed_loop(
        &mut self,
        requests: &[Request],
        clock: &Instant,
        bump: bool,
    ) -> (Vec<Done>, Vec<u64>) {
        let in_flight = ServeConfig::default().queue_capacity;
        let mut flying: VecDeque<Sample> = VecDeque::new();
        let mut done = Vec::with_capacity(requests.len());
        let mut marks = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            if flying.len() == in_flight {
                let oldest = flying.pop_front().expect("non-empty window");
                done.push(self.finish(&oldest));
            }
            let now = clock.elapsed().as_nanos() as u64;
            if i % RATE_WINDOW == 0 {
                marks.push(now);
            }
            let sample = self.send(clock, i, r, now, bump);
            flying.push_back(sample);
        }
        for s in flying {
            done.push(self.finish(&s));
        }
        (done, marks)
    }
}

/// Sleep most of the way to `due_ns`, then spin: sleeping alone wakes late.
fn wait_until(clock: &Instant, due_ns: u64) {
    const SPIN_NS: u64 = 150_000;
    loop {
        let now = clock.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        if due_ns - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What the rounds of one open-loop phase add up to.
#[derive(Default)]
struct PhaseTotals {
    /// Latencies in bump-to-bump windows, every round's appended.
    windows: Vec<Vec<f64>>,
    late_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Time from the last send of a round until its last answer.
    drain_ms: Vec<f64>,
    failed: u64,
}

impl World {
    /// One open-loop stretch: send `requests` on `schedule`, then wait for
    /// every answer.
    fn open_loop(
        &mut self,
        clock: &Instant,
        requests: &[Request],
        schedule: &[u64],
        first_seq: usize,
        totals: &mut PhaseTotals,
    ) {
        let phase_start = clock.elapsed().as_nanos() as u64;
        let mut samples = Vec::with_capacity(requests.len());
        for (i, (r, due)) in requests.iter().zip(schedule).enumerate() {
            let due_ns = phase_start + due;
            wait_until(clock, due_ns);
            samples.push(self.send(clock, first_seq + i, r, due_ns, true));
        }
        let last_sent = clock.elapsed();
        let done: Vec<Done> = samples.iter().map(|s| self.finish(s)).collect();
        totals
            .drain_ms
            .push((clock.elapsed() - last_sent).as_secs_f64() * 1e3);
        totals.failed += done.iter().filter(|d| !d.ok).count() as u64;
        let latencies: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
        totals
            .windows
            .extend(windows(&latencies, self.cfg.bump_every));
        totals.late_ms.extend(done.iter().map(|d| d.late_ms));
        totals
            .queue_wait_ms
            .extend(done.iter().map(|d| d.queue_wait_ms));
        totals.submit_us.extend(done.iter().map(|d| d.submit_us));
        if self.tracer.on() {
            for (i, (s, d)) in samples.iter().zip(&done).enumerate() {
                let q = (first_seq + i) as u32;
                let done_ns = s.due_ns + (d.latency_ms * 1e6) as u64;
                let root = self
                    .tracer
                    .record("loadgen.request", s.due_ns, done_ns, NONE, q);
                self.tracer
                    .record("serve.submit", s.sent_ns, s.admitted_ns, root, q);
                self.tracer
                    .record("serve.query", s.admitted_ns, done_ns, root, q);
            }
        }
    }
}

impl Workload for World {
    fn run(&mut self, seed: u64, seconds: f64) -> Pass {
        let rng = Rng::new(seed);
        let mut pass = Pass::default();
        self.tally = Tally::default();
        let clock = Instant::now();
        let stats_before = self.cache.stats();
        self.bump_us.clear();
        self.invalidated.clear();
        let mut open: [PhaseTotals; 3] = Default::default();
        let (mut saturated, mut saturation_s) = (0u64, 0.0f64);
        // Saturation throughput per window of `RATE_WINDOW` sends.
        let mut rates: Vec<f64> = Vec::new();
        let mut seq = 0usize;
        let per_round = seconds / ROUNDS as f64;
        let open_share: f64 = self.cfg.phase_share.iter().sum();

        // Every phase runs in each of the rounds, so each metric samples the
        // whole run: the machine's speed drifts over seconds, and a metric
        // taken from one stretch of the run would inherit that stretch's.
        for round in 0..ROUNDS {
            for (p, phase) in PHASES.iter().enumerate() {
                let rate = self.cfg.rates_qps[p];
                let n = count_for(per_round * self.cfg.phase_share[p], rate);
                let stream = rng.fork(&format!("{phase}{round}"));
                let requests = self.requests(&mut stream.clone(), n);
                let schedule = poisson_schedule(&mut stream.fork("arrivals"), rate, n);
                self.open_loop(&clock, &requests, &schedule, seq, &mut open[p]);
                seq += n;
                pass.attempted += n as u64;
            }
            // Saturation: closed loop with the admission queue held full.
            let n = count_for(per_round * (1.0 - open_share), self.cfg.saturation_per_s);
            let requests = self.requests(&mut rng.fork(&format!("saturation{round}")), n);
            let start = Instant::now();
            let (done, marks) = self.closed_loop(&requests, &clock, true);
            saturation_s += start.elapsed().as_secs_f64();
            pass.attempted += n as u64;
            saturated += n as u64;
            pass.failed += done.iter().filter(|d| !d.ok).count() as u64;
            // The first window of a round fills the queue: left out.
            rates.extend(
                marks
                    .windows(2)
                    .skip(1)
                    .map(|m| RATE_WINDOW as f64 * 1e9 / (m[1] - m[0]) as f64),
            );
        }
        if rates.is_empty() {
            rates.push(saturated as f64 / saturation_s);
        }
        pass.failed += open.iter().map(|t| t.failed).sum::<u64>();
        // In an open loop the schedule fixes the wall time; the closed
        // loop is where added work per request would show.
        pass.request_wall_s = saturation_s;

        // The highest rate whose tail stays under the limit with no failure
        // and whose backlog, when the sending stops, is gone within the
        // limit too: one that takes longer was growing.
        let tails: Vec<f64> = open
            .iter()
            .map(|t| Latency::of_windows(&t.windows).tail_ms)
            .collect();
        let drains: Vec<f64> = open.iter().map(|t| median(t.drain_ms.clone())).collect();
        let limit = self.cfg.latency_limit_ms;
        let rate_met = (0..PHASES.len())
            .filter(|&p| open[p].failed == 0 && tails[p] <= limit && drains[p] <= limit)
            .map(|p| self.cfg.rates_qps[p])
            .fold(0.0, f64::max);

        let [_, mid, _] = open;
        pass.latency = Latency::of_windows(&mid.windows);
        pass.queries_per_s = better_quartile(rates, true);
        let cache = self.cache.stats();
        let (hits, misses) = (
            cache.plan_hits - stats_before.plan_hits,
            cache.plan_misses - stats_before.plan_misses,
        );
        let tally = &self.tally;
        if pass.failed > 0 {
            eprintln!(
                "serve_open_zipf: {} of {} requests failed (refused: queue {}, quota {}, breaker {})",
                pass.failed,
                pass.attempted,
                tally.rejected_queue_full,
                tally.rejected_quota,
                tally.rejected_breaker
            );
        }
        let ok = tally.ok.max(1) as f64;
        pass.work_units_per_query = tally.work / ok;
        pass.work_ratio_vs_native = 1.0;
        pass.answer_digest = tally.digest.finish();
        let layer = &mut pass.layer;
        layer.insert("serve.p99_ms_low", tails[0]);
        layer.insert("serve.p99_ms_high", tails[2]);
        layer.insert("serve.drain_ms_high", drains[2]);
        layer.insert("loadgen.late_p99_ms", summarize(mid.late_ms).tail);
        put_summary(
            layer,
            "serve.queue_wait_ms_p50",
            Some("serve.queue_wait_ms_p99"),
            mid.queue_wait_ms,
            1.0,
        );
        put_summary(
            layer,
            "serve.submit_us_p50",
            Some("serve.submit_us_p99"),
            mid.submit_us,
            1.0,
        );
        layer.insert(
            "cache.plan_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layer.insert("cache.bump_us_p50", median(self.bump_us.clone()));
        layer.insert(
            "cache.invalidated_per_bump",
            median(self.invalidated.clone()),
        );
        layer.insert("serve.rate_met_qps", rate_met);
        layer.insert("serve.admitted", tally.admitted as f64);
        layer.insert(
            "serve.rejected_queue_full",
            tally.rejected_queue_full as f64,
        );
        layer.insert("serve.rejected_quota", tally.rejected_quota as f64);
        layer.insert("serve.rejected_breaker", tally.rejected_breaker as f64);
        layer.insert("serve.steps_per_query", tally.steps as f64 / ok);
        layer.insert("failed_share", pass.failed as f64 / pass.attempted as f64);
        pass
    }

    fn layers(&self, spans: &[Span], _pass: &Pass) -> Values {
        let mut out = setup_layers(spans);
        let (rate, _) = probe::serial_pass(&self.catalog, &self.templates);
        out.insert("engine.exec.serial_work_units_per_ms", rate);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_due_time_across_a_stall() {
        // Three requests due 1 ms apart, 0.2 ms of service each. The
        // generator stalls for 5 ms before the second, so the second and
        // third are sent late; they are charged the stall, the first not.
        let sample = |due_ms: f64, sent_ms: f64| Sample {
            template: 0,
            due_ns: (due_ms * 1e6) as u64,
            sent_ns: (sent_ms * 1e6) as u64,
            admitted_ns: (sent_ms * 1e6) as u64 + 20_000,
            ticket: Err(ServeError::ShuttingDown),
        };
        let done: Vec<Done> = [sample(0.0, 0.0), sample(1.0, 6.0), sample(2.0, 6.1)]
            .iter()
            .map(|s| Done::new(s, 200_000, 0.15, true))
            .collect();
        assert!((done[0].latency_ms - 0.22).abs() < 1e-9);
        assert!((done[1].latency_ms - 5.22).abs() < 1e-9);
        assert!((done[2].latency_ms - 4.32).abs() < 1e-9);
        assert_eq!(done[0].late_ms, 0.0);
        assert!((done[1].late_ms - 5.0).abs() < 1e-9);
        assert!((done[1].submit_us - 20.0).abs() < 1e-9);
        assert!((done[1].queue_wait_ms - 0.05).abs() < 1e-9);
    }

    #[test]
    fn windows_hold_one_bump_each_and_a_short_phase_is_one_window() {
        let latencies: Vec<f64> = (0..2500).map(f64::from).collect();
        let cut = windows(&latencies, 1000);
        assert_eq!(cut.len(), 2);
        assert!(cut.iter().all(|w| w.len() == 1000));
        assert_eq!(windows(&latencies[..300], 1000).len(), 1);
    }
}
