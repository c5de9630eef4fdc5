//! The four workloads. Each builds its world from pinned constants (the
//! database and the template pool are the same on every run, like a
//! standard benchmark's data set) and draws its request list from
//! `--seed`.

pub mod exec_join_heavy;
pub mod pilot_learn_loop;
pub mod plan_learned_wide;
pub mod serve_open_zipf;

use std::sync::Arc;

use crate::metrics::Values;
use crate::stats::{better_quartile, median, summarize, Summary};
use crate::trace::{Span, Tracer};

/// Seed of every generated database and template pool.
pub const DATA_SEED: u64 = 20_240_613;

/// What one pass over a request list measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    /// Errored, refused or wrongly answered.
    pub failed: u64,
    /// `query_p50_ms` / `query_p99_ms` and what they rest on.
    pub latency: Latency,
    pub queries_per_s: f64,
    pub work_units_per_query: f64,
    pub work_ratio_vs_native: f64,
    /// Wall seconds inside the requests themselves; the traced pass over
    /// the untraced one is the tracing overhead.
    pub request_wall_s: f64,
    /// Fold of every answer (the counts, which no plan choice can move),
    /// to compare passes over one request list.
    pub answer_digest: u64,
    /// Per-layer values the workload counts or times itself.
    pub layer: Values,
}

pub trait Workload {
    /// Run the request list of `seed`, sized for `seconds` on the machine
    /// the benchmark was defined on. Counts, never a deadline, end a
    /// phase, so the list is a pure function of `(seed, seconds)`.
    fn run(&mut self, seed: u64, seconds: f64) -> Pass;

    /// Per-layer values from the spans of a traced pass.
    fn layers(&self, spans: &[Span], pass: &Pass) -> Values;
}

/// Build the named workload's world. Everything before the first timed
/// request happens here: this call is `setup_s`.
pub fn setup(name: &str, smoke: bool, tracer: Arc<Tracer>) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve_open_zipf" => Box::new(serve_open_zipf::World::setup(smoke, tracer)),
        "exec_join_heavy" => Box::new(exec_join_heavy::World::setup(smoke, tracer)),
        "plan_learned_wide" => Box::new(plan_learned_wide::World::setup(smoke, tracer)),
        "pilot_learn_loop" => Box::new(pilot_learn_loop::World::setup(smoke, tracer)),
        _ => return None,
    })
}

/// When the first timed request began: the first span of a request.
pub fn timed_from(spans: &[Span]) -> u64 {
    spans
        .iter()
        .find(|s| s.query != crate::trace::NONE)
        .map_or(0, |s| s.start_ns)
}

/// Latency of a pass. The sandbox's speed shifts by a fifth for seconds
/// at a time, so samples are cut into windows of like content and each
/// window is summarized on its own: the median is the better quartile
/// over windows (the run's undisturbed stretches instead of their mix),
/// the tail the median over windows (a window's tail rests on too few
/// samples for a quartile to mean much).
#[derive(Debug, Default, Clone, Copy)]
pub struct Latency {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The quantile the tail was read at: 0.99 when the samples allow.
    pub tail_q: f64,
    pub samples: usize,
    pub windows: usize,
}

impl Latency {
    pub fn of_windows(windows: &[Vec<f64>]) -> Latency {
        let each: Vec<Summary> = windows.iter().map(|w| summarize(w.clone())).collect();
        Latency {
            p50_ms: better_quartile(each.iter().map(|w| w.p50).collect(), false),
            tail_ms: median(each.iter().map(|w| w.tail).collect()),
            tail_q: each.iter().map(|w| w.tail_q).fold(1.0, f64::min),
            samples: each.iter().map(|w| w.samples).sum(),
            windows: each.len(),
        }
    }
}

/// Latencies in request order cut into windows of `len`; what is left
/// over is dropped, and a run shorter than one window is one window.
pub fn windows(latencies_ms: &[f64], len: usize) -> Vec<Vec<f64>> {
    if latencies_ms.len() < len {
        return vec![latencies_ms.to_vec()];
    }
    latencies_ms
        .chunks_exact(len)
        .map(<[f64]>::to_vec)
        .collect()
}

/// [`windows`] of one back-to-back client, and each window's rate: with
/// one client a window's wall time is the sum of its latencies.
pub fn closed_loop_windows(latencies_ms: &[f64], len: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let windows = windows(latencies_ms, len);
    let rates = windows
        .iter()
        .map(|w| w.len() as f64 * 1e3 / w.iter().sum::<f64>())
        .collect();
    (windows, rates)
}

/// What set-up spent in the layers every workload builds on.
pub fn setup_layers(spans: &[Span]) -> Values {
    let roll = crate::trace::Rollup::new(spans);
    Values::from([
        (
            "engine.datagen.build_s",
            roll.total_ns("engine.datagen.") / 1e9,
        ),
        (
            "engine.stats.collect_s",
            roll.total_ns("engine.stats.") / 1e9,
        ),
        ("card.fit_s", roll.total_ns("card.fit") / 1e9),
    ])
}

/// Request count for `seconds` at a rate calibrated when the benchmark
/// was defined (at least one).
pub fn count_for(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

/// Median (and tail, when asked for) of `samples` into `out` under the
/// given metric names, divided by `per_unit`.
pub fn put_summary(
    out: &mut Values,
    p50: &'static str,
    p99: Option<&'static str>,
    samples: Vec<f64>,
    per_unit: f64,
) {
    let s = summarize(samples);
    out.insert(p50, s.p50 / per_unit);
    if let Some(p99) = p99 {
        out.insert(p99, s.tail / per_unit);
    }
}
