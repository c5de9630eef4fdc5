//! Load harness: replay a workload of interleaved sessions through a
//! fresh server and report latency, throughput, and a deterministic
//! answer digest.
//!
//! The harness itself takes a pre-generated `Vec<SessionRequest>` —
//! workload *generation* (random queries over a catalog) lives with the
//! benchmark suite so the serving layer stays free of generator
//! dependencies. Replays are deterministic in everything except wall
//! clock: admission decisions, per-query answers, work units, and the
//! folded [`LoadReport::answer_digest`] are pure functions of the
//! workload and configuration, for any worker count.

use std::sync::Arc;
use std::time::Instant;

use lqo_cache::LqoCache;
use lqo_engine::Catalog;
use lqo_pilot::EngineInteractor;

use crate::server::{LqoServer, ServeStats};
use crate::{QueryOutcome, ServeConfig, ServeError};

/// Aggregate of one load-harness run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Serving counters plus batch latency/throughput.
    pub stats: ServeStats,
    /// Wall time of the whole batch.
    pub wall_ns: u64,
    /// FNV-1a fold of every submission's deterministic outcome —
    /// sequence number, admission verdict, row count, `work.to_bits()`,
    /// and error text. Two runs of the same workload (any worker count)
    /// must produce the same digest; the serving differential and the
    /// bench baseline both key on it.
    pub answer_digest: u64,
    /// Per-submission outcomes in submission order.
    pub outcomes: Vec<Result<QueryOutcome, ServeError>>,
}

/// Builder for load runs: a serve configuration plus harness knobs.
#[derive(Debug, Clone, Default)]
pub struct LoadRunner {
    /// Serving configuration for the run.
    pub serve: ServeConfig,
    /// Attach a fresh shared plan & inference cache.
    pub with_cache: bool,
}

impl LoadRunner {
    /// Replay `requests` through a fresh server over `catalog`.
    pub fn run(&self, catalog: Arc<Catalog>, requests: Vec<crate::SessionRequest>) -> LoadReport {
        let interactor = Arc::new(EngineInteractor::new(catalog));
        let mut server = LqoServer::new(interactor, self.serve.clone());
        if self.with_cache {
            server = server.with_cache(Arc::new(LqoCache::default()));
        }
        let start = Instant::now();
        let (outcomes, stats) = server.serve_all(requests);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let answer_digest = fold_outcomes(&outcomes);
        LoadReport {
            stats,
            wall_ns,
            answer_digest,
            outcomes,
        }
    }
}

/// FNV-1a over the deterministic fields of every outcome.
pub(crate) fn fold_outcomes(outcomes: &[Result<QueryOutcome, ServeError>]) -> u64 {
    let mut h = Fnv::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        h.u64(i as u64);
        match outcome {
            Ok(o) => {
                h.bytes(o.tenant.as_bytes());
                h.u64(o.plan_cost.to_bits());
                h.u64(o.steps);
                match &o.result {
                    Ok(a) => {
                        h.u64(1);
                        h.u64(a.count);
                        h.u64(a.work.to_bits());
                    }
                    Err(e) => {
                        h.u64(2);
                        h.bytes(e.as_bytes());
                    }
                }
            }
            Err(e) => {
                h.u64(3);
                h.bytes(e.to_string().as_bytes());
            }
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Percentile over a sample of nanosecond latencies (nearest-rank; 0
/// for an empty sample). Sorts in place.
pub fn percentile_ns(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}
