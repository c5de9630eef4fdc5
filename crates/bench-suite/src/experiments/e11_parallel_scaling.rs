//! **E11 — parallel scaling: speedup curves for the morsel-driven
//! executor.** Balsa/Bao-style training loops execute thousands of plans
//! per epoch; the survey's cost argument for learned optimizers collapses
//! if the execution feedback itself is the bottleneck. This experiment
//! runs a scan-heavy workload (single-table scans plus 2-table hash
//! joins over a scaled `stats_like` catalog) through the reference
//! evaluator (`lqo_engine::exec::reference`), `ExecMode::Batched` at the
//! default batch size, and `ExecMode::Parallel` at a sweep of thread
//! counts, verifying byte identity with the reference at every cell
//! (counts, bit-exact work, relation digests) and reporting wall-clock
//! speedup and worker utilization. Parallel morsels run the same operator
//! bodies at that same batch size, so speedups are measured against the
//! batched run: the curve isolates thread scaling. Artifacts:
//! one JSONL record per mode in `results/exp_e11_scaling.jsonl`.
//!
//! On hosts with at least four cores the binary asserts ≥2× speedup at
//! four threads; on smaller machines (including 1-CPU CI containers) the
//! timing assertion is skipped — byte identity is always asserted.

use std::time::Instant;

use serde::Serialize;

use lqo_engine::datagen::stats_like;
use lqo_engine::exec::batch::DEFAULT_BATCH_SIZE;
use lqo_engine::exec::reference;
use lqo_engine::{Catalog, ExecConfig, ExecMode, Executor, ParallelConfig, PhysNode, SpjQuery};
use lqo_obs::ObsContext;

use crate::report::TextTable;
use crate::workload::{generate_single_table_workload, generate_workload, WorkloadConfig};

/// E11 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `stats_like` scale (rows per table ∝ scale).
    pub scale: usize,
    /// Single-table scan queries (the scan-heavy core of the workload).
    pub num_scans: usize,
    /// 2-table join queries.
    pub num_joins: usize,
    /// Thread counts to sweep (the reference is always measured first).
    pub thread_counts: Vec<usize>,
    /// Morsel size in rows.
    pub morsel_rows: usize,
    /// Timed repetitions per mode; the minimum wall time is reported.
    pub repeats: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        let f = crate::report::scale_factor();
        Config {
            scale: (2_000.0 * f) as usize,
            num_scans: (24.0 * f).max(4.0) as usize,
            num_joins: (8.0 * f).max(2.0) as usize,
            thread_counts: vec![1, 2, 4, 8],
            morsel_rows: 4096,
            repeats: 3,
            seed: 0xE11,
        }
    }
}

/// One JSONL record: the measured scaling at one thread count.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// Worker threads (`0` encodes the single-threaded reference and
    /// batched runs).
    pub threads: usize,
    /// Mode label (`reference`, `batched:B`, or `parallel:N`).
    pub mode: String,
    /// Best-of-`repeats` wall time for the whole workload, seconds.
    pub wall_s: f64,
    /// `batched_wall / wall` (1.0 for the batched row).
    pub speedup: f64,
    /// Queries executed.
    pub queries: usize,
    /// Total result rows across the workload (identical in every row).
    pub total_count: u64,
    /// Morsels dispatched (0 for the single-threaded runs).
    pub morsels: u64,
    /// Mean worker utilization across queries, when observed.
    pub utilization: f64,
}

/// E11 output: the scaling table plus per-mode records.
#[derive(Debug, Serialize)]
pub struct Output {
    /// Rendered summary table.
    pub table: TextTable,
    /// One record per measured mode, the reference first.
    pub points: Vec<ScalingPoint>,
    /// Hardware parallelism the run observed (for interpreting speedups).
    pub host_threads: usize,
}

fn workload(catalog: &Catalog, cfg: &Config) -> Vec<(SpjQuery, PhysNode)> {
    let mut pairs: Vec<(SpjQuery, PhysNode)> = Vec::new();
    for q in generate_single_table_workload(
        catalog,
        "posts",
        &WorkloadConfig {
            num_queries: cfg.num_scans,
            seed: cfg.seed,
            ..Default::default()
        },
    ) {
        pairs.push((q, PhysNode::scan(0)));
    }
    for q in generate_workload(
        catalog,
        &WorkloadConfig {
            num_queries: cfg.num_joins,
            min_tables: 2,
            max_tables: 2,
            max_predicates: 2,
            seed: cfg.seed ^ 0x5EED,
        },
    ) {
        let plan = PhysNode::join(
            lqo_engine::JoinAlgo::Hash,
            PhysNode::scan(0),
            PhysNode::scan(1),
        );
        pairs.push((q, plan));
    }
    pairs
}

struct ModeRun {
    wall_s: f64,
    total_count: u64,
    digest: u64,
    work_bits: Vec<u64>,
    morsels: u64,
    utilization: f64,
}

/// Time the workload under `mode`, or under the reference evaluator when
/// `mode` is `None`.
fn run_mode(
    catalog: &Catalog,
    pairs: &[(SpjQuery, PhysNode)],
    cfg: &Config,
    mode: Option<ExecMode>,
) -> ModeRun {
    let mut best = f64::INFINITY;
    let mut total_count = 0;
    let mut digest = 0u64;
    let mut work_bits = Vec::new();
    let mut morsels = 0;
    let mut util_sum = 0.0;
    let mut util_n = 0u64;
    for _ in 0..cfg.repeats {
        let obs = ObsContext::enabled();
        let ex = Executor::new(
            catalog,
            ExecConfig {
                mode: mode.unwrap_or_default(),
                parallel: ParallelConfig {
                    morsel_rows: cfg.morsel_rows,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .with_telemetry(obs.clone());
        total_count = 0;
        digest = 0;
        work_bits.clear();
        let start = Instant::now();
        for (q, plan) in pairs {
            obs.begin_query(&q.to_string());
            let (r, rel) = match mode {
                Some(_) => ex.execute_collect(q, plan),
                None => reference::execute(&ex, q, plan),
            }
            .expect("workload executes");
            obs.end_query();
            total_count += r.count;
            // Fold per-query digests so one scalar fingerprints the run.
            digest = digest.rotate_left(7) ^ rel.digest();
            work_bits.push(r.work.to_bits());
        }
        best = best.min(start.elapsed().as_secs_f64());
        let snap = obs.metrics().expect("obs enabled").snapshot();
        morsels = snap.counter("lqo.exec.parallel.morsels").unwrap_or(0);
        if let Some(u) = snap.gauge("lqo.exec.parallel.utilization") {
            util_sum += u;
            util_n += 1;
        }
    }
    ModeRun {
        wall_s: best,
        total_count,
        digest,
        work_bits,
        morsels,
        utilization: if util_n > 0 {
            util_sum / util_n as f64
        } else {
            0.0
        },
    }
}

/// Run the scaling sweep. Panics if any cell diverges from the reference
/// evaluator in counts, digests, or bit-exact work.
pub fn run(cfg: &Config) -> Output {
    let catalog = stats_like(cfg.scale, 0xE11).expect("catalog");
    let pairs = workload(&catalog, cfg);
    assert!(!pairs.is_empty(), "empty workload");

    // The reference evaluator is the identity reference; the batched
    // run, whose operator bodies the parallel morsels share, is the
    // speedup baseline.
    let reference = run_mode(&catalog, &pairs, cfg, None);
    let batched = ExecMode::Batched {
        batch_size: DEFAULT_BATCH_SIZE,
    };
    let mut cells = vec![(0, batched, run_mode(&catalog, &pairs, cfg, Some(batched)))];
    for &threads in &cfg.thread_counts {
        let mode = ExecMode::Parallel { threads };
        cells.push((threads, mode, run_mode(&catalog, &pairs, cfg, Some(mode))));
    }
    let baseline_s = cells[0].2.wall_s;

    let mut table = TextTable::new(
        "E11: morsel-driven parallel scaling (byte-identity verified per cell)",
        &["mode", "wall_s", "speedup", "morsels", "utilization"],
    );
    let mut points = Vec::new();
    let mut record = |threads: usize, mode: String, run: &ModeRun| {
        let speedup = baseline_s / run.wall_s.max(1e-12);
        table.row(vec![
            mode.clone(),
            format!("{:.4}", run.wall_s),
            format!("{speedup:.2}"),
            run.morsels.to_string(),
            if threads > 0 {
                format!("{:.2}", run.utilization)
            } else {
                "-".into()
            },
        ]);
        points.push(ScalingPoint {
            threads,
            mode,
            wall_s: run.wall_s,
            speedup,
            queries: pairs.len(),
            total_count: run.total_count,
            morsels: run.morsels,
            utilization: run.utilization,
        });
    };
    record(0, "reference".into(), &reference);
    for (threads, mode, run) in &cells {
        assert_eq!(
            run.total_count, reference.total_count,
            "count divergence at {mode}"
        );
        assert_eq!(run.digest, reference.digest, "digest divergence at {mode}");
        assert_eq!(
            run.work_bits, reference.work_bits,
            "work-unit divergence at {mode}"
        );
        record(*threads, mode.to_string(), run);
    }

    Output {
        table,
        points,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_jsonl;

    #[test]
    fn small_sweep_is_byte_identical_and_reports_points() {
        let cfg = Config {
            scale: 200,
            num_scans: 3,
            num_joins: 2,
            thread_counts: vec![2, 4],
            morsel_rows: 64,
            repeats: 1,
            seed: 0xE11,
        };
        let out = run(&cfg);
        // reference + batched baseline + 2 parallel.
        assert_eq!(out.points.len(), 4);
        assert_eq!(out.points[0].mode, "reference");
        assert_eq!(out.points[1].mode, format!("batched:{DEFAULT_BATCH_SIZE}"));
        assert_eq!(out.points[1].speedup, 1.0);
        assert!(out
            .points
            .iter()
            .all(|p| p.total_count == out.points[0].total_count));
        assert!(out.points[2].morsels > 0, "parallel runs dispatch morsels");
        let jsonl = to_jsonl(&out.points);
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"mode\":\"parallel:2\""));
    }
}
