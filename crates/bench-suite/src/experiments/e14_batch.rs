//! **E14 — vectorized batch execution: columnar operator bodies against
//! the tuple-at-a-time reference evaluator, under the byte-identity
//! contract.** The survey's deployment argument for learned optimizers
//! assumes execution feedback is cheap to collect; morsel parallelism
//! attacks that with cores, this experiment measures the orthogonal
//! axis: the columnar bodies every mode runs, in-thread at a sweep of
//! batch sizes (`ExecMode::Serial` is the default batch size), plus one
//! composed `Parallel` cell. The baseline row is the reference evaluator
//! (`lqo_engine::exec::reference`), the tuple-at-a-time loops the bodies
//! are tested against. The workload is the scan/join mix of E11
//! (single-table scans and 2-table hash joins over a scaled `stats_like`
//! catalog). Every cell is verified byte-identical to the reference —
//! counts, bit-exact work units, and order-sensitive relation digests —
//! before its wall clock is reported, so any speedup shown is for
//! *exactly the same answer*. Artifacts: one JSONL record per mode in
//! `results/exp_e14_batch.jsonl`.
//!
//! The binary asserts a batched speedup ≥ 1.0 over the reference at full
//! scale (vectorized kernels do not need extra cores); at reduced scale
//! (`LQO_SCALE=small`, e.g. CI containers) the timing assertion is
//! skipped because sub-millisecond workloads are jitter-dominated —
//! byte identity is always asserted.

use std::time::Instant;

use serde::Serialize;

use lqo_engine::datagen::stats_like;
use lqo_engine::exec::batch::DEFAULT_BATCH_SIZE;
use lqo_engine::exec::reference;
use lqo_engine::{Catalog, ExecConfig, ExecMode, Executor, ParallelConfig, PhysNode, SpjQuery};

use crate::report::TextTable;
use crate::workload::{generate_single_table_workload, generate_workload, WorkloadConfig};

/// E14 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `stats_like` scale (rows per table ∝ scale).
    pub scale: usize,
    /// Single-table scan queries (selection-vector kernels dominate).
    pub num_scans: usize,
    /// 2-table hash-join queries (KeyTable build/probe dominates).
    pub num_joins: usize,
    /// Batch sizes to sweep (the reference and serial are always
    /// measured first).
    pub batch_sizes: Vec<usize>,
    /// Threads for the single composed `Parallel` cell.
    pub threads: usize,
    /// Morsel size for the composed cell.
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
            batch_sizes: vec![64, DEFAULT_BATCH_SIZE, 8192],
            threads: 4,
            morsel_rows: 4096,
            repeats: 3,
            seed: 0xE14,
        }
    }
}

/// One JSONL record: the measured cell at one mode.
#[derive(Debug, Clone, Serialize)]
pub struct BatchPoint {
    /// Mode label (`reference`, `serial`, `batched:N`, or `parallel:T`).
    pub mode: String,
    /// Columnar batch size (`0` encodes the reference evaluator).
    pub batch_size: usize,
    /// Best-of-`repeats` wall time for the whole workload, seconds.
    pub wall_s: f64,
    /// `reference_wall / wall` (1.0 for the reference row).
    pub speedup: f64,
    /// Queries executed.
    pub queries: usize,
    /// Total result rows across the workload (identical in every row).
    pub total_count: u64,
}

/// E14 output: the speedup table plus per-mode records.
#[derive(Debug, Serialize)]
pub struct Output {
    /// Rendered summary table.
    pub table: TextTable,
    /// One record per measured mode, the reference first.
    pub points: Vec<BatchPoint>,
    /// Whether the run was at full scale (timing assertions meaningful).
    pub full_scale: bool,
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
}

/// Time the workload under `mode`, or under the reference evaluator when
/// `mode` is `None`.
fn run_mode(
    catalog: &Catalog,
    pairs: &[(SpjQuery, PhysNode)],
    cfg: &Config,
    mode: Option<ExecMode>,
) -> ModeRun {
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
    );
    let mut best = f64::INFINITY;
    let mut total_count = 0;
    let mut digest = 0u64;
    let mut work_bits = Vec::new();
    for _ in 0..cfg.repeats {
        total_count = 0;
        digest = 0;
        work_bits.clear();
        let start = Instant::now();
        for (q, plan) in pairs {
            let (r, rel) = match mode {
                Some(_) => ex.execute_collect(q, plan),
                None => reference::execute(&ex, q, plan),
            }
            .expect("workload executes");
            total_count += r.count;
            digest = digest.rotate_left(7) ^ rel.digest();
            work_bits.push(r.work.to_bits());
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    ModeRun {
        wall_s: best,
        total_count,
        digest,
        work_bits,
    }
}

/// Run the batch sweep. Panics if any cell diverges from the reference
/// evaluator in counts, digests, or bit-exact work.
pub fn run(cfg: &Config) -> Output {
    let catalog = stats_like(cfg.scale, 0xE14).expect("catalog");
    let pairs = workload(&catalog, cfg);
    assert!(!pairs.is_empty(), "empty workload");

    let reference = run_mode(&catalog, &pairs, cfg, None);
    let mut table = TextTable::new(
        "E14: vectorized batch execution (byte-identity verified per cell)",
        &["mode", "wall_s", "speedup"],
    );
    let mut points = vec![BatchPoint {
        mode: "reference".into(),
        batch_size: 0,
        wall_s: reference.wall_s,
        speedup: 1.0,
        queries: pairs.len(),
        total_count: reference.total_count,
    }];
    table.row(vec![
        "reference".into(),
        format!("{:.4}", reference.wall_s),
        "1.00".into(),
    ]);

    let mut cells: Vec<(String, usize, ExecMode)> = vec![(
        ExecMode::Serial.to_string(),
        DEFAULT_BATCH_SIZE,
        ExecMode::Serial,
    )];
    cells.extend(cfg.batch_sizes.iter().map(|&batch_size| {
        (
            format!("batched:{batch_size}"),
            batch_size,
            ExecMode::Batched { batch_size },
        )
    }));
    let parallel = ExecMode::Parallel {
        threads: cfg.threads,
    };
    cells.push((parallel.to_string(), DEFAULT_BATCH_SIZE, parallel));
    for (label, batch_size, mode) in cells {
        let run = run_mode(&catalog, &pairs, cfg, Some(mode));
        assert_eq!(
            run.total_count, reference.total_count,
            "count divergence at {label}"
        );
        assert_eq!(run.digest, reference.digest, "digest divergence at {label}");
        assert_eq!(
            run.work_bits, reference.work_bits,
            "work-unit divergence at {label}"
        );
        let speedup = reference.wall_s / run.wall_s.max(1e-12);
        table.row(vec![
            label.clone(),
            format!("{:.4}", run.wall_s),
            format!("{speedup:.2}"),
        ]);
        points.push(BatchPoint {
            mode: label,
            batch_size,
            wall_s: run.wall_s,
            speedup,
            queries: pairs.len(),
            total_count: run.total_count,
        });
    }

    Output {
        table,
        points,
        full_scale: crate::report::scale_factor() >= 1.0,
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
            batch_sizes: vec![7, 256],
            threads: 2,
            morsel_rows: 64,
            repeats: 1,
            seed: 0xE14,
        };
        let out = run(&cfg);
        // reference + serial + 2 batched + 1 parallel.
        assert_eq!(out.points.len(), 5);
        assert_eq!(out.points[0].mode, "reference");
        assert_eq!(out.points[1].mode, "serial");
        assert!(out
            .points
            .iter()
            .all(|p| p.total_count == out.points[0].total_count));
        let jsonl = to_jsonl(&out.points);
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains("\"mode\":\"batched:7\""));
        assert!(jsonl.contains("\"mode\":\"parallel:2\""));
    }
}
