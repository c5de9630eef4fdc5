//! Morsel-driven parallel execution.
//!
//! A fixed-size pool of `std::thread` workers pulls *morsels* — contiguous,
//! cache-sized ranges of input indices — from a shared atomic counter and
//! executes them free-running; the coordinator stitches per-morsel outputs
//! back together **in morsel index order**. Combined with the row-ordering
//! contract of the serial executor (see [`crate::exec::executor`]), this
//! makes the parallel output — result rows, intermediate cardinalities,
//! per-operator events, and the accumulated work units — **byte-identical**
//! to the serial executor for every plan, thread count, and morsel size.
//!
//! Determinism argument, per operator:
//!
//! * **Scan**: morsels partition the base table into ascending contiguous
//!   ranges; each emits qualifying ids in ascending order; concatenation in
//!   morsel order reproduces the serial ascending scan.
//! * **Hash join build**: each morsel builds a local key→rows map over its
//!   ascending slice of the build input; local maps are merged in morsel
//!   order, so every key's row vector ends up in ascending build-input
//!   order — exactly the serial insertion order. (Map *iteration* order is
//!   irrelevant: merging is per key.)
//! * **Hash join probe**: probe morsels cover ascending probe ranges
//!   against the shared read-only table; each emits probe-major output;
//!   concatenation in morsel order reproduces the serial probe loop.
//! * **Nested-loop / cross join**: outer side is morselised; inner loop is
//!   unchanged; concatenation reproduces the serial outer-major order.
//! * **Merge join**: only key extraction is parallel (order-preserving by
//!   construction); sorting and merging reuse the serial code verbatim.
//!
//! Work accounting is replayed, not summed: after the deterministic merge,
//! the coordinator issues the *exact serial sequence* of work charges, so
//! `ExecResult::work` is bit-identical across modes. During execution an
//! *approximate* shared accumulator (exact value re-seeded after every
//! exact charge) makes morsel dispatch budget-aware: workers stop pulling
//! morsels as soon as the work budget is provably exceeded, which is how
//! lqo-guard plan budgets cancel runaway parallel plans mid-operator.
//!
//! A panicking worker is contained by `catch_unwind`, recorded on the run,
//! and cancels remaining morsels; the query then degrades to the serial
//! path (default) or surfaces [`crate::error::EngineError::WorkerFault`].

pub(crate) mod join;
pub(crate) mod morsel;
pub(crate) mod pool;

use std::cell::Cell;

use lqo_obs::trace::OperatorEvent;
use serde::Serialize;

use crate::error::Result;
use crate::exec::executor::{join_label, Executor, WorkMeter};
use crate::exec::parallel::morsel::{morsels, SharedRun};
use crate::exec::parallel::pool::{run_morsels, PoolStats};
use crate::exec::relation::{keep_for_child, Relation};
use crate::plan::physical::PhysNode;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// How the executor runs a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum ExecMode {
    /// Single-threaded tuple-at-a-time execution (the reference path).
    #[default]
    Serial,
    /// Morsel-driven parallel execution on a fixed-size worker pool.
    Parallel {
        /// Worker pool size. `Parallel { threads: 1 }` is executed on the
        /// serial path (one worker cannot beat zero dispatch overhead).
        threads: usize,
    },
    /// Single-threaded vectorized execution: operators run columnar batch
    /// kernels (selection vectors, gathered key columns, batched hashing)
    /// over chunks of `batch_size` tuples. Output is byte-identical to
    /// [`ExecMode::Serial`] — same rows in the same order, bit-identical
    /// work units — only the inner loops differ (see
    /// [`crate::exec::batch`]).
    Batched {
        /// Tuples per columnar batch; clamped to at least 1.
        batch_size: usize,
    },
    /// Morsel-driven parallel execution whose morsel bodies run the same
    /// columnar batch kernels as [`ExecMode::Batched`] — the composition
    /// of both speedups. Byte-identical to serial like every other mode.
    BatchedParallel {
        /// Worker pool size (1 falls back to the single-threaded batched
        /// path).
        threads: usize,
        /// Tuples per columnar batch; clamped to at least 1.
        batch_size: usize,
    },
}

impl ExecMode {
    /// The worker count this mode runs with (1 for the single-threaded
    /// modes).
    pub fn threads(&self) -> usize {
        match self {
            ExecMode::Serial | ExecMode::Batched { .. } => 1,
            ExecMode::Parallel { threads } | ExecMode::BatchedParallel { threads, .. } => {
                (*threads).max(1)
            }
        }
    }

    /// The columnar batch size this mode runs with (`None` for the
    /// tuple-at-a-time modes).
    pub fn batch_size(&self) -> Option<usize> {
        match self {
            ExecMode::Serial | ExecMode::Parallel { .. } => None,
            ExecMode::Batched { batch_size } | ExecMode::BatchedParallel { batch_size, .. } => {
                Some((*batch_size).max(1))
            }
        }
    }

    /// Parse `"serial"`, `"parallel"` (hardware threads), `"parallel:N"`,
    /// `"batched"` (default batch size), `"batched:B"`,
    /// `"batched-parallel"` (hardware threads, default batch size),
    /// `"batched-parallel:T"` or `"batched-parallel:T:B"`.
    pub fn parse(s: &str) -> Option<ExecMode> {
        fn hw_threads() -> usize {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
        match s.trim() {
            "serial" => Some(ExecMode::Serial),
            "parallel" => Some(ExecMode::Parallel {
                threads: hw_threads(),
            }),
            "batched" => Some(ExecMode::Batched {
                batch_size: crate::exec::batch::DEFAULT_BATCH_SIZE,
            }),
            "batched-parallel" => Some(ExecMode::BatchedParallel {
                threads: hw_threads(),
                batch_size: crate::exec::batch::DEFAULT_BATCH_SIZE,
            }),
            other => {
                if let Some(rest) = other.strip_prefix("batched-parallel:") {
                    let (threads, batch_size) = match rest.split_once(':') {
                        Some((t, b)) => (t.parse().ok()?, b.parse().ok()?),
                        None => (rest.parse().ok()?, crate::exec::batch::DEFAULT_BATCH_SIZE),
                    };
                    return Some(ExecMode::BatchedParallel {
                        threads,
                        batch_size,
                    });
                }
                if let Some(b) = other.strip_prefix("batched:") {
                    return Some(ExecMode::Batched {
                        batch_size: b.parse().ok()?,
                    });
                }
                let threads = other.strip_prefix("parallel:")?.parse().ok()?;
                Some(ExecMode::Parallel { threads })
            }
        }
    }

    /// Read the mode from the `LQO_EXEC_MODE` environment variable
    /// (`serial` | `parallel[:N]` | `batched[:B]` |
    /// `batched-parallel[:T[:B]]`); defaults to serial.
    pub fn from_env() -> ExecMode {
        std::env::var("LQO_EXEC_MODE")
            .ok()
            .and_then(|s| ExecMode::parse(&s))
            .unwrap_or(ExecMode::Serial)
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Serial => write!(f, "serial"),
            ExecMode::Parallel { threads } => write!(f, "parallel:{threads}"),
            ExecMode::Batched { batch_size } => write!(f, "batched:{batch_size}"),
            ExecMode::BatchedParallel {
                threads,
                batch_size,
            } => write!(f, "batched-parallel:{threads}:{batch_size}"),
        }
    }
}

/// Tuning and fault-injection knobs for the parallel executor.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Maximum rows per morsel. The default keeps a morsel's footprint
    /// within a few hundred KiB of L2 for typical tuple widths.
    pub morsel_rows: usize,
    /// Degrade to the serial path when a worker panics (default). When
    /// off, a worker fault surfaces as [`crate::error::EngineError::WorkerFault`].
    pub fallback_serial: bool,
    /// Fault injection for chaos tests: panic inside the morsel with this
    /// global dispatch sequence number.
    pub panic_on_morsel: Option<u64>,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            morsel_rows: 32_768,
            fallback_serial: true,
            panic_on_morsel: None,
        }
    }
}

/// Coordinator state for one parallel plan execution.
pub(crate) struct ParRun<'a> {
    pub(crate) ex: &'a Executor<'a>,
    pub(crate) query: &'a SpjQuery,
    pub(crate) threads: usize,
    /// Rows per columnar batch inside each morsel
    /// (`ExecMode::BatchedParallel`); `None` runs the tuple-at-a-time
    /// morsel bodies (`ExecMode::Parallel`).
    pub(crate) batch: Option<usize>,
    /// Whether this query was picked for per-operator profiling detail
    /// (decided once in `Executor::execute`).
    detail: bool,
    pub(crate) shared: SharedRun,
    /// Total morsels dispatched, worker busy ns, and pool capacity
    /// (spawned workers × dispatch wall ns) — accumulated across
    /// dispatches for utilization metrics.
    morsels_run: Cell<u64>,
    busy_ns: Cell<u64>,
    capacity_ns: Cell<u64>,
}

/// Execute `plan` on the morsel pool, with worker count and batch size
/// taken from the executor's configured mode, keeping the slots of the
/// tables in `keep` in the final relation. Mirrors
/// [`Executor::exec_node`] exactly: same validation, same slot pruning,
/// same intermediates, same operator events, bit-identical work
/// accounting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_plan(
    ex: &Executor<'_>,
    query: &SpjQuery,
    plan: &PhysNode,
    keep: TableSet,
    detail: bool,
    meter: &mut WorkMeter,
    intermediates: &mut Vec<(TableSet, u64)>,
    events: &mut Vec<OperatorEvent>,
) -> Result<Relation> {
    let run = step_run(ex, query, detail);
    let result = run.node(plan, keep, meter, intermediates, events);
    run.finish();
    result
}

/// A coordinator for one pool execution — a whole plan or a single
/// operator step (the adaptive re-optimization driver runs one operator
/// per pool run).
fn step_run<'a>(ex: &'a Executor<'a>, query: &'a SpjQuery, detail: bool) -> ParRun<'a> {
    ParRun {
        ex,
        query,
        threads: ex.config.mode.threads(),
        batch: ex.config.mode.batch_size(),
        detail,
        shared: SharedRun::new(ex.config.max_work, ex.config.parallel.panic_on_morsel),
        morsels_run: Cell::new(0),
        busy_ns: Cell::new(0),
        capacity_ns: Cell::new(0),
    }
}

/// Execute a single scan operator in parallel (step interface for
/// [`Executor::exec_scan_step`]).
pub(crate) fn exec_scan_step(
    ex: &Executor<'_>,
    query: &SpjQuery,
    pos: usize,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let run = step_run(ex, query, false);
    let result = run.scan(pos, meter);
    run.finish();
    result
}

/// Execute a single join operator in parallel (step interface for
/// [`Executor::exec_join_step`]).
pub(crate) fn exec_join_step(
    ex: &Executor<'_>,
    query: &SpjQuery,
    algo: crate::plan::physical::JoinAlgo,
    left: Relation,
    right: Relation,
    keep: TableSet,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let run = step_run(ex, query, false);
    let result = run.join(algo, left, right, keep, meter);
    run.finish();
    result
}

impl ParRun<'_> {
    /// Execute one plan node, keeping the slots of the tables in `keep`;
    /// identical structure to the serial `exec_node` so slot pruning,
    /// per-operator work attribution and event order match.
    fn node(
        &self,
        node: &PhysNode,
        keep: TableSet,
        meter: &mut WorkMeter,
        intermediates: &mut Vec<(TableSet, u64)>,
        events: &mut Vec<OperatorEvent>,
    ) -> Result<Relation> {
        // Same phase-before-recursion structure as the serial
        // `exec_node`, so serial and parallel runs produce the same
        // phase tree (morsel/worker frames nested below are extra).
        let _prof_op = self.detail.then(|| {
            self.ex.prof.phase_sampled(match node {
                PhysNode::Scan { .. } => "Scan",
                PhysNode::Join { algo, .. } => join_label(*algo),
            })
        });
        let (rel, op, own_work) = match node {
            PhysNode::Scan { pos } => {
                let before = meter.work;
                let rel = self.scan(*pos, meter)?;
                let rel = if keep.contains(*pos) {
                    rel
                } else {
                    rel.into_count()
                };
                (rel, "Scan", meter.work - before)
            }
            PhysNode::Join { algo, left, right } => {
                let lkeep = keep_for_child(self.query, left.tables(), keep);
                let rkeep = keep_for_child(self.query, right.tables(), keep);
                let l = self.node(left, lkeep, meter, intermediates, events)?;
                let r = self.node(right, rkeep, meter, intermediates, events)?;
                let before = meter.work;
                let rel = self.join(*algo, l, r, keep, meter)?;
                (rel, join_label(*algo), meter.work - before)
            }
        };
        intermediates.push((rel.tables(), rel.len() as u64));
        self.ex.prof.charge(own_work);
        if self.ex.obs.is_enabled() {
            events.push(OperatorEvent {
                op: op.to_string(),
                tables: rel.tables().0,
                true_rows: rel.len() as u64,
                est_rows: None,
                work: own_work,
            });
        }
        Ok(rel)
    }

    /// Parallel filter scan: morsels over the base table, qualifying row
    /// ids concatenated in morsel (= ascending row) order. Under
    /// `BatchedParallel` each morsel body runs the selection-vector
    /// kernels over `batch`-row sub-ranges instead of the per-row
    /// predicate loop; both bodies emit ascending row ids, so the merged
    /// output is identical.
    fn scan(&self, pos: usize, meter: &mut WorkMeter) -> Result<Relation> {
        let (n, compiled) = self.ex.compile_scan(self.query, pos)?;
        meter.add(self.ex.config.params.scan_work(n as f64, compiled.len()))?;
        self.shared.seed_work(meter.work);
        let compiled = &compiled;
        let batch = self.batch;
        let chunks = self.dispatch(n, "Scan", move |_, range| {
            let mut out = Vec::new();
            if let Some(b) = batch {
                let b = b.max(1);
                let mut sel: Vec<u32> = Vec::with_capacity(b.min(range.len().max(1)));
                let mut start = range.start;
                while start < range.end {
                    let end = (start + b).min(range.end);
                    match compiled.split_first() {
                        None => out.extend(start as u32..end as u32),
                        Some((first, rest)) => {
                            sel.clear();
                            first.filter_range(start..end, &mut sel);
                            for c in rest {
                                if sel.is_empty() {
                                    break;
                                }
                                c.filter_sel(&mut sel);
                            }
                            out.extend_from_slice(&sel);
                        }
                    }
                    start = end;
                }
            } else {
                'rows: for row in range {
                    for c in compiled {
                        if !c.matches(row) {
                            continue 'rows;
                        }
                    }
                    out.push(row as u32);
                }
            }
            out
        })?;
        let mut out = Vec::new();
        for c in chunks {
            out.extend(c);
        }
        Ok(Relation::from_scan(pos, out))
    }

    /// Run `f` over morsels of `0..n` on the pool, recording timings.
    pub(crate) fn dispatch<T, F>(&self, n: usize, op: &'static str, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    {
        let ms = morsels(n, self.ex.config.parallel.morsel_rows);
        let (results, stats) = run_morsels(self.threads, &ms, &self.shared, op, f)?;
        self.note(&stats);
        Ok(results)
    }

    fn note(&self, stats: &PoolStats) {
        self.morsels_run
            .set(self.morsels_run.get() + stats.morsel_ns.len() as u64);
        self.busy_ns.set(self.busy_ns.get() + stats.busy_ns);
        self.capacity_ns
            .set(self.capacity_ns.get() + stats.workers as u64 * stats.elapsed_ns);
        if self.ex.obs.is_enabled() {
            self.ex
                .obs
                .count("lqo.exec.parallel.morsels", stats.morsel_ns.len() as u64);
            for &ns in &stats.morsel_ns {
                self.ex
                    .obs
                    .observe("lqo.exec.parallel.morsel_ns", ns as f64);
            }
        }
        if self.ex.prof.is_enabled() && self.detail {
            // Per-morsel and per-worker attribution under the operator
            // phase that dispatched this pool run (detail-sampled along
            // with the per-operator phases). Derived from the same
            // PoolStats that feed the E11 utilization gauge, so the
            // profiler's busy/idle split and the scaling experiment's
            // utilization numbers cannot drift apart.
            self.ex.prof.record_child(
                "morsel",
                stats.morsel_ns.len() as u64,
                stats.morsel_ns.iter().sum(),
                0.0,
            );
            for (i, &busy) in stats.worker_busy_ns.iter().enumerate() {
                let idle = stats.elapsed_ns.saturating_sub(busy);
                self.ex
                    .prof
                    .record_child(&format!("worker{i}_busy"), 1, busy, 0.0);
                self.ex
                    .prof
                    .record_child(&format!("worker{i}_idle"), 1, idle, 0.0);
            }
        }
    }

    /// Record run-level pool metrics: total busy time and utilization
    /// (busy / (spawned workers × parallel-section wall time)).
    fn finish(&self) {
        if !self.ex.obs.is_enabled() || self.morsels_run.get() == 0 {
            return;
        }
        self.ex.obs.observe(
            "lqo.exec.parallel.worker_busy_ns",
            self.busy_ns.get() as f64,
        );
        let denom = self.capacity_ns.get() as f64;
        if denom > 0.0 {
            self.ex.obs.gauge(
                "lqo.exec.parallel.utilization",
                self.busy_ns.get() as f64 / denom,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_parses() {
        assert_eq!(ExecMode::parse("serial"), Some(ExecMode::Serial));
        assert_eq!(
            ExecMode::parse("parallel:4"),
            Some(ExecMode::Parallel { threads: 4 })
        );
        assert!(matches!(
            ExecMode::parse("parallel"),
            Some(ExecMode::Parallel { .. })
        ));
        assert_eq!(
            ExecMode::parse("batched:256"),
            Some(ExecMode::Batched { batch_size: 256 })
        );
        assert_eq!(
            ExecMode::parse("batched"),
            Some(ExecMode::Batched {
                batch_size: crate::exec::batch::DEFAULT_BATCH_SIZE
            })
        );
        assert_eq!(
            ExecMode::parse("batched-parallel:4:128"),
            Some(ExecMode::BatchedParallel {
                threads: 4,
                batch_size: 128
            })
        );
        assert_eq!(
            ExecMode::parse("batched-parallel:4"),
            Some(ExecMode::BatchedParallel {
                threads: 4,
                batch_size: crate::exec::batch::DEFAULT_BATCH_SIZE
            })
        );
        assert!(matches!(
            ExecMode::parse("batched-parallel"),
            Some(ExecMode::BatchedParallel { .. })
        ));
        assert_eq!(ExecMode::parse("bogus"), None);
        assert_eq!(ExecMode::parse("parallel:x"), None);
        assert_eq!(ExecMode::parse("batched:x"), None);
        assert_eq!(ExecMode::parse("batched-parallel:2:x"), None);
    }

    #[test]
    fn exec_mode_display_roundtrips() {
        for mode in [
            ExecMode::Serial,
            ExecMode::Parallel { threads: 8 },
            ExecMode::Batched { batch_size: 512 },
            ExecMode::BatchedParallel {
                threads: 4,
                batch_size: 64,
            },
        ] {
            assert_eq!(ExecMode::parse(&mode.to_string()), Some(mode));
        }
    }

    #[test]
    fn exec_mode_threads() {
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Parallel { threads: 8 }.threads(), 8);
        assert_eq!(ExecMode::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(ExecMode::Batched { batch_size: 64 }.threads(), 1);
        assert_eq!(
            ExecMode::BatchedParallel {
                threads: 6,
                batch_size: 64
            }
            .threads(),
            6
        );
    }

    #[test]
    fn exec_mode_batch_size() {
        assert_eq!(ExecMode::Serial.batch_size(), None);
        assert_eq!(ExecMode::Parallel { threads: 2 }.batch_size(), None);
        assert_eq!(ExecMode::Batched { batch_size: 64 }.batch_size(), Some(64));
        assert_eq!(
            ExecMode::Batched { batch_size: 0 }.batch_size(),
            Some(1),
            "degenerate batch size clamps to 1"
        );
        assert_eq!(
            ExecMode::BatchedParallel {
                threads: 2,
                batch_size: 512
            }
            .batch_size(),
            Some(512)
        );
    }
}
