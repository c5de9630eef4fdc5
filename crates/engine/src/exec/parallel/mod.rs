//! Morsel-driven parallel execution.
//!
//! A fixed-size pool of `std::thread` workers pulls *morsels* — contiguous,
//! cache-sized ranges of input indices — from a shared atomic counter and
//! executes them free-running; the coordinator stitches per-morsel outputs
//! back together **in morsel index order**. The pool is not a second
//! executor: [`Executor::exec_node`] walks the plan in every mode, and its
//! operator entry points (`Executor::scan_op` / `Executor::join_op`) hand
//! an operator to the query's [`ParRun`] or run it in-thread. Morsel bodies
//! run the batched kernels of [`crate::exec::batch`] at
//! [`DEFAULT_BATCH_SIZE`]. Combined with the row-ordering contract of the
//! executor (see [`crate::exec::executor`]), this makes the parallel
//! output — result rows, intermediate cardinalities, per-operator events,
//! and the accumulated work units — **byte-identical** to the serial
//! executor for every plan, thread count, and morsel size.
//!
//! Determinism argument, per operator:
//!
//! * **Scan**: morsels partition the base table into ascending contiguous
//!   ranges; each runs the batched selection-vector loop over its range
//!   and emits qualifying ids in ascending order; concatenation in morsel
//!   order reproduces the serial ascending scan.
//! * **Hash join build**: each morsel gathers the build-side key columns
//!   of its ascending slice; the gathers concatenate in morsel order into
//!   the whole-column gather, from which one
//!   [`KeyTable`](crate::exec::batch::kernels::KeyTable) is built — the
//!   same table the single-threaded batched join builds, whose chains
//!   list build rows in ascending input order (the serial insertion
//!   order).
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
//! and cancels remaining morsels. The operator that dispatched it is
//! re-run in-thread from its pre-operator work snapshot, and — the
//! cancellation being sticky — so is every later operator of the query.

// The module docs above link the crate-private types they describe.
#![allow(rustdoc::private_intra_doc_links)]

pub(crate) mod join;
pub(crate) mod morsel;
pub(crate) mod pool;

use std::cell::Cell;

use serde::Serialize;

use crate::error::Result;
use crate::exec::batch::{self, DEFAULT_BATCH_SIZE};
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::parallel::morsel::{morsels, SharedRun};
use crate::exec::parallel::pool::{run_morsels, PoolStats};
use crate::exec::relation::Relation;
use crate::query::spj::SpjQuery;

/// How the executor runs a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum ExecMode {
    /// Single-threaded tuple-at-a-time execution (the reference path).
    #[default]
    Serial,
    /// Morsel-driven parallel execution on a fixed-size worker pool.
    /// Morsel bodies run the batched kernels of [`ExecMode::Batched`] at
    /// [`DEFAULT_BATCH_SIZE`]; whatever the pool does not run — every
    /// operator when `threads` is 1, and the rest of a query after a
    /// contained worker fault — runs the single-threaded batched kernels.
    Parallel {
        /// Worker pool size.
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
}

impl ExecMode {
    /// The worker count this mode runs with (1 for the single-threaded
    /// modes).
    pub fn threads(&self) -> usize {
        match self {
            ExecMode::Serial | ExecMode::Batched { .. } => 1,
            ExecMode::Parallel { threads } => (*threads).max(1),
        }
    }

    /// The columnar batch size this mode runs with (`None` for the
    /// tuple-at-a-time serial mode).
    pub fn batch_size(&self) -> Option<usize> {
        match self {
            ExecMode::Serial => None,
            ExecMode::Parallel { .. } => Some(DEFAULT_BATCH_SIZE),
            ExecMode::Batched { batch_size } => Some((*batch_size).max(1)),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Serial => write!(f, "serial"),
            ExecMode::Parallel { threads } => write!(f, "parallel:{threads}"),
            ExecMode::Batched { batch_size } => write!(f, "batched:{batch_size}"),
        }
    }
}

/// Tuning and fault-injection knobs for the parallel executor.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Maximum rows per morsel. The default keeps a morsel's footprint
    /// within a few hundred KiB of L2 for typical tuple widths.
    pub morsel_rows: usize,
    /// Fault injection for chaos tests: panic inside the morsel with this
    /// global dispatch sequence number.
    pub panic_on_morsel: Option<u64>,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            morsel_rows: 32_768,
            panic_on_morsel: None,
        }
    }
}

/// One query's use of the morsel pool (or one step's, for the step seam):
/// the shared run state every dispatch of the query goes through, and
/// pool utilization totals.
pub(crate) struct ParRun<'a> {
    pub(crate) ex: &'a Executor<'a>,
    pub(crate) query: &'a SpjQuery,
    /// Whether this query was picked for per-operator profiling detail
    /// (decided once per query by the executor).
    detail: bool,
    pub(crate) shared: SharedRun,
    /// Total morsels dispatched, worker busy ns, and pool capacity
    /// (spawned workers × dispatch wall ns) — accumulated across
    /// dispatches for utilization metrics.
    morsels_run: Cell<u64>,
    busy_ns: Cell<u64>,
    capacity_ns: Cell<u64>,
}

impl<'a> ParRun<'a> {
    pub(crate) fn new(ex: &'a Executor<'a>, query: &'a SpjQuery, detail: bool) -> ParRun<'a> {
        ParRun {
            ex,
            query,
            detail,
            shared: SharedRun::new(ex.config.max_work, ex.config.parallel.panic_on_morsel),
            morsels_run: Cell::new(0),
            busy_ns: Cell::new(0),
            capacity_ns: Cell::new(0),
        }
    }

    /// Parallel filter scan: each morsel runs the batched selection-vector
    /// loop over its row range; qualifying row ids concatenate in morsel
    /// (= ascending row) order.
    pub(crate) fn scan(&self, pos: usize, meter: &mut WorkMeter) -> Result<Relation> {
        let (n, compiled) = self.ex.compile_scan(self.query, pos)?;
        meter.add(self.ex.config.params.scan_work(n as f64, compiled.len()))?;
        self.shared.seed_work(meter.work);
        let compiled = &compiled;
        let chunks = self.dispatch(n, "Scan", move |_, range| {
            let mut out = Vec::new();
            batch::scan_range(compiled, range, DEFAULT_BATCH_SIZE, &mut out);
            out
        })?;
        Ok(Relation::from_scan(pos, chunks.concat()))
    }

    /// Run `f` over morsels of `0..n` on the pool, recording timings.
    pub(crate) fn dispatch<T, F>(&self, n: usize, op: &'static str, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    {
        let ms = morsels(n, self.ex.config.parallel.morsel_rows);
        let threads = self.ex.config.mode.threads();
        let (results, stats) = run_morsels(threads, &ms, &self.shared, op, f)?;
        self.note(&stats);
        Ok(results)
    }

    fn note(&self, stats: &PoolStats) {
        self.morsels_run
            .set(self.morsels_run.get() + stats.morsel_ns.len() as u64);
        self.busy_ns.set(self.busy_ns.get() + stats.busy_ns);
        self.capacity_ns
            .set(self.capacity_ns.get() + stats.workers as u64 * stats.elapsed_ns);
        if self.ex.telemetry.obs.is_enabled() {
            self.ex
                .telemetry
                .obs
                .count("lqo.exec.parallel.morsels", stats.morsel_ns.len() as u64);
            for &ns in &stats.morsel_ns {
                self.ex
                    .telemetry
                    .obs
                    .observe("lqo.exec.parallel.morsel_ns", ns as f64);
            }
        }
        if self.ex.telemetry.prof.is_enabled() && self.detail {
            // Per-morsel and per-worker attribution under the operator
            // phase that dispatched this pool run (detail-sampled along
            // with the per-operator phases). Derived from the same
            // PoolStats that feed the E11 utilization gauge, so the
            // profiler's busy/idle split and the scaling experiment's
            // utilization numbers cannot drift apart.
            self.ex.telemetry.prof.record_child(
                "morsel",
                stats.morsel_ns.len() as u64,
                stats.morsel_ns.iter().sum(),
                0.0,
            );
            for (i, &busy) in stats.worker_busy_ns.iter().enumerate() {
                let idle = stats.elapsed_ns.saturating_sub(busy);
                self.ex
                    .telemetry
                    .prof
                    .record_child(&format!("worker{i}_busy"), 1, busy, 0.0);
                self.ex
                    .telemetry
                    .prof
                    .record_child(&format!("worker{i}_idle"), 1, idle, 0.0);
            }
        }
    }

    /// Record run-level pool metrics: total busy time and utilization
    /// (busy / (spawned workers × parallel-section wall time)).
    pub(crate) fn finish(&self) {
        if !self.ex.telemetry.obs.is_enabled() || self.morsels_run.get() == 0 {
            return;
        }
        self.ex.telemetry.obs.observe(
            "lqo.exec.parallel.worker_busy_ns",
            self.busy_ns.get() as f64,
        );
        let denom = self.capacity_ns.get() as f64;
        if denom > 0.0 {
            self.ex.telemetry.obs.gauge(
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
    fn exec_mode_threads() {
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Parallel { threads: 8 }.threads(), 8);
        assert_eq!(ExecMode::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(ExecMode::Batched { batch_size: 64 }.threads(), 1);
    }

    #[test]
    fn exec_mode_batch_size() {
        assert_eq!(ExecMode::Serial.batch_size(), None);
        assert_eq!(
            ExecMode::Parallel { threads: 2 }.batch_size(),
            Some(DEFAULT_BATCH_SIZE),
            "the pool and its in-thread paths run the batched kernels"
        );
        assert_eq!(ExecMode::Batched { batch_size: 64 }.batch_size(), Some(64));
        assert_eq!(
            ExecMode::Batched { batch_size: 0 }.batch_size(),
            Some(1),
            "degenerate batch size clamps to 1"
        );
    }
}
