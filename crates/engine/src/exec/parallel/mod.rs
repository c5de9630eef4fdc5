//! Morsel-driven parallel execution: the pool runner's scheduler.
//!
//! A fixed-size pool of `std::thread` workers pulls *morsels* — contiguous,
//! cache-sized ranges of input indices — from a shared atomic counter and
//! executes them free-running; the coordinator stitches per-morsel outputs
//! back together **in morsel index order**. The pool is not a second
//! executor and holds no operator body: [`Executor::exec_node`] walks the
//! plan in every mode, the operator bodies of [`crate::exec::batch`] run
//! their input ranges on a [`Runner`](crate::exec::runner::Runner), and a
//! query's [`ParRun`] is what the pool runner dispatches to. Morsel order
//! plus the row-ordering contract of the executor (see
//! [`crate::exec::executor`]) make the parallel output — result rows,
//! intermediate cardinalities, per-operator events, and the accumulated
//! work units — **byte-identical** to the in-thread runner's for every
//! plan, thread count, and morsel size.
//!
//! Work accounting is exact, not summed: after the morsel-order merge the
//! coordinator feeds each morsel's output count through the operator's
//! [`ChargeCadence`](crate::exec::workunits::ChargeCadence) in morsel
//! order, so `ExecResult::work` is bit-identical across modes. During
//! execution an *approximate* shared accumulator (exact value re-seeded
//! before every dispatch) makes morsel dispatch budget-aware: workers
//! stop pulling morsels as soon as the work budget is provably exceeded,
//! which is how lqo-guard plan budgets cancel runaway parallel plans
//! mid-operator.
//!
//! A panicking worker is contained by `catch_unwind`, recorded on the run,
//! and cancels remaining morsels. The operator that dispatched it is
//! re-run — the same body on the in-thread runner — from its
//! pre-operator work snapshot, and, the cancellation being sticky, so is
//! every later operator of the query.

// The module docs above link the crate-private types they describe.
#![allow(rustdoc::private_intra_doc_links)]

pub(crate) mod morsel;
pub(crate) mod pool;

use std::cell::Cell;

use serde::Serialize;

use crate::error::Result;
use crate::exec::batch::DEFAULT_BATCH_SIZE;
use crate::exec::executor::Executor;
use crate::exec::parallel::morsel::{morsels, SharedRun};
use crate::exec::parallel::pool::{run_morsels, PoolStats};

/// How the executor runs a plan. Every mode runs the same operator
/// bodies; the mode only picks the runner of their input ranges (see
/// [`crate::exec::runner`]), so every mode reports the same results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum ExecMode {
    /// Single-threaded execution over batches of [`DEFAULT_BATCH_SIZE`]
    /// rows: the same runner as [`ExecMode::Batched`] at that size.
    #[default]
    Serial,
    /// Morsel-driven parallel execution on a fixed-size worker pool,
    /// whose morsels run the operator bodies over [`DEFAULT_BATCH_SIZE`]
    /// sub-ranges. Whatever the pool does not run — every operator when
    /// `threads` is 1, and the rest of a query after a contained worker
    /// fault — runs in-thread at [`DEFAULT_BATCH_SIZE`].
    Parallel {
        /// Worker pool size.
        threads: usize,
    },
    /// Single-threaded execution over batches of `batch_size` rows: the
    /// operator bodies' columnar kernels (selection vectors, gathered key
    /// columns, batched hashing) run once per batch, and the output
    /// count of each batch is charged before the next one runs.
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

    /// The rows per batch of this mode's in-thread runner.
    pub fn batch_size(&self) -> usize {
        match self {
            ExecMode::Serial | ExecMode::Parallel { .. } => DEFAULT_BATCH_SIZE,
            ExecMode::Batched { batch_size } => (*batch_size).max(1),
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
    pub(crate) shared: SharedRun,
    /// Total morsels dispatched, worker busy ns, and pool capacity
    /// (spawned workers × dispatch wall ns) — accumulated across
    /// dispatches for utilization metrics.
    morsels_run: Cell<u64>,
    busy_ns: Cell<u64>,
    capacity_ns: Cell<u64>,
}

impl<'a> ParRun<'a> {
    pub(crate) fn new(ex: &'a Executor<'a>) -> ParRun<'a> {
        ParRun {
            ex,
            shared: SharedRun::new(ex.config.max_work, ex.config.parallel.panic_on_morsel),
            morsels_run: Cell::new(0),
            busy_ns: Cell::new(0),
            capacity_ns: Cell::new(0),
        }
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
        if self.ex.telemetry.prof.is_enabled() {
            // Per-morsel and per-worker attribution under the operator
            // phase that dispatched this pool run, weighted like it
            // under root sampling. Derived from the same
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
        assert_eq!(ExecMode::Serial.batch_size(), DEFAULT_BATCH_SIZE);
        assert_eq!(
            ExecMode::Parallel { threads: 2 }.batch_size(),
            DEFAULT_BATCH_SIZE,
            "the pool's in-thread fallback runs default batches"
        );
        assert_eq!(ExecMode::Batched { batch_size: 64 }.batch_size(), 64);
        assert_eq!(
            ExecMode::Batched { batch_size: 0 }.batch_size(),
            1,
            "degenerate batch size clamps to 1"
        );
    }
}
