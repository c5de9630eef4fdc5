//! Work-unit cost parameters.
//!
//! The executor charges *work units* for every tuple it touches; the sum is
//! the engine's deterministic, machine-independent notion of latency. The
//! native cost model (see [`crate::optimizer::cost`]) predicts cost with the
//! same per-tuple constants but — deliberately — **without** the runtime
//! effects (`hash spill`, `nested-loop cache discount`): just as a real
//! DBMS's analytical cost model abstracts away caches and memory pressure,
//! our native model is a biased approximation of true execution cost. That
//! residual bias is what learned cost models (and end-to-end learned
//! optimizers) can exploit.
//!
//! **Charging-cadence contract.** The work account is part of the
//! executor's determinism guarantee (the row-ordering half lives in
//! [`crate::exec::executor`]'s module docs): charges are accumulated in a
//! fixed serial order — per-operator up-front charges, then per-tuple
//! output charges in 64 Ki-tuple blocks as rows are produced. A block is
//! charged for the tuples a join *counts*, at the join's logical width
//! (its tables, not the slots it stores), so a join that only counts its
//! output — the root of [`crate::exec::Executor::execute`] — and one that
//! materializes it issue the same charges. Every join kernel feeds its
//! counts through `ChargeCadence`; `f64` addition does not associate, so
//! batched and parallel kernels, which count in lumps, rely on it to
//! replay the exact operand sequence rather than summing lump totals.
//! Any change to the cadence here changes recorded work bit-for-bit.

use crate::error::Result;
use crate::exec::executor::WorkMeter;

/// Per-tuple cost constants shared by the executor and the native cost
/// model, plus executor-only runtime effects.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Cost of scanning one base tuple.
    pub scan_tuple: f64,
    /// Extra cost per predicate evaluated per tuple.
    pub pred_eval: f64,
    /// Cost of inserting one tuple into a hash table.
    pub hash_build: f64,
    /// Cost of probing the hash table with one tuple.
    pub hash_probe: f64,
    /// Cost of one nested-loop pair comparison.
    pub nl_pair: f64,
    /// Cost per tuple per `log2(n)` of sorting.
    pub sort_tuple: f64,
    /// Cost of advancing one tuple through the merge phase.
    pub merge_tuple: f64,
    /// Cost of materializing one output tuple, per unit of width.
    pub output_tuple: f64,

    // --- runtime-only effects, invisible to the native cost model ---
    /// Hash tables above this many build rows "spill": build+probe work is
    /// multiplied by [`CostParams::spill_factor`].
    pub hash_mem_rows: usize,
    /// Multiplier applied when a hash join spills.
    pub spill_factor: f64,
    /// Nested-loop inner relations at most this large are "cache resident".
    pub nl_cache_rows: usize,
    /// Pair-cost multiplier for cache-resident inner relations.
    pub nl_cache_discount: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            scan_tuple: 1.0,
            pred_eval: 0.2,
            hash_build: 1.5,
            hash_probe: 1.0,
            nl_pair: 0.8,
            sort_tuple: 0.4,
            merge_tuple: 0.6,
            output_tuple: 0.3,
            hash_mem_rows: 100_000,
            spill_factor: 2.5,
            nl_cache_rows: 1_000,
            nl_cache_discount: 0.3,
        }
    }
}

impl CostParams {
    /// Work to scan `n` rows evaluating `p` predicates each.
    pub fn scan_work(&self, n: f64, p: usize) -> f64 {
        n * (self.scan_tuple + self.pred_eval * p as f64)
    }

    /// Analytical (spill-free) hash-join work.
    pub fn hash_join_work(&self, build: f64, probe: f64, out: f64, width: usize) -> f64 {
        build * self.hash_build + probe * self.hash_probe + self.output_work(out, width)
    }

    /// Analytical nested-loop work (no cache discount).
    pub fn nl_join_work(&self, outer: f64, inner: f64, out: f64, width: usize) -> f64 {
        outer * inner * self.nl_pair + self.output_work(out, width)
    }

    /// Analytical merge-join work (sorts both inputs).
    pub fn merge_join_work(&self, left: f64, right: f64, out: f64, width: usize) -> f64 {
        self.sort_work(left)
            + self.sort_work(right)
            + (left + right) * self.merge_tuple
            + self.output_work(out, width)
    }

    /// `n log2 n` sort work.
    pub fn sort_work(&self, n: f64) -> f64 {
        if n <= 1.0 {
            0.0
        } else {
            n * n.log2() * self.sort_tuple
        }
    }

    /// Cost of materializing `out` tuples of `width` joined tables.
    pub fn output_work(&self, out: f64, width: usize) -> f64 {
        out * self.output_tuple * width as f64
    }

    /// Predicted wall-clock scaling of `work` units on `threads` workers
    /// under Amdahl's law with serial fraction
    /// [`PARALLEL_SERIAL_FRACTION`]. This is a *planning hook* for
    /// latency-aware components choosing between serial and parallel
    /// execution; the deterministic work-unit account itself is
    /// mode-independent by construction.
    pub fn parallel_work(&self, work: f64, threads: usize) -> f64 {
        let t = threads.max(1) as f64;
        work * (PARALLEL_SERIAL_FRACTION + (1.0 - PARALLEL_SERIAL_FRACTION) / t)
    }
}

/// Fraction of operator work that does not parallelize (coordination,
/// morsel dispatch, build-table merge, final concatenation). Used by
/// [`CostParams::parallel_work`].
pub const PARALLEL_SERIAL_FRACTION: f64 = 0.08;

/// Issues a join's output-work charges in the serial cadence.
///
/// The reference row loop charges `output_work(65_536, width)` every time
/// its emitted-tuple counter crosses a multiple of 65 536, and
/// `output_work(emitted % 65_536, width)` once at operator end. Kernels
/// count tuples in lumps (a hash chain, a merge group, a batch, a morsel)
/// and feed each lump through [`ChargeCadence::bump`], which issues
/// exactly the crossing charges the row loop would have issued — same
/// values, same order — so accumulated work stays bit-identical and a
/// budget trip raises the same error at the same charge.
#[derive(Debug, Default)]
pub(crate) struct ChargeCadence {
    /// Output tuples counted so far.
    emitted: usize,
    /// Tuples already covered by full-block charges.
    charged: usize,
}

impl ChargeCadence {
    /// A fresh cadence for one operator.
    pub(crate) fn new() -> ChargeCadence {
        ChargeCadence::default()
    }

    /// Record `n` more output tuples, issuing any 65 536-block charges
    /// the row loop would have issued while producing them.
    pub(crate) fn bump(
        &mut self,
        n: usize,
        meter: &mut WorkMeter,
        p: &CostParams,
        width: usize,
    ) -> Result<()> {
        self.emitted += n;
        while self.charged + 65_536 <= self.emitted {
            self.charged += 65_536;
            meter.add(p.output_work(65_536.0, width))?;
        }
        Ok(())
    }

    /// Issue the end-of-operator remainder charge; returns the operator's
    /// output tuple count.
    pub(crate) fn finish(
        self,
        meter: &mut WorkMeter,
        p: &CostParams,
        width: usize,
    ) -> Result<usize> {
        meter.add(p.output_work((self.emitted % 65_536) as f64, width))?;
        Ok(self.emitted)
    }

    /// Every charge of an operator that produced `n` tuples, issued at
    /// once (the parallel kernels count first and charge after merging).
    pub(crate) fn charge_all(
        n: usize,
        meter: &mut WorkMeter,
        p: &CostParams,
        width: usize,
    ) -> Result<()> {
        let mut cadence = ChargeCadence::new();
        cadence.bump(n, meter, p, width)?;
        cadence.finish(meter, p, width).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_work_scales_with_predicates() {
        let p = CostParams::default();
        assert_eq!(p.scan_work(100.0, 0), 100.0);
        assert!(p.scan_work(100.0, 2) > p.scan_work(100.0, 0));
    }

    #[test]
    fn nl_quadratic_vs_hash_linear() {
        let p = CostParams::default();
        let hash = p.hash_join_work(1_000.0, 1_000.0, 100.0, 2);
        let nl = p.nl_join_work(1_000.0, 1_000.0, 100.0, 2);
        assert!(nl > 10.0 * hash);
    }

    #[test]
    fn sort_work_degenerate() {
        let p = CostParams::default();
        assert_eq!(p.sort_work(0.0), 0.0);
        assert_eq!(p.sort_work(1.0), 0.0);
        assert!(p.sort_work(1024.0) > 0.0);
    }

    #[test]
    fn parallel_work_amdahl_bounds() {
        let p = CostParams::default();
        assert_eq!(p.parallel_work(1000.0, 1), 1000.0);
        let w4 = p.parallel_work(1000.0, 4);
        let w8 = p.parallel_work(1000.0, 8);
        // Monotone in threads, bounded below by the serial fraction.
        assert!(w4 < 1000.0 && w8 < w4);
        assert!(w8 > 1000.0 * PARALLEL_SERIAL_FRACTION);
        assert_eq!(p.parallel_work(1000.0, 0), 1000.0);
    }

    #[test]
    fn merge_includes_both_sorts() {
        let p = CostParams::default();
        let m = p.merge_join_work(100.0, 200.0, 10.0, 2);
        assert!(m >= p.sort_work(100.0) + p.sort_work(200.0));
    }

    #[test]
    fn charge_cadence_replays_serial_blocks() {
        let p = CostParams::default();
        let width = 2;
        // Serial reference: charge per emitted row at 65 536 multiples.
        let mut serial = WorkMeter::new(None);
        let mut emitted = 0usize;
        for _ in 0..150_000 {
            emitted += 1;
            if emitted.is_multiple_of(65_536) {
                serial.add(p.output_work(65_536.0, width)).unwrap();
            }
        }
        serial
            .add(p.output_work((emitted % 65_536) as f64, width))
            .unwrap();
        // Cadence replay in uneven lumps, including lumps spanning more
        // than one block boundary.
        let mut meter = WorkMeter::new(None);
        let mut cadence = ChargeCadence::new();
        for lump in [1usize, 65_535, 2, 70_000, 14_462] {
            cadence.bump(lump, &mut meter, &p, width).unwrap();
        }
        assert_eq!(cadence.finish(&mut meter, &p, width).unwrap(), 150_000);
        assert_eq!(meter.work().to_bits(), serial.work().to_bits());
        // One lump of everything replays the same sequence.
        let mut once = WorkMeter::new(None);
        ChargeCadence::charge_all(150_000, &mut once, &p, width).unwrap();
        assert_eq!(once.work().to_bits(), serial.work().to_bits());
    }
}
