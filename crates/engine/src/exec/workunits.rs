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
//! fixed order — per-operator up-front charges, then per-tuple output
//! charges in 64 Ki-tuple blocks as rows are counted. A block is charged
//! for the tuples a join *counts*, at the join's logical width (its
//! tables, not the slots it stores), so a join that only counts its
//! output — the root of [`crate::exec::Executor::execute`] — and one that
//! materializes it issue the same charges. `ChargeCadence` defines that
//! order: every join body and the reference evaluator feed their counts
//! through it, in lumps of any size (a row, a batch, a morsel), and it
//! issues the same operands in the same order — `f64` addition does not
//! associate, so summing lump totals would drift. Any change to the
//! cadence here changes recorded work bit-for-bit.

use crate::error::Result;
use crate::exec::executor::WorkMeter;
use crate::exec::relation::logical_len;

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
}

/// Issues a join's output-work charges: the cadence that defines the
/// charge order of every execution mode.
///
/// An operator charges `output_work(65_536, width)` every time its
/// counted-tuple total crosses a multiple of 65 536, and
/// `output_work(total % 65_536, width)` once at operator end. Kernels
/// count logical tuples in lumps (a hash chain, a merge group, a batch, a
/// morsel, one weighted tuple) and feed each lump through
/// [`ChargeCadence::bump`], which issues the crossing charges in order
/// whatever the lump sizes — so the account is bit-identical however an
/// operator's ranges are run and however its output is weighted, and a
/// budget trip raises the same error at the same charge.
#[derive(Debug)]
pub(crate) struct ChargeCadence<'p> {
    params: &'p CostParams,
    /// The operator's logical output width.
    width: usize,
    /// The operator, named by a count overflow.
    op: &'static str,
    /// Output tuples counted so far.
    emitted: usize,
    /// Tuples already covered by full-block charges.
    charged: usize,
}

impl<'p> ChargeCadence<'p> {
    /// A fresh cadence for one operator `op` of logical output width
    /// `width`.
    pub(crate) fn new(params: &'p CostParams, width: usize, op: &'static str) -> ChargeCadence<'p> {
        ChargeCadence {
            params,
            width,
            op,
            emitted: 0,
            charged: 0,
        }
    }

    /// The output work of `n` tuples at this operator's width.
    pub(crate) fn work(&self, n: u128) -> f64 {
        self.params.output_work(n as f64, self.width)
    }

    /// Record `n` more output tuples, issuing every 65 536-block charge
    /// their count crosses; a total beyond `usize` is a
    /// [`EngineError::CountOverflow`](crate::error::EngineError::CountOverflow).
    pub(crate) fn bump(&mut self, n: u128, meter: &mut WorkMeter) -> Result<()> {
        self.emitted = logical_len(self.emitted as u128 + n, self.op)?;
        while self.charged + 65_536 <= self.emitted {
            self.charged += 65_536;
            meter.add(self.work(65_536))?;
        }
        Ok(())
    }

    /// Issue the end-of-operator remainder charge; returns the operator's
    /// output tuple count.
    pub(crate) fn finish(self, meter: &mut WorkMeter) -> Result<usize> {
        meter.add(self.work((self.emitted % 65_536) as u128))?;
        Ok(self.emitted)
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
    fn merge_includes_both_sorts() {
        let p = CostParams::default();
        let m = p.merge_join_work(100.0, 200.0, 10.0, 2);
        assert!(m >= p.sort_work(100.0) + p.sort_work(200.0));
    }

    #[test]
    fn cadence_counts_beyond_usize_fail_typed() {
        let p = CostParams::default();
        let mut meter = WorkMeter::new(None);
        let mut cadence = ChargeCadence::new(&p, 2, "HashJoin");
        cadence.bump(65_535, &mut meter).unwrap();
        let left = usize::MAX as u128 - 65_535;
        // One past the largest count fails before any block is charged.
        let err = cadence.bump(left + 1, &mut meter).unwrap_err();
        assert_eq!(
            err,
            crate::error::EngineError::CountOverflow { op: "HashJoin" }
        );
        assert_eq!(meter.work(), 0.0);
        assert_eq!(logical_len(usize::MAX as u128, "x").unwrap(), usize::MAX);
        assert!(logical_len(u128::MAX, "x").is_err());
    }

    #[test]
    fn charge_cadence_replays_serial_blocks() {
        let p = CostParams::default();
        let width = 2;
        // Row loop: charge per emitted row at 65 536 multiples.
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
        let mut cadence = ChargeCadence::new(&p, width, "test");
        for lump in [1u128, 65_535, 2, 70_000, 14_462] {
            cadence.bump(lump, &mut meter).unwrap();
        }
        assert_eq!(cadence.finish(&mut meter).unwrap(), 150_000);
        assert_eq!(meter.work().to_bits(), serial.work().to_bits());
        // One lump of everything replays the same sequence.
        let mut once = WorkMeter::new(None);
        let mut cadence = ChargeCadence::new(&p, width, "test");
        cadence.bump(150_000, &mut once).unwrap();
        cadence.finish(&mut once).unwrap();
        assert_eq!(once.work().to_bits(), serial.work().to_bits());
    }
}
