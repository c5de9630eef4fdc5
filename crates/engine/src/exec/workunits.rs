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
/// budget trip raises the same error at the same charge. A lump's
/// blocks go through [`add_repeated`], so a weighted lump of 2^63
/// tuples costs a few additions per binade of the sum, not 2^47.
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
        let blocks = (self.emitted - self.charged) / 65_536;
        self.charged += blocks * 65_536;
        add_repeated(meter, self.work(65_536), blocks as u64)
    }

    /// Issue the end-of-operator remainder charge; returns the operator's
    /// output tuple count.
    pub(crate) fn finish(self, meter: &mut WorkMeter) -> Result<usize> {
        meter.add(self.work((self.emitted % 65_536) as u128))?;
        Ok(self.emitted)
    }
}

/// Charge `w` to `meter` `k` times: exactly `for _ in 0..k {
/// meter.add(w)? }` — the same bits, and under a budget the same error
/// at the same charge — in a number of real additions that grows with
/// the binades the sum crosses, not with `k`.
///
/// While the sum `S` stays within one binade `[2^e, 2^(e+1))`, every
/// value is a multiple of its ulp `u`, so `fl(S + w) = S + round_u(w)`
/// with a constant increment — except that a `w` exactly halfway
/// between multiples of `u` rounds to the even neighbour, after which
/// `S/u` is even and the increment is constant again. So once two
/// consecutive real additions stayed in one binade, the second one's
/// increment `d` repeats until the binade's top: a run of `n` further
/// steps lands exactly on `S + n·d`, and a budget's first trip inside
/// the run is the first `S + j·d` above it. Runs end a step short of
/// the top (and of a trip), which a real addition then crosses; a sum
/// that no longer moves (`fl(S + w) == S`) stays put for good.
pub(crate) fn add_repeated(meter: &mut WorkMeter, w: f64, mut k: u64) -> Result<()> {
    const MANTISSA: u64 = (1 << 52) - 1;
    // Whether the last real addition started and ended in one binade.
    let mut in_binade = false;
    while k > 0 {
        let before = meter.work;
        meter.add(w)?;
        k -= 1;
        let after = meter.work;
        if after.to_bits() == before.to_bits() {
            return Ok(());
        }
        let same_binade = w > 0.0
            && before.is_normal()
            && before > 0.0
            && after.is_normal()
            && before.to_bits() >> 52 == after.to_bits() >> 52;
        if !(same_binade && in_binade) {
            in_binade = same_binade;
            continue;
        }
        // Mantissas with the implicit bit, in units of the binade's ulp.
        let bits = after.to_bits();
        let start = (bits & MANTISSA) | (1 << 52);
        let d = start - ((before.to_bits() & MANTISSA) | (1 << 52));
        // Steps whose sum stays below the binade's top: the exact sum
        // of a step from `S` is at most `S/u + d + 1/2`.
        let mut run = ((1 << 53) - 1 - start) / d;
        if let Some(lim) = meter.limit {
            let top = f64::from_bits(((bits >> 52) + 1) << 52);
            if lim < top {
                // `after ≤ lim < top`: `lim` is in this binade too, a
                // multiple of `u`; steps ending at or below it pass.
                let lim_units = (lim.to_bits() & MANTISSA) | (1 << 52);
                run = run.min(lim_units.saturating_sub(start) / d);
            }
        }
        let run = run.min(k);
        meter.work = f64::from_bits(bits + run * d);
        k -= run;
    }
    Ok(())
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

    /// What [`add_repeated`] fast-forwards: one real addition per charge.
    /// Returns the index of the tripping charge, if one tripped.
    fn add_each(meter: &mut WorkMeter, w: f64, k: u64) -> Option<u64> {
        (0..k).find(|_| meter.add(w).is_err())
    }

    /// SplitMix64: a seeded stream for the differential below.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn add_repeated_matches_one_addition_per_charge() {
        let mut rng = Mix(0x5eed_cade);
        let p = CostParams::default();
        for case in 0..400 {
            // Charges: the cadence's own block charge, or a multiple of
            // the start's ulp (quarters, so halfway ties come up), or any
            // magnitude.
            let start = match rng.below(4) {
                0 => 0.0,
                _ => (rng.unit() + 0.5) * 2f64.powi(rng.below(70) as i32),
            };
            let ulp = if start > 0.0 {
                f64::from_bits(start.to_bits() + 1) - start
            } else {
                1.0
            };
            let w = match rng.below(3) {
                0 => p.output_work(65_536.0, 2 + rng.below(7) as usize),
                1 => ulp * (rng.below(256) as f64 / 4.0),
                _ => (rng.unit() + 0.5) * 2f64.powi(rng.below(40) as i32),
            };
            let span = if rng.below(4) == 0 { 1 << 20 } else { 1 << 12 };
            let k = 1 + rng.below(span);
            // Budgets: none, one landing exactly on a reachable sum (a
            // sum equal to the limit passes), and its neighbours.
            let mut reach = WorkMeter {
                work: start,
                limit: None,
            };
            add_each(&mut reach, w, rng.below(k + 1));
            let exact = reach.work;
            let limits = [
                None,
                Some(exact),
                Some(f64::from_bits(exact.to_bits() + 1)),
                Some(exact - ulp.max(exact * 1e-12)),
            ];
            for limit in limits {
                let mut want = WorkMeter { work: start, limit };
                let trip = add_each(&mut want, w, k);
                let mut got = WorkMeter { work: start, limit };
                let res = add_repeated(&mut got, w, k);
                let ctx = format!("case {case}: start {start:e} w {w:e} k {k} limit {limit:?}");
                assert_eq!(got.work.to_bits(), want.work.to_bits(), "{ctx}");
                assert_eq!(res.is_err(), trip.is_some(), "{ctx}");
                if let Some(j) = trip {
                    // The same charge trips: j charges pass, the next fails.
                    let mut short = WorkMeter { work: start, limit };
                    assert!(add_repeated(&mut short, w, j).is_ok(), "{ctx}");
                    assert!(add_repeated(&mut short, w, 1).is_err(), "{ctx}");
                }
            }
        }
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
