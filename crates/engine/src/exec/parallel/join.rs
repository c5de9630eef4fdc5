//! Parallel join operators.
//!
//! Each join mirrors its serial counterpart operator-for-operator and
//! charge-for-charge:
//!
//! * upfront operator work is charged on the **exact** meter before any
//!   morsel is dispatched (so hopeless plans abort as early as serially);
//! * workers feed the shared *approximate* accumulator as they emit, so
//!   the budget can cancel dispatch mid-operator;
//! * after the deterministic morsel-order merge, output work is
//!   **replayed** as the exact serial sequence of chunked charges
//!   ([`ChargeCadence::charge_all`]), making the final work value
//!   bit-identical to serial execution.
//!
//! Morsel bodies are the batched kernels' (`probe_range`, `nl_pairs`,
//! gathered key columns), write through the same [`Projection`] and,
//! when it keeps nothing, return only their match counts. The operators
//! borrow their inputs, so `Executor::join_op` can re-run the join
//! in-thread on the same inputs after a worker fault.

use crate::error::Result;
use crate::exec::batch::column::gather_key_range;
use crate::exec::batch::join::{gather_side, nl_pairs, probe_range};
use crate::exec::batch::kernels::KeyTable;
use crate::exec::batch::DEFAULT_BATCH_SIZE;
use crate::exec::compiled::KeySide;
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::parallel::ParRun;
use crate::exec::relation::{Projection, Relation};
use crate::exec::workunits::ChargeCadence;
use crate::plan::physical::JoinAlgo;
use crate::query::expr::JoinCond;

impl ParRun<'_> {
    /// The pool body of `Executor::join_op`, which has already checked
    /// the inputs, rejected non-nested-loop cross products and built
    /// `proj`.
    pub(crate) fn join(
        &self,
        algo: JoinAlgo,
        conds: &[&JoinCond],
        left: &Relation,
        right: &Relation,
        proj: &Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        if conds.is_empty() {
            return self.cross_join(left, right, proj, meter);
        }
        match algo {
            JoinAlgo::Hash => self.hash_join(conds, left, right, proj, meter),
            JoinAlgo::NestedLoop => self.nl_join(conds, left, right, proj, meter),
            JoinAlgo::Merge => self.merge_join(conds, left, right, proj, meter),
        }
    }

    /// Partitioned build, shared read-only probe. Build-side key columns
    /// are gathered per morsel and concatenated in morsel order (equal to
    /// the whole-column gather), one flat [`KeyTable`] is built from
    /// them, and probe morsels run the batched probe kernel against the
    /// read-only table. Chains yield build rows in ascending input order
    /// and probe chunks merge in morsel order, so the emit order is the
    /// serial probe-major order exactly.
    fn hash_join(
        &self,
        conds: &[&JoinCond],
        left: &Relation,
        right: &Relation,
        proj: &Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        let spill = self.ex.hash_spill(left.len());
        meter
            .add((left.len() as f64 * p.hash_build + right.len() as f64 * p.hash_probe) * spill)?;
        self.shared.seed_work(meter.work);

        let lkeys = self.ex.key_side(self.query, left, conds)?;
        let rkeys = self.ex.key_side(self.query, right, conds)?;
        let lkeys = &lkeys;
        let gathers = self.dispatch(left.len(), "HashJoin", move |_, range| {
            lkeys
                .cols
                .iter()
                .map(|&(slot, data)| gather_key_range(left, slot, data, range.clone()))
                .collect::<Vec<_>>()
        })?;
        let mut lcols: Vec<Vec<i64>> = vec![Vec::with_capacity(left.len()); lkeys.cols.len()];
        for gather in gathers {
            for (c, col) in gather.into_iter().enumerate() {
                lcols[c].extend(col);
            }
        }
        let table = KeyTable::build(&lcols);
        drop(lcols);

        let (table, rkeys) = (&table, &rkeys);
        let shared = &self.shared;
        let chunks = self.dispatch(right.len(), "HashJoin", move |_, range| {
            let mut rows: Vec<u32> = Vec::new();
            let emitted = probe_range(
                table,
                left,
                right,
                rkeys,
                proj,
                range,
                DEFAULT_BATCH_SIZE,
                &mut rows,
            );
            shared.add_approx(p.output_work(emitted as f64, proj.width()));
            (rows, emitted)
        })?;
        let (rows, emitted) = concat_chunks(chunks);
        ChargeCadence::charge_all(emitted, meter, p, proj.width())?;
        Ok(proj.finish(rows, emitted))
    }

    /// Nested-loop join: both sides' key columns are gathered once up
    /// front, and outer morsels run the batched pair loop over them.
    fn nl_join(
        &self,
        conds: &[&JoinCond],
        left: &Relation,
        right: &Relation,
        proj: &Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        let discount = self.ex.nl_discount(right.len());
        meter.add(left.len() as f64 * right.len() as f64 * p.nl_pair * discount)?;
        self.shared.seed_work(meter.work);

        let lcols = gather_side(self.ex, self.query, left, conds)?;
        let rcols = gather_side(self.ex, self.query, right, conds)?;
        let (lcols, rcols) = (&lcols, &rcols);
        let shared = &self.shared;
        let chunks = self.dispatch(left.len(), "NestedLoopJoin", move |_, range| {
            let mut rows: Vec<u32> = Vec::new();
            let emitted = nl_pairs(
                left,
                right,
                lcols,
                rcols,
                proj,
                range,
                &mut rows,
                |_| Ok(()),
            )
            .expect("a pair loop without charges cannot fail");
            shared.add_approx(p.output_work(emitted as f64, proj.width()));
            (rows, emitted)
        })?;
        let (rows, emitted) = concat_chunks(chunks);
        ChargeCadence::charge_all(emitted, meter, p, proj.width())?;
        Ok(proj.finish(rows, emitted))
    }

    fn cross_join(
        &self,
        left: &Relation,
        right: &Relation,
        proj: &Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        let out = left.len() as f64 * right.len() as f64;
        // Serial charges the cross product in one upfront add; match it.
        meter.add(out * p.nl_pair + p.output_work(out, proj.width()))?;
        self.shared.seed_work(meter.work);
        let chunks = self.dispatch(left.len(), "NestedLoopJoin", move |_, range| {
            let mut rows: Vec<u32> = Vec::new();
            if !proj.counts_only() {
                for i in range.clone() {
                    for j in 0..right.len() {
                        proj.emit(&mut rows, left.tuple(i), right.tuple(j));
                    }
                }
            }
            (rows, range.len() * right.len())
        })?;
        let (rows, emitted) = concat_chunks(chunks);
        Ok(proj.finish(rows, emitted))
    }

    /// Merge join: key extraction is parallel (order-preserving because
    /// per-morsel extractions are concatenated in morsel order); the sort
    /// and the merge phase reuse the serial implementation verbatim, so
    /// charges and output are identical by construction.
    fn merge_join(
        &self,
        conds: &[&JoinCond],
        left: &Relation,
        right: &Relation,
        proj: &Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        meter.add(
            p.sort_work(left.len() as f64)
                + p.sort_work(right.len() as f64)
                + (left.len() + right.len()) as f64 * p.merge_tuple,
        )?;
        self.shared.seed_work(meter.work);

        let lkeys = self.ex.key_side(self.query, left, conds)?;
        let rkeys = self.ex.key_side(self.query, right, conds)?;
        let (lkeys, rkeys) = (&lkeys, &rkeys);
        let lext = self.dispatch(left.len(), "MergeJoin", move |_, range| {
            extract_keys(left, lkeys, range)
        })?;
        let rext = self.dispatch(right.len(), "MergeJoin", move |_, range| {
            extract_keys(right, rkeys, range)
        })?;
        let mut lsorted: Vec<(Vec<i64>, u32)> = lext.into_iter().flatten().collect();
        let mut rsorted: Vec<(Vec<i64>, u32)> = rext.into_iter().flatten().collect();
        lsorted.sort_unstable();
        rsorted.sort_unstable();
        Executor::merge_phase(p, left, right, &lsorted, &rsorted, proj, meter)
    }
}

/// Extract `(key, input index)` sort pairs for one merge-join morsel,
/// gathering the key columns of the range first (one columnar pass per
/// condition). The index makes the subsequent sort order unique.
fn extract_keys(
    rel: &Relation,
    keys: &KeySide<'_>,
    range: std::ops::Range<usize>,
) -> Vec<(Vec<i64>, u32)> {
    let cols: Vec<Vec<i64>> = keys
        .cols
        .iter()
        .map(|&(slot, data)| gather_key_range(rel, slot, data, range.clone()))
        .collect();
    (0..range.len())
        .map(|k| {
            let key: Vec<i64> = cols.iter().map(|c| c[k]).collect();
            (key, (range.start + k) as u32)
        })
        .collect()
}

/// Concatenate per-morsel `(rows, emitted)` chunks in morsel order.
fn concat_chunks(chunks: Vec<(Vec<u32>, usize)>) -> (Vec<u32>, usize) {
    let mut rows = Vec::new();
    let mut emitted = 0usize;
    for (c, e) in chunks {
        rows.extend(c);
        emitted += e;
    }
    (rows, emitted)
}
