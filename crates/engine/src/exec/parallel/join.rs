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
//! Morsel bodies write through the same [`Projection`] as the serial
//! kernels and, when it keeps nothing, return only their match counts.

use std::collections::HashMap;
use std::hash::Hash;

use crate::error::{EngineError, Result};
use crate::exec::batch::column::{gather_key_column, gather_key_range};
use crate::exec::batch::join::{nl_pairs, probe_range};
use crate::exec::batch::kernels::KeyTable;
use crate::exec::compiled::KeySide;
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::parallel::ParRun;
use crate::exec::relation::{Projection, Relation};
use crate::exec::workunits::ChargeCadence;
use crate::plan::physical::JoinAlgo;
use crate::query::expr::JoinCond;
use crate::query::table_set::TableSet;

impl ParRun<'_> {
    pub(crate) fn join(
        &self,
        algo: JoinAlgo,
        left: Relation,
        right: Relation,
        keep: TableSet,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        crate::exec::relation::check_row_ids(left.len(), "join left input")?;
        crate::exec::relation::check_row_ids(right.len(), "join right input")?;
        let conds = self.query.joins_between(left.tables(), right.tables());
        let proj = Projection::new(&left, &right, keep);
        if conds.is_empty() {
            if algo != JoinAlgo::NestedLoop {
                return Err(EngineError::InvalidPlan(format!(
                    "{algo} requires at least one equi-join condition (cross products \
                     must use NestedLoopJoin)"
                )));
            }
            return self.cross_join(left, right, proj, meter);
        }
        match algo {
            JoinAlgo::Hash => self.hash_join(&conds, left, right, proj, meter),
            JoinAlgo::NestedLoop => self.nl_join(&conds, left, right, proj, meter),
            JoinAlgo::Merge => self.merge_join(&conds, left, right, proj, meter),
        }
    }

    fn hash_join(
        &self,
        conds: &[&JoinCond],
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        let spill = self.ex.hash_spill(left.len());
        meter
            .add((left.len() as f64 * p.hash_build + right.len() as f64 * p.hash_probe) * spill)?;
        self.shared.seed_work(meter.work);

        let lkeys = self.ex.key_side(self.query, &left, conds)?;
        let rkeys = self.ex.key_side(self.query, &right, conds)?;
        let (rows, emitted) = if let Some(batch) = self.batch {
            self.hash_join_batched(&left, &right, &proj, &lkeys, &rkeys, batch)?
        } else if conds.len() == 1 {
            self.hash_join_keyed(&left, &right, &proj, &lkeys, &rkeys, |ks, t| {
                ks.single_key(t)
            })?
        } else {
            self.hash_join_keyed(&left, &right, &proj, &lkeys, &rkeys, |ks, t| {
                ks.multi_key(t)
            })?
        };
        ChargeCadence::charge_all(emitted, meter, p, proj.width())?;
        Ok(proj.finish(rows, emitted))
    }

    /// Batched-parallel hash join: build-side key columns are gathered
    /// per morsel and concatenated in morsel order (equal to the
    /// whole-column gather), one flat [`KeyTable`] is built from them,
    /// and probe morsels run the shared batched probe kernel against the
    /// read-only table. Chains yield build rows in ascending input order
    /// and probe chunks merge in morsel order, so the emit order is the
    /// serial probe-major order exactly.
    fn hash_join_batched(
        &self,
        left: &Relation,
        right: &Relation,
        proj: &Projection,
        lkeys: &KeySide<'_>,
        rkeys: &KeySide<'_>,
        batch: usize,
    ) -> Result<(Vec<u32>, usize)> {
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

        let table = &table;
        let shared = &self.shared;
        let params = &self.ex.config.params;
        let chunks = self.dispatch(right.len(), "HashJoin", move |_, range| {
            let mut rows: Vec<u32> = Vec::new();
            let emitted = probe_range(table, left, right, rkeys, proj, range, batch, &mut rows);
            shared.add_approx(params.output_work(emitted as f64, proj.width()));
            (rows, emitted)
        })?;
        Ok(concat_chunks(chunks))
    }

    /// Partitioned build, shared read-only probe.
    ///
    /// Build morsels each construct a local key→rows map over their
    /// ascending slice; local maps are merged **in morsel order**, so each
    /// key's row vector is in ascending build-input order — the serial
    /// insertion order. Probe morsels then scan ascending probe ranges
    /// against the shared table; concatenating their outputs in morsel
    /// order reproduces the serial probe-major emit order exactly.
    fn hash_join_keyed<K, F>(
        &self,
        left: &Relation,
        right: &Relation,
        proj: &Projection,
        lkeys: &KeySide<'_>,
        rkeys: &KeySide<'_>,
        key: F,
    ) -> Result<(Vec<u32>, usize)>
    where
        K: Eq + Hash + Send + Sync,
        F: Fn(&KeySide<'_>, &[u32]) -> K + Sync,
    {
        let key = &key;
        let locals = self.dispatch(left.len(), "HashJoin", move |_, range| {
            let mut m: HashMap<K, Vec<u32>> = HashMap::new();
            for i in range {
                m.entry(key(lkeys, left.tuple(i)))
                    .or_default()
                    .push(i as u32);
            }
            m
        })?;
        let mut table: HashMap<K, Vec<u32>> = HashMap::new();
        for local in locals {
            for (k, v) in local {
                table.entry(k).or_default().extend(v);
            }
        }

        let table = &table;
        let shared = &self.shared;
        let params = &self.ex.config.params;
        let chunks = self.dispatch(right.len(), "HashJoin", move |_, range| {
            let mut rows: Vec<u32> = Vec::new();
            let mut emitted = 0usize;
            for j in range {
                let rt = right.tuple(j);
                if let Some(matches) = table.get(&key(rkeys, rt)) {
                    if !proj.counts_only() {
                        for &i in matches {
                            proj.emit(&mut rows, left.tuple(i as usize), rt);
                        }
                    }
                    emitted += matches.len();
                }
            }
            shared.add_approx(params.output_work(emitted as f64, proj.width()));
            (rows, emitted)
        })?;
        Ok(concat_chunks(chunks))
    }

    fn nl_join(
        &self,
        conds: &[&JoinCond],
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        let discount = self.ex.nl_discount(right.len());
        meter.add(left.len() as f64 * right.len() as f64 * p.nl_pair * discount)?;
        self.shared.seed_work(meter.work);

        let lkeys = self.ex.key_side(self.query, &left, conds)?;
        let rkeys = self.ex.key_side(self.query, &right, conds)?;
        let width = proj.width();
        let (lkeys, rkeys) = (&lkeys, &rkeys);
        let (lref, rref, pref) = (&left, &right, &proj);
        let shared = &self.shared;
        let chunks = if self.batch.is_some() {
            // Batched morsel body: both sides' key columns are gathered
            // once up front, so the pair loop compares flat `i64`s with
            // no per-pair allocation (the tuple-at-a-time body below
            // allocates two composite keys per pair).
            let lcols: Vec<Vec<i64>> = lkeys
                .cols
                .iter()
                .map(|&(slot, data)| gather_key_column(lref, slot, data))
                .collect();
            let rcols: Vec<Vec<i64>> = rkeys
                .cols
                .iter()
                .map(|&(slot, data)| gather_key_column(rref, slot, data))
                .collect();
            let (lcols, rcols) = (&lcols, &rcols);
            self.dispatch(left.len(), "NestedLoopJoin", move |_, range| {
                let mut rows: Vec<u32> = Vec::new();
                let emitted =
                    nl_pairs(lref, rref, lcols, rcols, pref, range, &mut rows, |_| Ok(()))
                        .expect("a pair loop without charges cannot fail");
                shared.add_approx(p.output_work(emitted as f64, width));
                (rows, emitted)
            })?
        } else {
            self.dispatch(left.len(), "NestedLoopJoin", move |_, range| {
                let mut rows: Vec<u32> = Vec::new();
                let mut emitted = 0usize;
                for i in range {
                    let lt = lref.tuple(i);
                    let lk = lkeys.multi_key(lt);
                    for j in 0..rref.len() {
                        let rt = rref.tuple(j);
                        if lk == rkeys.multi_key(rt) {
                            if !pref.counts_only() {
                                pref.emit(&mut rows, lt, rt);
                            }
                            emitted += 1;
                        }
                    }
                }
                shared.add_approx(p.output_work(emitted as f64, width));
                (rows, emitted)
            })?
        };
        let (rows, emitted) = concat_chunks(chunks);
        ChargeCadence::charge_all(emitted, meter, p, width)?;
        Ok(proj.finish(rows, emitted))
    }

    fn cross_join(
        &self,
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        let out = left.len() as f64 * right.len() as f64;
        // Serial charges the cross product in one upfront add; match it.
        meter.add(out * p.nl_pair + p.output_work(out, proj.width()))?;
        self.shared.seed_work(meter.work);
        let (lref, rref, pref) = (&left, &right, &proj);
        let chunks = self.dispatch(left.len(), "NestedLoopJoin", move |_, range| {
            let mut rows: Vec<u32> = Vec::new();
            if !pref.counts_only() {
                for i in range.clone() {
                    for j in 0..rref.len() {
                        pref.emit(&mut rows, lref.tuple(i), rref.tuple(j));
                    }
                }
            }
            (rows, range.len() * rref.len())
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
        left: Relation,
        right: Relation,
        proj: Projection,
        meter: &mut WorkMeter,
    ) -> Result<Relation> {
        let p = &self.ex.config.params;
        meter.add(
            p.sort_work(left.len() as f64)
                + p.sort_work(right.len() as f64)
                + (left.len() + right.len()) as f64 * p.merge_tuple,
        )?;
        self.shared.seed_work(meter.work);

        let lkeys = self.ex.key_side(self.query, &left, conds)?;
        let rkeys = self.ex.key_side(self.query, &right, conds)?;
        let (lkeys, rkeys) = (&lkeys, &rkeys);
        let (lref, rref) = (&left, &right);
        // Per-morsel key extraction; the batched body gathers the key
        // columns for its range first (one columnar pass per condition)
        // instead of borrowing tuple-by-tuple. Either way the extracted
        // `(key, input index)` pairs are identical, and the index makes
        // the subsequent sort order unique.
        let batched = self.batch.is_some();
        let lext = self.dispatch(left.len(), "MergeJoin", move |_, range| {
            extract_keys(lref, lkeys, batched, range)
        })?;
        let rext = self.dispatch(right.len(), "MergeJoin", move |_, range| {
            extract_keys(rref, rkeys, batched, range)
        })?;
        let mut lsorted: Vec<(Vec<i64>, u32)> = lext.into_iter().flatten().collect();
        let mut rsorted: Vec<(Vec<i64>, u32)> = rext.into_iter().flatten().collect();
        lsorted.sort_unstable();
        rsorted.sort_unstable();
        Executor::merge_phase(p, &left, &right, &lsorted, &rsorted, proj, meter)
    }
}

/// Extract `(key, input index)` sort pairs for one merge-join morsel.
/// The batched body gathers the key columns for the range first (one
/// columnar pass per condition) instead of borrowing tuple-by-tuple;
/// either way the extracted pairs are identical, and the index makes the
/// subsequent sort order unique.
fn extract_keys(
    rel: &Relation,
    keys: &KeySide<'_>,
    batched: bool,
    range: std::ops::Range<usize>,
) -> Vec<(Vec<i64>, u32)> {
    if batched {
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
    } else {
        range
            .map(|i| (keys.multi_key(rel.tuple(i)), i as u32))
            .collect()
    }
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
