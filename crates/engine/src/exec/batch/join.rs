//! The join operators: one production body per join kind.
//!
//! Each body charges its upfront operator work on the exact meter, then
//! runs its input ranges on the [`Runner`] the mode picked, emitting in
//! the canonical order documented on [`crate::exec::executor`] and
//! charging its counted logical output through a [`ChargeCadence`].
//! Bodies read their inputs' weights and write through a [`Projection`],
//! whose [`keeps`](Projection::keeps) picks what they iterate: a join
//! that keeps slots of both sides emits pairs weighted by the product of
//! their weights, one that keeps one side emits each surviving tuple of
//! that side once, weighted by its matches (see
//! [`crate::exec::relation`]), and one that keeps nothing is the same
//! collapse with nothing stored. They borrow their inputs, so
//! `Executor::join_op` can re-run one in-thread after a contained worker
//! fault. Ranges run over stored tuples; every charge reads logical
//! counts.
//!
//! * **Hash join** builds a [`KeyTable`] over the left input's key
//!   columns, gathered one range at a time. Pairs and the probe-side
//!   collapse probe it range by range over gathered right-side keys,
//!   the collapse reading each key's build weight from the table; the
//!   build-side collapse sums probe weights per key, then walks the
//!   build tuples in ascending order.
//! * **Nested-loop join** gathers both sides' key columns once and runs
//!   outer (left) ranges over plain `i64`s: pairs, or per outer tuple the
//!   summed weight of its inner matches. A collapse onto the inner side
//!   accumulates matching outer weights per inner tuple, then walks the
//!   inner side in order.
//! * **Cross product** is one upfront charge (pairs and output) and a
//!   range loop over the kept side, or only the product of the input
//!   counts.
//! * **Merge join** extracts `(key, index)` sort pairs range by range,
//!   sorts them in-thread and merges in-thread: the merge is sequential.

use std::ops::Range;

use crate::error::Result;
use crate::exec::batch::column::gather_keys;
use crate::exec::batch::kernels::KeyTable;
use crate::exec::compiled::KeySide;
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::relation::{logical_len, Projection, Relation, Tuples};
use crate::exec::runner::Runner;
use crate::exec::workunits::ChargeCadence;
use crate::plan::physical::JoinAlgo;
use crate::query::expr::JoinCond;
use crate::query::spj::SpjQuery;

/// The inputs of one join, as `Executor::join_op` validated them.
pub(crate) struct JoinInputs<'a> {
    pub(crate) ex: &'a Executor<'a>,
    pub(crate) query: &'a SpjQuery,
    /// The conditions between the two sides; empty for a cross product.
    pub(crate) conds: &'a [&'a JoinCond],
    pub(crate) left: &'a Relation,
    pub(crate) right: &'a Relation,
    pub(crate) proj: &'a Projection,
}

/// Run the join `algo` over `inp` on `runner`.
pub(crate) fn join(
    algo: JoinAlgo,
    inp: &JoinInputs<'_>,
    runner: &Runner<'_>,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    if inp.conds.is_empty() {
        return cross_join(inp, runner, meter);
    }
    match algo {
        JoinAlgo::Hash => hash_join(inp, runner, meter),
        JoinAlgo::NestedLoop => nl_join(inp, runner, meter),
        JoinAlgo::Merge => merge_join(inp, runner, meter),
    }
}

/// Hash join: a [`KeyTable`] over the left input, probed with the right.
/// Pairs and the probe-side collapse emit probe-major, pairs with
/// ascending build rows per probe tuple; the build-side collapse emits
/// in ascending build order.
fn hash_join(inp: &JoinInputs<'_>, runner: &Runner<'_>, meter: &mut WorkMeter) -> Result<Relation> {
    let (left, right, proj) = (inp.left, inp.right, inp.proj);
    let p = inp.ex.params();
    let spill = inp.ex.hash_spill(left.len());
    meter.add((left.len() as f64 * p.hash_build + right.len() as f64 * p.hash_probe) * spill)?;

    let lside = inp.ex.key_side(inp.query, left, inp.conds)?;
    let rside = inp.ex.key_side(inp.query, right, inp.conds)?;
    let table = KeyTable::build(left, &lside, runner)?;
    let mut cadence = ChargeCadence::new(p, proj.width(), "HashJoin");
    let mut out = Tuples::default();
    match proj.keeps() {
        (true, false) => {
            let probed = probe_weights(&table, right, &rside, runner)?;
            let body = |range: Range<usize>, out: &mut Tuples| {
                let keys = gather_keys(left, &lside, range.clone());
                let mut n = 0;
                for (i, key) in range.zip(keys.chunks_exact(lside.cols.len())) {
                    let slot = table.find(key).expect("a build key finds its own slot");
                    let w = left.weight(i) as u128 * probed[slot] as u128;
                    n += w;
                    if w > 0 {
                        proj.emit(out, left.tuple(i), &[], w);
                    }
                }
                n
            };
            runner.emit(
                left.physical_len(),
                "HashJoin",
                Some(&mut cadence),
                meter,
                &mut out,
                body,
            )?;
        }
        (pairs, _) => {
            let body = |range: Range<usize>, out: &mut Tuples| {
                probe_range(&table, left, right, &rside, proj, pairs, range, out)
            };
            runner.emit(
                right.physical_len(),
                "HashJoin",
                Some(&mut cadence),
                meter,
                &mut out,
                body,
            )?;
        }
    }
    let len = cadence.finish(meter)?;
    Ok(proj.finish(out, len))
}

/// The summed weight of the probe tuples of each slot of `table`: the
/// per-key accumulator of the build-side collapse, filled in probe order.
fn probe_weights(
    table: &KeyTable,
    right: &Relation,
    rside: &KeySide<'_>,
    runner: &Runner<'_>,
) -> Result<Vec<u64>> {
    let mut probed = vec![0u64; table.capacity()];
    let find = |range: Range<usize>| -> Vec<Option<usize>> {
        let keys = gather_keys(right, rside, range);
        keys.chunks_exact(rside.cols.len())
            .map(|key| table.find(key))
            .collect()
    };
    runner.each(right.physical_len(), "HashJoin", find, |range, slots| {
        for (j, slot) in range.zip(slots) {
            if let Some(slot) = slot {
                // Bounded by the probe side's logical count.
                probed[slot] += right.weight(j);
            }
        }
    })?;
    Ok(probed)
}

/// Probe `range` of the probe side against `table`, gathering its keys
/// first, and append the output to `out` in probe-major order: with
/// `pairs`, every matching (build, probe) pair; otherwise each matching
/// probe tuple once, weighted by its key's build weight. Returns the
/// logical output count.
#[allow(clippy::too_many_arguments)]
fn probe_range(
    table: &KeyTable,
    left: &Relation,
    right: &Relation,
    rside: &KeySide<'_>,
    proj: &Projection,
    pairs: bool,
    range: Range<usize>,
    out: &mut Tuples,
) -> u128 {
    let keys = gather_keys(right, rside, range.clone());
    let probes = range.zip(keys.chunks_exact(rside.cols.len()));
    let mut n = 0;
    if pairs {
        for (j, key) in probes {
            let rt = right.tuple(j);
            for i in table.probe(key) {
                let i = i as usize;
                let w = || left.weight(i) as u128 * right.weight(j) as u128;
                n += proj.pair(out, left.tuple(i), rt, w);
            }
        }
    } else {
        // Most probes of a selective build miss: the sum is branch-free,
        // and only an output that stores tuples tests for a hit.
        let stores = proj.stores();
        for (j, key) in probes {
            let w = right.weight(j) as u128 * table.weight(key) as u128;
            n += w;
            if stores && w > 0 {
                proj.emit(out, &[], right.tuple(j), w);
            }
        }
    }
    n
}

/// Nested-loop join: both sides' key columns are gathered once, so the
/// pair loop compares flat `i64`s. Pairs emit outer-major; a collapse
/// emits its kept side in input order.
fn nl_join(inp: &JoinInputs<'_>, runner: &Runner<'_>, meter: &mut WorkMeter) -> Result<Relation> {
    let (left, right, proj) = (inp.left, inp.right, inp.proj);
    let p = inp.ex.params();
    let discount = inp.ex.nl_discount(right.len());
    // Charge pair work up front so hopeless plans abort immediately.
    meter.add(left.len() as f64 * right.len() as f64 * p.nl_pair * discount)?;

    let lside = inp.ex.key_side(inp.query, left, inp.conds)?;
    let rside = inp.ex.key_side(inp.query, right, inp.conds)?;
    let stride = lside.cols.len();
    let lkeys = gather_keys(left, &lside, 0..left.physical_len());
    let rkeys = gather_keys(right, &rside, 0..right.physical_len());
    fn key(keys: &[i64], stride: usize, i: usize) -> &[i64] {
        &keys[i * stride..(i + 1) * stride]
    }
    let mut cadence = ChargeCadence::new(p, proj.width(), "NestedLoopJoin");
    let mut out = Tuples::default();
    let mut run = |n: usize, body: &(dyn Fn(Range<usize>, &mut Tuples) -> u128 + Sync)| {
        runner.emit(
            n,
            "NestedLoopJoin",
            Some(&mut cadence),
            meter,
            &mut out,
            body,
        )
    };
    match proj.keeps() {
        (true, true) => run(left.physical_len(), &|outer, out| {
            let mut n = 0;
            for i in outer {
                let lt = left.tuple(i);
                hits(&rkeys, key(&lkeys, stride, i), |j| {
                    let w = || left.weight(i) as u128 * right.weight(j) as u128;
                    n += proj.pair(out, lt, right.tuple(j), w);
                });
            }
            n
        })?,
        (false, true) => {
            // Σ matching left weights per right tuple, accumulated in
            // outer-major order, then the right side walked in order.
            let mut matched = vec![0u64; right.physical_len()];
            let find = |outer: Range<usize>| {
                let mut found = Vec::new();
                for i in outer {
                    let wi = left.weight(i);
                    hits(&rkeys, key(&lkeys, stride, i), |j| found.push((j, wi)));
                }
                found
            };
            runner.each(left.physical_len(), "NestedLoopJoin", find, |_, found| {
                for (j, wi) in found {
                    // Bounded by the left side's logical count.
                    matched[j] += wi;
                }
            })?;
            run(right.physical_len(), &|inner, out| {
                let mut n = 0;
                for j in inner {
                    let w = right.weight(j) as u128 * matched[j] as u128;
                    n += w;
                    if w > 0 {
                        proj.emit(out, &[], right.tuple(j), w);
                    }
                }
                n
            })?
        }
        (_, false) => run(left.physical_len(), &|outer, out| {
            let (mut n, stores) = (0, proj.stores());
            for i in outer {
                let matched = matched_weight(&rkeys, right.weights(), key(&lkeys, stride, i));
                let w = left.weight(i) as u128 * matched as u128;
                n += w;
                if stores && w > 0 {
                    proj.emit(out, left.tuple(i), &[], w);
                }
            }
            n
        })?,
    };
    let len = cadence.finish(meter)?;
    Ok(proj.finish(out, len))
}

/// The summed weight of the tuples whose row-major `keys` equal `key`,
/// `weights` empty meaning every weight 1: what a nested-loop collapse
/// onto the outer side reads per outer tuple, in a branch-free pass over
/// the inner side. The sum is bounded by that side's logical count.
#[inline(always)]
fn matched_weight(keys: &[i64], weights: &[u64], key: &[i64]) -> u64 {
    match (key, weights.is_empty()) {
        ([k], true) => keys.iter().filter(|&v| v == k).count() as u64,
        ([k], false) => keys
            .iter()
            .zip(weights)
            .map(|(v, &w)| if v == k { w } else { 0 })
            .sum(),
        (_, true) => keys.chunks_exact(key.len()).filter(|&v| v == key).count() as u64,
        (_, false) => keys
            .chunks_exact(key.len())
            .zip(weights)
            .map(|(v, &w)| if v == key { w } else { 0 })
            .sum(),
    }
}

/// Call `hit` with the index of every key of the row-major `keys` equal
/// to `key`, in ascending order.
#[inline(always)]
fn hits(keys: &[i64], key: &[i64], mut hit: impl FnMut(usize)) {
    match key {
        [k] => {
            for (j, _) in keys.iter().enumerate().filter(|(_, v)| *v == k) {
                hit(j);
            }
        }
        _ => {
            let rows = keys.chunks_exact(key.len()).enumerate();
            for (j, _) in rows.filter(|(_, v)| *v == key) {
                hit(j);
            }
        }
    }
}

/// Cross product: pairs and output are charged in one upfront add, then
/// ranges of the kept side emit, outer-major for pairs; an output that
/// keeps nothing is the product of the input counts.
fn cross_join(
    inp: &JoinInputs<'_>,
    runner: &Runner<'_>,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let (left, right, proj) = (inp.left, inp.right, inp.proj);
    let p = inp.ex.params();
    let out = left.len() as f64 * right.len() as f64;
    meter.add(out * p.nl_pair + p.output_work(out, proj.width()))?;
    let mut rows = Tuples::default();
    let mut run = |n: usize, body: &(dyn Fn(Range<usize>, &mut Tuples) -> u128 + Sync)| {
        runner.emit(n, "NestedLoopJoin", None, meter, &mut rows, body)
    };
    let total = match proj.keeps() {
        (true, true) => run(left.physical_len(), &|outer, out| {
            let mut n = 0;
            for i in outer {
                let lt = left.tuple(i);
                for j in 0..right.physical_len() {
                    let w = || left.weight(i) as u128 * right.weight(j) as u128;
                    n += proj.pair(out, lt, right.tuple(j), w);
                }
            }
            n
        })?,
        (true, false) => run(left.physical_len(), &|outer, out| {
            let mut n = 0;
            for i in outer.filter(|_| !right.is_empty()) {
                let w = left.weight(i) as u128 * right.len() as u128;
                proj.emit(out, left.tuple(i), &[], w);
                n += w;
            }
            n
        })?,
        (false, true) => run(right.physical_len(), &|inner, out| {
            let mut n = 0;
            for j in inner.filter(|_| !left.is_empty()) {
                let w = right.weight(j) as u128 * left.len() as u128;
                proj.emit(out, &[], right.tuple(j), w);
                n += w;
            }
            n
        })?,
        (false, false) => left.len() as u128 * right.len() as u128,
    };
    Ok(proj.finish(rows, logical_len(total, "NestedLoopJoin")?))
}

/// Merge join: `(key, input index)` sort pairs are extracted range by
/// range, sorted (the index makes the order unique) and merged in-thread.
/// A key group emits its pairs left-major, or the kept side's tuples in
/// sort order.
fn merge_join(
    inp: &JoinInputs<'_>,
    runner: &Runner<'_>,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let (left, right, proj) = (inp.left, inp.right, inp.proj);
    let p = inp.ex.params();
    meter.add(
        p.sort_work(left.len() as f64)
            + p.sort_work(right.len() as f64)
            + (left.len() + right.len()) as f64 * p.merge_tuple,
    )?;

    let lside = inp.ex.key_side(inp.query, left, inp.conds)?;
    let rside = inp.ex.key_side(inp.query, right, inp.conds)?;
    let sorted = |rel: &Relation, side: &KeySide<'_>| -> Result<Vec<(Vec<i64>, u32)>> {
        let mut pairs = Vec::with_capacity(rel.physical_len());
        let extract = |range| gather_keys(rel, side, range);
        runner.each(rel.physical_len(), "MergeJoin", extract, |range, keys| {
            let keys = keys.chunks_exact(side.cols.len()).map(<[i64]>::to_vec);
            pairs.extend(keys.zip(range.map(|i| i as u32)));
        })?;
        pairs.sort_unstable();
        Ok(pairs)
    };
    let lsorted = sorted(left, &lside)?;
    let rsorted = sorted(right, &rside)?;

    // A matching key group emits its pairs one left tuple (and one
    // cadence bump) at a time, or its kept side's tuples, each weighted
    // by the other side's group weight, in one bump.
    let mut cadence = ChargeCadence::new(p, proj.width(), "MergeJoin");
    let mut out = Tuples::default();
    let group_weight = |rel: &Relation, group: &[(Vec<i64>, u32)]| -> u128 {
        group
            .iter()
            .map(|&(_, t)| rel.weight(t as usize) as u128)
            .sum()
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < lsorted.len() && j < rsorted.len() {
        match lsorted[i].0.cmp(&rsorted[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let key = &lsorted[i].0;
                let i_end = lsorted[i..].iter().take_while(|(k, _)| k == key).count() + i;
                let j_end = rsorted[j..].iter().take_while(|(k, _)| k == key).count() + j;
                let (lgroup, rgroup) = (&lsorted[i..i_end], &rsorted[j..j_end]);
                match proj.keeps() {
                    (true, true) => {
                        for &(_, li) in lgroup {
                            let (li, mut n) = (li as usize, 0);
                            for &(_, rj) in rgroup {
                                let rj = rj as usize;
                                let w = || left.weight(li) as u128 * right.weight(rj) as u128;
                                n += proj.pair(&mut out, left.tuple(li), right.tuple(rj), w);
                            }
                            cadence.bump(n, meter)?;
                        }
                    }
                    (false, true) => {
                        let (lw, mut n) = (group_weight(left, lgroup), 0);
                        for &(_, rj) in rgroup {
                            let w = right.weight(rj as usize) as u128 * lw;
                            proj.emit(&mut out, &[], right.tuple(rj as usize), w);
                            n += w;
                        }
                        cadence.bump(n, meter)?;
                    }
                    (_, false) => {
                        let (rw, mut n) = (group_weight(right, rgroup), 0);
                        for &(_, li) in lgroup {
                            let w = left.weight(li as usize) as u128 * rw;
                            if proj.stores() {
                                proj.emit(&mut out, left.tuple(li as usize), &[], w);
                            }
                            n += w;
                        }
                        cadence.bump(n, meter)?;
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    let len = cadence.finish(meter)?;
    Ok(proj.finish(out, len))
}
