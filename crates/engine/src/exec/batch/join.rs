//! The join operators: one production body per join kind.
//!
//! Each body charges its upfront operator work on the exact meter, then
//! runs its input ranges on the [`Runner`] the mode picked, emitting in
//! the canonical order documented on [`crate::exec::executor`] and
//! charging its counted output through a [`ChargeCadence`]. Bodies write
//! through a [`Projection`] and, when it keeps nothing, count instead of
//! writing. They borrow their inputs, so `Executor::join_op` can re-run
//! one in-thread after a contained worker fault.
//!
//! * **Hash join** builds a [`KeyTable`] over the left input's key
//!   columns, gathered one range at a time, and probes it range by range
//!   over gathered right-side keys; a counting probe reads each key's
//!   match count from the table.
//! * **Nested-loop join** gathers both sides' key columns once and runs
//!   outer ranges of the pair loop over plain `i64`s.
//! * **Cross product** is one upfront charge (pairs and output) and an
//!   outer-range emit loop, or only the product of the input lengths.
//! * **Merge join** extracts `(key, index)` sort pairs range by range,
//!   sorts them in-thread and merges in-thread: the merge is sequential.

use std::ops::Range;

use crate::error::Result;
use crate::exec::batch::column::gather_keys;
use crate::exec::batch::kernels::KeyTable;
use crate::exec::compiled::KeySide;
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::relation::{Projection, Relation};
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
/// Emit order is probe-major with ascending build rows per probe tuple.
fn hash_join(inp: &JoinInputs<'_>, runner: &Runner<'_>, meter: &mut WorkMeter) -> Result<Relation> {
    let (left, right, proj) = (inp.left, inp.right, inp.proj);
    let p = inp.ex.params();
    let spill = inp.ex.hash_spill(left.len());
    meter.add((left.len() as f64 * p.hash_build + right.len() as f64 * p.hash_probe) * spill)?;

    let lside = inp.ex.key_side(inp.query, left, inp.conds)?;
    let rside = inp.ex.key_side(inp.query, right, inp.conds)?;
    let table = KeyTable::build(left, &lside, runner)?;
    let mut cadence = ChargeCadence::new(p, proj.width());
    let mut rows = Vec::new();
    let body = |range: Range<usize>, out: &mut Vec<u32>| {
        probe_range(&table, left, right, &rside, proj, range, out)
    };
    runner.emit(
        right.len(),
        "HashJoin",
        Some(&mut cadence),
        meter,
        &mut rows,
        body,
    )?;
    let len = cadence.finish(meter)?;
    Ok(proj.finish(rows, len))
}

/// Probe `range` of the probe side against `table`, gathering its keys
/// first, and append the projected output tuples to `out` in probe-major
/// order — or, when the projection keeps nothing, only count them.
/// Returns the number of output tuples.
fn probe_range(
    table: &KeyTable,
    left: &Relation,
    right: &Relation,
    rside: &KeySide<'_>,
    proj: &Projection,
    range: Range<usize>,
    out: &mut Vec<u32>,
) -> usize {
    let keys = gather_keys(right, rside, range.clone());
    let keys = keys.chunks_exact(rside.cols.len());
    if proj.counts_only() {
        return keys.map(|key| table.count(key)).sum();
    }
    let mut matched = 0usize;
    for (j, key) in range.zip(keys) {
        let rt = right.tuple(j);
        for i in table.probe(key) {
            proj.emit(out, left.tuple(i as usize), rt);
            matched += 1;
        }
    }
    matched
}

/// Nested-loop join: both sides' key columns are gathered once, so the
/// pair loop compares flat `i64`s. Emit order is outer-major.
fn nl_join(inp: &JoinInputs<'_>, runner: &Runner<'_>, meter: &mut WorkMeter) -> Result<Relation> {
    let (left, right, proj) = (inp.left, inp.right, inp.proj);
    let p = inp.ex.params();
    let discount = inp.ex.nl_discount(right.len());
    // Charge pair work up front so hopeless plans abort immediately.
    meter.add(left.len() as f64 * right.len() as f64 * p.nl_pair * discount)?;

    let lside = inp.ex.key_side(inp.query, left, inp.conds)?;
    let rside = inp.ex.key_side(inp.query, right, inp.conds)?;
    let stride = lside.cols.len();
    let lkeys = gather_keys(left, &lside, 0..left.len());
    let rkeys = gather_keys(right, &rside, 0..right.len());
    let mut cadence = ChargeCadence::new(p, proj.width());
    let mut rows = Vec::new();
    let counts_only = proj.counts_only();
    let body = |outer: Range<usize>, out: &mut Vec<u32>| {
        let mut matched = 0usize;
        for i in outer {
            let pairs = Pairs {
                left,
                right,
                proj,
                counts_only,
                i,
            };
            let lk = &lkeys[i * stride..(i + 1) * stride];
            matched += match lk {
                [k] => {
                    let rkeys = &rkeys[..right.len()];
                    pairs.run(out, |j| rkeys[j] == *k)
                }
                _ => pairs.run(out, |j| &rkeys[j * stride..(j + 1) * stride] == lk),
            };
        }
        matched
    };
    runner.emit(
        left.len(),
        "NestedLoopJoin",
        Some(&mut cadence),
        meter,
        &mut rows,
        body,
    )?;
    let len = cadence.finish(meter)?;
    Ok(proj.finish(rows, len))
}

/// The pairs of nested-loop outer tuple `i`.
struct Pairs<'a> {
    left: &'a Relation,
    right: &'a Relation,
    proj: &'a Projection,
    counts_only: bool,
    i: usize,
}

impl Pairs<'_> {
    /// Emit — or, when the projection keeps nothing, only count — the
    /// pairs of outer tuple `i` with every inner tuple `j` that `hit`s,
    /// in ascending `j`. Returns how many.
    #[inline(always)]
    fn run(&self, out: &mut Vec<u32>, hit: impl Fn(usize) -> bool) -> usize {
        let inner = 0..self.right.len();
        if self.counts_only {
            return inner.filter(|&j| hit(j)).count();
        }
        let lt = self.left.tuple(self.i);
        let mut n = 0;
        for j in inner.filter(|&j| hit(j)) {
            self.proj.emit(out, lt, self.right.tuple(j));
            n += 1;
        }
        n
    }
}

/// Cross product: pairs and output are charged in one upfront add, then
/// outer ranges emit (or only count) every pair, outer-major.
fn cross_join(
    inp: &JoinInputs<'_>,
    runner: &Runner<'_>,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let (left, right, proj) = (inp.left, inp.right, inp.proj);
    let p = inp.ex.params();
    let out = left.len() as f64 * right.len() as f64;
    meter.add(out * p.nl_pair + p.output_work(out, proj.width()))?;
    let counts_only = proj.counts_only();
    let mut rows = Vec::new();
    let body = |outer: Range<usize>, out: &mut Vec<u32>| {
        if !counts_only {
            for i in outer.clone() {
                for j in 0..right.len() {
                    proj.emit(out, left.tuple(i), right.tuple(j));
                }
            }
        }
        outer.len() * right.len()
    };
    let len = runner.emit(left.len(), "NestedLoopJoin", None, meter, &mut rows, body)?;
    Ok(proj.finish(rows, len))
}

/// Merge join: `(key, input index)` sort pairs are extracted range by
/// range, sorted (the index makes the order unique) and merged in-thread.
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
        let mut pairs = Vec::with_capacity(rel.len());
        let extract = |range| gather_keys(rel, side, range);
        runner.each(rel.len(), "MergeJoin", extract, |range, keys| {
            let keys = keys.chunks_exact(side.cols.len()).map(<[i64]>::to_vec);
            pairs.extend(keys.zip(range.map(|i| i as u32)));
        })?;
        pairs.sort_unstable();
        Ok(pairs)
    };
    let lsorted = sorted(left, &lside)?;
    let rsorted = sorted(right, &rside)?;

    // A matching key group of `a × b` tuples is emitted left-major, one
    // left row (and one cadence bump) at a time, or — when `proj` keeps
    // nothing — counted as one lump.
    let mut cadence = ChargeCadence::new(p, proj.width());
    let mut rows: Vec<u32> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lsorted.len() && j < rsorted.len() {
        match lsorted[i].0.cmp(&rsorted[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let key = &lsorted[i].0;
                let i_end = lsorted[i..].iter().take_while(|(k, _)| k == key).count() + i;
                let j_end = rsorted[j..].iter().take_while(|(k, _)| k == key).count() + j;
                if proj.counts_only() {
                    cadence.bump((i_end - i) * (j_end - j), meter)?;
                } else {
                    for (_, li) in &lsorted[i..i_end] {
                        let lt = left.tuple(*li as usize);
                        for (_, rj) in &rsorted[j..j_end] {
                            proj.emit(&mut rows, lt, right.tuple(*rj as usize));
                        }
                        cadence.bump(j_end - j, meter)?;
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    let len = cadence.finish(meter)?;
    Ok(proj.finish(rows, len))
}
