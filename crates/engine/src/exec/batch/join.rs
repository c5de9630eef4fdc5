//! Batched join operators.
//!
//! Each operator replays the serial work-charge cadence exactly (upfront
//! operator charge, then [`ChargeCadence`] for the counted output) and
//! emits tuples in the canonical order documented on
//! [`crate::exec::executor`], so output and accounting are byte-identical
//! to the serial reference. Like the serial kernels they write through a
//! [`Projection`] and, when it keeps nothing, count instead of writing.
//! What changes is the inner loop:
//!
//! * **Hash join** gathers the build-side key column(s) in one columnar
//!   pass, builds a [`KeyTable`] (flat arrays, no per-key or per-tuple
//!   allocation), and probes batch-by-batch over gathered probe keys; a
//!   counting probe reads each key's match count from the table.
//! * **Nested-loop join** gathers both sides' key columns once and
//!   compares plain `i64`s in the pair loop — the serial path allocates a
//!   fresh `Vec<i64>` composite key per *pair*.
//! * **Merge join** gathers key columns before assembling the sort
//!   vectors, then reuses the serial merge phase verbatim (the merge
//!   itself is inherently sequential and already cheap).
//!
//! Cross products have no batch variant: the serial operator is a single
//! upfront charge plus a straight emit loop (or a multiplication).

use std::ops::Range;

use crate::error::Result;
use crate::exec::batch::column::{gather_key_column, gather_key_range_into};
use crate::exec::batch::kernels::KeyTable;
use crate::exec::compiled::KeySide;
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::relation::{Projection, Relation};
use crate::exec::workunits::ChargeCadence;
use crate::query::expr::JoinCond;
use crate::query::spj::SpjQuery;

/// Gather the key column of every join condition for all tuples of `rel`.
pub(crate) fn gather_side(
    ex: &Executor,
    query: &SpjQuery,
    rel: &Relation,
    conds: &[&JoinCond],
) -> Result<Vec<Vec<i64>>> {
    let side = ex.key_side(query, rel, conds)?;
    Ok(side
        .cols
        .iter()
        .map(|&(slot, data)| gather_key_column(rel, slot, data))
        .collect())
}

/// Batched hash join: columnar build over a [`KeyTable`], batch-gathered
/// probe. Emit order is probe-side-major with ascending build rows per
/// probe tuple — identical to the serial `HashMap` path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_join(
    ex: &Executor,
    query: &SpjQuery,
    conds: &[&JoinCond],
    left: Relation,
    right: Relation,
    proj: Projection,
    batch: usize,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let p = &ex.config.params;
    let spill = ex.hash_spill(left.len());
    meter.add((left.len() as f64 * p.hash_build + right.len() as f64 * p.hash_probe) * spill)?;

    let lcols = gather_side(ex, query, &left, conds)?;
    let rside = ex.key_side(query, &right, conds)?;
    let width = proj.width();
    let table = KeyTable::build(&lcols);

    let mut rows: Vec<u32> = Vec::new();
    let mut cadence = ChargeCadence::new();
    let n = right.len();
    let batch = batch.max(1);
    for start in (0..n).step_by(batch) {
        let end = (start + batch).min(n);
        let matched = probe_range(
            &table,
            &left,
            &right,
            &rside,
            &proj,
            start..end,
            batch,
            &mut rows,
        );
        cadence.bump(matched, meter, p, width)?;
    }
    let len = cadence.finish(meter, p, width)?;
    Ok(proj.finish(rows, len))
}

/// Probe `range` of the probe side against a built [`KeyTable`],
/// batch-gathering the probe keys and appending the projected output
/// tuples (in the canonical probe-major order) to `rows` — or, when the
/// projection keeps nothing, only counting them. Returns the number of
/// output tuples. Shared by the single-threaded batched hash join (which
/// calls it per batch and charges the cadence in between) and the
/// parallel hash join (which calls it per morsel and feeds the shared
/// approximate accumulator instead).
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_range(
    table: &KeyTable,
    left: &Relation,
    right: &Relation,
    rside: &KeySide<'_>,
    proj: &Projection,
    range: Range<usize>,
    batch: usize,
    rows: &mut Vec<u32>,
) -> usize {
    let stride = rside.cols.len();
    let mut keycols: Vec<Vec<i64>> = vec![Vec::new(); stride];
    let mut keybuf: Vec<i64> = Vec::with_capacity(stride);
    let mut matched = 0usize;
    let batch = batch.max(1);
    let mut start = range.start;
    while start < range.end {
        let end = (start + batch).min(range.end);
        for (c, &(slot, data)) in rside.cols.iter().enumerate() {
            gather_key_range_into(right, slot, data, start..end, &mut keycols[c]);
        }
        for j in 0..end - start {
            let key: &[i64] = if stride == 1 {
                std::slice::from_ref(&keycols[0][j])
            } else {
                keybuf.clear();
                keybuf.extend(keycols.iter().map(|col| col[j]));
                &keybuf
            };
            if proj.counts_only() {
                matched += table.count(key);
                continue;
            }
            let rt = right.tuple(start + j);
            for i in table.probe(key) {
                proj.emit(rows, left.tuple(i as usize), rt);
                matched += 1;
            }
        }
        start = end;
    }
    matched
}

/// Compare row `i` of `lcols` with row `j` of `rcols` across every
/// gathered key column (the batched replacement for the serial
/// `multi_key` equality, which allocates two `Vec<i64>`s per pair).
#[inline]
pub(crate) fn keys_equal(lcols: &[Vec<i64>], rcols: &[Vec<i64>], i: usize, j: usize) -> bool {
    lcols.iter().zip(rcols).all(|(l, r)| l[i] == r[j])
}

/// The nested-loop pair loop over gathered key columns for the outer
/// tuples in `outer`: emits (or, when `proj` keeps nothing, counts) every
/// matching pair in outer-major order, calling `after_outer` with each
/// outer tuple's match count. Returns the total. Shared by the batched
/// and parallel nested-loop joins.
#[allow(clippy::too_many_arguments)]
pub(crate) fn nl_pairs(
    left: &Relation,
    right: &Relation,
    lcols: &[Vec<i64>],
    rcols: &[Vec<i64>],
    proj: &Projection,
    outer: Range<usize>,
    rows: &mut Vec<u32>,
    mut after_outer: impl FnMut(usize) -> Result<()>,
) -> Result<usize> {
    let counts_only = proj.counts_only();
    let mut total = 0usize;
    for i in outer {
        let lt = left.tuple(i);
        let mut matched = 0usize;
        let mut hit = |j: usize| {
            if !counts_only {
                proj.emit(rows, lt, right.tuple(j));
            }
            matched += 1;
        };
        if lcols.len() == 1 {
            let lk = lcols[0][i];
            for (j, &rk) in rcols[0].iter().enumerate() {
                if rk == lk {
                    hit(j);
                }
            }
        } else {
            for j in 0..right.len() {
                if keys_equal(lcols, rcols, i, j) {
                    hit(j);
                }
            }
        }
        total += matched;
        after_outer(matched)?;
    }
    Ok(total)
}

/// Batched nested-loop join: both sides' key columns are gathered once
/// ("batch = the whole side"), so the pair loop compares flat `i64`s with
/// no per-pair allocation. Emit order is outer-major, as in serial.
pub(crate) fn nl_join(
    ex: &Executor,
    query: &SpjQuery,
    conds: &[&JoinCond],
    left: Relation,
    right: Relation,
    proj: Projection,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let p = &ex.config.params;
    let discount = ex.nl_discount(right.len());
    // Charge pair work up front so hopeless plans abort immediately.
    meter.add(left.len() as f64 * right.len() as f64 * p.nl_pair * discount)?;

    let lcols = gather_side(ex, query, &left, conds)?;
    let rcols = gather_side(ex, query, &right, conds)?;
    let width = proj.width();
    let mut rows: Vec<u32> = Vec::new();
    let mut cadence = ChargeCadence::new();
    let len = nl_pairs(
        &left,
        &right,
        &lcols,
        &rcols,
        &proj,
        0..left.len(),
        &mut rows,
        |matched| cadence.bump(matched, meter, p, width),
    )?;
    cadence.finish(meter, p, width)?;
    Ok(proj.finish(rows, len))
}

/// Batched merge join: key extraction is columnar, the sort and the merge
/// phase are shared with the serial operator (sort keys are disambiguated
/// by input index, so the sorted order is unique regardless of path).
pub(crate) fn merge_join(
    ex: &Executor,
    query: &SpjQuery,
    conds: &[&JoinCond],
    left: Relation,
    right: Relation,
    proj: Projection,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let p = &ex.config.params;
    meter.add(
        p.sort_work(left.len() as f64)
            + p.sort_work(right.len() as f64)
            + (left.len() + right.len()) as f64 * p.merge_tuple,
    )?;

    let lcols = gather_side(ex, query, &left, conds)?;
    let rcols = gather_side(ex, query, &right, conds)?;
    let mut lsorted: Vec<(Vec<i64>, u32)> = (0..left.len())
        .map(|i| (lcols.iter().map(|c| c[i]).collect(), i as u32))
        .collect();
    let mut rsorted: Vec<(Vec<i64>, u32)> = (0..right.len())
        .map(|j| (rcols.iter().map(|c| c[j]).collect(), j as u32))
        .collect();
    lsorted.sort_unstable();
    rsorted.sort_unstable();
    Executor::merge_phase(p, &left, &right, &lsorted, &rsorted, &proj, meter)
}
