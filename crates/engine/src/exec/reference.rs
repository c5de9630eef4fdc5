//! The reference evaluator: the executor's semantics, tuple at a time.
//!
//! [`execute`] walks a plan bottom-up and runs each operator as the
//! plainest loop that states its contract: a row-by-row filter scan, a
//! `HashMap` hash join, a pair loop, a sort-merge join. Every operator
//! materializes every slot, so there is no projection and no counting
//! branch. It has no production caller: it is what the differential
//! harness, the property tests, the engine's unit tests and E14 compare
//! every [`ExecMode`](crate::exec::ExecMode) against, byte for byte —
//! count, work bits, intermediates, relation, or error.
//!
//! Validation is shared with the executor (`check_plan`, `check_join`,
//! `compile_scan`, `key_side`), and charges go through the same
//! `ChargeCadence`, so both raise identical errors at identical
//! charges.

use std::collections::HashMap;
use std::time::Instant;

use crate::error::Result;
use crate::exec::executor::{check_join, check_plan, ExecResult, Executor, WorkMeter};
use crate::exec::relation::Relation;
use crate::exec::workunits::ChargeCadence;
use crate::plan::physical::{JoinAlgo, PhysNode};
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// Evaluate `plan` for `query` with `ex`'s catalog, cost parameters and
/// work budget (its mode and telemetry are ignored), returning what
/// [`Executor::execute_collect`] must return.
pub fn execute(ex: &Executor, query: &SpjQuery, plan: &PhysNode) -> Result<(ExecResult, Relation)> {
    check_plan(query, plan)?;
    let start = Instant::now();
    let mut meter = WorkMeter::new(ex.config.max_work);
    let mut intermediates = Vec::new();
    let rel = node(ex, query, plan, &mut meter, &mut intermediates)?;
    let result = ExecResult {
        count: rel.len() as u64,
        work: meter.work,
        wall: start.elapsed(),
        intermediates,
    };
    Ok((result, rel))
}

fn node(
    ex: &Executor,
    query: &SpjQuery,
    plan: &PhysNode,
    meter: &mut WorkMeter,
    intermediates: &mut Vec<(TableSet, u64)>,
) -> Result<Relation> {
    let rel = match plan {
        PhysNode::Scan { pos } => scan(ex, query, *pos, meter)?,
        PhysNode::Join { algo, left, right } => {
            let l = node(ex, query, left, meter, intermediates)?;
            let r = node(ex, query, right, meter, intermediates)?;
            join(ex, query, *algo, &l, &r, meter)?
        }
    };
    intermediates.push((rel.tables(), rel.len() as u64));
    Ok(rel)
}

/// The tuple-at-a-time scan: every row tested against every predicate.
fn scan(ex: &Executor, query: &SpjQuery, pos: usize, meter: &mut WorkMeter) -> Result<Relation> {
    let (n, compiled) = ex.compile_scan(query, pos)?;
    meter.add(ex.params().scan_work(n as f64, compiled.len()))?;
    let rows = (0..n)
        .filter(|&row| compiled.iter().all(|c| c.matches(row)))
        .map(|row| row as u32)
        .collect();
    Ok(Relation::from_scan(pos, rows))
}

/// The join `algo` of `l` and `r`: its upfront charge, then a row loop
/// charging each outer (probe, left) tuple's matches as it goes.
fn join(
    ex: &Executor,
    query: &SpjQuery,
    algo: JoinAlgo,
    l: &Relation,
    r: &Relation,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let conds = check_join(query, algo, l, r)?;
    let p = ex.params();
    let width = l.width() + r.width();
    let mut out = Joined::new(l, r, ChargeCadence::new(p, width, algo.label()));
    let (nl, nr) = (l.len() as f64, r.len() as f64);
    if conds.is_empty() {
        meter.add(nl * nr * p.nl_pair + p.output_work(nl * nr, width))?;
        for i in 0..l.len() {
            for j in 0..r.len() {
                out.push(i, j);
            }
        }
        return Ok(out.finish_uncharged());
    }
    meter.add(match algo {
        JoinAlgo::Hash => (nl * p.hash_build + nr * p.hash_probe) * ex.hash_spill(l.len()),
        JoinAlgo::NestedLoop => nl * nr * p.nl_pair * ex.nl_discount(r.len()),
        JoinAlgo::Merge => p.sort_work(nl) + p.sort_work(nr) + (nl + nr) * p.merge_tuple,
    })?;
    let (lkeys, rkeys) = (
        ex.key_side(query, l, &conds)?,
        ex.key_side(query, r, &conds)?,
    );
    let lkey = |i: usize| lkeys.key(l.tuple(i));
    let rkey = |j: usize| rkeys.key(r.tuple(j));
    match algo {
        JoinAlgo::Hash => {
            let mut table: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
            for i in 0..l.len() {
                table.entry(lkey(i)).or_default().push(i);
            }
            for j in 0..r.len() {
                for &i in table.get(&rkey(j)).into_iter().flatten() {
                    out.push(i, j);
                }
                out.charge(meter)?;
            }
        }
        JoinAlgo::NestedLoop => {
            for i in 0..l.len() {
                let lk = lkey(i);
                for j in 0..r.len() {
                    if lk == rkey(j) {
                        out.push(i, j);
                    }
                }
                out.charge(meter)?;
            }
        }
        JoinAlgo::Merge => {
            let mut ls: Vec<(Vec<i64>, usize)> = (0..l.len()).map(|i| (lkey(i), i)).collect();
            let mut rs: Vec<(Vec<i64>, usize)> = (0..r.len()).map(|j| (rkey(j), j)).collect();
            ls.sort_unstable();
            rs.sort_unstable();
            let (mut a, mut b) = (0, 0);
            while a < ls.len() && b < rs.len() {
                if ls[a].0 < rs[b].0 {
                    a += 1;
                } else if ls[a].0 > rs[b].0 {
                    b += 1;
                } else {
                    let group: Vec<usize> = rs[b..]
                        .iter()
                        .take_while(|(k, _)| *k == ls[a].0)
                        .map(|&(_, j)| j)
                        .collect();
                    while a < ls.len() && ls[a].0 == rs[b].0 {
                        for &j in &group {
                            out.push(ls[a].1, j);
                        }
                        out.charge(meter)?;
                        a += 1;
                    }
                    b += group.len();
                }
            }
        }
    }
    out.finish(meter)
}

/// The output of one join: full-width tuples, left slots first, and the
/// cadence its counted tuples are charged through.
struct Joined<'a> {
    left: &'a Relation,
    right: &'a Relation,
    rows: Vec<u32>,
    /// Tuples pushed since the last charge.
    pending: usize,
    cadence: ChargeCadence<'a>,
}

impl<'a> Joined<'a> {
    fn new(left: &'a Relation, right: &'a Relation, cadence: ChargeCadence<'a>) -> Joined<'a> {
        Joined {
            left,
            right,
            rows: Vec::new(),
            pending: 0,
            cadence,
        }
    }

    /// Append the joined tuple of left tuple `i` and right tuple `j`.
    fn push(&mut self, i: usize, j: usize) {
        self.rows.extend_from_slice(self.left.tuple(i));
        self.rows.extend_from_slice(self.right.tuple(j));
        self.pending += 1;
    }

    /// Charge the tuples pushed since the last charge.
    fn charge(&mut self, meter: &mut WorkMeter) -> Result<()> {
        self.cadence
            .bump(std::mem::take(&mut self.pending) as u128, meter)
    }

    /// The output relation, after the cadence's remainder charge.
    fn finish(mut self, meter: &mut WorkMeter) -> Result<Relation> {
        self.charge(meter)?;
        self.cadence.finish(meter)?;
        Ok(full_width(self.left, self.right, self.rows))
    }

    /// The output relation, charged already (a cross product).
    fn finish_uncharged(self) -> Relation {
        full_width(self.left, self.right, self.rows)
    }
}

/// The relation of `rows`, tuples of every slot of `left` then `right`.
fn full_width(left: &Relation, right: &Relation, rows: Vec<u32>) -> Relation {
    let slots = left.slots().iter().chain(right.slots()).copied();
    Relation::new(slots.collect(), rows)
}
