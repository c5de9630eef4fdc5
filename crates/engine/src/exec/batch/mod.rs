//! The production operator bodies: one per operator kind.
//!
//! Every execution mode runs these bodies; the mode only picks the
//! [`Runner`] that drives their input ranges (in-thread batches or the
//! morsel pool, see [`crate::exec::runner`]). The bodies are columnar:
//!
//! * **Scan** evaluates the first predicate over a contiguous row range
//!   into a *selection vector* (ascending qualifying row ids) and each
//!   residual predicate as an in-place compaction of it
//!   ([`crate::exec::compiled::Compiled::filter_range`] /
//!   [`filter_sel`](crate::exec::compiled::Compiled::filter_sel)) — the
//!   predicate dispatch runs once per range, not once per row.
//! * **Joins** gather key columns out of the row-major [`Relation`]
//!   ([`column`]) and run build/probe, pair and merge loops over flat
//!   arrays ([`kernels::KeyTable`]); see [`join`]. They read their
//!   inputs' weights and write only the slots a later join reads: a join
//!   that keeps one side writes each surviving tuple of it once with a
//!   weight, and a join nothing reads sums its output weights instead of
//!   writing them.
//!
//! # Byte-identity with the reference
//!
//! [`crate::exec::reference`] is the tuple-at-a-time evaluator these
//! bodies are tested against; the testkit differential harness and the
//! `exec_plans` golden assert equality in every mode. Three invariants
//! deliver it:
//!
//! 1. **Order**: bodies never reorder tuples. Selection vectors are
//!    ascending; probe output is probe-major with ascending build rows
//!    per probe tuple; a collapsed output follows its kept side; ranges
//!    are contiguous and concatenated in order.
//! 2. **Work**: every body charges its upfront operator work first, on
//!    its inputs' logical counts, then feeds its counted logical output
//!    through
//!    [`ChargeCadence`](crate::exec::workunits::ChargeCadence), which
//!    defines the charge sequence whatever the lump sizes — `f64`
//!    addition does not associate, so summing per range would drift by
//!    ulps. Equal charge sequences also mean budget trips fire at the
//!    same charge, producing identical
//!    [`EngineError::WorkLimitExceeded`] errors; the only divergence is
//!    internal (a range may finish being *materialized* before the trip
//!    is noticed, bounded by one batch or morsel of discarded output).
//! 3. **Semantics**: predicate kernels use the very comparison
//!    expressions of `Compiled::matches`, so NaN-laden float predicates
//!    and dictionary text comparisons agree bit-for-bit.
//!
//! [`EngineError::WorkLimitExceeded`]: crate::error::EngineError::WorkLimitExceeded

// The module docs above deliberately link the crate-private kernel types
// they describe; those links resolve for in-crate readers and with
// --document-private-items.
#![allow(rustdoc::private_intra_doc_links)]

pub(crate) mod column;
pub(crate) mod join;
pub(crate) mod kernels;

use std::ops::Range;

use crate::error::Result;
use crate::exec::compiled::Compiled;
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::relation::{Relation, Tuples};
use crate::exec::runner::Runner;
use crate::query::spj::SpjQuery;

/// Default rows per batch: the batch size of `ExecMode::Serial` and
/// `ExecMode::Parallel`, and the one the benchmark and experiments pick
/// for `ExecMode::Batched`. 1024 row ids keep a batch's selection vector
/// and gathered key columns comfortably inside L1 while amortizing
/// per-batch dispatch to noise.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// The scan: charges `scan_work` upfront (a scan has no output cadence),
/// then filters row ranges on `runner` with [`scan_range`]; qualifying
/// row ids come out ascending.
pub(crate) fn scan(
    ex: &Executor,
    query: &SpjQuery,
    pos: usize,
    runner: &Runner<'_>,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let (n, compiled) = ex.compile_scan(query, pos)?;
    meter.add(ex.params().scan_work(n as f64, compiled.len()))?;
    let mut out = Tuples::default();
    let body = |range, out: &mut Tuples| scan_range(&compiled, range, &mut out.rows) as u128;
    runner.emit(n, "Scan", None, meter, &mut out, body)?;
    Ok(Relation::from_scan(pos, out.rows))
}

/// Append the rows of `range` that satisfy every predicate in `compiled`
/// to `out` and return how many: the first predicate appends a selection
/// vector for the range, each residual predicate compacts it in place,
/// and surviving row ids stay ascending.
fn scan_range(compiled: &[Compiled<'_>], range: Range<usize>, out: &mut Vec<u32>) -> usize {
    let from = out.len();
    match compiled.split_first() {
        // No predicates: the whole range qualifies.
        None => out.extend(range.start as u32..range.end as u32),
        Some((first, rest)) => {
            first.filter_range(range, out);
            for c in rest {
                if out.len() == from {
                    break;
                }
                c.filter_sel(out, from);
            }
        }
    }
    out.len() - from
}

#[cfg(test)]
mod tests {
    use crate::catalog::Catalog;
    use crate::error::EngineError;
    use crate::exec::compiled::compile_pred;
    use crate::exec::executor::{ExecConfig, Executor};
    use crate::exec::parallel::ExecMode;
    use crate::exec::reference;
    use crate::exec::workunits::CostParams;
    use crate::plan::physical::{JoinAlgo, PhysNode};
    use crate::query::expr::{CmpOp, ColRef, JoinCond, Predicate, TableRef};
    use crate::query::spj::SpjQuery;
    use crate::table::TableBuilder;
    use crate::types::Value;

    fn batched(c: &Catalog, batch_size: usize) -> Executor<'_> {
        Executor::new(
            c,
            ExecConfig {
                mode: ExecMode::Batched { batch_size },
                ..Default::default()
            },
        )
    }

    /// Assert the reference evaluator and the batched runner agree
    /// byte-for-byte (or error-for-error) on `plan`, across a spread of
    /// batch sizes, and that the counting `execute` reports what
    /// `execute_collect` does.
    fn assert_modes_agree(c: &Catalog, q: &SpjQuery, plan: &PhysNode, sizes: &[usize]) {
        let want = reference::execute(&Executor::with_defaults(c), q, plan);
        for &b in sizes {
            let got = batched(c, b).execute_collect(q, plan);
            let counted = batched(c, b).execute(q, plan);
            match (&want, &counted) {
                (Ok((sr, _)), Ok(cr)) => {
                    assert_eq!(sr.count, cr.count, "counted, batch {b}");
                    assert_eq!(sr.work.to_bits(), cr.work.to_bits(), "counted, batch {b}");
                    assert_eq!(sr.intermediates, cr.intermediates, "counted, batch {b}");
                }
                (Err(se), Err(ce)) => assert_eq!(se, ce, "counted, batch {b}"),
                (s, g) => panic!("counting mismatch at batch {b}: reference {s:?} vs {g:?}"),
            }
            match (&want, &got) {
                (Ok((sr, srel)), Ok((br, brel))) => {
                    assert_eq!(sr.count, br.count, "batch {b}");
                    assert_eq!(sr.work.to_bits(), br.work.to_bits(), "batch {b}");
                    assert_eq!(sr.intermediates, br.intermediates, "batch {b}");
                    assert_eq!(srel.slots(), brel.slots(), "batch {b}");
                    assert_eq!(srel.rows(), brel.rows(), "batch {b}");
                }
                (Err(se), Err(be)) => assert_eq!(se, be, "batch {b}"),
                (s, g) => panic!("mode mismatch at batch {b}: reference {s:?} vs batched {g:?}"),
            }
        }
    }

    /// `a(id, v)` x `b(id, a_id)`: each a-row has 2 matching b-rows.
    fn fixture() -> (Catalog, SpjQuery) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..10).collect())
                .int("v", (0..10).map(|i| i * 10).collect())
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..20).collect())
                .int("a_id", (0..10).flat_map(|i| [i, i]).collect())
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
            vec![JoinCond::new(
                ColRef::new("a", "id"),
                ColRef::new("b", "a_id"),
            )],
            vec![],
        );
        (c, q)
    }

    const SIZES: &[usize] = &[1, 3, 7, 64, 100_000];

    #[test]
    fn batched_joins_match_reference_for_all_algorithms_and_batch_sizes() {
        // Batch sizes of 1, below, at, and far above the row count.
        let (c, q) = fixture();
        for algo in JoinAlgo::ALL {
            let plan = PhysNode::join(algo, PhysNode::scan(0), PhysNode::scan(1));
            assert_modes_agree(&c, &q, &plan, SIZES);
        }
    }

    #[test]
    fn empty_relations_flow_through_batched_operators() {
        let (c, mut q) = fixture();
        // All-false predicate: the a-side scan yields zero rows, so every
        // join sees an empty build/outer side.
        q.predicates.push(Predicate::new(
            ColRef::new("a", "v"),
            CmpOp::Lt,
            Value::Int(0),
        ));
        for algo in JoinAlgo::ALL {
            let plan = PhysNode::join(algo, PhysNode::scan(0), PhysNode::scan(1));
            assert_modes_agree(&c, &q, &plan, SIZES);
            let (r, rel) = batched(&c, 4).execute_collect(&q, &plan).unwrap();
            assert_eq!(r.count, 0);
            assert!(rel.is_empty());
        }
    }

    #[test]
    fn selection_vector_boundary_cases() {
        let col = crate::column::Column::Int((0..10).collect());
        let all = |op, v| {
            let p = Predicate::new(ColRef::new("t", "c"), op, Value::Int(v));
            compile_pred(&col, &p)
        };
        // All-true over a range.
        let mut sel = Vec::new();
        all(CmpOp::Ge, 0).filter_range(0..10, &mut sel);
        assert_eq!(sel, (0u32..10).collect::<Vec<_>>());
        // All-false compaction empties the vector.
        all(CmpOp::Lt, 0).filter_sel(&mut sel, 0);
        assert!(sel.is_empty());
        // Compacting an empty vector is a no-op.
        all(CmpOp::Ge, 0).filter_sel(&mut sel, 0);
        assert!(sel.is_empty());
        // Empty range produces an empty vector.
        all(CmpOp::Ge, 0).filter_range(5..5, &mut sel);
        assert!(sel.is_empty());
        // Sub-range offsets are absolute row ids, order preserved.
        all(CmpOp::Neq, 8).filter_range(7..10, &mut sel);
        assert_eq!(sel, vec![7, 9]);
        // Residual compaction keeps relative order.
        let mut sel: Vec<u32> = (0..10).collect();
        all(CmpOp::Gt, 4).filter_sel(&mut sel, 0);
        assert_eq!(sel, vec![5, 6, 7, 8, 9]);
        // Compaction leaves the vector's head alone.
        all(CmpOp::Gt, 7).filter_sel(&mut sel, 2);
        assert_eq!(sel, vec![5, 6, 8, 9]);
    }

    #[test]
    fn nan_float_predicates_agree_with_reference() {
        // NaN never satisfies a comparison (partial_cmp is None), on both
        // paths — including Neq, where NaN rows are *excluded*, matching
        // the reference scan's semantics exactly.
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t")
                .int("id", (0..6).collect())
                .float("x", vec![1.0, f64::NAN, -3.0, f64::NAN, 0.0, 9.5])
                .build()
                .unwrap(),
        );
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Neq, CmpOp::Gt] {
            let q = SpjQuery::new(
                vec![TableRef::bare("t")],
                vec![],
                vec![Predicate::new(ColRef::new("t", "x"), op, Value::Float(0.0))],
            );
            assert_modes_agree(&c, &q, &PhysNode::scan(0), SIZES);
        }
    }

    #[test]
    fn float_join_keys_error_identically() {
        // Join keys are INT by contract; a float key (NaN or not) is a
        // TypeMismatch in the reference and must be the same error —
        // not a panic, not a wrong answer — on every batched path.
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("l")
                .float("k", vec![1.0, f64::NAN])
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("r")
                .float("k", vec![1.0, 2.0])
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![TableRef::bare("l"), TableRef::bare("r")],
            vec![JoinCond::new(ColRef::new("l", "k"), ColRef::new("r", "k"))],
            vec![],
        );
        for algo in JoinAlgo::ALL {
            let plan = PhysNode::join(algo, PhysNode::scan(0), PhysNode::scan(1));
            let want = reference::execute(&Executor::with_defaults(&c), &q, &plan).unwrap_err();
            assert!(matches!(want, EngineError::TypeMismatch { .. }));
            for &b in SIZES {
                assert_eq!(batched(&c, b).execute(&q, &plan).unwrap_err(), want);
            }
        }
    }

    #[test]
    fn budget_trips_mid_batch_match_reference() {
        // A skewed join emitting >65 536 tuples, so the output cadence
        // issues full-block charges; sweep budgets so trips land on the
        // upfront charge, mid-cadence (inside a batch), and the
        // remainder. Every cell must agree with the reference on Ok/Err, the
        // error value, and (when Ok) bit-exact work — materializing or
        // counting, where the join is the counting root.
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("l")
                .int("k", vec![0; 1000])
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("r")
                .int("k", vec![0; 100])
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![TableRef::bare("l"), TableRef::bare("r")],
            vec![JoinCond::new(ColRef::new("l", "k"), ColRef::new("r", "k"))],
            vec![],
        );
        let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let total = Executor::with_defaults(&c).execute(&q, &plan).unwrap().work;
        // Work charged before the join's first output block.
        let p = CostParams::default();
        let upfront = p.scan_work(1000.0, 0)
            + p.scan_work(100.0, 0)
            + 1000.0 * p.hash_build
            + 100.0 * p.hash_probe;
        for frac in [0.001, 0.3, 0.6, 0.9, 0.999] {
            let budget = Some(total * frac);
            let config = |mode| ExecConfig {
                max_work: budget,
                mode,
                ..Default::default()
            };
            let serial = Executor::new(&c, config(ExecMode::Serial));
            let want = reference::execute(&serial, &q, &plan).unwrap_err();
            assert!(matches!(want, EngineError::WorkLimitExceeded { .. }));
            if frac >= 0.3 {
                assert!(total * frac > upfront, "the trip lands in the output");
            }
            assert_eq!(
                serial.execute(&q, &plan).unwrap_err(),
                want,
                "counting, frac {frac}"
            );
            for &b in &[1usize, 7, 64, 1024] {
                let ex = Executor::new(&c, config(ExecMode::Batched { batch_size: b }));
                let got = ex.execute_collect(&q, &plan).map(|(r, _)| r);
                assert_eq!(got.unwrap_err(), want, "frac {frac} batch {b}");
                let counted = ex.execute(&q, &plan);
                assert_eq!(
                    counted.unwrap_err(),
                    want,
                    "counting, frac {frac} batch {b}"
                );
            }
        }
    }
}
