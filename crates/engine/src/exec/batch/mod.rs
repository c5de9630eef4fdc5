//! Vectorized columnar batch execution.
//!
//! The serial executor processes one tuple at a time: every row pays the
//! full interpretation overhead — a `match` on the compiled predicate
//! form, a bounds-checked tuple borrow, a `Vec<i64>` composite-key
//! allocation per join pair. [`crate::exec::parallel::ExecMode::Batched`]
//! replaces those inner loops with kernels that amortize the overhead
//! over a batch of `batch_size` tuples:
//!
//! * **Scan** evaluates the first predicate over a contiguous row range
//!   into a *selection vector* (ascending qualifying row ids) and each
//!   residual predicate as an in-place compaction of that vector
//!   ([`crate::exec::compiled::Compiled::filter_range`] /
//!   [`filter_sel`](crate::exec::compiled::Compiled::filter_sel)) — the
//!   predicate dispatch runs once per batch, not once per row.
//! * **Joins** gather key columns out of the row-major
//!   [`Relation`] ([`column::gather_key_range`]) and run build/probe over
//!   flat arrays ([`kernels::KeyTable`]); see [`join`]. Like every join
//!   kernel they write only the slots a later join reads, and a join
//!   nothing reads counts its matches instead of writing them.
//!
//! # Byte-identity with the serial reference
//!
//! Batched execution is behind the `ExecMode` seam and must be
//! observationally identical to `ExecMode::Serial` — the testkit
//! differential harness asserts it on every workload. Three invariants
//! deliver that:
//!
//! 1. **Order**: kernels never reorder tuples. Selection vectors are
//!    ascending; probe output is probe-major with ascending build rows
//!    per probe tuple; batches are contiguous input ranges processed in
//!    order.
//! 2. **Work**: the serial executor charges its meter in a fixed cadence
//!    (per-operator upfront work, then output work once per 65 536
//!    counted tuples, then the remainder). Batched operators replay the
//!    exact same `f64` additions in the same order via
//!    [`ChargeCadence`](crate::exec::workunits::ChargeCadence) — f64
//!    addition does not associate, so summing per batch would drift by
//!    ulps. Equal charge sequences also mean budget trips fire
//!    at the same charge, producing identical
//!    [`EngineError::WorkLimitExceeded`] errors; the only divergence is
//!    internal (a batch may finish being *materialized* before the trip
//!    is noticed, bounded by one batch of discarded output).
//! 3. **Semantics**: predicate kernels reuse the very comparison
//!    expressions of the serial `Compiled::matches`, so NaN-laden float
//!    predicates and dictionary text comparisons agree bit-for-bit.
//!
//! [`EngineError::WorkLimitExceeded`]: crate::error::EngineError::WorkLimitExceeded

// The module docs above deliberately link the crate-private kernel types
// they describe; those links resolve for in-crate readers and with
// --document-private-items.
#![allow(rustdoc::private_intra_doc_links)]

pub(crate) mod column;
pub(crate) mod join;
pub(crate) mod kernels;

use crate::error::Result;
use crate::exec::executor::{Executor, WorkMeter};
use crate::exec::relation::Relation;
use crate::query::spj::SpjQuery;

/// Default rows per batch when `ExecMode::Batched` / `BatchedParallel`
/// is selected without an explicit size (`LQO_EXEC_MODE=batched`).
/// 1024 row ids keep a batch's selection vector and gathered key columns
/// comfortably inside L1 while amortizing per-batch dispatch to noise.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Batched scan: selection-vector filtering over contiguous row ranges.
///
/// Charges `scan_work` upfront exactly as the serial scan does (the scan
/// has no output cadence), then processes the table in `batch`-row
/// ranges: the first predicate fills a selection vector for the range,
/// each residual predicate compacts it in place, and surviving row ids —
/// still ascending — extend the output.
pub(crate) fn scan(
    ex: &Executor,
    query: &SpjQuery,
    pos: usize,
    batch: usize,
    meter: &mut WorkMeter,
) -> Result<Relation> {
    let (n, compiled) = ex.compile_scan(query, pos)?;
    meter.add(ex.params().scan_work(n as f64, compiled.len()))?;
    let batch = batch.max(1);
    let mut out: Vec<u32> = Vec::new();
    let mut sel: Vec<u32> = Vec::with_capacity(batch.min(n.max(1)));
    for start in (0..n).step_by(batch) {
        let end = (start + batch).min(n);
        match compiled.split_first() {
            // No predicates: the whole range qualifies.
            None => out.extend(start as u32..end as u32),
            Some((first, rest)) => {
                sel.clear();
                first.filter_range(start..end, &mut sel);
                for c in rest {
                    if sel.is_empty() {
                        break;
                    }
                    c.filter_sel(&mut sel);
                }
                out.extend_from_slice(&sel);
            }
        }
    }
    Ok(Relation::from_scan(pos, out))
}

#[cfg(test)]
mod tests {
    use crate::catalog::Catalog;
    use crate::error::EngineError;
    use crate::exec::compiled::compile_pred;
    use crate::exec::executor::{ExecConfig, Executor};
    use crate::exec::parallel::ExecMode;
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

    /// Assert serial and batched agree byte-for-byte (or error-for-error)
    /// on `plan`, across a spread of batch sizes, and that the counting
    /// `execute` reports what `execute_collect` does.
    fn assert_modes_agree(c: &Catalog, q: &SpjQuery, plan: &PhysNode, sizes: &[usize]) {
        let serial = Executor::with_defaults(c).execute_collect(q, plan);
        for &b in sizes {
            let got = batched(c, b).execute_collect(q, plan);
            let counted = batched(c, b).execute(q, plan);
            match (&serial, &counted) {
                (Ok((sr, _)), Ok(cr)) => {
                    assert_eq!(sr.count, cr.count, "counted, batch {b}");
                    assert_eq!(sr.work.to_bits(), cr.work.to_bits(), "counted, batch {b}");
                    assert_eq!(sr.intermediates, cr.intermediates, "counted, batch {b}");
                }
                (Err(se), Err(ce)) => assert_eq!(se, ce, "counted, batch {b}"),
                (s, g) => panic!("counting mismatch at batch {b}: serial {s:?} vs {g:?}"),
            }
            match (&serial, &got) {
                (Ok((sr, srel)), Ok((br, brel))) => {
                    assert_eq!(sr.count, br.count, "batch {b}");
                    assert_eq!(sr.work.to_bits(), br.work.to_bits(), "batch {b}");
                    assert_eq!(sr.intermediates, br.intermediates, "batch {b}");
                    assert_eq!(srel.slots(), brel.slots(), "batch {b}");
                    assert_eq!(srel.rows(), brel.rows(), "batch {b}");
                }
                (Err(se), Err(be)) => assert_eq!(se, be, "batch {b}"),
                (s, g) => panic!("mode mismatch at batch {b}: serial {s:?} vs batched {g:?}"),
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
    fn batched_joins_match_serial_for_all_algorithms_and_batch_sizes() {
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
        all(CmpOp::Lt, 0).filter_sel(&mut sel);
        assert!(sel.is_empty());
        // Compacting an empty vector is a no-op.
        all(CmpOp::Ge, 0).filter_sel(&mut sel);
        assert!(sel.is_empty());
        // Empty range produces an empty vector.
        all(CmpOp::Ge, 0).filter_range(5..5, &mut sel);
        assert!(sel.is_empty());
        // Sub-range offsets are absolute row ids, order preserved.
        all(CmpOp::Neq, 8).filter_range(7..10, &mut sel);
        assert_eq!(sel, vec![7, 9]);
        // Residual compaction keeps relative order.
        let mut sel: Vec<u32> = (0..10).collect();
        all(CmpOp::Gt, 4).filter_sel(&mut sel);
        assert_eq!(sel, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn nan_float_predicates_agree_with_serial() {
        // NaN never satisfies a comparison (partial_cmp is None), on both
        // paths — including Neq, where NaN rows are *excluded*, matching
        // the serial scan's semantics exactly.
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
        // TypeMismatch on the serial path and must be the same error —
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
            let serial = Executor::with_defaults(&c).execute(&q, &plan).unwrap_err();
            assert!(matches!(serial, EngineError::TypeMismatch { .. }));
            for &b in SIZES {
                assert_eq!(batched(&c, b).execute(&q, &plan).unwrap_err(), serial);
            }
        }
    }

    #[test]
    fn budget_trips_mid_batch_match_serial() {
        // A skewed join emitting >65 536 tuples, so the output cadence
        // issues full-block charges; sweep budgets so trips land on the
        // upfront charge, mid-cadence (inside a batch), and the
        // remainder. Every cell must agree with serial on Ok/Err, the
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
            let serial_err = serial.execute_collect(&q, &plan).unwrap_err();
            assert!(matches!(serial_err, EngineError::WorkLimitExceeded { .. }));
            if frac >= 0.3 {
                assert!(total * frac > upfront, "the trip lands in the output");
            }
            assert_eq!(
                serial.execute(&q, &plan).unwrap_err(),
                serial_err,
                "counting, frac {frac}"
            );
            for &b in &[1usize, 7, 64, 1024] {
                let ex = Executor::new(&c, config(ExecMode::Batched { batch_size: b }));
                let got = ex.execute_collect(&q, &plan).map(|(r, _)| r);
                assert_eq!(got.unwrap_err(), serial_err, "frac {frac} batch {b}");
                let counted = ex.execute(&q, &plan);
                assert_eq!(
                    counted.unwrap_err(),
                    serial_err,
                    "counting, frac {frac} batch {b}"
                );
            }
        }
    }
}
