//! Range runners: how an operator body's input ranges are run.
//!
//! Every operator kind has one production body (see
//! [`crate::exec::batch`]), written over contiguous ranges of its input.
//! The execution mode only picks the runner that drives those ranges:
//!
//! * [`Runner::InThread`] runs ranges of `batch` rows in order on the
//!   calling thread and charges each range's output count as soon as the
//!   range is done, so a work budget trips mid-operator.
//! * [`Runner::Pool`] dispatches morsels to the query's pool run
//!   ([`crate::exec::parallel`]); an output-producing morsel runs the
//!   body over [`DEFAULT_BATCH_SIZE`] sub-ranges, and the coordinator
//!   then appends the morsels' output and charges their counts in morsel
//!   order.
//!
//! Both feed counts through the same
//! [`ChargeCadence`](crate::exec::workunits::ChargeCadence), which issues
//! the same charges whatever the lump sizes, and both concatenate output
//! in range order — so the two runners produce the same relation and the
//! same bit-identical work account. They differ only in when a budget
//! trip is noticed (after one batch in-thread, after one morsel on the
//! pool, where the shared approximate accumulator also cancels dispatch),
//! never in the error raised.

#![allow(rustdoc::private_intra_doc_links)]

use std::ops::Range;

use crate::error::Result;
use crate::exec::batch::DEFAULT_BATCH_SIZE;
use crate::exec::executor::WorkMeter;
use crate::exec::parallel::ParRun;
use crate::exec::relation::Tuples;
use crate::exec::workunits::ChargeCadence;

/// How an operator body's input ranges are run.
pub(crate) enum Runner<'r> {
    /// In-thread, over ranges of this many rows (at least 1), in order.
    InThread(usize),
    /// On the query's morsel pool.
    Pool(&'r ParRun<'r>),
}

/// `span` cut into ranges of at most `step` rows, in order.
fn ranges(span: Range<usize>, step: usize) -> impl Iterator<Item = Range<usize>> {
    let at = move |k: usize| (span.start + k * step).min(span.end);
    (0..span.len().div_ceil(step)).map(move |k| at(k)..at(k + 1))
}

impl Runner<'_> {
    /// Run `body` over ranges covering `0..n` and hand each result to
    /// `sink` with its range, in range order. `body` charges nothing.
    pub(crate) fn each<T: Send>(
        &self,
        n: usize,
        op: &'static str,
        body: impl Fn(Range<usize>) -> T + Sync,
        mut sink: impl FnMut(Range<usize>, T),
    ) -> Result<()> {
        match self {
            Runner::InThread(batch) => {
                for range in ranges(0..n, *batch) {
                    sink(range.clone(), body(range));
                }
            }
            Runner::Pool(run) => {
                let outs = run.dispatch(n, op, |_, range| (range.clone(), body(range)))?;
                for (range, out) in outs {
                    sink(range, out);
                }
            }
        }
        Ok(())
    }

    /// Run `body` over ranges of at most one batch covering `0..n`: it
    /// appends a range's output tuples to the buffer it is given and
    /// returns the range's logical output count (the sum of their
    /// weights, or of what an output without slots would have stored).
    /// Output lands in `out` in range order; with a `cadence`, every
    /// range's count is charged through it in range order. Returns the
    /// total count.
    pub(crate) fn emit(
        &self,
        n: usize,
        op: &'static str,
        mut cadence: Option<&mut ChargeCadence<'_>>,
        meter: &mut WorkMeter,
        out: &mut Tuples,
        body: impl Fn(Range<usize>, &mut Tuples) -> u128 + Sync,
    ) -> Result<u128> {
        let mut total = 0;
        match self {
            Runner::InThread(batch) => {
                for range in ranges(0..n, *batch) {
                    let count = body(range, out);
                    total += count;
                    if let Some(cadence) = cadence.as_deref_mut() {
                        cadence.bump(count, meter)?;
                    }
                }
            }
            Runner::Pool(run) => {
                let shared = &run.shared;
                shared.seed_work(meter.work);
                let approx = cadence.as_deref();
                let chunks = run.dispatch(n, op, |_, morsel| {
                    let mut part = Tuples::default();
                    let count: u128 = ranges(morsel, DEFAULT_BATCH_SIZE)
                        .map(|range| body(range, &mut part))
                        .sum();
                    if let Some(cadence) = approx {
                        shared.add_approx(cadence.work(count));
                    }
                    (part, count)
                })?;
                for (part, count) in chunks {
                    out.append(part);
                    total += count;
                    if let Some(cadence) = cadence.as_deref_mut() {
                        cadence.bump(count, meter)?;
                    }
                }
            }
        }
        Ok(total)
    }
}
