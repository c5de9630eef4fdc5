//! Compiled predicate and join-key accessors shared by the operator
//! bodies and the reference evaluator.
//!
//! Both must evaluate predicates and extract join keys with *identical*
//! semantics — the differential harness in `crates/testkit` asserts
//! byte-identical output between them — so the compiled forms live here,
//! in one place, and borrow directly from the columnar base tables.
//! Everything in this module is immutable after construction and safe to
//! share across worker threads.

use crate::column::Column;
use crate::query::expr::{CmpOp, Predicate};
use crate::types::Value;

/// Compiled single-column predicate with fast paths per column type.
pub(crate) enum Compiled<'a> {
    /// Integer column compared to an integer literal.
    Int {
        /// Column data.
        data: &'a [i64],
        /// Comparison operator.
        op: CmpOp,
        /// Literal.
        v: i64,
    },
    /// Integer column compared to a float literal.
    IntF {
        /// Column data.
        data: &'a [i64],
        /// Comparison operator.
        op: CmpOp,
        /// Literal.
        v: f64,
    },
    /// Float column compared to a numeric literal.
    Float {
        /// Column data.
        data: &'a [f64],
        /// Comparison operator.
        op: CmpOp,
        /// Literal.
        v: f64,
    },
    /// Dictionary-coded text equality / inequality.
    TextEq {
        /// Dictionary codes.
        codes: &'a [u32],
        /// Code of the literal, if present in the dictionary.
        code: Option<u32>,
        /// True for `!=`.
        negate: bool,
    },
    /// Fallback: untyped comparison through [`Value`].
    Slow {
        /// The column.
        col: &'a Column,
        /// Comparison operator.
        op: CmpOp,
        /// Literal.
        value: Value,
    },
}

impl Compiled<'_> {
    /// Does `row` satisfy the predicate?
    #[inline]
    pub(crate) fn matches(&self, row: usize) -> bool {
        match self {
            Compiled::Int { data, op, v } => op.matches(data[row].cmp(v)),
            Compiled::IntF { data, op, v } => (data[row] as f64)
                .partial_cmp(v)
                .is_some_and(|o| op.matches(o)),
            Compiled::Float { data, op, v } => {
                data[row].partial_cmp(v).is_some_and(|o| op.matches(o))
            }
            Compiled::TextEq {
                codes,
                code,
                negate,
            } => {
                let hit = code.is_some_and(|c| codes[row] == c);
                hit != *negate
            }
            Compiled::Slow { col, op, value } => {
                col.value(row).compare(value).is_some_and(|o| op.matches(o))
            }
        }
    }
}

/// Append the rows of `range` that satisfy `f` to `out`.
#[inline]
fn select_range(range: std::ops::Range<usize>, out: &mut Vec<u32>, f: impl Fn(usize) -> bool) {
    for row in range {
        if f(row) {
            out.push(row as u32);
        }
    }
}

/// In-place compaction of the selection vector `sel[from..]`: keep the
/// rows satisfying `f`.
#[inline]
fn compact_sel(sel: &mut Vec<u32>, from: usize, f: impl Fn(usize) -> bool) {
    let mut w = from;
    for i in from..sel.len() {
        let row = sel[i];
        if f(row as usize) {
            sel[w] = row;
            w += 1;
        }
    }
    sel.truncate(w);
}

impl Compiled<'_> {
    /// Batched first-predicate kernel: append the row ids in `range` that
    /// satisfy the predicate to `out` (ascending order). The `match` on
    /// the compiled form happens once per batch instead of once per row,
    /// so each arm is a tight loop over one typed column.
    pub(crate) fn filter_range(&self, range: std::ops::Range<usize>, out: &mut Vec<u32>) {
        match self {
            Compiled::Int { data, op, v } => {
                select_range(range, out, |r| op.matches(data[r].cmp(v)))
            }
            Compiled::IntF { data, op, v } => select_range(range, out, |r| {
                (data[r] as f64)
                    .partial_cmp(v)
                    .is_some_and(|o| op.matches(o))
            }),
            Compiled::Float { data, op, v } => select_range(range, out, |r| {
                data[r].partial_cmp(v).is_some_and(|o| op.matches(o))
            }),
            Compiled::TextEq {
                codes,
                code,
                negate,
            } => select_range(range, out, |r| {
                code.is_some_and(|c| codes[r] == c) != *negate
            }),
            Compiled::Slow { col, op, value } => select_range(range, out, |r| {
                col.value(r).compare(value).is_some_and(|o| op.matches(o))
            }),
        }
    }

    /// Batched residual-predicate kernel: compact the selection vector
    /// `sel[from..]` in place, keeping only rows that also satisfy this
    /// predicate. Row order is preserved, so a chain of `filter_range`
    /// then `filter_sel` calls selects exactly the rows the per-row
    /// conjunction of [`Compiled::matches`] does, in the same order.
    pub(crate) fn filter_sel(&self, sel: &mut Vec<u32>, from: usize) {
        match self {
            Compiled::Int { data, op, v } => compact_sel(sel, from, |r| op.matches(data[r].cmp(v))),
            Compiled::IntF { data, op, v } => compact_sel(sel, from, |r| {
                (data[r] as f64)
                    .partial_cmp(v)
                    .is_some_and(|o| op.matches(o))
            }),
            Compiled::Float { data, op, v } => compact_sel(sel, from, |r| {
                data[r].partial_cmp(v).is_some_and(|o| op.matches(o))
            }),
            Compiled::TextEq {
                codes,
                code,
                negate,
            } => compact_sel(sel, from, |r| {
                code.is_some_and(|c| codes[r] == c) != *negate
            }),
            Compiled::Slow { col, op, value } => compact_sel(sel, from, |r| {
                col.value(r).compare(value).is_some_and(|o| op.matches(o))
            }),
        }
    }
}

/// Compile `pred` against `col`, choosing the fastest evaluation path.
pub(crate) fn compile_pred<'a>(col: &'a Column, pred: &Predicate) -> Compiled<'a> {
    match (col, &pred.value, pred.op) {
        (Column::Int(data), Value::Int(v), op) => Compiled::Int { data, op, v: *v },
        (Column::Int(data), Value::Float(v), op) => Compiled::IntF { data, op, v: *v },
        (Column::Float(data), Value::Int(v), op) => Compiled::Float {
            data,
            op,
            v: *v as f64,
        },
        (Column::Float(data), Value::Float(v), op) => Compiled::Float { data, op, v: *v },
        (Column::Text { dict: _, codes }, Value::Text(s), CmpOp::Eq) => Compiled::TextEq {
            codes,
            code: col.text_code(s),
            negate: false,
        },
        (Column::Text { dict: _, codes }, Value::Text(s), CmpOp::Neq) => Compiled::TextEq {
            codes,
            code: col.text_code(s),
            negate: true,
        },
        _ => Compiled::Slow {
            col,
            op: pred.op,
            value: pred.value.clone(),
        },
    }
}

/// One side of a set of join conditions: for each condition, the slot in
/// the relation's tuple layout and the integer column to read the key from.
pub(crate) struct KeySide<'a> {
    /// `(slot, column data)` per condition.
    pub(crate) cols: Vec<(usize, &'a [i64])>,
}

impl KeySide<'_> {
    /// The key of `tuple`, one value per condition.
    pub(crate) fn key(&self, tuple: &[u32]) -> Vec<i64> {
        self.cols
            .iter()
            .map(|&(slot, data)| data[tuple[slot] as usize])
            .collect()
    }
}
