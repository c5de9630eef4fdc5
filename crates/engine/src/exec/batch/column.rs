//! Key-column gathers over intermediate relations.
//!
//! A [`crate::exec::relation::Relation`] stores its kept slots row-major
//! (`rows[i * width + slot]`), which is the right layout for emitting
//! joined output but the wrong one for tight kernel loops. A join reads
//! one slot per key, so the kernels gather that slot's base-table key
//! values for a contiguous tuple range into one dense `Vec<i64>` and run
//! hashing and comparisons as sequential passes over it. Gathers never
//! reorder tuples — position `i` is exactly the key of
//! `rel.tuple(range.start + i)` — which is what keeps every batched
//! operator's output byte-identical to the serial reference.

use std::ops::Range;

use crate::exec::relation::Relation;

/// Gather key values for the tuples of `range` into `out` (cleared
/// first): `out[i] = data[rel.tuple(range.start + i)[slot]]`.
pub(crate) fn gather_key_range_into(
    rel: &Relation,
    slot: usize,
    data: &[i64],
    range: Range<usize>,
    out: &mut Vec<i64>,
) {
    let w = rel.width();
    debug_assert!(slot < w, "key slot {slot} not stored (width {w})");
    out.clear();
    out.reserve(range.len());
    for tuple in rel.rows()[range.start * w..range.end * w].chunks_exact(w) {
        out.push(data[tuple[slot] as usize]);
    }
}

/// Gather key values for the tuples of `range` in one pass. The
/// morsel-parallel batched paths gather per-morsel ranges and concatenate
/// in morsel order, which equals the whole-column gather.
pub(crate) fn gather_key_range(
    rel: &Relation,
    slot: usize,
    data: &[i64],
    range: Range<usize>,
) -> Vec<i64> {
    let mut out = Vec::new();
    gather_key_range_into(rel, slot, data, range, &mut out);
    out
}

/// Gather key values for every tuple of a whole relation (one pass, no
/// chunking): `out[i] = data[rel.tuple(i)[slot]]`. Used when an operator
/// wants the full key column up front (hash-join build, the nested-loop
/// inner side) rather than batch by batch.
pub(crate) fn gather_key_column(rel: &Relation, slot: usize, data: &[i64]) -> Vec<i64> {
    gather_key_range(rel, slot, data, 0..rel.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::new(vec![0, 2], vec![1, 10, 2, 20, 3, 30, 4, 40])
    }

    #[test]
    fn gather_reads_base_column_through_row_ids() {
        let r = rel();
        let data: Vec<i64> = (0..50).map(|i| i * 100).collect();
        assert_eq!(
            gather_key_column(&r, 1, &data),
            vec![1000, 2000, 3000, 4000]
        );
        assert_eq!(gather_key_column(&r, 0, &data), vec![100, 200, 300, 400]);
    }

    #[test]
    fn range_gathers_follow_tuple_order() {
        let r = rel();
        let data: Vec<i64> = (0..50).collect();
        assert_eq!(gather_key_range(&r, 1, &data, 1..3), vec![20, 30]);
        for i in 0..r.len() {
            assert_eq!(
                gather_key_range(&r, 0, &data, i..i + 1),
                vec![r.tuple(i)[0] as i64]
            );
        }
        // The reused buffer is cleared, and an empty range gathers nothing.
        let mut out = vec![-1];
        gather_key_range_into(&r, 1, &data, 2..2, &mut out);
        assert!(out.is_empty());
    }
}
