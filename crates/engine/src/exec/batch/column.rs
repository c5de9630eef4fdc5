//! Key-column gathers over intermediate relations.
//!
//! A [`crate::exec::relation::Relation`] stores its kept slots row-major
//! (`rows[i * width + slot]`), which is the right layout for emitting
//! joined output but the wrong one for tight kernel loops. A join reads
//! one slot per condition, so the bodies gather those slots' base-table
//! key values for a contiguous tuple range into one dense row-major
//! `Vec<i64>` and run hashing and comparisons as sequential passes over
//! it. Gathers never reorder tuples — key `k` is exactly the key of
//! `rel.tuple(range.start + k)` — which is what keeps every operator's
//! output byte-identical to the reference evaluator.

use std::ops::Range;

use crate::exec::compiled::KeySide;
use crate::exec::relation::Relation;

/// Gather the keys of the tuples of `range` row-major, one value per
/// condition of `side`: the key of `rel.tuple(range.start + k)` is
/// `out[k * stride..(k + 1) * stride]`, `stride = side.cols.len()`.
pub(crate) fn gather_keys(rel: &Relation, side: &KeySide<'_>, range: Range<usize>) -> Vec<i64> {
    let w = rel.width();
    let tuples = rel.rows()[range.start * w..range.end * w].chunks_exact(w);
    match side.cols[..] {
        [(slot, data)] => tuples.map(|t| data[t[slot] as usize]).collect(),
        _ => {
            let mut out = Vec::with_capacity(range.len() * side.cols.len());
            for t in tuples {
                out.extend(side.cols.iter().map(|&(slot, data)| data[t[slot] as usize]));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::new(vec![0, 2], vec![1, 10, 2, 20, 3, 30, 4, 40])
    }

    #[test]
    fn gather_reads_base_columns_through_row_ids() {
        let r = rel();
        let data: Vec<i64> = (0..50).map(|i| i * 100).collect();
        let side = |slots: &[usize]| KeySide {
            cols: slots.iter().map(|&s| (s, data.as_slice())).collect(),
        };
        assert_eq!(
            gather_keys(&r, &side(&[1]), 0..4),
            vec![1000, 2000, 3000, 4000]
        );
        assert_eq!(gather_keys(&r, &side(&[0]), 1..3), vec![200, 300]);
        // Composite keys come out row-major.
        assert_eq!(
            gather_keys(&r, &side(&[0, 1]), 2..4),
            vec![300, 3000, 400, 4000]
        );
        // An empty range gathers nothing.
        assert!(gather_keys(&r, &side(&[1]), 2..2).is_empty());
    }
}
