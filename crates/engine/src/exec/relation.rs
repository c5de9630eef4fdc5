//! Intermediate relations: tuples of base-table row ids.
//!
//! The engine executes count-star SPJ queries, so an intermediate result
//! never materializes attribute values — only, per output tuple, the row id
//! of each participating base table. Attribute access during joins goes
//! back to the columnar base tables.
//!
//! # Logical vs physical
//!
//! A [`Relation`] has a **logical** shape — the tables it covers
//! ([`Relation::tables`]) and its tuple count ([`Relation::len`]) — and a
//! **physical** one: the row-id slots it actually stores
//! ([`Relation::slots`], [`Relation::rows`]). The two agree for relations
//! produced by [`crate::exec::Executor::execute_collect`] and the
//! full-width step seam. [`crate::exec::Executor::execute`] only answers
//! `COUNT(*)`, so each operator keeps just the slots a later join key
//! reads (see [`keep_for_child`]); a relation no later operator reads
//! keeps none and is nothing but its count. Everything charged or
//! reported — work units, intermediate cardinalities, the answer — reads
//! the logical shape, never the physical one, so pruning cannot change an
//! account.
//!
//! Relations carry the executor's **stable row-ordering contract** (see
//! [`crate::exec::executor`]): operators emit tuples in a canonical order
//! that is a pure function of the plan and the data, never of the
//! execution schedule. [`Relation::digest`] hashes a relation in that
//! order, so two executions are byte-identical iff their digests (plus
//! slot layouts) agree; [`Relation::canonical_digest`] hashes the
//! *sorted* tuple multiset instead, which is order-insensitive and used
//! by property tests for assertions like build/probe symmetry where the
//! emit order legitimately differs.

use crate::error::{EngineError, Result};
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// Largest input row count the `u32` row-id domain admits. Row ids run
/// `0..n`; the batched join kernels reserve `u32::MAX` as their "no row"
/// sentinel, so every id must stay strictly below it — which `n` row ids
/// do exactly when `n <= u32::MAX`.
pub const MAX_ROW_IDS: usize = u32::MAX as usize;

/// Gate for the `as u32` row-id casts at batch construction. Scans and
/// join inputs call this once per operator input before any cast; an
/// input beyond [`MAX_ROW_IDS`] rows fails with a typed
/// [`EngineError::RowIdOverflow`] instead of silently truncating ids and
/// returning wrong answers.
pub fn check_row_ids(n: usize, context: &'static str) -> Result<()> {
    if n > MAX_ROW_IDS {
        return Err(EngineError::RowIdOverflow {
            context,
            rows: n as u64,
        });
    }
    Ok(())
}

/// An intermediate relation produced by a scan or join.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Logical: the tables this relation covers.
    tables: TableSet,
    /// Logical: the number of tuples.
    len: usize,
    /// Physical: table positions (into the query's `FROM` list) of each
    /// stored slot of a tuple, in a fixed order; a subset of `tables`.
    slots: Vec<usize>,
    /// Physical: flattened tuples, `rows.len() == len * slots.len()`.
    rows: Vec<u32>,
}

impl Relation {
    /// A full-width relation from a slot layout and flattened tuples.
    ///
    /// # Panics
    /// If `slots` is empty or `rows` is not a whole number of tuples.
    pub(crate) fn new(slots: Vec<usize>, rows: Vec<u32>) -> Relation {
        assert!(
            !slots.is_empty() && rows.len().is_multiple_of(slots.len()),
            "{} row ids do not tile {} slots",
            rows.len(),
            slots.len()
        );
        Relation {
            tables: TableSet::from_iter(slots.iter().copied()),
            len: rows.len() / slots.len(),
            slots,
            rows,
        }
    }

    /// A relation over one table from a list of row ids.
    pub fn from_scan(pos: usize, row_ids: Vec<u32>) -> Relation {
        Relation {
            tables: TableSet::singleton(pos),
            len: row_ids.len(),
            slots: vec![pos],
            rows: row_ids,
        }
    }

    /// The same logical relation with every physical slot dropped: what
    /// remains is its tables and its count.
    pub(crate) fn into_count(self) -> Relation {
        Relation {
            slots: Vec::new(),
            rows: Vec::new(),
            ..self
        }
    }

    /// Physical tuple width: the number of stored slots, at most
    /// `tables().len()`.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tuples are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tables this relation covers.
    pub fn tables(&self) -> TableSet {
        self.tables
    }

    /// Table positions of the stored slots.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// The stored tuples, flattened.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Borrow the stored slots of the `i`-th tuple.
    pub fn tuple(&self, i: usize) -> &[u32] {
        let w = self.width();
        &self.rows[i * w..(i + 1) * w]
    }

    /// Slot index of a table position.
    pub fn slot_of(&self, pos: usize) -> Option<usize> {
        self.slots.iter().position(|&p| p == pos)
    }

    /// Order-sensitive FNV-1a digest over the slot layout and the tuples
    /// in emit order. Equal digests (for same-width relations) mean
    /// byte-identical output — the equivalence the differential harness
    /// asserts between the reference evaluator and every mode.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.push(self.slots.len() as u64);
        for &s in &self.slots {
            h.push(s as u64);
        }
        for &r in &self.rows {
            h.push(r as u64);
        }
        h.finish()
    }

    /// Order-insensitive digest: hashes the tuple *multiset* by sorting
    /// tuples first. Two relations with the same slot layout and the same
    /// tuples in any order have equal canonical digests — used for
    /// assertions (e.g. hash-join build/probe symmetry) where emit order
    /// legitimately differs. Tuples may be reordered by `normalize` first
    /// to compare relations with permuted slot layouts.
    pub fn canonical_digest(&self) -> u64 {
        let w = self.width().max(1);
        let mut tuples: Vec<&[u32]> = (0..self.len()).map(|i| self.tuple(i)).collect();
        tuples.sort_unstable();
        let mut h = Fnv::new();
        h.push(w as u64);
        for t in tuples {
            for &r in t {
                h.push(r as u64);
            }
        }
        h.finish()
    }

    /// Reorder each tuple's slots into ascending table-position order
    /// (rows reordered to match). Lets relations produced with flipped
    /// join sides — whose slot layouts are permutations of each other —
    /// be compared via [`Relation::canonical_digest`].
    pub fn normalize(&self) -> Relation {
        let w = self.width();
        let mut order: Vec<usize> = (0..w).collect();
        order.sort_unstable_by_key(|&s| self.slots[s]);
        let slots: Vec<usize> = order.iter().map(|&s| self.slots[s]).collect();
        let mut rows = Vec::with_capacity(self.rows.len());
        for i in 0..self.len() {
            let t = self.tuple(i);
            rows.extend(order.iter().map(|&s| t[s]));
        }
        Relation {
            slots,
            rows,
            ..*self
        }
    }
}

/// The tables the child of a join covering `child` must keep: those its
/// parent keeps, plus every position with a join condition leaving
/// `child` — a later join reads that position's key. The one rule behind
/// [`crate::exec::Executor::execute`]'s pruning and the keep sets a
/// caller stepping a plan passes to the `_keeping` step seam.
pub fn keep_for_child(query: &SpjQuery, child: TableSet, parent_keep: TableSet) -> TableSet {
    let mut keep = parent_keep.intersect(child);
    for cond in query.joins_between(child, query.all_tables().minus(child)) {
        for col in [&cond.left, &cond.right] {
            if let Ok(pos) = query.col_pos(col) {
                if child.contains(pos) {
                    keep = keep.insert(pos);
                }
            }
        }
    }
    keep
}

/// How one join writes its output: which stored slots of a left and a
/// right input tuple the output keeps, in output order (left first).
///
/// Every join body writes through [`Projection::emit`]; when nothing is
/// kept ([`Projection::counts_only`]) a body counts matches instead of
/// calling it. Output work is charged at [`Projection::width`], the
/// logical width, whatever is kept.
#[derive(Debug)]
pub(crate) struct Projection {
    /// Logical output tables.
    tables: TableSet,
    /// Indices into a left input tuple, in order.
    left: Vec<usize>,
    /// Indices into a right input tuple, in order.
    right: Vec<usize>,
    /// Whether `left` / `right` keep every stored slot of their side, so
    /// a tuple is copied whole.
    whole: (bool, bool),
    /// Output slot layout.
    slots: Vec<usize>,
}

impl Projection {
    /// The projection of `left ⋈ right` onto the positions in `keep`.
    /// `keep` must only name positions stored by an input.
    pub(crate) fn new(left: &Relation, right: &Relation, keep: TableSet) -> Projection {
        let kept = |rel: &Relation| -> Vec<usize> {
            (0..rel.width())
                .filter(|&s| keep.contains(rel.slots[s]))
                .collect()
        };
        let (l, r) = (kept(left), kept(right));
        let slots = l
            .iter()
            .map(|&s| left.slots[s])
            .chain(r.iter().map(|&s| right.slots[s]))
            .collect();
        Projection {
            tables: left.tables().union(right.tables()),
            whole: (l.len() == left.width(), r.len() == right.width()),
            left: l,
            right: r,
            slots,
        }
    }

    /// The logical output width every output charge uses.
    pub(crate) fn width(&self) -> usize {
        self.tables.len()
    }

    /// True when the output keeps no slot: the join only counts.
    pub(crate) fn counts_only(&self) -> bool {
        self.slots.is_empty()
    }

    /// Append the kept slots of the joined tuple `(lt, rt)` to `out`.
    #[inline]
    pub(crate) fn emit(&self, out: &mut Vec<u32>, lt: &[u32], rt: &[u32]) {
        if self.whole.0 {
            out.extend_from_slice(lt);
        } else {
            out.extend(self.left.iter().map(|&s| lt[s]));
        }
        if self.whole.1 {
            out.extend_from_slice(rt);
        } else {
            out.extend(self.right.iter().map(|&s| rt[s]));
        }
    }

    /// The output relation of `len` tuples whose kept slots are `rows`.
    pub(crate) fn finish(&self, rows: Vec<u32>, len: usize) -> Relation {
        debug_assert_eq!(rows.len(), len * self.slots.len());
        Relation {
            tables: self.tables,
            len,
            slots: self.slots.clone(),
            rows,
        }
    }
}

/// Minimal FNV-1a accumulator over `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::{ColRef, JoinCond, TableRef};

    #[test]
    fn scan_relation() {
        let r = Relation::from_scan(2, vec![0, 5, 9]);
        assert_eq!(r.width(), 1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.tuple(1), &[5]);
        assert_eq!(r.tables(), TableSet::singleton(2));
        assert_eq!(r.slot_of(2), Some(0));
        assert_eq!(r.slot_of(0), None);
    }

    #[test]
    fn flattened_tuples() {
        let r = Relation::new(vec![0, 3], vec![1, 10, 2, 20]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuple(0), &[1, 10]);
        assert_eq!(r.tuple(1), &[2, 20]);
    }

    #[test]
    fn count_only_relation_keeps_its_logical_shape() {
        let r = Relation::new(vec![0, 3], vec![1, 10, 2, 20]).into_count();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.tables(), TableSet::from_iter([0, 3]));
        assert_eq!(r.width(), 0);
        assert!(r.rows().is_empty());
        assert_eq!(r.tuple(1), &[] as &[u32]);
    }

    #[test]
    fn digest_is_order_sensitive_canonical_is_not() {
        let a = Relation::new(vec![0, 1], vec![1, 10, 2, 20]);
        let b = Relation::new(vec![0, 1], vec![2, 20, 1, 10]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.canonical_digest(), b.canonical_digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn normalize_permutes_slots_and_rows() {
        let r = Relation::new(vec![2, 0], vec![7, 1, 8, 2]);
        let n = r.normalize();
        assert_eq!(n.slots(), &[0, 2]);
        assert_eq!(n.rows(), &[1, 7, 2, 8]);
        // Flipped join sides compare equal after normalization.
        let flipped = Relation::new(vec![0, 2], vec![1, 7, 2, 8]);
        assert_eq!(n.canonical_digest(), flipped.normalize().canonical_digest());
    }

    #[test]
    fn projection_keeps_slots_in_output_order() {
        let l = Relation::from_scan(0, vec![]);
        let r = Relation::new(vec![2, 1], vec![]);
        let full = Projection::new(&l, &r, TableSet::full(3));
        assert_eq!(full.slots, vec![0, 2, 1]);
        assert_eq!(full.width(), 3);
        let mut out = Vec::new();
        full.emit(&mut out, &[5], &[7, 6]);
        assert_eq!(out, vec![5, 7, 6]);

        let pruned = Projection::new(&l, &r, TableSet::singleton(1));
        assert_eq!(pruned.slots, vec![1]);
        assert_eq!(pruned.width(), 3, "charges use the logical width");
        out.clear();
        pruned.emit(&mut out, &[5], &[7, 6]);
        assert_eq!(out, vec![6]);
        let rel = pruned.finish(out, 1);
        assert_eq!(rel.tables(), TableSet::full(3));
        assert_eq!(rel.len(), 1);

        let count = Projection::new(&l, &r, TableSet::EMPTY);
        assert!(count.counts_only());
        assert_eq!(count.finish(Vec::new(), 42).len(), 42);
    }

    #[test]
    fn children_keep_positions_with_conditions_leaving_them() {
        // a - b - c chain: a.id = b.a_id, b.c_id = c.id.
        let q = SpjQuery::new(
            vec![
                TableRef::bare("a"),
                TableRef::bare("b"),
                TableRef::bare("c"),
            ],
            vec![
                JoinCond::new(ColRef::new("a", "id"), ColRef::new("b", "a_id")),
                JoinCond::new(ColRef::new("b", "c_id"), ColRef::new("c", "id")),
            ],
            vec![],
        );
        let ab = TableSet::from_iter([0, 1]);
        // Under a counting root, {a, b} keeps only b (joined to c later).
        assert_eq!(
            keep_for_child(&q, ab, TableSet::EMPTY),
            TableSet::singleton(1)
        );
        // Everything the parent keeps stays.
        assert_eq!(keep_for_child(&q, ab, TableSet::full(3)), ab);
        // A whole query has nothing leaving it.
        assert_eq!(
            keep_for_child(&q, TableSet::full(3), TableSet::EMPTY),
            TableSet::EMPTY
        );
        // A scan of c keeps c: b joins it.
        assert_eq!(
            keep_for_child(&q, TableSet::singleton(2), TableSet::EMPTY),
            TableSet::singleton(2)
        );
    }

    #[test]
    fn row_id_domain_boundary() {
        // Exactly u32::MAX row ids fit (the largest id is u32::MAX - 1,
        // strictly below the kernels' NONE sentinel).
        assert!(check_row_ids(0, "scan").is_ok());
        assert!(check_row_ids(MAX_ROW_IDS, "scan").is_ok());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn row_ids_beyond_u32_are_rejected_not_truncated() {
        // Pre-fix, a (MAX_ROW_IDS + 1)-row input reached `as u32` casts
        // and wrapped ids back to 0 — wrong answers, no error.
        let err = check_row_ids(MAX_ROW_IDS + 1, "join left input").unwrap_err();
        match err {
            EngineError::RowIdOverflow { context, rows } => {
                assert_eq!(context, "join left input");
                assert_eq!(rows, u32::MAX as u64 + 1);
            }
            other => panic!("expected RowIdOverflow, got {other:?}"),
        }
        assert!(check_row_ids(usize::MAX, "scan").is_err());
    }
}
