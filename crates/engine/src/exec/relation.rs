//! Intermediate relations: tuples of base-table row ids, each with a
//! multiplicity.
//!
//! The engine executes count-star SPJ queries, so an intermediate result
//! never materializes attribute values — only, per output tuple, the row id
//! of each participating base table. Attribute access during joins goes
//! back to the columnar base tables.
//!
//! # Logical, physical and weight
//!
//! A [`Relation`] has a **logical** shape — the tables it covers
//! ([`Relation::tables`]) and its tuple count ([`Relation::len`]) — and a
//! **physical** one: the row-id slots it actually stores
//! ([`Relation::slots`], [`Relation::rows`]) for
//! [`Relation::physical_len`] stored tuples, each with a **weight**
//! ([`Relation::weights`]): the number of logical tuples it stands for.
//! An empty weight column means every weight is 1, so a unit relation
//! stores nothing extra; the logical count is the sum of the weights.
//!
//! The two shapes agree for relations produced by
//! [`crate::exec::Executor::execute_collect`] and the full-width step
//! forms, which only tests and the benchmark's probe use: they are full
//! width and unit. [`crate::exec::Executor::execute`] and every
//! production caller of the step seam (serving, re-optimization) only
//! answer `COUNT(*)`, so each operator keeps just the slots a later join
//! key reads (see [`keep_for_child`]), and a join that keeps slots of
//! one side only **collapses** onto that side: it emits each surviving
//! tuple of the kept side once, weighted by its number of matches.
//!
//! * **Hash join.** Kept probe side: probe tuple `j` gets
//!   `w_j × Σ build weights of its key`, read from the hash join's
//!   `KeyTable`. Kept build
//!   side: a per-key accumulator sums probe weights, then build tuple
//!   `i` gets `w_i × Σ probe weights of its key`, in ascending build
//!   order.
//! * **Nested-loop join.** The kept side's tuple gets its weight times
//!   the summed weights of the other side's tuples it matches.
//! * **Merge join.** A key group's kept-side tuples get their weight
//!   times the other side's group weight sum.
//! * **Cross product.** The kept side's tuple gets its weight times the
//!   other side's logical count.
//!
//! A join that keeps both sides emits pairs weighted by the product of
//! their weights; one that keeps nothing — the root of `execute` — stores
//! no tuple and only sums what it would have emitted. A relation no later
//! operator reads keeps no slot and is nothing but its count.
//!
//! Everything charged or reported — work units, intermediate
//! cardinalities, the answer — reads the logical shape, never the
//! physical one, so neither pruning nor collapsing can change an account.
//! Weight products are formed in `u128`, which cannot overflow, and a
//! logical count beyond `usize` becomes a typed
//! [`EngineError::CountOverflow`] where the output's `ChargeCadence`
//! counts it, never a wrapped count.
//!
//! Relations carry the executor's **stable row-ordering contract** (see
//! [`crate::exec::executor`]): operators emit tuples in a canonical order
//! that is a pure function of the plan and the data, never of the
//! execution schedule. [`Relation::digest`] hashes a relation in that
//! order, weights included, so two executions are byte-identical iff
//! their digests (plus slot layouts) agree; [`Relation::canonical_digest`]
//! hashes the *sorted* multiset of (tuple, weight) pairs instead, which
//! is order-insensitive and used by property tests for assertions like
//! build/probe symmetry where the emit order legitimately differs. A unit
//! relation hashes as if it had no weight column at all.

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
    /// Logical: the number of tuples, the sum of the weights.
    len: usize,
    /// Physical: table positions (into the query's `FROM` list) of each
    /// stored slot of a tuple, in a fixed order; a subset of `tables`.
    slots: Vec<usize>,
    /// Physical: flattened stored tuples, a whole number of `slots.len()`.
    rows: Vec<u32>,
    /// Physical: the weight (at least 1) of each stored tuple, or empty
    /// when every weight is 1.
    weights: Vec<u64>,
}

impl Relation {
    /// A full-width unit relation from a slot layout and flattened tuples.
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
            weights: Vec::new(),
        }
    }

    /// A relation over one table from a list of row ids.
    pub fn from_scan(pos: usize, row_ids: Vec<u32>) -> Relation {
        Relation {
            tables: TableSet::singleton(pos),
            len: row_ids.len(),
            slots: vec![pos],
            rows: row_ids,
            weights: Vec::new(),
        }
    }

    /// The same stored tuples with the given weights, one per tuple; the
    /// logical count becomes their sum.
    ///
    /// # Panics
    /// If the weights do not match the stored tuples, a weight is 0, or
    /// their sum overflows.
    #[cfg(test)]
    pub(crate) fn with_weights(self, weights: Vec<u64>) -> Relation {
        assert_eq!(weights.len(), self.physical_len());
        assert!(weights.iter().all(|&w| w > 0), "weights are at least 1");
        let sum = weights.iter().try_fold(0u64, |s, &w| s.checked_add(w));
        Relation {
            len: usize::try_from(sum.expect("weights sum to a u64")).unwrap(),
            weights: if weights.iter().all(|&w| w == 1) {
                Vec::new()
            } else {
                weights
            },
            ..self
        }
    }

    /// The same logical relation with every physical slot dropped: what
    /// remains is its tables and its count.
    pub(crate) fn into_count(self) -> Relation {
        Relation {
            slots: Vec::new(),
            rows: Vec::new(),
            weights: Vec::new(),
            ..self
        }
    }

    /// Physical tuple width: the number of stored slots, at most
    /// `tables().len()`.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// Number of logical tuples: the sum of the stored tuples' weights,
    /// or the count a relation without slots stands for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tuples are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored tuples: 0 without slots, at most [`Relation::len`].
    pub fn physical_len(&self) -> usize {
        self.rows.len().checked_div(self.width()).unwrap_or(0)
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

    /// The weight of each stored tuple; empty when every weight is 1.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// True when some stored tuple has a weight above 1.
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// The weight of the `i`-th stored tuple.
    #[inline]
    pub(crate) fn weight(&self, i: usize) -> u64 {
        if self.weights.is_empty() {
            1
        } else {
            self.weights[i]
        }
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

    /// Order-sensitive FNV-1a digest over the slot layout, the tuples in
    /// emit order and — for a weighted relation — the weights. Equal
    /// digests (for same-width relations) mean byte-identical output —
    /// the equivalence the differential harness asserts between the
    /// reference evaluator and every mode. A unit relation hashes exactly
    /// as it did before relations carried weights.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.push(self.slots.len() as u64);
        for &s in &self.slots {
            h.push(s as u64);
        }
        for &r in &self.rows {
            h.push(r as u64);
        }
        if self.is_weighted() {
            h.push(WEIGHTS_TAG);
            for &w in &self.weights {
                h.push(w);
            }
        }
        h.finish()
    }

    /// Order-insensitive digest: hashes the multiset of (tuple, weight)
    /// pairs by sorting them first. Two relations with the same slot
    /// layout and the same weighted tuples in any order have equal
    /// canonical digests — used for assertions (e.g. hash-join
    /// build/probe symmetry) where emit order legitimately differs.
    /// Tuples may be reordered by `normalize` first to compare relations
    /// with permuted slot layouts. A unit relation hashes its tuples
    /// alone, as before relations carried weights.
    pub fn canonical_digest(&self) -> u64 {
        let w = self.width().max(1);
        let mut tuples: Vec<(&[u32], u64)> = (0..self.physical_len())
            .map(|i| (self.tuple(i), self.weight(i)))
            .collect();
        tuples.sort_unstable();
        let mut h = Fnv::new();
        h.push(w as u64);
        for (t, weight) in tuples {
            for &r in t {
                h.push(r as u64);
            }
            if self.is_weighted() {
                h.push(weight);
            }
        }
        h.finish()
    }

    /// Reorder each tuple's slots into ascending table-position order
    /// (rows reordered to match, weights unchanged). Lets relations
    /// produced with flipped join sides — whose slot layouts are
    /// permutations of each other — be compared via
    /// [`Relation::canonical_digest`].
    pub fn normalize(&self) -> Relation {
        let w = self.width();
        let mut order: Vec<usize> = (0..w).collect();
        order.sort_unstable_by_key(|&s| self.slots[s]);
        let slots: Vec<usize> = order.iter().map(|&s| self.slots[s]).collect();
        let mut rows = Vec::with_capacity(self.rows.len());
        for i in 0..self.physical_len() {
            let t = self.tuple(i);
            rows.extend(order.iter().map(|&s| t[s]));
        }
        Relation {
            slots,
            rows,
            weights: self.weights.clone(),
            ..*self
        }
    }
}

/// Separates a weighted relation's weights from its rows in
/// [`Relation::digest`].
const WEIGHTS_TAG: u64 = 0x5745_4947_4854_5321;

/// A relation's stored tuples under construction: kept slots row-major
/// and, when the output is weighted, one weight per tuple.
#[derive(Debug, Default)]
pub(crate) struct Tuples {
    pub(crate) rows: Vec<u32>,
    pub(crate) weights: Vec<u64>,
}

impl Tuples {
    /// Append `other`'s tuples after these.
    pub(crate) fn append(&mut self, mut other: Tuples) {
        self.rows.append(&mut other.rows);
        self.weights.append(&mut other.weights);
    }
}

/// Store the weight `w` of the tuple just appended to `out`. A weight
/// beyond `u64` makes the output's count overflow too, which fails the
/// join before this saturated one is read.
#[inline]
fn push_weight(out: &mut Tuples, w: u128) {
    out.weights.push(u64::try_from(w).unwrap_or(u64::MAX));
}

/// The logical count `n` as a relation length, or the typed overflow
/// error of `op`.
pub(crate) fn logical_len(n: u128, op: &'static str) -> Result<usize> {
    usize::try_from(n).map_err(|_| EngineError::CountOverflow { op })
}

/// The tables the child of a join covering `child` must keep: those its
/// parent keeps, plus every position with a join condition leaving
/// `child` — a later join reads that position's key. The one rule behind
/// [`crate::exec::Executor::execute`]'s pruning and the keep sets a
/// caller stepping a plan passes to the `_keeping` step seam. Derived
/// top-down from an empty root keep, it equals
/// `keep_for_child(query, child, TableSet::EMPTY)` at every node, so a
/// step-wise caller computes each step's keep from the step alone.
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
/// right input tuple the output keeps, in output order (left first), and
/// whether it stores a weight per tuple.
///
/// Every join body writes through [`Projection::emit`]. What a body
/// iterates follows [`Projection::keeps`]: a join that keeps slots of
/// both sides emits pairs, one that keeps one side collapses onto it,
/// and one that keeps nothing sums its output weights without storing a
/// tuple. Output work is charged at [`Projection::width`], the logical
/// width, whatever is kept.
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
    /// Whether each output tuple stores its weight: the output keeps
    /// slots, and it collapses a side or pairs a weighted input.
    weighted: bool,
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
        let slots: Vec<usize> = l
            .iter()
            .map(|&s| left.slots[s])
            .chain(r.iter().map(|&s| right.slots[s]))
            .collect();
        let pairs_unit =
            !l.is_empty() && !r.is_empty() && !left.is_weighted() && !right.is_weighted();
        Projection {
            tables: left.tables().union(right.tables()),
            whole: (l.len() == left.width(), r.len() == right.width()),
            weighted: !slots.is_empty() && !pairs_unit,
            left: l,
            right: r,
            slots,
        }
    }

    /// The logical output width every output charge uses.
    pub(crate) fn width(&self) -> usize {
        self.tables.len()
    }

    /// Whether the output stores tuples: it keeps some slot.
    pub(crate) fn stores(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Whether the output keeps slots of the left and of the right input.
    pub(crate) fn keeps(&self) -> (bool, bool) {
        (!self.left.is_empty(), !self.right.is_empty())
    }

    /// Append the kept slots of the pair `(lt, rt)` to `out` and return
    /// its weight: `weight()`, read and stored only when the output is
    /// weighted, else 1. For a join that keeps both sides.
    #[inline(always)]
    pub(crate) fn pair(
        &self,
        out: &mut Tuples,
        lt: &[u32],
        rt: &[u32],
        weight: impl FnOnce() -> u128,
    ) -> u128 {
        self.emit_slots(&mut out.rows, lt, rt);
        if !self.weighted {
            return 1;
        }
        let w = weight();
        push_weight(out, w);
        w
    }

    /// Append the kept slots of `(lt, rt)` and the positive weight `w`
    /// to `out`: one tuple of a collapsed output, whose side that keeps
    /// nothing passes an empty tuple. Only an output that
    /// [`stores`](Projection::stores) tuples emits.
    #[inline]
    pub(crate) fn emit(&self, out: &mut Tuples, lt: &[u32], rt: &[u32], w: u128) {
        debug_assert!(self.weighted, "a collapsed output that stores is weighted");
        self.emit_slots(&mut out.rows, lt, rt);
        push_weight(out, w);
    }

    /// Append the kept slots of `(lt, rt)` to `rows`.
    #[inline(always)]
    fn emit_slots(&self, rows: &mut Vec<u32>, lt: &[u32], rt: &[u32]) {
        if self.whole.0 {
            rows.extend_from_slice(lt);
        } else {
            rows.extend(self.left.iter().map(|&s| lt[s]));
        }
        if self.whole.1 {
            rows.extend_from_slice(rt);
        } else {
            rows.extend(self.right.iter().map(|&s| rt[s]));
        }
    }

    /// The output relation of `len` logical tuples stored in `out`. An
    /// all-1 weight column is dropped, so a unit output is stored (and
    /// hashed) as one.
    pub(crate) fn finish(&self, mut out: Tuples, len: usize) -> Relation {
        if out.weights.iter().all(|&w| w == 1) {
            out.weights = Vec::new();
        }
        debug_assert!(
            self.slots.is_empty() || {
                let stored = out.rows.len() / self.slots.len();
                match out.weights.len() {
                    0 => stored == len,
                    n => {
                        n == stored
                            && out.weights.iter().map(|&w| w as u128).sum::<u128>() == len as u128
                    }
                }
            }
        );
        Relation {
            tables: self.tables,
            len,
            slots: self.slots.clone(),
            rows: out.rows,
            weights: out.weights,
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
        assert_eq!(full.keeps(), (true, true));
        let mut out = Tuples::default();
        let w = full.pair(&mut out, &[5], &[7, 6], || {
            unreachable!("unit pairs weigh 1")
        });
        assert_eq!((out.rows, w), (vec![5, 7, 6], 1));
        assert!(out.weights.is_empty(), "unit pairs store no weight");

        let pruned = Projection::new(&l, &r, TableSet::singleton(1));
        assert_eq!(pruned.slots, vec![1]);
        assert_eq!(pruned.width(), 3, "charges use the logical width");
        assert_eq!(pruned.keeps(), (false, true));
        let mut out = Tuples::default();
        pruned.emit(&mut out, &[], &[7, 6], 3);
        assert_eq!((&out.rows[..], &out.weights[..]), (&[6][..], &[3][..]));
        let rel = pruned.finish(out, 3);
        assert_eq!(rel.tables(), TableSet::full(3));
        assert_eq!((rel.len(), rel.physical_len()), (3, 1));
        assert_eq!(rel.weights(), &[3]);

        // A collapse whose weights are all 1 is stored as a unit relation.
        let mut out = Tuples::default();
        pruned.emit(&mut out, &[], &[7, 6], 1);
        pruned.emit(&mut out, &[], &[8, 9], 1);
        let rel = pruned.finish(out, 2);
        assert!(!rel.is_weighted());
        assert_eq!(rel.digest(), Relation::new(vec![1], vec![6, 9]).digest());

        let count = Projection::new(&l, &r, TableSet::EMPTY);
        assert_eq!(count.keeps(), (false, false));
        assert!(!count.stores());
        let rel = count.finish(Tuples::default(), 42);
        assert_eq!((rel.len(), rel.physical_len(), rel.width()), (42, 0, 0));
    }

    #[test]
    fn weighted_pairs_store_their_product() {
        let l = Relation::from_scan(0, vec![1, 2]).with_weights(vec![2, 5]);
        let r = Relation::from_scan(1, vec![9]);
        let proj = Projection::new(&l, &r, TableSet::full(2));
        assert_eq!(proj.keeps(), (true, true));
        let mut out = Tuples::default();
        let w = proj.pair(&mut out, l.tuple(1), r.tuple(0), || 5);
        assert_eq!(
            (&out.rows[..], &out.weights[..], w),
            (&[2, 9][..], &[5][..], 5)
        );
    }

    #[test]
    fn weights_are_physical_and_sum_to_the_logical_count() {
        let r = Relation::new(vec![0, 3], vec![1, 10, 2, 20]).with_weights(vec![4, 1]);
        assert_eq!((r.len(), r.physical_len(), r.width()), (5, 2, 2));
        assert!(r.is_weighted());
        assert_eq!((r.weight(0), r.weight(1)), (4, 1));
        let unit = Relation::new(vec![0, 3], vec![1, 10, 2, 20]);
        assert_eq!((unit.len(), unit.physical_len()), (2, 2));
        assert!(!unit.is_weighted() && unit.weights().is_empty());
        assert_eq!(unit.weight(1), 1);
        // All-1 weights are stored as none.
        let ones = unit.clone().with_weights(vec![1, 1]);
        assert!(!ones.is_weighted());
        assert_eq!(ones.digest(), unit.digest());
        // Counting drops the weights with the slots, not the count.
        let count = r.into_count();
        assert_eq!((count.len(), count.physical_len()), (5, 0));
        assert!(!count.is_weighted());
    }

    #[test]
    fn digests_cover_weights() {
        let unit = Relation::new(vec![0, 1], vec![1, 10, 2, 20]);
        let a = unit.clone().with_weights(vec![2, 3]);
        let b = unit.clone().with_weights(vec![3, 2]);
        // Weights change both digests; a unit relation hashes as before
        // weights existed (the pinned values below).
        assert_ne!(a.digest(), unit.digest());
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.canonical_digest(), unit.canonical_digest());
        assert_ne!(a.canonical_digest(), b.canonical_digest());
        assert_eq!(unit.digest(), 0x2039_d0bd_5238_697b);
        assert_eq!(unit.canonical_digest(), 0x7261_741e_4d82_795a);
        // Canonical digests pair each tuple with its weight.
        let swapped = Relation::new(vec![0, 1], vec![2, 20, 1, 10]).with_weights(vec![3, 2]);
        assert_eq!(swapped.canonical_digest(), a.canonical_digest());
        assert_ne!(swapped.digest(), a.digest());
        // Normalizing keeps each tuple's weight.
        let flipped = Relation::new(vec![1, 0], vec![10, 1, 20, 2]).with_weights(vec![2, 3]);
        let n = flipped.normalize();
        assert_eq!((n.rows(), n.weights()), (a.rows(), a.weights()));
        assert_eq!(n.canonical_digest(), a.canonical_digest());
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
