//! The hash join's build/probe table.
//!
//! [`KeyTable`] is an open-addressing table over integer join keys of any
//! arity, in flat arrays: per slot the key itself, the head of its chain
//! of build rows and the chain's length, plus a `next` link per build
//! row. Build and probe are tight loops over those arrays with no per-row
//! allocation, and a join that collapses onto its probe side reads a
//! key's build weight without walking its chain ([`KeyTable::weight`]).
//!
//! # Weights
//!
//! A unit build (every build tuple of weight 1) keeps only the `u32`
//! chain lengths, which are its keys' weights. A weighted build adds one
//! `u64` per slot, the sum of its chain's weights. Widening every
//! build's counts to `u64` instead would enlarge the unit builds over
//! large base scans that serving runs, whose latency follows the table's
//! allocation size.
//!
//! # Size
//!
//! The table holds each distinct key once, and a key is a tuple of base
//! column values, so there are at most `min(build rows, product of the
//! key columns' base-table lengths)` of them: the slot array is sized
//! from that bound, not from the build row count alone. Build keys are
//! gathered one range at a time and never held twice; only `next` grows
//! with the build side.
//!
//! A weighted build counts its rows logically in that bound, capped at
//! sixteen per stored tuple: a collapsed build side stores few tuples with
//! mostly distinct keys, and sizing it from its stored tuples alone would
//! fill the table to a load factor near ½. Probes of a selective build
//! are mostly misses, and at that load half of them meet an occupied
//! slot first — a mispredicted branch and a key compare each. Sized as
//! its logical tuples would be, the table probes at the load factor its
//! unit expansion would have: one `imdb_like(2500)` root join with 108
//! stored build tuples and 25 000 probes took 506 µs at load ½ and
//! 311 µs sized this way, on a 2-vCPU VM. The cap keeps an
//! astronomically weighted build from allocating beyond 32 slots per
//! stored tuple.
//!
//! # Determinism
//!
//! For one probe key, matching build rows come out in **ascending
//! build-input order** — the order the reference evaluator's `HashMap`
//! buckets list them in. `KeyTable` gets it by inserting build rows in
//! ascending order and appending each to its key's chain (the build keeps
//! each chain's tail). The hash function only decides which slot a chain
//! lives in, never the order within a chain or across probes, so output
//! bytes are independent of it.

use crate::error::Result;
use crate::exec::batch::column::gather_keys;
use crate::exec::compiled::KeySide;
use crate::exec::relation::Relation;
use crate::exec::runner::Runner;

/// Sentinel for "no row" in chain heads and links.
const NONE: u32 = u32::MAX;

/// An open-addressing hash table over gathered integer join keys,
/// supporting composite keys of any arity (`stride` ≥ 1).
pub(crate) struct KeyTable {
    /// Key arity (number of join conditions).
    stride: usize,
    /// The key of each occupied slot: slot `s` occupies
    /// `keys[s * stride..(s + 1) * stride]`.
    keys: Vec<i64>,
    /// Chain head (a build row id) per slot; `NONE` marks an empty slot.
    heads: Vec<u32>,
    /// Chain length per slot: the build rows sharing the slot's key.
    counts: Vec<u32>,
    /// Sum of the chain's build weights per slot, for a weighted build;
    /// empty for a unit build, whose weight sums are `counts`.
    sums: Vec<u64>,
    /// Chain link per build row; `NONE` terminates a chain.
    next: Vec<u32>,
    /// Slot-index mask (`capacity - 1`, capacity a power of two).
    mask: usize,
}

impl KeyTable {
    /// Build over the keys `side` of every stored tuple of `rel`,
    /// gathered one range at a time on `runner`.
    pub(crate) fn build(
        rel: &Relation,
        side: &KeySide<'_>,
        runner: &Runner<'_>,
    ) -> Result<KeyTable> {
        let (stride, n) = (side.cols.len(), rel.physical_len());
        // A weighted build is sized as its logical tuples would be, up to
        // sixteen times its stored ones (see the module docs on size).
        let distinct = side
            .cols
            .iter()
            .fold(1usize, |bound, &(_, data)| bound.saturating_mul(data.len()))
            .min(rel.len())
            .min(16 * n);
        // Load factor <= 0.5 keeps linear-probe runs short and guarantees
        // insert termination.
        let capacity = (2 * distinct).next_power_of_two().max(16);
        let mut table = KeyTable {
            stride,
            keys: vec![0; capacity * stride],
            heads: vec![NONE; capacity],
            counts: vec![0; capacity],
            sums: if rel.is_weighted() {
                vec![0; capacity]
            } else {
                Vec::new()
            },
            next: vec![NONE; n],
            mask: capacity - 1,
        };
        // Chain tails, for the build only: appending in ascending row
        // order lists each key's build rows ascending.
        let mut tails = vec![NONE; capacity];
        let gather = |range| gather_keys(rel, side, range);
        runner.each(n, "HashJoin", gather, |range, keys| {
            for (i, key) in range.zip(keys.chunks_exact(stride)) {
                let slot = table.insert(i as u32, key, &mut tails);
                if !table.sums.is_empty() {
                    // Sums of a relation's own weights cannot overflow:
                    // they are bounded by its logical count.
                    table.sums[slot] += rel.weight(i);
                }
            }
        })?;
        Ok(table)
    }

    /// The key held in `slot`.
    #[inline]
    fn key_at(&self, slot: usize) -> &[i64] {
        &self.keys[slot * self.stride..(slot + 1) * self.stride]
    }

    /// Whether `slot` holds `key`; a one-column key compares one word
    /// instead of a slice.
    #[inline]
    fn holds(&self, slot: usize, key: &[i64]) -> bool {
        match key {
            [k] => self.keys[slot] == *k,
            _ => self.key_at(slot) == key,
        }
    }

    /// FNV-1a over the key words, finished with a Fibonacci multiply so
    /// consecutive keys spread across slots. Any deterministic function
    /// works here (the hash never affects output order); this one is
    /// cheap and collision-resistant enough for integer ids.
    #[inline]
    fn hash(key: &[i64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &k in key {
            h = (h ^ k as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Insert build row `i` with key `key`, appending it to its key's
    /// chain; returns the key's slot.
    fn insert(&mut self, i: u32, key: &[i64], tails: &mut [u32]) -> usize {
        let mut slot = Self::hash(key) as usize & self.mask;
        loop {
            match self.heads[slot] {
                NONE => {
                    self.keys[slot * self.stride..(slot + 1) * self.stride].copy_from_slice(key);
                    self.heads[slot] = i;
                    break;
                }
                _ if self.holds(slot, key) => {
                    self.next[tails[slot] as usize] = i;
                    break;
                }
                _ => slot = (slot + 1) & self.mask,
            }
        }
        tails[slot] = i;
        self.counts[slot] += 1;
        slot
    }

    /// The slot holding `key`'s chain, or `None` on a miss. Slots index
    /// `0..capacity()`.
    #[inline]
    pub(crate) fn find(&self, key: &[i64]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.stride);
        let mut slot = Self::hash(key) as usize & self.mask;
        loop {
            match self.heads[slot] {
                NONE => return None,
                _ if self.holds(slot, key) => return Some(slot),
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Probe with one key; yields matching build rows in ascending
    /// build-input order (empty iterator on a miss).
    #[inline]
    pub(crate) fn probe(&self, key: &[i64]) -> Chain<'_> {
        Chain {
            cur: self.find(key).map_or(NONE, |slot| self.heads[slot]),
            next: &self.next,
        }
    }

    /// The summed weight of the build rows matching `key`: the sum of
    /// the weights along the chain [`KeyTable::probe`] would walk, read
    /// without walking it (0 on a miss).
    #[inline]
    pub(crate) fn weight(&self, key: &[i64]) -> u64 {
        match (self.find(key), self.sums.is_empty()) {
            (None, _) => 0,
            (Some(slot), true) => self.counts[slot] as u64,
            (Some(slot), false) => self.sums[slot],
        }
    }

    /// The number of slots allocated.
    pub(crate) fn capacity(&self) -> usize {
        self.heads.len()
    }
}

/// Iterator over one key's chain of build rows (ascending input order).
pub(crate) struct Chain<'a> {
    cur: u32,
    next: &'a [u32],
}

impl Iterator for Chain<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE {
            return None;
        }
        let i = self.cur;
        self.cur = self.next[i as usize];
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table over key columns of a relation whose tuple `i` is row `i`
    /// of every column, gathered three rows at a time.
    fn table(cols: &[Vec<i64>]) -> KeyTable {
        let n = cols[0].len();
        let rel = Relation::from_scan(0, (0..n as u32).collect());
        let side = KeySide {
            cols: cols.iter().map(|c| (0, c.as_slice())).collect(),
        };
        KeyTable::build(&rel, &side, &Runner::InThread(3)).unwrap()
    }

    fn rows(t: &KeyTable, key: &[i64]) -> Vec<u32> {
        t.probe(key).collect()
    }

    #[test]
    fn single_key_chains_are_ascending() {
        // Rows 0..6 with keys 7,3,7,7,3,9.
        let t = table(&[vec![7, 3, 7, 7, 3, 9]]);
        assert_eq!(rows(&t, &[7]), vec![0, 2, 3]);
        assert_eq!(rows(&t, &[3]), vec![1, 4]);
        assert_eq!(rows(&t, &[9]), vec![5]);
        assert_eq!(rows(&t, &[8]), Vec::<u32>::new());
    }

    #[test]
    fn composite_keys_compare_all_conditions() {
        // (1,1) (1,2) (2,1) (1,1)
        let t = table(&[vec![1, 1, 2, 1], vec![1, 2, 1, 1]]);
        assert_eq!(rows(&t, &[1, 1]), vec![0, 3]);
        assert_eq!(rows(&t, &[1, 2]), vec![1]);
        assert_eq!(rows(&t, &[2, 1]), vec![2]);
        assert_eq!(rows(&t, &[2, 2]), Vec::<u32>::new());
    }

    #[test]
    fn empty_build_side_always_misses() {
        let t = table(&[vec![]]);
        assert_eq!(rows(&t, &[0]), Vec::<u32>::new());
        assert_eq!(rows(&t, &[i64::MAX]), Vec::<u32>::new());
    }

    #[test]
    fn adversarial_keys_survive_clustering() {
        // Keys that collide in low bits; all chains must still resolve.
        let keys: Vec<i64> = (0..1000).map(|i| i << 32).collect();
        let t = table(std::slice::from_ref(&keys));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(rows(&t, &[k]), vec![i as u32]);
        }
        assert!(rows(&t, &[1]).is_empty());
    }

    #[test]
    fn extreme_key_values() {
        let t = table(&[vec![i64::MIN, i64::MAX, 0, -1]]);
        assert_eq!(rows(&t, &[i64::MIN]), vec![0]);
        assert_eq!(rows(&t, &[i64::MAX]), vec![1]);
        assert_eq!(rows(&t, &[0]), vec![2]);
        assert_eq!(rows(&t, &[-1]), vec![3]);
    }

    /// A table over `table(cols)`'s keys whose build tuple `i` weighs
    /// `weights[i]`.
    fn weighted_table(cols: &[Vec<i64>], weights: Vec<u64>) -> KeyTable {
        let n = cols[0].len();
        let rel = Relation::from_scan(0, (0..n as u32).collect()).with_weights(weights);
        let side = KeySide {
            cols: cols.iter().map(|c| (0, c.as_slice())).collect(),
        };
        KeyTable::build(&rel, &side, &Runner::InThread(3)).unwrap()
    }

    /// Every probe's weight must equal the summed weight of the chain it
    /// walks (`weights` empty: every weight 1).
    fn check_weights(t: &KeyTable, weights: &[u64], probes: &[Vec<i64>]) {
        for key in probes {
            let chain: u64 = t
                .probe(key)
                .map(|i| weights.get(i as usize).copied().unwrap_or(1))
                .sum();
            assert_eq!(t.weight(key), chain, "key {key:?}");
        }
    }

    #[test]
    fn per_key_weights_equal_chain_weights() {
        // Single keys, with a miss: a unit build's weights are its chain
        // lengths, and it allocates no weight array.
        let keys = vec![7, 3, 7, 7, 3, 9];
        let probes = [vec![7], vec![3], vec![9], vec![8]];
        let t = table(std::slice::from_ref(&keys));
        assert!(t.sums.is_empty(), "a unit build allocates no weight sums");
        check_weights(&t, &[], &probes);
        assert_eq!((t.weight(&[7]), t.weight(&[3]), t.weight(&[8])), (3, 2, 0));
        // The same keys weighted: sums, not lengths.
        let w = vec![5, 1, 2, 1_000_000_000_000, 4, 1];
        let t = weighted_table(std::slice::from_ref(&keys), w.clone());
        assert_eq!(t.sums.len(), t.capacity());
        check_weights(&t, &w, &probes);
        assert_eq!(t.weight(&[7]), 1_000_000_000_007);
        assert_eq!((t.weight(&[3]), t.weight(&[8])), (5, 0));

        // Composite keys: every condition must match.
        let cols = [vec![1, 1, 2, 1], vec![1, 2, 1, 1]];
        let probes = [vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]];
        let t = table(&cols);
        check_weights(&t, &[], &probes);
        assert_eq!(t.weight(&[1, 1]), 2);
        let w = vec![3, 2, 7, 11];
        let t = weighted_table(&cols, w.clone());
        check_weights(&t, &w, &probes);
        assert_eq!((t.weight(&[1, 1]), t.weight(&[2, 2])), (14, 0));

        // Adversarial: low-bit collisions, long duplicate chains sharing
        // probe runs with distinct keys.
        let keys: Vec<i64> = (0..1000)
            .map(|i| if i % 2 == 0 { (i % 7) << 32 } else { i << 32 })
            .collect();
        let probes: Vec<Vec<i64>> = keys.iter().map(|&k| vec![k]).chain([vec![1]]).collect();
        let t = table(std::slice::from_ref(&keys));
        check_weights(&t, &[], &probes);
        assert_eq!(t.weight(&[0]), 72);
        let w: Vec<u64> = (0..1000).map(|i| 1 + (i * 7919) % 13).collect();
        let t = weighted_table(std::slice::from_ref(&keys), w.clone());
        check_weights(&t, &w, &probes);

        // Empty build side: every weight is zero.
        let t = table(&[vec![]]);
        check_weights(&t, &[], &[vec![0], vec![i64::MIN]]);
        assert_eq!(t.weight(&[i64::MAX]), 0);
    }

    #[test]
    fn slot_count_is_bounded_by_the_key_columns_base_tables() {
        // 100 000 build tuples whose key column comes from a 16-row
        // table: at most 16 distinct keys, so at most 32 slots.
        let data: Vec<i64> = (0..16).map(|k| k * 1_000).collect();
        let rel = Relation::from_scan(0, (0..100_000u32).map(|i| i % 16).collect());
        let side = KeySide {
            cols: vec![(0, data.as_slice())],
        };
        let t = KeyTable::build(&rel, &side, &Runner::InThread(1024)).unwrap();
        assert!(t.capacity() <= 64, "{} slots", t.capacity());
        assert_eq!(t.weight(&[5_000]), 6_250);
        let chain: Vec<u32> = t.probe(&[5_000]).collect();
        assert_eq!(chain.len(), 6_250);
        assert!(
            chain.windows(2).all(|w| w[0] < w[1]),
            "ascending build rows"
        );
        assert_eq!(chain[0], 5);
    }
}
