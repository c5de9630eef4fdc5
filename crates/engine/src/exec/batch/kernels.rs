//! Batched join kernels: the columnar build/probe hash table.
//!
//! The serial hash join builds a `HashMap<i64, Vec<u32>>` (or
//! `HashMap<Vec<i64>, Vec<u32>>` for multi-condition joins), which costs a
//! heap allocation per distinct key and — for composite keys — a `Vec`
//! allocation per *tuple* on both sides. [`KeyTable`] replaces it with
//! flat arrays: an open-addressing slot array of chain heads with each
//! chain's length beside it, a `next` chain array indexed by build row,
//! and the gathered key values themselves. Build and probe are tight
//! loops over those arrays with no per-row allocation, and a join that
//! only counts its output reads a key's match count without walking its
//! chain ([`KeyTable::count`]).
//!
//! # Determinism
//!
//! Probe results must reproduce the serial emit order exactly: for one
//! probe tuple, matching build rows come out in **ascending build-input
//! order** (the serial `HashMap` pushes build rows into each key's `Vec`
//! in input order). `KeyTable` achieves the same order by inserting build
//! rows in *reverse* and prepending each to its key's chain — walking a
//! chain head-to-tail then yields ascending build rows. The hash function
//! only decides which slot a chain lives in, never the order within a
//! chain or across probes, so output bytes are independent of it.

/// Sentinel for "no row" in chain heads and links.
const NONE: u32 = u32::MAX;

/// An open-addressing hash table over gathered integer join keys,
/// supporting composite keys of any arity (`stride` ≥ 1).
pub(crate) struct KeyTable {
    /// Key arity (number of join conditions).
    stride: usize,
    /// Flattened build-side keys: row `i` occupies
    /// `keys[i * stride..(i + 1) * stride]`.
    keys: Vec<i64>,
    /// Chain head (a build row id) per slot; `NONE` marks an empty slot.
    heads: Vec<u32>,
    /// Chain length per slot: the build rows sharing the slot's key.
    counts: Vec<u32>,
    /// Chain link per build row; `NONE` terminates a chain.
    next: Vec<u32>,
    /// Slot-index mask (`capacity - 1`, capacity a power of two).
    mask: usize,
}

impl KeyTable {
    /// Build over gathered key columns (one column per join condition, all
    /// of equal length = the build-side row count).
    pub(crate) fn build(columns: &[Vec<i64>]) -> KeyTable {
        let stride = columns.len();
        let n = columns.first().map_or(0, Vec::len);
        debug_assert!(columns.iter().all(|c| c.len() == n));
        // Flatten row-major so one probe comparison reads `stride`
        // adjacent values.
        let mut keys = Vec::with_capacity(n * stride);
        for i in 0..n {
            for col in columns {
                keys.push(col[i]);
            }
        }
        // Load factor <= 0.5 keeps linear-probe runs short and guarantees
        // insert termination.
        let capacity = (2 * n).next_power_of_two().max(16);
        let mut table = KeyTable {
            stride,
            keys,
            heads: vec![NONE; capacity],
            counts: vec![0; capacity],
            next: vec![NONE; n],
            mask: capacity - 1,
        };
        // Reverse-order insertion with chain prepend: the final chain of
        // each key lists build rows in ascending input order (see module
        // docs — this is what reproduces the serial emit order).
        for i in (0..n).rev() {
            table.insert(i as u32);
        }
        table
    }

    /// The key of build row `i`.
    #[inline]
    fn key_of(&self, i: u32) -> &[i64] {
        let at = i as usize * self.stride;
        &self.keys[at..at + self.stride]
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

    /// Insert build row `i`, prepending it to its key's chain.
    fn insert(&mut self, i: u32) {
        let key = i as usize * self.stride;
        let mut slot = Self::hash(&self.keys[key..key + self.stride]) as usize & self.mask;
        loop {
            match self.heads[slot] {
                NONE => {
                    self.heads[slot] = i;
                    self.counts[slot] = 1;
                    return;
                }
                head if self.key_of(head) == &self.keys[key..key + self.stride] => {
                    self.next[i as usize] = head;
                    self.heads[slot] = i;
                    self.counts[slot] += 1;
                    return;
                }
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// The slot holding `key`'s chain, or `None` on a miss.
    #[inline]
    fn find(&self, key: &[i64]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.stride);
        let mut slot = Self::hash(key) as usize & self.mask;
        loop {
            match self.heads[slot] {
                NONE => return None,
                head if self.key_of(head) == key => return Some(slot),
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

    /// Number of build rows matching `key`: the length of the chain
    /// [`KeyTable::probe`] would walk, read without walking it.
    #[inline]
    pub(crate) fn count(&self, key: &[i64]) -> usize {
        self.find(key).map_or(0, |slot| self.counts[slot] as usize)
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

    fn rows(t: &KeyTable, key: &[i64]) -> Vec<u32> {
        t.probe(key).collect()
    }

    #[test]
    fn single_key_chains_are_ascending() {
        // Rows 0..6 with keys 7,3,7,7,3,9.
        let t = KeyTable::build(&[vec![7, 3, 7, 7, 3, 9]]);
        assert_eq!(rows(&t, &[7]), vec![0, 2, 3]);
        assert_eq!(rows(&t, &[3]), vec![1, 4]);
        assert_eq!(rows(&t, &[9]), vec![5]);
        assert_eq!(rows(&t, &[8]), Vec::<u32>::new());
    }

    #[test]
    fn composite_keys_compare_all_conditions() {
        // (1,1) (1,2) (2,1) (1,1)
        let t = KeyTable::build(&[vec![1, 1, 2, 1], vec![1, 2, 1, 1]]);
        assert_eq!(rows(&t, &[1, 1]), vec![0, 3]);
        assert_eq!(rows(&t, &[1, 2]), vec![1]);
        assert_eq!(rows(&t, &[2, 1]), vec![2]);
        assert_eq!(rows(&t, &[2, 2]), Vec::<u32>::new());
    }

    #[test]
    fn empty_build_side_always_misses() {
        let t = KeyTable::build(&[vec![]]);
        assert_eq!(rows(&t, &[0]), Vec::<u32>::new());
        assert_eq!(rows(&t, &[i64::MAX]), Vec::<u32>::new());
    }

    #[test]
    fn adversarial_keys_survive_clustering() {
        // Keys that collide in low bits; all chains must still resolve.
        let keys: Vec<i64> = (0..1000).map(|i| i << 32).collect();
        let t = KeyTable::build(std::slice::from_ref(&keys));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(rows(&t, &[k]), vec![i as u32]);
        }
        assert!(rows(&t, &[1]).is_empty());
    }

    #[test]
    fn extreme_key_values() {
        let t = KeyTable::build(&[vec![i64::MIN, i64::MAX, 0, -1]]);
        assert_eq!(rows(&t, &[i64::MIN]), vec![0]);
        assert_eq!(rows(&t, &[i64::MAX]), vec![1]);
        assert_eq!(rows(&t, &[0]), vec![2]);
        assert_eq!(rows(&t, &[-1]), vec![3]);
    }

    #[test]
    fn per_key_counts_equal_chain_lengths() {
        let check = |t: &KeyTable, probes: &[Vec<i64>]| {
            for key in probes {
                assert_eq!(t.count(key), rows(t, key).len(), "key {key:?}");
            }
        };
        // Single keys, with a miss.
        let t = KeyTable::build(&[vec![7, 3, 7, 7, 3, 9]]);
        check(&t, &[vec![7], vec![3], vec![9], vec![8]]);
        assert_eq!((t.count(&[7]), t.count(&[3]), t.count(&[8])), (3, 2, 0));
        // Composite keys: every condition must match.
        let t = KeyTable::build(&[vec![1, 1, 2, 1], vec![1, 2, 1, 1]]);
        check(&t, &[vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]);
        assert_eq!(t.count(&[1, 1]), 2);
        // Adversarial: low-bit collisions, long duplicate chains sharing
        // probe runs with distinct keys.
        let keys: Vec<i64> = (0..1000)
            .map(|i| if i % 2 == 0 { (i % 7) << 32 } else { i << 32 })
            .collect();
        let t = KeyTable::build(std::slice::from_ref(&keys));
        let probes: Vec<Vec<i64>> = keys.iter().map(|&k| vec![k]).chain([vec![1]]).collect();
        check(&t, &probes);
        assert_eq!(t.count(&[0]), 72);
        // Empty build side: every count is zero.
        let t = KeyTable::build(&[vec![]]);
        check(&t, &[vec![0], vec![i64::MIN]]);
        assert_eq!(t.count(&[i64::MAX]), 0);
    }
}
