//! A small bounded LRU map keyed by [`SubqueryKey`].
//!
//! Recency is a monotonic tick per entry plus a `BTreeMap` index from
//! tick to key, so `get`/`insert` are `O(log n)` and eviction pops the
//! smallest tick. Keys are `Copy`, so a touch moves the key between
//! index slots without allocating. No unsafe, no intrusive lists —
//! capacities here are thousands of entries, not millions.

use std::collections::{BTreeMap, HashMap};

use lqo_engine::SubqueryKey;

struct Slot<V> {
    value: V,
    tick: u64,
}

/// Bounded least-recently-used map. Inserting beyond capacity evicts the
/// least recently touched entry; `get` counts as a touch.
pub struct BoundedLru<V> {
    cap: usize,
    tick: u64,
    map: HashMap<SubqueryKey, Slot<V>>,
    order: BTreeMap<u64, SubqueryKey>,
}

impl<V> BoundedLru<V> {
    /// An empty LRU holding at most `cap` entries (floored at 1).
    pub fn new(cap: usize) -> BoundedLru<V> {
        BoundedLru {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entries held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up and touch an entry.
    pub fn get(&mut self, key: SubqueryKey) -> Option<&V> {
        let tick = self.next_tick();
        let slot = self.map.get_mut(&key)?;
        let key = self
            .order
            .remove(&slot.tick)
            .expect("every held entry is in the recency index");
        slot.tick = tick;
        self.order.insert(tick, key);
        Some(&slot.value)
    }

    /// Look up without touching (no recency update).
    pub fn peek(&self, key: SubqueryKey) -> Option<&V> {
        self.map.get(&key).map(|s| &s.value)
    }

    /// Insert or replace an entry; returns how many entries were evicted
    /// to make room (0 or 1).
    pub fn insert(&mut self, key: SubqueryKey, value: V) -> usize {
        let tick = self.next_tick();
        if let Some(old) = self.map.insert(key, Slot { value, tick }) {
            self.order.remove(&old.tick);
            self.order.insert(tick, key);
            return 0;
        }
        self.order.insert(tick, key);
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    /// Remove one entry.
    pub fn remove(&mut self, key: SubqueryKey) -> Option<V> {
        let slot = self.map.remove(&key)?;
        self.order.remove(&slot.tick);
        Some(slot.value)
    }

    /// Keep only entries the predicate accepts; returns how many were
    /// removed.
    pub fn retain(&mut self, mut keep: impl FnMut(SubqueryKey, &V) -> bool) -> usize {
        let before = self.map.len();
        let order = &mut self.order;
        self.map.retain(|&k, slot| {
            let keep_it = keep(k, &slot.value);
            if !keep_it {
                order.remove(&slot.tick);
            }
            keep_it
        });
        before - self.map.len()
    }

    /// Drop everything; returns how many entries were removed.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.order.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SubqueryKey = SubqueryKey(0xa);
    const B: SubqueryKey = SubqueryKey(0xb);
    const C: SubqueryKey = SubqueryKey(0xc);
    const D: SubqueryKey = SubqueryKey(0xd);

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = BoundedLru::new(2);
        assert_eq!(lru.insert(A, 1), 0);
        assert_eq!(lru.insert(B, 2), 0);
        // Touch A so B is the LRU victim.
        assert_eq!(lru.get(A), Some(&1));
        assert_eq!(lru.insert(C, 3), 1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.peek(B), None);
        assert_eq!(lru.peek(A), Some(&1));
        assert_eq!(lru.peek(C), Some(&3));
    }

    #[test]
    fn replace_does_not_evict() {
        let mut lru = BoundedLru::new(2);
        lru.insert(A, 1);
        lru.insert(B, 2);
        assert_eq!(lru.insert(A, 10), 0);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.peek(A), Some(&10));
    }

    #[test]
    fn retain_and_clear_report_removals() {
        let mut lru = BoundedLru::new(8);
        for (i, k) in [A, B, C, D].into_iter().enumerate() {
            lru.insert(k, i);
        }
        assert_eq!(lru.retain(|_, &v| v % 2 == 0), 2);
        assert_eq!(lru.len(), 2);
        // Recency index stays consistent after retain: inserts beyond
        // capacity still evict exactly one entry.
        let mut small = BoundedLru::new(2);
        small.insert(A, 0);
        small.insert(B, 1);
        small.retain(|k, _| k == B);
        small.insert(C, 2);
        assert_eq!(small.insert(D, 3), 1);
        assert_eq!(lru.clear(), 2);
        assert!(lru.is_empty());
    }

    #[test]
    fn remove_unindexes_recency() {
        let mut lru = BoundedLru::new(2);
        lru.insert(A, 1);
        lru.insert(B, 2);
        assert_eq!(lru.remove(A), Some(1));
        assert_eq!(lru.remove(A), None);
        assert_eq!(lru.insert(C, 3), 0);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_floors_at_one() {
        let mut lru = BoundedLru::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(A, 1);
        assert_eq!(lru.insert(B, 2), 1);
        assert_eq!(lru.len(), 1);
    }
}
