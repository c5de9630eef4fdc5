//! Fixed-width sub-query keys for cross-query caches.
//!
//! [`SpjQuery::canonical_key`](crate::SpjQuery::canonical_key) is the
//! readable identity of a sub-query: its table, join and predicate texts,
//! each list sorted. [`SubqueryKey`] is the same identity in 128 bits,
//! computed without allocating: every element's canonical text is
//! streamed through a [`KeyHasher`] (two independent 64-bit lanes, each
//! finalized with a 64-bit avalanche mix), and the element hashes are
//! summed lane-wise with wrapping add. A sum does not depend on element
//! order, so it needs no sort, and unlike xor it counts a repeated
//! element twice, as the sorted lists do. Each element is hashed under a
//! per-category tag byte, so a table text cannot stand in for a join or
//! predicate text.
//!
//! Two sub-queries with equal canonical keys therefore always get equal
//! `SubqueryKey`s; two with different canonical keys collide only if
//! their element-hash sums agree in all 128 bits. Treating the lanes as
//! random, `m` distinct sub-queries collide with probability about
//! `m² / 2¹²⁹` — below 10⁻²⁸ for the ≈ 10⁵ keys a workload holds.
//! Seeds are constants, never `RandomState`, so a key means the same
//! sub-query in every process.

use std::fmt;

/// A 128-bit, order-insensitive fingerprint of the sub-query induced by a
/// table set; equal exactly when the canonical keys are (up to the
/// collision bound in the module doc).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubqueryKey(pub u128);

impl SubqueryKey {
    /// A hasher seeded with this key, for deriving the key of something
    /// built on the sub-query (a plan under hints and an estimator, a
    /// residual decision point).
    pub fn extend(self) -> KeyHasher {
        let mut h = KeyHasher::new(b'X');
        for byte in self.0.to_le_bytes() {
            h.byte(byte);
        }
        h
    }
}

impl fmt::Debug for SubqueryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#034x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FX_SEED: u64 = 0x243f_6a88_85a3_08d3;
const FX_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Streams text into two independent 64-bit hash lanes: FNV-1a in one,
/// a rotate-xor-multiply (Fx) step in the other, each finalized with the
/// MurmurHash3 avalanche mix. Implements [`fmt::Write`] so `Display`
/// output can be hashed without building a `String`.
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    /// A hasher for one element of category `tag`.
    pub(crate) fn new(tag: u8) -> KeyHasher {
        let mut h = KeyHasher {
            a: FNV_OFFSET,
            b: FX_SEED,
        };
        h.byte(tag);
        h
    }

    fn byte(&mut self, byte: u8) {
        self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b.rotate_left(5) ^ byte as u64).wrapping_mul(FX_MUL);
    }

    /// The finalized 128-bit hash.
    pub fn finish(&self) -> SubqueryKey {
        let (a, b) = (fmix64(self.a), fmix64(self.b ^ FX_SEED));
        SubqueryKey(((a as u128) << 64) | b as u128)
    }
}

impl fmt::Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.byte(byte);
        }
        Ok(())
    }
}

/// MurmurHash3's 64-bit finalizer.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Lane-wise wrapping sum of two keys: the order-insensitive,
/// multiplicity-counting combination of element hashes.
pub(crate) fn add(x: SubqueryKey, y: SubqueryKey) -> SubqueryKey {
    let lo = (x.0 as u64).wrapping_add(y.0 as u64);
    let hi = ((x.0 >> 64) as u64).wrapping_add((y.0 >> 64) as u64);
    SubqueryKey(((hi as u128) << 64) | lo as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn hash(tag: u8, text: &str) -> SubqueryKey {
        let mut h = KeyHasher::new(tag);
        h.write_str(text).unwrap();
        h.finish()
    }

    #[test]
    fn hashing_is_deterministic_and_tagged() {
        // Fixed seeds: the same text always hashes to the same bits.
        assert_eq!(hash(b'T', "title t"), hash(b'T', "title t"));
        assert_ne!(hash(b'T', "title t"), hash(b'P', "title t"));
        assert_ne!(hash(b'T', "title t"), hash(b'T', "title u"));
        // Pieces streamed separately hash like the whole text.
        let (table, alias) = ("title", "t");
        let mut h = KeyHasher::new(b'T');
        write!(h, "{table} {alias}").unwrap();
        assert_eq!(h.finish(), hash(b'T', "title t"));
    }

    #[test]
    fn add_is_lane_wise_and_counts_duplicates() {
        let x = hash(b'P', "t.a > 1");
        let y = hash(b'P', "t.b = 2");
        assert_eq!(add(x, y), add(y, x));
        assert_ne!(add(x, x), SubqueryKey(0));
        let max = SubqueryKey(u128::MAX);
        // No carry from the low lane into the high lane.
        assert_eq!(
            add(max, SubqueryKey(1)),
            SubqueryKey((u64::MAX as u128) << 64)
        );
    }

    #[test]
    fn debug_is_fixed_width_hex() {
        assert_eq!(
            format!("{:?}", SubqueryKey(0xab)),
            "0x000000000000000000000000000000ab"
        );
    }
}
