//! A fixed multiply-rotate hasher for the simulator's integer-keyed maps.
//!
//! `std`'s default SipHash is keyed per process and built to resist hash
//! flooding. A simulator's maps are keyed by its own addresses, slots and
//! site ids, so it needs neither, and SipHash costs several times more per
//! key than the one multiply per word used here. Being unkeyed, the hasher
//! also gives every run the same iteration order.

use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`FixedHasher`]s: `HashMap<K, V, FixedState>` /
/// `HashSet<K, FixedState>` (construct with `Default::default()`).
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// Odd multiplier with well-spread bits (the one `rustc-hash` 2 uses).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Folds each word in with an add and a multiply, and rotates on finish so
/// the well-mixed high product bits land in the low bits the table indexes
/// with (addresses are aligned, so their low bits carry nothing).
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher {
    hash: u64,
}

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(value.into());
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn every_fixed_state_hashes_alike() {
        let (a, b) = (FixedState::default(), FixedState::default());
        for key in [0u64, 1, 0x1000, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_ne!(a.hash_one(1u64), a.hash_one(2u64));
        assert_ne!(a.hash_one("ab"), a.hash_one("ba"));
    }

    #[test]
    fn page_aligned_keys_spread_over_the_low_bits() {
        // A table of 4096 buckets indexes with the low 12 bits; keys that
        // are all multiples of 4096 must still land in most of them.
        let state = FixedState::default();
        let buckets: std::collections::BTreeSet<u64> = (0..4096u64)
            .map(|page| state.hash_one(page << 12) & 0xfff)
            .collect();
        assert!(
            buckets.len() > 2_000,
            "only {} of 4096 buckets used",
            buckets.len()
        );
    }
}
