//! The one hasher for the simulator's own tables.
//!
//! Every hashed table on the per-message and per-event paths is keyed
//! by something the simulator minted itself: flight ids
//! `(cab << 40) | counter`, transaction ids, CAB and HUB indices,
//! stream slots. No key comes from outside the program, so SipHash's
//! flooding resistance buys nothing on a path probed several times per
//! event. [`FoldMap`] is a `HashMap` with [`FoldHasher`]: same
//! semantics, deterministic, one multiply per key word.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::hash::FoldMap;
//!
//! let mut births: FoldMap<u64, u64> = FoldMap::default();
//! births.insert((3 << 40) | 7, 1_050);
//! assert_eq!(births.remove(&((3 << 40) | 7)), Some(1_050));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher. The 64×64→128 multiply is folded
/// high-into-low because the table indexes buckets with the low bits,
/// and a flight id's CAB number sits in the high ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
}

/// A `HashMap` hashed with [`FoldHasher`]. Build one with
/// `FoldMap::default()`; like `HashMap::new()`, that allocates nothing
/// until the first insert.
pub type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FoldHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_the_cab_bits_reach_the_bucket_bits() {
        assert_eq!(hash_of((3u16, 9u32)), hash_of((3u16, 9u32)));
        // Flight ids of two CABs with the same counter differ only in
        // bits 40 and up; the fold must carry that into the low bits
        // the table indexes with.
        let (a, b) = (hash_of(1u64 << 40), hash_of(2u64 << 40));
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }
}
