//! One fixed multiply hasher for the integer-keyed maps every flow
//! touches, the word-wise byte hash under it, and the one SplitMix64
//! finaliser ([`splitmix64`], with its unit draw [`splitmix_unit`]) that
//! the counter-based streams of the generator, the tap and the scanner
//! derive their draws from.
//!
//! An integer key costs one multiply instead of SipHash's rounds. The
//! price is std's `RandomState` defence against hash flooding: with a
//! fixed key, someone who controls the keys can make them share
//! buckets. The maps keyed here hold 16-bit wire code points, dense
//! interned ids, or 64-bit content hashes the program computes (the
//! parse cache's, bounded by its capacity), and the study's traffic is
//! generated, not taken from a hostile network. No output depends on a
//! map's iteration order: every writer sorts, and under `RandomState`
//! that order already differed between processes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;
/// Fixed seeds for [`hash_bytes`] (digits of π).
const SEED: [u64; 2] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344];

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Fx-style hasher, one multiply per integer written: the integer is
/// mixed into the state, and the state is multiplied by an odd constant
/// with the high half of the product folded onto the low half. The
/// state starts at a seed, so even a small key makes a full product.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl Default for FxHasher {
    fn default() -> Self {
        FxHasher { hash: SEED[1] }
    }
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = fold_mul(self.hash ^ word, K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.add(hash_bytes(bytes));
    }
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        // The table picks buckets by the low bits; fold the high half
        // down once more so keys that differ only in a few high bits
        // spread too.
        self.hash ^ self.hash >> 32
    }
}

/// The 128-bit product of `a` and `b`, folded to 64 bits.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// A 64-bit hash of `bytes`, sixteen bytes per multiply: each block's
/// two little-endian words, one of them mixed with the running state,
/// are multiplied and the product folded back. The final partial block
/// is zero-padded; the length is mixed in first, so padding never
/// makes two lengths collide.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
    let mut h = SEED[0] ^ bytes.len() as u64;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        h = fold_mul(word(&b[..8]) ^ h, word(&b[8..]) ^ SEED[1]);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut b = [0u8; 16];
        b[..tail.len()].copy_from_slice(tail);
        h = fold_mul(word(&b[..8]) ^ h, word(&b[8..]) ^ SEED[1]);
    }
    fold_mul(h, K)
}

/// The SplitMix64 finaliser: a bijective scramble of `z` in which
/// every input bit reaches every output bit. Counter-based draws key a
/// counter (seed, date, index, ...) and pass it through here; a
/// SplitMix64 generator passes its state after each golden-ratio step.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`splitmix64`] of `z`, mapped to a uniform draw in [0, 1) from its
/// top 53 bits.
#[inline]
pub fn splitmix_unit(z: u64) -> f64 {
    (splitmix64(z) >> 11) as f64 / ((1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_single_byte_change_moves_the_byte_hash() {
        let base: Vec<u8> = (0..77u8).collect();
        let h = hash_bytes(&base);
        for i in 0..base.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut b = base.clone();
                b[i] ^= mask;
                assert_ne!(hash_bytes(&b), h, "byte {i} ^ {mask:#04x}");
            }
        }
        // Zero padding never hides a length change.
        assert_ne!(
            hash_bytes(&base[..76]),
            hash_bytes(&[&base[..76], &[0]].concat())
        );
        assert_ne!(hash_bytes(&[]), hash_bytes(&[0]));
    }

    #[test]
    fn spaced_integer_keys_spread_over_the_low_bits() {
        // A table of 64 buckets reads the low six bits of the hash: 64
        // keys thrown at random fill about 40 of them, and keys spaced
        // by any power of two must not pile into a few.
        for shift in 0..58 {
            let mut buckets = std::collections::BTreeSet::new();
            for k in 0u64..64 {
                let mut h = FxHasher::default();
                h.write_u64(k << shift);
                buckets.insert(h.finish() & 63);
            }
            assert!(
                buckets.len() >= 32,
                "{} buckets at << {shift}",
                buckets.len()
            );
        }
    }

    #[test]
    fn map_keys_round_trip() {
        let mut m: FxHashMap<(usize, &str), u16> = FxHashMap::default();
        for (i, s) in ["a", "ab", "abc", ""].iter().enumerate() {
            m.insert((i, s), i as u16);
        }
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(&(2, "abc")), Some(&2));
        assert_eq!(m.get(&(2, "ab")), None);
    }
}
