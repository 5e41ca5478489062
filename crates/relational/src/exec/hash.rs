//! The key hasher shared by the in-memory hash join ([`crate::colrel`]),
//! the disk-spilling partitioner ([`crate::storage::spill`]), the
//! group-id pass of grouped aggregation ([`crate::exec::agg`]) and
//! [`crate::intern::SymMap`].

use std::hash::{BuildHasherDefault, Hasher};

/// A fast hasher for join and group keys (`i64` / `u32` column words and
/// [`crate::value::Value`] keys): a SplitMix64-style finalizer per word,
/// byte-fold fallback for anything else. These keys are attacker-free
/// machine words, so the DoS resistance of SipHash buys nothing here and
/// its per-hash overhead dominates small build sides.
///
/// `pub` only so that [`crate::intern::SymMap`] can name it; the module
/// stays crate-private.
#[derive(Default)]
pub struct KeyHasher(u64);

/// `BuildHasher` plumbing for `HashMap`s keyed by join keys.
pub type KeyHashBuilder = BuildHasherDefault<KeyHasher>;

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    // Derived `Hash` writes an enum's discriminant as an `isize` and a
    // length as a `usize`; without these two both fall through to the
    // byte-at-a-time `write`.
    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(x: impl Hash) -> u64 {
        let mut h = KeyHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn pointer_sized_words_hash_like_u64() {
        for x in [0u64, 1, 7, 20_671, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(hash_of(x as usize), hash_of(x), "usize {x}");
            assert_eq!(hash_of(x as isize), hash_of(x), "isize {x}");
        }
        // An enum key pays one word step for its discriminant, not the
        // byte fold: `Some(k)` is the discriminant word then the key word.
        let mut h = KeyHasher::default();
        h.write_u64(1);
        h.write_u64(42);
        assert_eq!(hash_of(Some(42u64)), h.finish());
    }
}
