//! A fast, non-cryptographic hasher for the engine's internal tables.
//!
//! `std`'s default SipHash resists collision flooding, which a map keyed
//! by what a client sends needs, and costs several rounds per word. The
//! name tables of a [`Graph`](crate::Graph) and the row stores of a
//! cached page are keyed by data the site already holds, and every
//! click hashes them many times, so they use this multiply–rotate hash
//! instead: one rotate, xor and multiply per eight bytes. Maps keyed by
//! request-derived values keep `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd constant with well-mixed bits (π's fractional part).
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The multiply–rotate hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // The tail's length goes in the byte it cannot reach, so a
            // tail and the same tail with a zero byte appended differ.
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            word[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The low bits of a product depend only on the low bits of its
    /// factors, and a table picks its bucket from the low bits. So the
    /// state's high half, where a difference in a last word's high bytes
    /// lands, is folded into its low half and multiplied once more; the
    /// result is rotated so its well-mixed middle becomes the low bits.
    #[inline]
    fn finish(&self) -> u64 {
        (self.hash ^ (self.hash >> 32))
            .wrapping_mul(SEED)
            .rotate_left(26)
    }
}

/// Builds [`FastHasher`]s.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        FastBuild::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash(&"paragraph"), hash(&String::from("paragraph")));
        assert_ne!(hash(&"paragraph"), hash(&"paragraphs"));
        assert_ne!(hash(&(1u32, 2u32)), hash(&(2u32, 1u32)));
        // A short tail is zero-padded; its length keeps these apart.
        assert_ne!(hash(&"a"), hash(&"a\0"));
    }

    /// How many distinct values the low ten bits — a 1024-bucket table's
    /// probe start — take over `keys`.
    fn buckets<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        keys.map(|k| hash(&k) & 1023).collect::<HashSet<_>>().len()
    }

    #[test]
    fn keys_that_differ_in_high_bytes_spread_over_the_low_bits() {
        // A thousand keys thrown at random into 1024 buckets fill ≈ 630.
        // Integer-valued floats differ only in their high bytes, and
        // these names only in the bytes after a common prefix.
        let floats = buckets((0..1000).map(|i| crate::Value::Float(f64::from(i))));
        let names = buckets((1000..2000).map(|i| format!("pub{i}")));
        let ints = buckets((0..1000u64).map(|i| i << 40));
        for (what, distinct) in [("floats", floats), ("names", names), ("ints", ints)] {
            assert!(distinct > 500, "{what}: {distinct} of 1024 low-bit values");
        }
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut m: FastMap<String, usize> = FastMap::default();
        for (i, w) in ["title", "date", "title", "byline"].iter().enumerate() {
            m.entry((*w).to_owned()).or_insert(i);
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m["title"], 0);
        assert_eq!(m["byline"], 3);
    }
}
