//! Deterministic FxHash hasher for simulation-state hash maps.
//!
//! `std::collections::HashMap`'s default hasher is randomly seeded per
//! process, which is fine for lookup but poisons determinism the moment
//! iteration order leaks into behavior. Simulation state therefore uses
//! this fixed-seed Fx-style hasher: byte-identical across runs, processes
//! and hosts, and much cheaper than SipHash for the small integer keys
//! (rank ids, handler ids, `torus5d`'s packed rank and node pairs) that
//! dominate here.
//!
//! Iteration order of a `HashMap` with this hasher is still
//! *capacity-dependent*, so deterministic consumers must sort keys before
//! iterating — the hasher only guarantees the order is reproducible, not
//! meaningful.

use std::hash::{BuildHasher, Hasher};

/// The Firefox hash constant (64-bit golden-ratio multiplier).
const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed-seed Fx-style 64-bit hasher: multiply-rotate-xor per word.
#[derive(Default, Clone, Copy)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // Spread the high bits down: HashMap keys off the low bits.
        let h = self.hash;
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf) | ((rest.len() as u64 + 1) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`BuildHasher`] for [`FxHasher64`]; plug into `HashMap::with_hasher`.
#[derive(Default, Clone, Copy)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher64;

    #[inline]
    fn build_hasher(&self) -> FxHasher64 {
        FxHasher64::default()
    }
}

/// A `HashMap` keyed deterministically with [`FxBuildHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed deterministically with [`FxBuildHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher64::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_one(42usize), hash_one(42usize));
        assert_eq!(hash_one("rank"), hash_one("rank"));
        assert_ne!(hash_one(1u64), hash_one(2u64));
    }

    #[test]
    fn unaligned_tails_differ_by_length() {
        // A 3-byte and a 4-byte key sharing a prefix must not collide via
        // zero padding: the tail word carries the remainder length.
        assert_ne!(hash_one(&b"abc"[..]), hash_one(&b"abc\0"[..]));
    }

    #[test]
    fn map_works_and_is_reproducible() {
        let mut m: FxHashMap<usize, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, (i * 3) as u32);
        }
        assert_eq!(m.get(&999), Some(&2997));
        let mut keys: Vec<_> = m.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys.len(), 1000);
    }
}
