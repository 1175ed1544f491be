//! A minimal open-addressing hash map with an FxHash-style multiplicative
//! hash, for hot-path state keyed by small integers.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 — DoS-resistant but
//! ~10× more expensive than needed for trusted `u64` keys like packed
//! `(src, dst)` rank pairs. [`FxMap64`] trades that robustness for a single
//! multiply per probe: linear probing over a power-of-two table and
//! amortized O(1) insertion with zero allocations between growths. There is
//! no per-key removal: [`FxMap64::entry_retiring`] drops the entries its
//! predicate names in the rehash a new key would otherwise grow the table
//! by, in place when enough of them go, so a table whose entries go stale
//! (the network's ordering fronts behind the delivery floor) is sized by its
//! peak of live entries, not by every key it ever held.

use desim::memprof::{self, MemTag};

/// The Firefox hash multiplier (`π`-derived odd constant used by rustc's
/// FxHasher).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxMap slot tables (only ever allocated in `FxMap64::rehash`, so the
/// probe/insert hot path carries no profiler cost at all).
static FXMAP_TAG: MemTag = MemTag::new("torus5d.fxmap");

/// Sentinel for an empty slot. `u64::MAX` cannot be a packed rank pair
/// (ranks are `u32` values, and `u32::MAX` ranks do not exist).
const EMPTY: u64 = u64::MAX;

#[inline]
fn spread(k: u64) -> u64 {
    let h = k.wrapping_mul(FX_SEED);
    h ^ (h >> 32)
}

/// Open-addressing map from `u64` keys to `Copy` values.
///
/// Keys must never equal `u64::MAX` (reserved as the empty-slot sentinel).
/// Keys and values are stored interleaved so a random lookup touches a
/// single cache line, not one per array.
#[derive(Debug, Clone)]
pub struct FxMap64<V> {
    slots: Vec<(u64, V)>,
    len: usize,
}

impl<V: Copy + Default> Default for FxMap64<V> {
    fn default() -> Self {
        FxMap64::new()
    }
}

impl<V: Copy + Default> FxMap64<V> {
    /// An empty map. No allocation happens until the first insert.
    pub fn new() -> FxMap64<V> {
        FxMap64 {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        debug_assert_ne!(key, EMPTY, "u64::MAX keys are reserved");
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = spread(key) as usize & mask;
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert or overwrite `key`.
    #[inline]
    pub fn insert(&mut self, key: u64, val: V) {
        *self.entry(key) = val;
    }

    /// Mutable access to the value for `key`, inserting `V::default()` if
    /// absent — one probe walk for a read-modify-write instead of a `get`
    /// followed by an `insert`. Allocates only when a *new* key pushes the
    /// table past 7/8 load; hits on existing keys are allocation-free.
    #[inline]
    pub fn entry(&mut self, key: u64) -> &mut V {
        self.entry_retiring(key, |_| false)
    }

    /// [`FxMap64::entry`] for a table whose entries can go stale: when a new
    /// key pushes the table past 7/8 load, the rehash first drops every
    /// entry whose value `dead` accepts, and the table grows only if the
    /// survivors still fill more than half of it. `dead` is called during
    /// that rehash only, never on the probe path. With `dead` always false
    /// this is [`FxMap64::entry`].
    #[inline]
    pub fn entry_retiring(&mut self, key: u64, dead: impl Fn(V) -> bool) -> &mut V {
        debug_assert_ne!(key, EMPTY, "u64::MAX keys are reserved");
        if self.slots.is_empty() {
            self.rehash(&|_| false);
        }
        loop {
            let mask = self.slots.len() - 1;
            let mut i = spread(key) as usize & mask;
            let slot = loop {
                let k = self.slots[i].0;
                if k == key || k == EMPTY {
                    break i;
                }
                i = (i + 1) & mask;
            };
            if self.slots[slot].0 == key {
                return &mut self.slots[slot].1;
            }
            // New key: rehash at 7/8 load (and re-probe) so chains stay short.
            if (self.len + 1) * 8 > self.slots.len() * 7 {
                self.rehash(&dead);
                continue;
            }
            // A slot emptied by `retire_in_place` still holds a value.
            self.slots[slot] = (key, V::default());
            self.len += 1;
            return &mut self.slots[slot].1;
        }
    }

    /// Iterate over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.slots
            .iter()
            .filter(|(k, _)| *k != EMPTY)
            .map(|&(k, v)| (k, v))
    }

    /// Drop the entries `dead` accepts and make room for one more key: in
    /// place when the survivors fill at most half the table, else into a
    /// table twice the size (at least 16 slots). The table never shrinks, so
    /// a steady population of retiring keys rehashes without allocating.
    #[cold]
    fn rehash(&mut self, dead: &dyn Fn(V) -> bool) {
        let cap = self.slots.len();
        let live = self.iter().filter(|&(_, v)| !dead(v)).count();
        if cap > 0 && (live + 1) * 2 <= cap {
            self.retire_in_place(dead);
            return;
        }
        let _mem = memprof::scope(&FXMAP_TAG);
        let cap = (cap * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, V::default()); cap]);
        self.len = live;
        for (k, v) in old {
            if k != EMPTY && !dead(v) {
                let i = self.free_slot(k);
                self.slots[i] = (k, v);
            }
        }
    }

    /// Remove the entries `dead` accepts and re-seat the rest without
    /// allocating. The walk starts just past a slot that was empty before
    /// any removal, so no probe chain wraps across it: when an entry is
    /// lifted out and re-inserted, every slot between its home and its old
    /// position has been visited already, and it lands at or before the
    /// slot it left.
    fn retire_in_place(&mut self, dead: &dyn Fn(V) -> bool) {
        let mask = self.slots.len() - 1;
        let start = self
            .slots
            .iter()
            .position(|s| s.0 == EMPTY)
            .expect("a table below full load has an empty slot");
        for step in 1..self.slots.len() {
            let i = (start + step) & mask;
            let (k, v) = self.slots[i];
            if k == EMPTY {
                continue;
            }
            self.slots[i].0 = EMPTY;
            if dead(v) {
                self.len -= 1;
            } else {
                let j = self.free_slot(k);
                self.slots[j] = (k, v);
            }
        }
    }

    /// The first empty slot on `key`'s probe path.
    fn free_slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = spread(key) as usize & mask;
        while self.slots[i].0 != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m: FxMap64<u64> = FxMap64::new();
        assert!(m.is_empty());
        assert_eq!(m.get(7), None);
        m.insert(7, 70);
        m.insert(8, 80);
        assert_eq!(m.get(7), Some(70));
        assert_eq!(m.get(8), Some(80));
        m.insert(7, 71);
        assert_eq!(m.get(7), Some(71));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut m: FxMap64<u64> = FxMap64::new();
        // Keys chosen to collide in small tables: same low bits after spread
        // are likely somewhere within 10k sequential and strided keys.
        for i in 0..10_000u64 {
            m.insert(i * 0x1_0000_0001, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(i * 0x1_0000_0001), Some(i), "key {i}");
        }
        assert_eq!(m.get(0xdead_beef_dead_beef), None);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the std map is the oracle
    fn matches_std_hashmap_on_random_ops() {
        use std::collections::HashMap;
        let mut m: FxMap64<u64> = FxMap64::new();
        let mut r: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random op stream (no external RNG dep here).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 4096; // force overwrites
            let val = x >> 16;
            m.insert(key, val);
            r.insert(key, val);
        }
        assert_eq!(m.len(), r.len());
        for (k, v) in r {
            assert_eq!(m.get(k), Some(v));
        }
        let mut pairs: Vec<(u64, u64)> = m.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), m.len());
    }

    #[test]
    fn iter_skips_empty_slots() {
        let mut m: FxMap64<u32> = FxMap64::new();
        m.insert(1, 10);
        m.insert(2, 20);
        let mut got: Vec<(u64, u32)> = m.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 10), (2, 20)]);
    }
}
