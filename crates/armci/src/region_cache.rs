//! Remote memory-region cache with least-frequently-used replacement.
//!
//! RDMA needs the target's memory-region metadata. Caching an entry for every
//! possible (peer, structure) pair costs `σ·ζ·γ` bytes (paper Eq. 5) which is
//! prohibitive under strong scaling (`ζ ≈ p`) on a memory-limited machine, so
//! the cache is bounded: misses are served by an active message to the owner
//! (which requires the owner's progress engine — misses are *expensive*), and
//! the replacement policy is **least frequently used** (paper §III-B).

use std::rc::Rc;

use desim::FxHashMap;

/// Metadata of a remote rank's registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteRegion {
    /// Start offset of the region in the owner's memory.
    pub off: usize,
    /// Region length in bytes.
    pub len: usize,
}

impl RemoteRegion {
    /// Whether the region fully covers `[off, off+len)`.
    pub fn covers(&self, off: usize, len: usize) -> bool {
        self.off <= off && off + len <= self.off + self.len
    }
}

/// One collective structure's regions, indexed by owner (`None`: the
/// owner's block did not register). Built once per structure and shared by
/// every rank's cache.
pub type RegionTable = Rc<[Option<RemoteRegion>]>;

/// An entry that came back from a miss query.
#[derive(Debug, Clone)]
struct Entry {
    target: usize,
    region: RemoteRegion,
    freq: u64,
    inserted: u64,
}

/// A collective structure this cache was seeded from: the shared table plus
/// this rank's LFU state for each of its slots.
#[derive(Debug)]
struct Seeded {
    table: RegionTable,
    /// Slot `t` was inserted at `base + t`.
    base: u64,
    /// Use frequency per owner; 0 = not cached (the rank's own block, an
    /// unregistered one, one already cached from elsewhere, or evicted).
    /// `u32::MAX`: the count outgrew 32 bits and continues in
    /// [`Seeds::wide`].
    freq: Box<[u32]>,
}

/// The collective structures a cache was seeded from, in seeding order.
#[derive(Debug, Default)]
struct Seeds {
    structures: Vec<Seeded>,
    /// Cached slots over all structures.
    len: usize,
    /// Frequencies of the slots marked `u32::MAX`, by (structure, owner).
    wide: FxHashMap<(usize, usize), u64>,
}

impl Seeds {
    /// The first structure whose cached slot `t` satisfies `pred`: the
    /// oldest, since structures are kept in seeding order.
    fn find(&self, t: usize, pred: impl Fn(&RemoteRegion) -> bool) -> Option<usize> {
        self.structures.iter().position(|st| {
            st.freq.get(t).is_some_and(|&f| f != 0) && st.table[t].as_ref().is_some_and(&pred)
        })
    }

    fn region(&self, s: usize, t: usize) -> RemoteRegion {
        self.structures[s].table[t].expect("cached slots hold a region")
    }

    fn freq(&self, s: usize, t: usize) -> u64 {
        match self.structures[s].freq[t] {
            u32::MAX => self.wide[&(s, t)],
            f => u64::from(f),
        }
    }

    fn bump(&mut self, s: usize, t: usize) {
        let f = &mut self.structures[s].freq[t];
        if *f < u32::MAX - 1 {
            *f += 1;
        } else {
            *self.wide.entry((s, t)).or_insert(u64::from(*f)) += 1;
            *f = u32::MAX;
        }
    }

    fn insert(&mut self, s: usize, t: usize) {
        self.structures[s].freq[t] = 1;
        self.len += 1;
    }

    fn remove(&mut self, s: usize, t: usize) -> RemoteRegion {
        if std::mem::take(&mut self.structures[s].freq[t]) == u32::MAX {
            self.wide.remove(&(s, t));
        }
        self.len -= 1;
        self.region(s, t)
    }

    /// Every cached slot as `(structure, owner)`.
    fn cached(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.structures.iter().enumerate().flat_map(|(s, st)| {
            st.freq
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f != 0)
                .map(move |(t, _)| (s, t))
        })
    }
}

/// Where a cached entry lives.
#[derive(Debug, Clone, Copy)]
enum At {
    Queried(usize),
    Seeded(usize, usize),
}

/// Bounded cache of remote region metadata, LFU replacement.
///
/// Entries a miss query returned are kept one by one; a collective
/// structure's entries are slots of its shared [`RegionTable`], at four
/// bytes of frequency each. Both kinds are one cache: one capacity, one
/// insertion order, one LFU order.
#[derive(Debug)]
pub struct RegionCache {
    capacity: usize,
    entries: Vec<Entry>,
    /// Indices into `entries` per target, in insertion order.
    by_target: FxHashMap<usize, Vec<usize>>,
    /// Boxed on the first seed: a rank of a run without collective
    /// allocations pays one word for it.
    seeded: Option<Box<Seeds>>,
    seq: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RegionCache {
    /// Create a cache bounded to `capacity` entries (0 disables caching,
    /// forcing a query round trip on every RDMA attempt).
    pub fn new(capacity: usize) -> RegionCache {
        RegionCache {
            capacity,
            entries: Vec::new(),
            by_target: FxHashMap::default(),
            seeded: None,
            seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a cached region of `target` covering `[off, off+len)`,
    /// bumping its use frequency. Records a hit or miss.
    pub fn lookup(&mut self, target: usize, off: usize, len: usize) -> Option<RemoteRegion> {
        let found = if self.entries.is_empty() && self.seeded.is_none() {
            None
        } else {
            self.find(target, |r| r.covers(off, len))
        };
        match found {
            Some(at) => {
                self.bump(at);
                self.hits += 1;
                Some(self.region(at))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a region fetched from `target`, evicting the globally
    /// least-frequently-used entry if at capacity. Returns the evicted
    /// entry's `(target, region)` if any.
    pub fn insert(&mut self, target: usize, region: RemoteRegion) -> Option<(usize, RemoteRegion)> {
        if self.capacity == 0 {
            return None;
        }
        // Refresh rather than duplicate if an identical entry exists.
        if let Some(at) = self.find(target, |r| *r == region) {
            self.bump(at);
            return None;
        }
        let evicted = self.evict_if_full();
        self.seq += 1;
        self.entries.push(Entry {
            target,
            region,
            freq: 1,
            inserted: self.seq,
        });
        self.by_target
            .entry(target)
            .or_default()
            .push(self.entries.len() - 1);
        evicted
    }

    /// Seed the cache of rank `me` with a collective structure: the same
    /// as [`insert`](Self::insert)ing every other owner's region of `table`
    /// in owner order, without a per-entry copy. Returns what that evicted,
    /// in order.
    pub fn seed(&mut self, me: usize, table: &RegionTable) -> Vec<(usize, RemoteRegion)> {
        let mut evicted = Vec::new();
        if self.capacity == 0 {
            return evicted;
        }
        let seeds = self.seeded.get_or_insert_with(Box::default);
        let s = seeds.structures.len();
        seeds.structures.push(Seeded {
            table: Rc::clone(table),
            base: self.seq + 1,
            freq: vec![0; table.len()].into(),
        });
        self.seq += table.len() as u64;
        for (t, region) in table.iter().enumerate() {
            let Some(region) = *region else { continue };
            if t == me {
                continue;
            }
            if let Some(at) = self.find(t, |r| *r == region) {
                self.bump(at);
                continue;
            }
            evicted.extend(self.evict_if_full());
            self.seeds_mut().insert(s, t);
        }
        evicted
    }

    fn seeds(&self) -> &Seeds {
        self.seeded
            .as_deref()
            .expect("a seeded slot has its structure")
    }

    fn seeds_mut(&mut self) -> &mut Seeds {
        self.seeded
            .as_deref_mut()
            .expect("a seeded slot has its structure")
    }

    /// The earliest-inserted entry of `target` whose region satisfies
    /// `pred`. `by_target` lists are in insertion order, so the first match
    /// on each side is its oldest.
    fn find(&self, target: usize, pred: impl Fn(&RemoteRegion) -> bool) -> Option<At> {
        let seeded = self
            .seeded
            .as_deref()
            .and_then(|sd| sd.find(target, &pred))
            .map(|s| At::Seeded(s, target));
        if self.entries.is_empty() {
            return seeded;
        }
        let queried = self.by_target.get(&target).and_then(|ids| {
            ids.iter()
                .copied()
                .find(|&i| pred(&self.entries[i].region))
                .map(At::Queried)
        });
        match (seeded, queried) {
            (Some(s), Some(q)) => Some(std::cmp::min_by_key(s, q, |&at| self.inserted(at))),
            (s, q) => s.or(q),
        }
    }

    fn region(&self, at: At) -> RemoteRegion {
        match at {
            At::Queried(i) => self.entries[i].region,
            At::Seeded(s, t) => self.seeds().region(s, t),
        }
    }

    fn inserted(&self, at: At) -> u64 {
        match at {
            At::Queried(i) => self.entries[i].inserted,
            At::Seeded(s, t) => self.seeds().structures[s].base + t as u64,
        }
    }

    fn freq(&self, at: At) -> u64 {
        match at {
            At::Queried(i) => self.entries[i].freq,
            At::Seeded(s, t) => self.seeds().freq(s, t),
        }
    }

    fn bump(&mut self, at: At) {
        match at {
            At::Queried(i) => self.entries[i].freq += 1,
            At::Seeded(s, t) => self.seeds_mut().bump(s, t),
        }
    }

    /// At capacity, evict the `(freq, inserted)`-minimal entry of either
    /// kind and return it.
    fn evict_if_full(&mut self) -> Option<(usize, RemoteRegion)> {
        if self.len() < self.capacity {
            return None;
        }
        let queried = (0..self.entries.len()).map(At::Queried);
        let seeded = self.seeded.iter().flat_map(|sd| sd.cached());
        let victim = queried
            .chain(seeded.map(|(s, t)| At::Seeded(s, t)))
            .min_by_key(|&at| (self.freq(at), self.inserted(at)))
            .expect("nonempty at capacity");
        self.evictions += 1;
        Some(self.remove(victim))
    }

    fn remove(&mut self, at: At) -> (usize, RemoteRegion) {
        match at {
            At::Queried(v) => {
                let e = self.entries.swap_remove(v);
                let ids = self.by_target.get_mut(&e.target).expect("indexed");
                ids.retain(|&i| i != v);
                if ids.is_empty() {
                    self.by_target.remove(&e.target);
                }
                // The last entry moved into `v`: re-point its one index.
                if let Some(moved) = self.entries.get(v).map(|e| e.target) {
                    let last = self.entries.len();
                    let ids = self.by_target.get_mut(&moved).expect("indexed");
                    *ids.iter_mut().find(|i| **i == last).expect("indexed") = v;
                }
                (e.target, e.region)
            }
            At::Seeded(s, t) => (t, self.seeds_mut().remove(s, t)),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len() + self.seeded.as_ref().map_or(0, |sd| sd.len)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime cache hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime cache misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(off: usize, len: usize) -> RemoteRegion {
        RemoteRegion { off, len }
    }

    #[test]
    fn covers_bounds() {
        let r = reg(100, 50);
        assert!(r.covers(100, 50));
        assert!(r.covers(120, 10));
        assert!(!r.covers(90, 20));
        assert!(!r.covers(140, 20));
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = RegionCache::new(4);
        assert_eq!(c.lookup(1, 0, 8), None);
        c.insert(1, reg(0, 1024));
        assert_eq!(c.lookup(1, 0, 8), Some(reg(0, 1024)));
        assert_eq!(c.lookup(1, 2000, 8), None); // not covered
        assert_eq!(c.lookup(2, 0, 8), None); // different target
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = RegionCache::new(2);
        c.insert(1, reg(0, 100));
        c.insert(2, reg(0, 100));
        // Heat up target 1's entry.
        for _ in 0..5 {
            c.lookup(1, 0, 8);
        }
        let evicted = c.insert(3, reg(0, 100));
        assert_eq!(evicted, Some((2, reg(0, 100))));
        assert!(c.lookup(1, 0, 8).is_some());
        assert!(c.lookup(3, 0, 8).is_some());
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lfu_tie_breaks_by_age() {
        let mut c = RegionCache::new(2);
        c.insert(1, reg(0, 100));
        c.insert(2, reg(0, 100));
        // Equal frequency: the older entry (target 1) is evicted.
        let evicted = c.insert(3, reg(0, 100));
        assert_eq!(evicted, Some((1, reg(0, 100))));
    }

    #[test]
    fn capacity_zero_disables_cache() {
        let mut c = RegionCache::new(0);
        assert!(c.insert(1, reg(0, 100)).is_none());
        assert_eq!(c.lookup(1, 0, 8), None);
        assert!(c.is_empty());
    }

    #[test]
    fn duplicate_insert_refreshes() {
        let mut c = RegionCache::new(2);
        c.insert(1, reg(0, 100));
        c.insert(1, reg(0, 100));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = RegionCache::new(3);
        for t in 0..10 {
            c.insert(t, reg(t * 10, 10));
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn multiple_regions_same_target() {
        let mut c = RegionCache::new(4);
        c.insert(1, reg(0, 100));
        c.insert(1, reg(1000, 100));
        assert_eq!(c.lookup(1, 50, 10), Some(reg(0, 100)));
        assert_eq!(c.lookup(1, 1050, 10), Some(reg(1000, 100)));
    }

    fn table(regions: &[Option<RemoteRegion>]) -> RegionTable {
        regions.into()
    }

    #[test]
    fn lookup_returns_the_oldest_covering_entry() {
        // Overlapping regions of one target, which `region_cache_oracle`
        // leaves out: the older answers, whichever kind it is.
        let mut c = RegionCache::new(8);
        c.insert(1, reg(0, 100));
        c.seed(0, &table(&[None, Some(reg(0, 50))]));
        assert_eq!(c.lookup(1, 0, 8), Some(reg(0, 100)));
        let mut c = RegionCache::new(8);
        c.seed(0, &table(&[None, Some(reg(0, 50))]));
        c.insert(1, reg(0, 100));
        assert_eq!(c.lookup(1, 0, 8), Some(reg(0, 50)));
    }

    #[test]
    fn slot_frequency_continues_past_32_bits() {
        let mut c = RegionCache::new(3);
        c.seed(0, &table(&[None, Some(reg(0, 8))]));
        c.insert(2, reg(0, 8));
        c.insert(3, reg(0, 8));
        c.seeds_mut().structures[0].freq[1] = u32::MAX - 1;
        c.lookup(1, 0, 8);
        c.lookup(1, 0, 8);
        assert_eq!(c.freq(At::Seeded(0, 1)), u64::from(u32::MAX) + 1);
        // Target 2 is younger and one use colder than the seeded slot: a
        // count saturated at 32 bits would tie them and evict the slot.
        let wide = u64::from(u32::MAX);
        c.entries[0].freq = wide;
        c.entries[1].freq = wide + 5;
        assert_eq!(c.insert(4, reg(0, 8)), Some((2, reg(0, 8))));
        c.entries[1].freq = wide + 5;
        assert_eq!(c.insert(5, reg(0, 8)), Some((1, reg(0, 8))));
        assert!(c.seeds().wide.is_empty());
    }
}
