//! Remote memory-region cache with least-frequently-used replacement.
//!
//! RDMA needs the target's memory-region metadata. Caching an entry for every
//! possible (peer, structure) pair costs `σ·ζ·γ` bytes (paper Eq. 5) which is
//! prohibitive under strong scaling (`ζ ≈ p`) on a memory-limited machine, so
//! the cache is bounded: misses are served by an active message to the owner
//! (which requires the owner's progress engine — misses are *expensive*), and
//! the replacement policy is **least frequently used** (paper §III-B).

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

#[derive(Debug, Clone)]
struct Entry {
    target: usize,
    region: RemoteRegion,
    freq: u64,
    inserted: u64,
}

/// Bounded cache of remote region metadata, LFU replacement.
#[derive(Debug)]
pub struct RegionCache {
    capacity: usize,
    entries: Vec<Entry>,
    by_target: FxHashMap<usize, Vec<usize>>,
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
            seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a cached region of `target` covering `[off, off+len)`,
    /// bumping its use frequency. Records a hit or miss.
    pub fn lookup(&mut self, target: usize, off: usize, len: usize) -> Option<RemoteRegion> {
        let idx = self.by_target.get(&target).and_then(|ids| {
            ids.iter()
                .copied()
                .find(|&i| self.entries[i].region.covers(off, len))
        });
        match idx {
            Some(i) => {
                self.entries[i].freq += 1;
                self.hits += 1;
                Some(self.entries[i].region)
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
        if let Some(ids) = self.by_target.get(&target) {
            if let Some(&i) = ids.iter().find(|&&i| self.entries[i].region == region) {
                self.entries[i].freq += 1;
                return None;
            }
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.freq, e.inserted))
                .map(|(i, _)| i)
                .expect("nonempty at capacity");
            let e = self.entries.swap_remove(victim);
            self.evictions += 1;
            evicted = Some((e.target, e.region));
            self.rebuild_index();
        }
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

    fn rebuild_index(&mut self) {
        self.by_target.clear();
        for (i, e) in self.entries.iter().enumerate() {
            self.by_target.entry(e.target).or_default().push(i);
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
}
