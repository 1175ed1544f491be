//! The region cache against the implementation it replaced: one entry and
//! one index slot per cached region, seeded one `insert` at a time.
//!
//! `Reference` below is that cache, kept verbatim. Both caches are driven
//! through the same seeded random sequence of collective seeds (tables with
//! gaps, the seeding rank's own block skipped), miss inserts (identical
//! re-inserts included) and lookups (covering and not), at capacities small
//! enough that seeding lands in a full cache. Every lookup, every evicted
//! `(target, region)` and the counters must agree after every step.
//!
//! A target's regions are drawn from disjoint blocks, as a rank's
//! registrations are, so at most one cached region covers a lookup: the
//! reference orders a target's entries by slot after an eviction, not by
//! insertion, and only overlapping regions could tell the two apart.

use armci::{RegionCache, RegionTable, RemoteRegion};
use desim::{FxHashMap, SimRng};

#[derive(Debug, Clone)]
struct Entry {
    target: usize,
    region: RemoteRegion,
    freq: u64,
    inserted: u64,
}

/// The LFU region cache as it was: an `Entry` per cached region and a
/// per-target index rebuilt after every eviction.
struct Reference {
    capacity: usize,
    entries: Vec<Entry>,
    by_target: FxHashMap<usize, Vec<usize>>,
    seq: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            capacity,
            entries: Vec::new(),
            by_target: FxHashMap::default(),
            seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn lookup(&mut self, target: usize, off: usize, len: usize) -> Option<RemoteRegion> {
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

    fn insert(&mut self, target: usize, region: RemoteRegion) -> Option<(usize, RemoteRegion)> {
        if self.capacity == 0 {
            return None;
        }
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

    /// A collective structure, the way the per-pair seeding loops fed it.
    fn seed(&mut self, me: usize, table: &[Option<RemoteRegion>]) -> Vec<(usize, RemoteRegion)> {
        let mut evicted = Vec::new();
        for (owner, region) in table.iter().enumerate() {
            if let (true, Some(region)) = (owner != me, *region) {
                evicted.extend(self.insert(owner, region));
            }
        }
        evicted
    }
}

const TARGETS: u64 = 7;
/// Disjoint blocks per target a region may sit in.
const BLOCKS: u64 = 4;
const BLOCK: usize = 100;

fn region(rng: &mut SimRng) -> RemoteRegion {
    RemoteRegion {
        off: rng.next_below(BLOCKS) as usize * BLOCK,
        len: BLOCK,
    }
}

/// Run `steps` random steps on both caches; returns how many seeds found
/// the cache full and how many lookups hit.
fn drive(capacity: usize, seed: u64, steps: usize) -> (usize, usize) {
    let (mut full_seeds, mut hits) = (0, 0);
    let mut rng = SimRng::new(seed);
    let mut model = Reference::new(capacity);
    let mut cache = RegionCache::new(capacity);
    for step in 0..steps {
        let ctx = format!("capacity {capacity}, seed {seed}, step {step}");
        match rng.next_below(10) {
            0 => {
                let n = rng.range(1, TARGETS + 1) as usize;
                let table: Vec<_> = (0..n)
                    .map(|_| (rng.next_below(4) != 0).then(|| region(&mut rng)))
                    .collect();
                let me = rng.next_below(n as u64 + 1) as usize;
                full_seeds += usize::from(capacity > 0 && model.entries.len() == capacity);
                let want = model.seed(me, &table);
                assert_eq!(cache.seed(me, &RegionTable::from(table)), want, "{ctx}");
            }
            1..=3 => {
                let target = rng.next_below(TARGETS) as usize;
                let r = region(&mut rng);
                assert_eq!(cache.insert(target, r), model.insert(target, r), "{ctx}");
            }
            _ => {
                let target = rng.next_below(TARGETS) as usize;
                let off = rng.next_below((BLOCKS as usize * BLOCK) as u64) as usize;
                let len = rng.range(1, 24) as usize;
                let want = model.lookup(target, off, len);
                assert_eq!(cache.lookup(target, off, len), want, "{ctx}");
                hits += usize::from(want.is_some());
            }
        }
        assert_eq!(cache.len(), model.entries.len(), "{ctx}");
        assert_eq!(
            (cache.hits(), cache.misses(), cache.evictions()),
            (model.hits, model.misses, model.evictions),
            "{ctx}"
        );
    }
    (full_seeds, hits)
}

#[test]
fn matches_the_per_entry_cache_under_random_steps() {
    let (mut full_seeds, mut hits) = (0, 0);
    for capacity in [0, 1, 2, 3, 8, 1 << 16] {
        for seed in 0..64 {
            let (f, h) = drive(capacity, seed, 400);
            full_seeds += f;
            hits += h;
        }
    }
    // The sequences reach the cases the comparison is for.
    assert!(
        full_seeds > 1000 && hits > 10_000,
        "{full_seeds} seeds into a full cache, {hits} hits"
    );
}
