//! `PagedMap` against an `FxHashMap` reference, and what its pages cost.
//!
//! The oracle half drives both maps with the same seeded id sequences —
//! random over p, dense `0..n`, and strided the way a sparse run places its
//! active ranks — always including ids 0 and p − 1, and compares `get`,
//! `len`, replacement and ascending iteration. The memory half runs under
//! the tagged allocation profiler (hence its own test binary) and pins the
//! two shapes the rank tables see: 256 ids strided over p = 1M, and 262144
//! dense ids (the Fig 9 storm at p = 262144).

use desim::memprof::{self, MemProf, MemScope};
use desim::{FxHashMap, PagedMap, SimRng};

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// Insert `ids` (value = a function of the id) into both maps, then check
/// every id in `probe` and the full iteration order.
fn check_against_reference(ids: &[usize], probe: impl Iterator<Item = usize>) {
    let mut m = PagedMap::new();
    let mut reference: FxHashMap<usize, u64> = FxHashMap::default();
    for (n, &id) in ids.iter().enumerate() {
        let v = id as u64 * 3 + n as u64;
        assert_eq!(m.insert(id, v), reference.insert(id, v), "insert {id}");
        assert_eq!(m.len(), reference.len());
    }
    for id in probe {
        assert_eq!(m.get(id), reference.get(&id), "get {id}");
        assert_eq!(m.contains(id), reference.contains_key(&id));
    }
    let mut want: Vec<(usize, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
    want.sort_unstable();
    let got: Vec<(usize, u64)> = m.iter().map(|(k, &v)| (k, v)).collect();
    assert_eq!(got, want, "ascending iteration");
    assert_eq!(m.is_empty(), reference.is_empty());
}

#[test]
fn random_ids_match_the_reference() {
    for (seed, p) in [(1u64, 1_000_000usize), (2, 4096), (3, 17), (4, 1 << 20)] {
        let mut rng = SimRng::new(seed);
        // Repeats included: a second insert of an id replaces its value.
        let mut ids: Vec<usize> = (0..2000)
            .map(|_| rng.next_below(p as u64) as usize)
            .collect();
        ids.extend([0, p - 1, 0]);
        let probe = (0..4000)
            .map(|_| rng.next_below(p as u64) as usize)
            .chain(ids.iter().copied())
            .chain([0, p - 1, p, usize::MAX / 2]);
        check_against_reference(&ids, probe);
    }
}

#[test]
fn dense_ids_match_the_reference() {
    for n in [1usize, 15, 16, 17, 4096, 5000] {
        let ids: Vec<usize> = (0..n).collect();
        check_against_reference(&ids, 0..n + 40);
        // Descending insertion order iterates ascending all the same.
        let rev: Vec<usize> = (0..n).rev().collect();
        check_against_reference(&rev, 0..n + 40);
    }
}

#[test]
fn strided_ids_match_the_reference() {
    for (p, active) in [
        (1_000_000usize, 256usize),
        (65_536, 32),
        (4096, 4096),
        (100, 7),
    ] {
        let stride = p / active;
        let mut ids: Vec<usize> = (0..active).map(|i| i * stride).collect();
        ids.push(p - 1);
        let probe = ids
            .iter()
            .flat_map(|&id| [id.saturating_sub(1), id, id + 1])
            .chain([0, p - 1]);
        check_against_reference(&ids, probe);
    }
}

/// Peak bytes the table holds while `ids` go in (values are references to
/// a static, so every byte counted is the table's own).
fn table_peak_bytes(ids: impl Iterator<Item = usize>) -> i64 {
    static V: u32 = 7;
    memprof::enable();
    let mark = memprof::mark();
    let scope = MemScope::enter("test.paged");
    let mut m: PagedMap<&'static u32> = PagedMap::new();
    for id in ids {
        m.insert(id, &V);
    }
    drop(scope);
    let snap = memprof::since(&mark);
    drop(m);
    snap.get("test.paged").map_or(0, |t| t.peak_bytes)
}

#[test]
fn pages_cost_what_the_rank_tables_can_afford() {
    // Sparse: 256 active ranks strided over p = 1M — one page each.
    let sparse = table_peak_bytes((0..256).map(|i| i * (1_000_000 / 256)));
    assert!(sparse > 0, "the profiler saw the table");
    assert!(
        sparse <= 64 * 1024,
        "256 strided ids hold {sparse} B (limit 64 KiB)"
    );
    // Dense: every rank of p = 262144.
    let dense = table_peak_bytes(0..262_144);
    assert!(
        dense <= 3 * 1024 * 1024,
        "262144 dense ids hold {dense} B (limit 3 MiB)"
    );
}
