//! Property test: [`torus5d::fxmap::FxMap64`] behaves exactly like
//! `std::collections::HashMap` under seeded pseudo-random op streams.
//!
//! The map backs the network's per-pair ordering state, so a silent probe
//! or growth bug would corrupt delivery ordering without failing any direct
//! assertion. This drives both maps through the same operations — inserts,
//! overwrites, `entry`-style read-modify-writes and negative lookups —
//! across several seeds and key distributions (uniform, collision-heavy
//! strides, dense packed rank pairs) and demands identical observable state
//! after every phase.

use std::collections::HashMap;

use desim::SimRng;
use torus5d::fxmap::FxMap64;

/// Drive `ops` random operations from `rng` over keys drawn by `key_of`,
/// mirroring every mutation into a std HashMap, then check full agreement.
#[allow(clippy::disallowed_methods)] // the std map is the oracle
fn check_against_std(mut rng: SimRng, ops: usize, key_of: impl Fn(u64) -> u64) {
    let mut fx: FxMap64<u64> = FxMap64::new();
    let mut std_map: HashMap<u64, u64> = HashMap::new();
    for _ in 0..ops {
        let key = key_of(rng.next_below(1 << 40));
        match rng.next_below(4) {
            // insert / overwrite
            0 | 1 => {
                let val = rng.next_below(u64::MAX / 2);
                fx.insert(key, val);
                std_map.insert(key, val);
            }
            // entry read-modify-write (inserts default 0 when absent)
            2 => {
                *fx.entry(key) += 3;
                *std_map.entry(key).or_insert(0) += 3;
            }
            // lookup must agree mid-stream too
            _ => {
                assert_eq!(fx.get(key), std_map.get(&key).copied(), "key {key:#x}");
            }
        }
        assert_eq!(fx.len(), std_map.len());
    }
    // Full agreement both directions: every std entry is in fx...
    for (&k, &v) in &std_map {
        assert_eq!(fx.get(k), Some(v), "std key {k:#x} missing/wrong in fx");
    }
    // ...and fx's iterator yields exactly the std pairs, no phantoms.
    let mut fx_pairs: Vec<(u64, u64)> = fx.iter().collect();
    fx_pairs.sort_unstable();
    let mut std_pairs: Vec<(u64, u64)> = std_map.into_iter().collect();
    std_pairs.sort_unstable();
    assert_eq!(fx_pairs, std_pairs);
}

#[test]
fn uniform_keys_match_std() {
    let root = SimRng::new(0xF0CA_CC1A);
    for seed in 0..4 {
        check_against_std(root.derive(seed), 20_000, |k| k);
    }
}

#[test]
fn collision_heavy_strided_keys_match_std() {
    // Multiplying by a power of two throws away the hash's low entropy:
    // after the Fx multiply these cluster hard in small tables, forcing
    // long linear-probe chains and growth re-probes.
    let root = SimRng::new(0xC011_1DE5);
    for (seed, shift) in [(0u64, 16u32), (1, 24), (2, 33)] {
        check_against_std(root.derive(seed), 15_000, move |k| (k & 0xFF) << shift);
    }
}

#[test]
fn packed_rank_pairs_match_std() {
    // The production key shape: (src << 32) | dst for ranks < 4096 — dense
    // small values in both halves, like the per-pair ordering table sees.
    let root = SimRng::new(0x5EED_0A12);
    check_against_std(root.derive(0), 30_000, |k| {
        let src = k & 0xFFF;
        let dst = (k >> 12) & 0xFFF;
        (src << 32) | dst
    });
}

#[test]
fn growth_preserves_everything_under_sequential_load() {
    // Worst case for growth: monotone keys inserted once each, spanning
    // several doublings, verified exhaustively afterwards.
    let mut fx: FxMap64<u64> = FxMap64::new();
    let mut rng = SimRng::new(0x0061_2011);
    let n = 40_000u64;
    for i in 0..n {
        fx.insert(i, i.wrapping_mul(0x9E37_79B9));
        if rng.next_below(64) == 0 {
            // Spot-check an already-inserted key mid-growth.
            let probe = rng.next_below(i + 1);
            assert_eq!(fx.get(probe), Some(probe.wrapping_mul(0x9E37_79B9)));
        }
    }
    assert_eq!(fx.len(), n as usize);
    for i in 0..n {
        assert_eq!(fx.get(i), Some(i.wrapping_mul(0x9E37_79B9)), "key {i}");
    }
    assert_eq!(fx.get(n), None);
}

#[test]
#[allow(clippy::disallowed_methods)] // the std map is the oracle
fn retiring_entries_keep_every_live_value() {
    // Values are timestamps and everything 300 steps old is dead, like the
    // network's fronts behind a rising delivery floor. A key `entry_retiring`
    // dropped is gone from the oracle too (it comes back as a default), so
    // both maps stay equal, retirement never touches a live value, and the
    // table stays sized by the live keys, not by the keys seen.
    for (seed, keys) in [(0u64, 50_000u64), (1, 2_000), (2, 64)] {
        let mut rng = SimRng::new(0x7E71_0000 + seed);
        let mut fx: FxMap64<u64> = FxMap64::new();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        for step in 1_000..30_000u64 {
            let floor = step - 300;
            let key = rng.next_below(keys) * 0x1_0000_0001;
            let dead = |v: u64| v <= floor;
            if rng.next_below(2) == 0 {
                *fx.entry_retiring(key, dead) = step;
                std_map.insert(key, step);
            } else {
                *fx.entry_retiring(key, dead) += 1;
                *std_map.entry(key).or_insert(0) += 1;
            }
            assert_eq!(fx.get(key), std_map.get(&key).copied(), "key {key:#x}");
            std_map.retain(|&k, &mut v| {
                let kept = fx.get(k).is_some();
                assert!(
                    kept || v <= floor,
                    "live key {k:#x} ({v}) retired at {floor}"
                );
                kept
            });
            assert_eq!(fx.len(), std_map.len());
            if step % 1_000 == 0 {
                for (&k, &v) in &std_map {
                    assert_eq!(fx.get(k), Some(v), "key {k:#x}");
                }
            }
        }
        let live = std_map.values().filter(|&&v| v > 29_699).count();
        assert!(
            fx.len() <= 8 * live.max(16),
            "{} entries for {live} live",
            fx.len()
        );
    }
}
