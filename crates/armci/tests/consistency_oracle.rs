//! Oracle for `ConsistencyTracker`: a read or fence walks only its target's
//! keys, and completed handles elsewhere go in an amortized sweep. The
//! tracker it replaced — which pruned and filtered every outstanding key on
//! every read and fence — is kept below verbatim as the reference. Seeded
//! streams of writes, completions, read gates and fences, in both modes,
//! must get the same completions back from both, in the same
//! `(target, region)` and issue order.

use std::collections::BTreeMap;

use armci::{ConsistencyMode, ConsistencyTracker};
use desim::{Completion, SimRng};

type RegionKey = Option<usize>;

/// The tracker as it was before reads and fences walked only their target.
struct RefTracker {
    mode: ConsistencyMode,
    /// Outstanding write completions per (target, region-key). Ordered, so
    /// fences and read gates hand completions back in `(target, region)`
    /// order (issue order within a key) — a function of the content alone,
    /// never of a per-process hash seed or of the insertion history.
    writes: BTreeMap<(usize, RegionKey), Vec<Completion<()>>>,
}

#[allow(dead_code)] // verbatim, `mode()` included
impl RefTracker {
    /// Create a tracker for the given mode.
    fn new(mode: ConsistencyMode) -> RefTracker {
        RefTracker {
            mode,
            writes: BTreeMap::new(),
        }
    }

    /// The tracking mode.
    fn mode(&self) -> ConsistencyMode {
        self.mode
    }

    /// Record an outstanding write (`done` = its remote completion).
    fn record_write(&mut self, target: usize, region: RegionKey, done: Completion<()>) {
        self.writes.entry((target, region)).or_default().push(done);
    }

    /// Drop completions that already fired (cheap lazy pruning).
    fn prune(&mut self) {
        self.writes.retain(|_, v| {
            v.retain(|c| !c.is_complete());
            !v.is_empty()
        });
    }

    /// Completions that must be awaited before a read of `(target, region)`
    /// may be issued. Removes them from the outstanding set; a nonempty set
    /// is an induced fence, which the caller counts (`armci.induced_fence`).
    fn conflicts_for_read(&mut self, target: usize, region: RegionKey) -> Vec<Completion<()>> {
        self.prune();
        let mut out = Vec::new();
        match self.mode {
            ConsistencyMode::PerTarget => {
                // Any write to this target conflicts.
                let keys: Vec<_> = self
                    .writes
                    .keys()
                    .filter(|(t, _)| *t == target)
                    .cloned()
                    .collect();
                for k in keys {
                    out.extend(self.writes.remove(&k).unwrap_or_default());
                }
            }
            ConsistencyMode::PerRegion => {
                // Same region conflicts; region-less (fall-back) writes are
                // conservative and conflict with every read from the target;
                // a region-less read conflicts with every write to the target.
                let keys: Vec<_> = self
                    .writes
                    .keys()
                    .filter(|(t, k)| {
                        *t == target && (region.is_none() || k.is_none() || *k == region)
                    })
                    .cloned()
                    .collect();
                for k in keys {
                    out.extend(self.writes.remove(&k).unwrap_or_default());
                }
            }
        }
        out
    }

    /// All outstanding writes to `target` (explicit `fence`).
    fn drain_target(&mut self, target: usize) -> Vec<Completion<()>> {
        self.prune();
        let keys: Vec<_> = self
            .writes
            .keys()
            .filter(|(t, _)| *t == target)
            .cloned()
            .collect();
        let mut out = Vec::new();
        for k in keys {
            out.extend(self.writes.remove(&k).unwrap_or_default());
        }
        out
    }

    /// All outstanding writes (explicit `fence_all` / barrier).
    fn drain_all(&mut self) -> Vec<Completion<()>> {
        self.prune();
        std::mem::take(&mut self.writes)
            .into_values()
            .flatten()
            .collect()
    }

    /// Outstanding (unpruned) write count, for tests.
    fn outstanding(&mut self) -> usize {
        self.prune();
        self.writes.values().map(Vec::len).sum()
    }
}

/// Labels of `got` and `want`, which must be the same handles in the same
/// order: each is pending, and completing `got[i]` completes `want[i]`.
/// Completes them all (a drained write has been waited for).
fn same_handles(got: Vec<Completion<()>>, want: Vec<Completion<()>>, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            !g.is_complete() && !w.is_complete(),
            "{what}: handle {i} pending"
        );
        g.complete(());
        assert!(w.is_complete(), "{what}: handle {i} differs");
    }
}

/// One seeded stream over `targets` targets and `regions` regions per target
/// (plus region-less writes and reads).
fn run(mode: ConsistencyMode, seed: u64, targets: u64, regions: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut new = ConsistencyTracker::new(mode);
    let mut old = RefTracker::new(mode);
    let mut pending: Vec<Completion<()>> = Vec::new();
    let region = |rng: &mut SimRng| match rng.next_below(regions + 1) {
        0 => None,
        r => Some(r as usize * 4096),
    };
    for i in 0..ops {
        let what = format!("{mode:?} seed {seed:#x} op {i}");
        let target = rng.next_below(targets) as usize;
        match rng.next_below(16) {
            0..=7 => {
                let c = Completion::new();
                let r = region(&mut rng);
                new.record_write(target, r, c.clone());
                old.record_write(target, r, c.clone());
                pending.push(c);
            }
            8..=10 => {
                // Some writes finish on their own, in no particular order.
                for _ in 0..rng.next_below(4) {
                    if !pending.is_empty() {
                        let k = rng.next_below(pending.len() as u64) as usize;
                        let c = pending.swap_remove(k);
                        if !c.is_complete() {
                            c.complete(());
                        }
                    }
                }
            }
            11..=13 => {
                let r = region(&mut rng);
                let got = new.conflicts_for_read(target, r);
                same_handles(got, old.conflicts_for_read(target, r), &what);
            }
            14 => same_handles(new.drain_target(target), old.drain_target(target), &what),
            _ if rng.next_below(8) == 0 => {
                same_handles(new.drain_all(), old.drain_all(), &what);
            }
            _ => assert_eq!(new.outstanding(), old.outstanding(), "{what}"),
        }
    }
    same_handles(new.drain_all(), old.drain_all(), "final drain");
}

#[test]
fn reads_and_fences_match_the_full_walk() {
    for mode in [ConsistencyMode::PerTarget, ConsistencyMode::PerRegion] {
        for (seed, targets, regions) in [(1, 4, 3), (2, 64, 2), (3, 1, 8), (4, 512, 1)] {
            run(mode, 0xC0_5157_0000 + seed, targets, regions, 20_000);
        }
    }
}

/// Writes to a target that is never read or fenced again stay bounded: the
/// sweep drops their completed handles although no read walks them.
#[test]
fn unread_targets_do_not_pile_up() {
    let mut t = ConsistencyTracker::new(ConsistencyMode::PerRegion);
    for i in 0..100_000usize {
        let c = Completion::new();
        t.record_write(i % 3, Some(0), c.clone());
        c.complete(());
        assert!(t.conflicts_for_read(7, Some(0)).is_empty());
        assert!(t.held() <= 128, "write {i}: {} handles held", t.held());
    }
    assert_eq!(t.outstanding(), 0);
}
