//! Location-consistency tracking of conflicting memory accesses (§III-E).
//!
//! ARMCI provides location consistency: before a **read** (get) from a
//! process is serviced, outstanding **writes** (put/accumulate) to that
//! process must be fenced. The naive algorithm keeps one communication
//! status per target (`cs_tgt`, space `Θ(ζ)`) and therefore fences on *every*
//! get that follows an unfenced write — even when the read and write touch
//! different distributed data structures (the dgemm example: non-blocking
//! gets of A/B must not wait for accumulates into C).
//!
//! The paper's improvement keeps a small status per **memory region**
//! (`cs_mr`, an 8-bit integer per structure; space `Θ(σ·ζ)`): a get only
//! fences writes to the *same* region of the same target. Accumulates are
//! associative, so ordering among them is never enforced.

use std::collections::BTreeMap;

use desim::Completion;

/// Which conflict-tracking granularity to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyMode {
    /// Naive `cs_tgt`: one status per target; any outstanding write to the
    /// target conflicts with any read from it. Space `Θ(ζ)`, false positives.
    PerTarget,
    /// `cs_mr`: status per (target, memory region). Space `Θ(σ·ζ)`, no
    /// cross-structure false positives.
    PerRegion,
}

/// Key identifying the distributed structure a write touched: the remote
/// region's start offset, or `None` when the write went through the
/// fall-back path (no region metadata — treated conservatively).
pub type RegionKey = Option<usize>;

/// Tracks outstanding (un-fenced) writes and decides which must complete
/// before a read may be issued.
///
/// A read or fence walks only its target's keys. Completed handles are
/// dropped there, and everywhere by a full sweep after as many writes as the
/// last sweep left handles (at least 64), so writes to targets that are
/// never read again cost amortized O(1) each instead of a walk on every read.
pub struct ConsistencyTracker {
    mode: ConsistencyMode,
    /// Writes left before the next sweep (in the padding beside `mode`).
    until_sweep: u32,
    /// Outstanding write completions per (target, region-key). Ordered, so
    /// fences and read gates hand completions back in `(target, region)`
    /// order (issue order within a key) — a function of the content alone,
    /// never of a per-process hash seed or of the insertion history.
    writes: BTreeMap<(usize, RegionKey), Vec<Completion<()>>>,
}

/// The fewest writes between two sweeps.
const MIN_SWEEP: u32 = 64;

impl ConsistencyTracker {
    /// Create a tracker for the given mode.
    pub fn new(mode: ConsistencyMode) -> ConsistencyTracker {
        ConsistencyTracker {
            mode,
            until_sweep: MIN_SWEEP,
            writes: BTreeMap::new(),
        }
    }

    /// The tracking mode.
    pub fn mode(&self) -> ConsistencyMode {
        self.mode
    }

    /// Record an outstanding write (`done` = its remote completion).
    pub fn record_write(&mut self, target: usize, region: RegionKey, done: Completion<()>) {
        self.writes.entry((target, region)).or_default().push(done);
        self.until_sweep -= 1;
        if self.until_sweep == 0 {
            self.prune();
        }
    }

    /// Drop completions that already fired, everywhere, and wait for as
    /// many writes as are left before the next sweep.
    fn prune(&mut self) {
        self.writes.retain(|_, v| {
            v.retain(|c| !c.is_complete());
            !v.is_empty()
        });
        let left = u32::try_from(self.held()).unwrap_or(u32::MAX);
        self.until_sweep = left.max(MIN_SWEEP);
    }

    /// Remove `target`'s keys whose region `hit` accepts and return their
    /// pending completions, in `(target, region)` then issue order. One
    /// range lookup per removed key, so nothing is allocated unless a
    /// pending completion is returned.
    fn take(&mut self, target: usize, hit: impl Fn(RegionKey) -> bool) -> Vec<Completion<()>> {
        let mut out = Vec::new();
        let mut from = (target, None);
        while let Some(key) = self
            .writes
            .range(from..=(target, Some(usize::MAX)))
            .map(|(k, _)| *k)
            .find(|&(_, r)| hit(r))
        {
            let v = self.writes.remove(&key).unwrap_or_default();
            out.extend(v.into_iter().filter(|c| !c.is_complete()));
            from = key;
        }
        out
    }

    /// Completions that must be awaited before a read of `(target, region)`
    /// may be issued. Removes them from the outstanding set; a nonempty set
    /// is an induced fence, which the caller counts (`armci.induced_fence`).
    pub fn conflicts_for_read(&mut self, target: usize, region: RegionKey) -> Vec<Completion<()>> {
        match self.mode {
            // Any write to this target conflicts.
            ConsistencyMode::PerTarget => self.take(target, |_| true),
            // Same region conflicts; region-less (fall-back) writes are
            // conservative and conflict with every read from the target;
            // a region-less read conflicts with every write to the target.
            ConsistencyMode::PerRegion => {
                self.take(target, |k| region.is_none() || k.is_none() || k == region)
            }
        }
    }

    /// All outstanding writes to `target` (explicit `fence`).
    pub fn drain_target(&mut self, target: usize) -> Vec<Completion<()>> {
        self.take(target, |_| true)
    }

    /// All outstanding writes (explicit `fence_all` / barrier).
    pub fn drain_all(&mut self) -> Vec<Completion<()>> {
        std::mem::take(&mut self.writes)
            .into_values()
            .flatten()
            .filter(|c| !c.is_complete())
            .collect()
    }

    /// Handles held, completed or not (what the next sweep walks).
    pub fn held(&self) -> usize {
        self.writes.values().map(Vec::len).sum()
    }

    /// Outstanding (unpruned) write count, for tests.
    pub fn outstanding(&mut self) -> usize {
        self.prune();
        self.held()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending() -> Completion<()> {
        Completion::new()
    }

    #[test]
    fn per_target_fences_across_regions() {
        let mut t = ConsistencyTracker::new(ConsistencyMode::PerTarget);
        t.record_write(3, Some(100), pending());
        let conflicts = t.conflicts_for_read(3, Some(999)); // different region
        assert_eq!(conflicts.len(), 1, "naive mode: false positive expected");
    }

    #[test]
    fn per_region_skips_unrelated_structures() {
        let mut t = ConsistencyTracker::new(ConsistencyMode::PerRegion);
        t.record_write(3, Some(100), pending());
        let conflicts = t.conflicts_for_read(3, Some(999));
        assert!(conflicts.is_empty(), "cs_mr: different region, no fence");
        // Same region does conflict.
        let conflicts = t.conflicts_for_read(3, Some(100));
        assert_eq!(conflicts.len(), 1);
    }

    #[test]
    fn per_region_conservative_for_unknown_regions() {
        let mut t = ConsistencyTracker::new(ConsistencyMode::PerRegion);
        t.record_write(3, None, pending()); // fall-back write
        assert_eq!(t.conflicts_for_read(3, Some(100)).len(), 1);
        t.record_write(3, Some(50), pending());
        assert_eq!(t.conflicts_for_read(3, None).len(), 1); // fall-back read
    }

    #[test]
    fn reads_from_other_targets_never_conflict() {
        for mode in [ConsistencyMode::PerTarget, ConsistencyMode::PerRegion] {
            let mut t = ConsistencyTracker::new(mode);
            t.record_write(3, Some(100), pending());
            assert!(t.conflicts_for_read(4, Some(100)).is_empty());
        }
    }

    #[test]
    fn completed_writes_are_pruned() {
        let mut t = ConsistencyTracker::new(ConsistencyMode::PerTarget);
        let done = pending();
        done.complete(());
        t.record_write(3, Some(0), done);
        assert!(t.conflicts_for_read(3, Some(0)).is_empty());
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn drain_target_and_all() {
        let mut t = ConsistencyTracker::new(ConsistencyMode::PerRegion);
        t.record_write(1, Some(0), pending());
        t.record_write(1, Some(8), pending());
        t.record_write(2, Some(0), pending());
        assert_eq!(t.drain_target(1).len(), 2);
        assert_eq!(t.outstanding(), 1);
        assert_eq!(t.drain_all().len(), 1);
        assert_eq!(t.outstanding(), 0);
    }

    /// Build a tracker holding writes `0..keys.len()` (write `i` under
    /// `keys[i]`), inserted in `order`; returns it with the labelled handles.
    fn tracker_with(
        keys: &[(usize, RegionKey)],
        order: &[usize],
    ) -> (ConsistencyTracker, Vec<Completion<()>>) {
        let labelled: Vec<Completion<()>> = keys.iter().map(|_| pending()).collect();
        let mut t = ConsistencyTracker::new(ConsistencyMode::PerRegion);
        // A different insertion history: extra keys come and go first.
        for &i in order {
            t.record_write(900 + i, Some(i), pending());
        }
        assert_eq!(t.drain_target(900 + order[0]).len(), 1);
        for &i in order {
            t.record_write(keys[i].0, keys[i].1, labelled[i].clone());
        }
        for &i in order {
            t.drain_target(900 + i);
        }
        (t, labelled)
    }

    /// Labels of `drained`, in order: completing a drained handle marks
    /// exactly one labelled handle complete.
    fn labels(drained: Vec<Completion<()>>, labelled: &[Completion<()>]) -> Vec<usize> {
        let mut seen = vec![false; labelled.len()];
        drained
            .into_iter()
            .map(|c| {
                c.complete(());
                let i = (0..labelled.len())
                    .find(|&i| !seen[i] && labelled[i].is_complete())
                    .expect("drained handle is one of the labelled ones");
                seen[i] = true;
                i
            })
            .collect()
    }

    #[test]
    fn drain_order_depends_on_content_not_history() {
        // Same content, two insertion histories (what two processes with
        // different hash seeds used to turn into two drain orders).
        let keys = [
            (7, Some(64)),
            (2, None),
            (7, Some(8)),
            (2, Some(4096)),
            (5, Some(0)),
            (7, None),
            (0, Some(16)),
            (5, Some(0)),
        ];
        let fwd: Vec<usize> = (0..keys.len()).collect();
        // Keeps 4 before 7: issue order within one key is part of the content.
        let shuffled = [6, 4, 2, 0, 3, 7, 5, 1];
        type Drain = fn(&mut ConsistencyTracker) -> Vec<Completion<()>>;
        let drains: [(Drain, Vec<usize>); 4] = [
            (|t| t.drain_all(), vec![6, 1, 3, 4, 7, 5, 2, 0]),
            (|t| t.drain_target(7), vec![5, 2, 0]),
            (|t| t.conflicts_for_read(7, None), vec![5, 2, 0]),
            (|t| t.conflicts_for_read(7, Some(64)), vec![5, 0]),
        ];
        for (drain, want) in drains {
            for order in [&fwd[..], &shuffled[..]] {
                let (mut t, labelled) = tracker_with(&keys, order);
                assert_eq!(labels(drain(&mut t), &labelled), want);
            }
        }
    }

    #[test]
    fn sweep_countdown_costs_a_rank_no_bytes() {
        // One per materialised rank: the countdown sits in `mode`'s padding.
        assert_eq!(std::mem::size_of::<ConsistencyTracker>(), 32);
    }

    #[test]
    fn conflicts_are_removed_once_returned() {
        let mut t = ConsistencyTracker::new(ConsistencyMode::PerTarget);
        t.record_write(1, Some(0), pending());
        assert_eq!(t.conflicts_for_read(1, Some(0)).len(), 1);
        assert!(t.conflicts_for_read(1, Some(0)).is_empty());
    }
}
