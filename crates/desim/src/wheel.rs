//! Hierarchical timer wheel with a far-future fallback heap.
//!
//! The kernel's timer queue was originally a single `BinaryHeap`; every
//! insert and pop paid `O(log n)` comparisons on the full timer population.
//! This wheel exploits the structure of simulation time instead: deadlines
//! overwhelmingly land close to *now* (nanosecond-scale link and DMA costs),
//! with a thin tail of far-future entries (compute grains, watchdogs).
//!
//! Three levels of 256 slots cover a geometrically growing horizon
//! (~16.8 µs, ~4.3 ms, ~1.1 s past the current window base); anything beyond
//! the top level falls back to a `BinaryHeap`. Inserting into a slot is an
//! `O(1)` `Vec` push. Popping activates one slot at a time: the slot's
//! `Vec` becomes the **ordered run** — sorted once, popped from the back —
//! so extraction remains **exactly** ordered by `(time, seq)`: the wheel is
//! an internal reorganization, never a semantic change. Late inserts that
//! land below the activated region (always `>= now`) go to a small `late`
//! heap; `pop` takes the smaller of the run's tail and the heap's top. The
//! late side stays a heap because it can be large: the first insert into an
//! empty wheel rebases every window at its deadline, so a burst of
//! unordered deadlines (320 k uniform callbacks, say) lands almost entirely
//! below `active_end`, where a sorted `Vec::insert` would be quadratic.
//!
//! Level-0 slots, the run and both heaps retain their capacity across
//! clears and window rebasing (activation swaps the slot's buffer with the
//! run's), so steady-state operation allocates only when a slot outgrows
//! every previous occupancy (slab-style recycling). A coarser slot gives
//! its buffer up when it cascades into the level below. A burst is the
//! exception: a drained run or late heap holding more than [`RETAIN`]
//! entries' room is freed on the next activation instead of being kept
//! (the run's buffer would otherwise move into a level-0 slot and stay
//! there), so one instant with 262 k ranks' timers does not cost 10 MB for
//! the rest of the run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2 of the finest slot width in picoseconds (2^16 ps ≈ 65.5 ns).
const BASE_SHIFT: u32 = 16;
/// Wheel levels below the fallback heap.
const LEVELS: usize = 3;
/// Entries' room a drained run or late heap may keep for reuse.
const RETAIN: usize = 4096;

#[inline]
fn shift(level: usize) -> u32 {
    BASE_SHIFT + SLOT_BITS * level as u32
}

/// One timer record: absolute picosecond deadline, global tie-break
/// sequence, payload.
pub(crate) struct Entry<T> {
    pub at: u64,
    pub seq: u64,
    pub payload: T,
}

/// Max-heap adapter popping the *smallest* `(at, seq)` first.
struct MinEntry<T>(Entry<T>);

impl<T> PartialEq for MinEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl<T> Eq for MinEntry<T> {}
impl<T> PartialOrd for MinEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MinEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

struct Level<T> {
    /// `slots[i]` holds entries with `at` in `[base + i*W, base + (i+1)*W)`
    /// where `W = 1 << shift(level)`. Unordered within a slot.
    slots: Vec<Vec<Entry<T>>>,
    /// Next slot index to visit; slots before it have been drained.
    cursor: usize,
    /// Absolute time of `slots[0]`'s start.
    base: u64,
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            base: 0,
        }
    }

    #[inline]
    fn window_end(&self, level: usize) -> u64 {
        self.base.saturating_add((SLOTS as u64) << shift(level))
    }
}

/// The kernel's timer queue. Structurally a hierarchy of slot wheels plus a
/// far-future heap, semantically an exact `(at, seq)`-ordered priority queue.
pub(crate) struct TimerWheel<T> {
    levels: Vec<Level<T>>,
    /// The activated slot's entries, sorted descending by `(at, seq)`: the
    /// earliest is `run.last()`.
    run: Vec<Entry<T>>,
    /// Inserts at `at < active_end` that arrived after their slot was
    /// activated (or before the window the first insert rebased to).
    late: BinaryHeap<MinEntry<T>>,
    /// Deadlines beyond the top level's horizon.
    far: BinaryHeap<MinEntry<T>>,
    /// Entries strictly below this time must be routed through `late`;
    /// equals `levels[0].base + cursor * W0` except right after a far-heap
    /// rebase jump (where it equals the new base).
    active_end: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> TimerWheel<T> {
        TimerWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            run: Vec::new(),
            late: BinaryHeap::new(),
            far: BinaryHeap::new(),
            active_end: 0,
            len: 0,
        }
    }

    /// Number of queued timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queue `payload` to fire at absolute time `at` (picoseconds); `seq`
    /// breaks ties among equal deadlines. `at` must be `>= now` — the kernel
    /// asserts this before calling.
    pub(crate) fn insert(&mut self, at: u64, seq: u64, payload: T) {
        if self.len == 0 {
            // An empty wheel can be left exhausted: once `advance()` runs to
            // completion (sim went idle), every cursor sits at `SLOTS` while
            // the bases and `active_end` keep their stale values, so routing
            // below would file `e` behind a cursor that never revisits it.
            // Every container is empty here, so rebasing the whole hierarchy
            // to the new deadline is free and makes the routing exact again.
            for level in &mut self.levels {
                level.base = at;
                level.cursor = 0;
            }
            self.active_end = at;
        }
        self.len += 1;
        let e = Entry { at, seq, payload };
        if at < self.active_end {
            self.late.push(MinEntry(e));
            return;
        }
        for (l, level) in self.levels.iter_mut().enumerate() {
            if at < level.window_end(l) {
                let idx = ((at - level.base) >> shift(l)) as usize;
                debug_assert!(idx >= level.cursor || l > 0);
                level.slots[idx].push(e);
                return;
            }
        }
        self.far.push(MinEntry(e));
    }

    /// True when the next entry in `(at, seq)` order sits on the late heap
    /// rather than at the run's tail; `None` when both are empty.
    #[inline]
    fn next_is_late(&self) -> Option<bool> {
        match (self.run.last(), self.late.peek()) {
            (None, None) => None,
            (Some(_), None) => Some(false),
            (None, Some(_)) => Some(true),
            (Some(r), Some(l)) => Some((l.0.at, l.0.seq) < (r.at, r.seq)),
        }
    }

    /// Remove and return the earliest `(at, seq)` entry.
    pub(crate) fn pop(&mut self) -> Option<Entry<T>> {
        loop {
            if let Some(late) = self.next_is_late() {
                self.len -= 1;
                return if late {
                    self.late.pop().map(|e| e.0)
                } else {
                    self.run.pop()
                };
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// The earliest `(at, seq)` without removing it.
    pub(crate) fn peek(&mut self) -> Option<(u64, u64)> {
        loop {
            match self.next_is_late() {
                Some(true) => return self.late.peek().map(|e| (e.0.at, e.0.seq)),
                Some(false) => return self.run.last().map(|e| (e.at, e.seq)),
                None if !self.advance() => return None,
                None => {}
            }
        }
    }

    /// Drop every queued timer, retaining allocated capacity.
    pub(crate) fn clear(&mut self) {
        for level in &mut self.levels {
            for slot in &mut level.slots {
                slot.clear();
            }
            level.cursor = 0;
            level.base = 0;
        }
        self.run.clear();
        self.late.clear();
        self.far.clear();
        self.active_end = 0;
        self.len = 0;
    }

    /// Make the next non-empty slot the ordered run. Only called with the
    /// run and the late heap both empty. Returns false when the wheel holds
    /// no timers at all.
    fn advance(&mut self) -> bool {
        debug_assert!(self.run.is_empty() && self.late.is_empty());
        if self.run.capacity() > RETAIN {
            self.run = Vec::new();
        }
        if self.late.capacity() > RETAIN {
            self.late = BinaryHeap::new();
        }
        loop {
            // Finest level: activate its next occupied slot.
            {
                let level = &mut self.levels[0];
                while level.cursor < SLOTS {
                    let c = level.cursor;
                    level.cursor += 1;
                    if !level.slots[c].is_empty() {
                        // The slot's buffer becomes the run; the slot keeps
                        // the (empty) buffer the run had.
                        std::mem::swap(&mut self.run, &mut level.slots[c]);
                        self.run
                            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                        self.active_end = level.base + ((c as u64 + 1) << shift(0));
                        return true;
                    }
                }
                // Window exhausted with nothing found: route future inserts
                // below the next window through `late`.
                self.active_end = level.window_end(0);
            }
            // Cascade the next occupied slot of a coarser level downwards.
            if self.cascade() {
                continue;
            }
            // Every level exhausted: restart the hierarchy at the earliest
            // far-future deadline, if any.
            let Some(min_at) = self.far.peek().map(|e| e.0.at) else {
                return false;
            };
            for (l, level) in self.levels.iter_mut().enumerate() {
                debug_assert!(level.slots.iter().all(Vec::is_empty));
                level.base = min_at;
                level.cursor = 0;
                let _ = l;
            }
            self.active_end = min_at;
            let top = LEVELS - 1;
            let horizon = self.levels[top].window_end(top);
            while self.far.peek().is_some_and(|e| e.0.at < horizon) {
                let MinEntry(e) = self.far.pop().expect("peeked entry vanished");
                let idx = ((e.at - min_at) >> shift(top)) as usize;
                self.levels[top].slots[idx].push(e);
            }
        }
    }

    /// Find the lowest coarser level with an occupied slot and redistribute
    /// that slot into the level below, rebasing everything underneath it.
    /// Returns false when levels `1..` are exhausted.
    fn cascade(&mut self) -> bool {
        for l in 1..LEVELS {
            let found = {
                let level = &mut self.levels[l];
                let mut found = None;
                while level.cursor < SLOTS {
                    let c = level.cursor;
                    level.cursor += 1;
                    if !level.slots[c].is_empty() {
                        found = Some(c);
                        break;
                    }
                }
                found
            };
            let Some(c) = found else { continue };
            let slot_start = self.levels[l].base + ((c as u64) << shift(l));
            // Rebase every finer level at the slot being opened; their slots
            // are already empty (we only reach level `l` once they drain).
            for k in 0..l {
                let fine = &mut self.levels[k];
                fine.base = slot_start;
                fine.cursor = 0;
            }
            self.active_end = slot_start;
            let entries = std::mem::take(&mut self.levels[l].slots[c]);
            let dst = l - 1;
            let dst_shift = shift(dst);
            for e in entries.into_iter() {
                let idx = ((e.at - slot_start) >> dst_shift) as usize;
                self.levels[dst].slots[idx].push(e);
            }
            // `take` leaves the drained slot without a buffer, on purpose: a
            // coarse slot is reopened only after its whole level turns over,
            // so a kept buffer would sit idle meanwhile. Keeping them (within
            // `RETAIN`) cut `kernel_churn`'s run allocations from 15.9 k to
            // 6.1 k but more than doubled its peak RSS (6.0 to 13.4 MB).
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.at, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        let times = [
            7u64,
            7,
            0,
            1 << 20,       // level 0, late slot
            (1 << 26) + 3, // level 1
            (1 << 35) + 9, // level 2
            (1 << 45) + 1, // far heap
            (1 << 45) + 1, // far heap tie
            3,
        ];
        for (seq, &at) in times.iter().enumerate() {
            w.insert(at, seq as u64, 0);
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort();
        assert_eq!(drain(&mut w), expect);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn interleaved_insert_pop_preserves_order() {
        // Mimic the kernel: after popping an entry at time t, new inserts
        // arrive with at >= t, possibly below the activated region.
        let mut w = TimerWheel::new();
        w.insert(100, 0, 0);
        w.insert(1 << 30, 1, 0);
        let first = w.pop().unwrap();
        assert_eq!((first.at, first.seq), (100, 0));
        // now = 100; insert near-term entries behind the already-activated
        // window and beyond it.
        w.insert(150, 2, 0);
        w.insert(120, 3, 0);
        w.insert((1 << 30) - 5, 4, 0);
        assert_eq!(
            drain(&mut w),
            vec![(120, 3), (150, 2), ((1 << 30) - 5, 4), (1 << 30, 1)]
        );
    }

    #[test]
    fn far_future_rebase_jumps_empty_time() {
        let mut w = TimerWheel::new();
        // Two clusters separated by ~100 simulated seconds.
        for s in 0..10u64 {
            w.insert(s * 7, s, 0);
        }
        let far = 100 * 1_000_000_000_000u64;
        for s in 0..10u64 {
            w.insert(far + s * 3, 100 + s, 0);
        }
        let got = drain(&mut w);
        assert_eq!(got.len(), 20);
        assert!(got.windows(2).all(|p| p[0] <= p[1]), "{got:?}");
        assert_eq!(got[10], (far, 100));
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut w = TimerWheel::new();
        for (seq, at) in [(0u64, 500u64), (1, 20), (2, 1 << 28)] {
            w.insert(at, seq, 0);
        }
        while let Some(peeked) = w.peek() {
            assert_eq!(w.peek(), Some(peeked), "peek must not disturb order");
            let e = w.pop().unwrap();
            assert_eq!((e.at, e.seq), peeked);
        }
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn clear_resets_and_wheel_remains_usable() {
        let mut w = TimerWheel::new();
        for s in 0..100u64 {
            w.insert(s * 1_000_003, s, 0);
        }
        w.pop();
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(w.pop().map(|e| e.at), None);
        // Reuse after clear, at times far past the reset bases.
        w.insert(5_000_000_000_000, 0, 0);
        w.insert(4_999_999_999_999, 1, 0);
        assert_eq!(
            drain(&mut w),
            vec![(4_999_999_999_999, 1), (5_000_000_000_000, 0)]
        );
    }

    #[test]
    fn dense_same_time_burst() {
        let mut w = TimerWheel::new();
        for s in 0..1000u64 {
            w.insert(42, s, 0);
        }
        let got = drain(&mut w);
        assert_eq!(got, (0..1000u64).map(|s| (42, s)).collect::<Vec<_>>());
    }

    #[test]
    fn a_drained_burst_keeps_no_burst_sized_buffer() {
        let mut w = TimerWheel::new();
        // 100 k timers at one instant fill one level-0 slot, which becomes
        // the run.
        for s in 0..100_000u64 {
            w.insert(42, s, 0);
        }
        assert_eq!(drain(&mut w).len(), 100_000);
        // 100 k more behind an activated run land on the late heap.
        w.insert(1000, 0, 0);
        w.insert(1100, 1, 0);
        assert_eq!(w.pop().map(|e| e.at), Some(1000));
        for s in 2..100_002u64 {
            w.insert(1050, s, 0);
        }
        assert_eq!(w.late.len(), 100_000);
        assert_eq!(drain(&mut w).len(), 100_001);
        let widest_slot = w
            .levels
            .iter()
            .flat_map(|l| &l.slots)
            .map(Vec::capacity)
            .max();
        for (what, cap) in [
            ("run", w.run.capacity()),
            ("late heap", w.late.capacity()),
            ("slot", widest_slot.unwrap_or(0)),
        ] {
            assert!(cap <= RETAIN, "the {what} kept room for {cap} entries");
        }
    }

    #[test]
    fn a_cascaded_slot_keeps_no_buffer() {
        let mut w = TimerWheel::new();
        // The first insert rebases every window at 0; level 1's slots are
        // 2^24 ps wide, so the rest land in level-1 slot 3.
        w.insert(0, 0, 0);
        for s in 1..100u64 {
            w.insert(3 << 24, s, 0);
        }
        assert!(w.levels[1].slots[3].capacity() > 0);
        assert_eq!(drain(&mut w).len(), 100);
        assert!(w.levels[1].slots.iter().all(|s| s.capacity() == 0));
    }

    #[test]
    fn insert_after_exhaustion_is_not_lost() {
        // Regression: pop()/peek() on an emptied wheel runs advance() to
        // completion, pinning every cursor at SLOTS with stale bases. A
        // subsequent insert landing inside a stale window used to be filed
        // behind the exhausted cursor and silently dropped (pop() -> None
        // while len() > 0). Exercise a deadline in each level's range, and
        // the far heap, after every idle transition.
        let mut w = TimerWheel::new();
        let mut now = 0u64;
        for (seq, delta) in [
            100u64,  // level 0
            1 << 18, // level 0, deep slot
            1 << 27, // level 1
            1 << 36, // level 2
            1 << 46, // far heap
        ]
        .into_iter()
        .enumerate()
        {
            assert!(w.pop().is_none(), "wheel should start each round idle");
            let at = now + delta;
            w.insert(at, seq as u64, 0);
            assert_eq!(w.len(), 1);
            let e = w.pop().expect("timer inserted after idle was lost");
            assert_eq!((e.at, e.seq), (at, seq as u64));
            now = at;
        }
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn insert_burst_after_exhaustion_keeps_order() {
        // After the idle rebase, later inserts (len > 0) must still route
        // correctly relative to the rebased windows — including deadlines
        // *earlier* than the rebase point, which go through `late`.
        let mut w = TimerWheel::new();
        w.insert(5, 0, 0);
        assert_eq!(w.pop().map(|e| e.at), Some(5));
        assert!(w.pop().is_none());
        let base = 1_000_000u64;
        w.insert(base, 1, 0); // triggers the rebase
        w.insert(base - 100, 2, 0); // behind the rebase point -> late
        w.insert(base + (1 << 20), 3, 0);
        w.insert(base + (1 << 30), 4, 0);
        w.insert(base + (1 << 46), 5, 0);
        assert_eq!(
            drain(&mut w),
            vec![
                (base - 100, 2),
                (base, 1),
                (base + (1 << 20), 3),
                (base + (1 << 30), 4),
                (base + (1 << 46), 5),
            ]
        );
    }

    /// Wheel and reference heap side by side; every step checks `len()` and
    /// that `peek()` names what the next `pop()` returns.
    struct Pair {
        w: TimerWheel<u64>,
        r: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
        seq: u64,
        now: u64,
    }

    impl Pair {
        fn insert(&mut self, at: u64) {
            assert!(at >= self.now);
            self.w.insert(at, self.seq, self.seq);
            self.r.push(std::cmp::Reverse((at, self.seq)));
            self.seq += 1;
            self.check();
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let want = self.r.pop().map(|e| e.0);
            let got = self.w.pop().map(|e| {
                assert_eq!(e.payload, e.seq);
                (e.at, e.seq)
            });
            assert_eq!(got, want);
            if let Some((at, _)) = got {
                assert!(at >= self.now, "time went backwards");
                self.now = at;
            }
            self.check();
            got
        }

        fn check(&mut self) {
            assert_eq!(self.w.len(), self.r.len());
            assert_eq!(self.w.peek(), self.r.peek().map(|e| e.0));
        }
    }

    #[test]
    fn differential_against_reference_heap() {
        // 10^5 seeded operations against a plain `BinaryHeap<(at, seq)>`.
        let mut p = Pair {
            w: TimerWheel::new(),
            r: BinaryHeap::new(),
            seq: 0,
            now: 0,
        };
        let mut rng = crate::rng::SimRng::new(0xDEAD_BEEF);
        let mut ops = 0u32;
        let (mut late_before_tail, mut late_after_tail, mut cleared_late) = (0u32, 0u32, 0u32);
        while ops < 100_000 {
            ops += 1;
            match rng.next_below(16) {
                // Near, mid, far and beyond-the-hierarchy deadlines: slots of
                // all three levels, cascades, and far-heap rebases.
                0..=6 => {
                    let delta = match rng.next_below(8) {
                        0..=3 => rng.next_below(1 << 12),
                        4 | 5 => rng.next_below(1 << 22),
                        6 => rng.next_below(1 << 34),
                        _ => rng.next_below(1 << 44),
                    };
                    p.insert(p.now + delta);
                }
                // Equal-`at` ties inside one slot: must pop in `seq` order.
                7 => {
                    let at = p.now + rng.next_below(1 << 10);
                    for _ in 0..rng.next_below(6) + 2 {
                        p.insert(at);
                    }
                }
                // Late inserts below `active_end` while a run is half
                // consumed, both earlier and later than the run's tail.
                8 | 9 => {
                    let Some(&Entry { at: tail, .. }) = p.w.run.last() else {
                        continue;
                    };
                    if rng.next_below(2) == 0 && tail > p.now {
                        p.insert(p.now + rng.next_below(tail - p.now));
                        late_before_tail += 1;
                    } else if p.w.active_end > tail + 1 {
                        p.insert(tail + 1 + rng.next_below(p.w.active_end - tail - 1));
                        late_after_tail += 1;
                    }
                }
                // Drain to empty, then reuse.
                11 if rng.next_below(64) == 0 => {
                    while p.pop().is_some() {}
                    assert!(p.w.pop().is_none());
                    p.insert(p.now + rng.next_below(1 << 30));
                }
                // `clear()`, sometimes with a non-empty late heap.
                12 if rng.next_below(64) == 0 => {
                    if !p.w.late.is_empty() {
                        cleared_late += 1;
                    }
                    p.w.clear();
                    p.r.clear();
                    p.check();
                }
                _ => {
                    for _ in 0..rng.next_below(4) + 1 {
                        p.pop();
                    }
                }
            }
        }
        while p.pop().is_some() {}
        assert_eq!(p.w.len(), 0);
        assert!(late_before_tail > 100 && late_after_tail > 100 && cleared_late > 0);
    }
}
