//! Message-lifecycle attribution and critical-path analysis.
//!
//! Every operation issued by higher layers gets a unique [`OpId`] at issue
//! ([`crate::Probes::begin_op`]), threaded through every layer its messages
//! traverse; every interval of simulated time it spends somewhere (an
//! injection FIFO, a torus link, a target work queue, a progress-engine
//! lock) is charged to it under a [`SegCategory`] by the probe row that
//! names one. [`analyze`] answers "where did the time of this run actually
//! go": it finds the *terminal rank* (the rank whose operation completed
//! last — the end of the run's critical path), lays that rank's attributed
//! intervals on the `[0, total)` timeline, and decomposes the whole interval
//! into the six [`SegCategory`] buckets.
//!
//! When several intervals cover the same instant (an initiator's completion
//! wait overlaps the wire flight and the target-side starvation of the same
//! operation), the instant is charged to the most *actionable* cause: retry
//! over starvation over contention over queueing over wire; anything
//! uncovered is compute. The decomposition therefore always sums **exactly**
//! (in integer picoseconds) to the total, and serializes to byte-identical
//! JSON across same-seed runs.
//!
//! The [`Lifecycle`] accumulator keeps no log, and so has no capacity. It
//! folds each interval, as it is recorded, into the union of its (rank,
//! category): an interval that overlaps or touches the union's last one
//! extends it, anything else is appended. That is exact, not an
//! approximation: the sweep charges an instant to the first category in
//! blame order that covers it, and whether a category covers an instant
//! depends only on the union; clipping at the analyzed end commutes with
//! the union; and the terminal rank needs only the latest `(end, op)` over
//! all operations, kept as a running maximum because an operation's end
//! only moves forward.
//! The per-link contention heatmap is a running sum per link: a message
//! whose request found the link occupied waited, and that wait is the
//! link's contention.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::fxhash::FxHashMap;
use crate::json;
use crate::memprof::{self, MemTag};
use crate::probe::{Attribution, Probe};
use crate::time::{SimDuration, SimTime};

/// Lifecycle storage: operation owners, interval unions, link totals.
static LIFECYCLE_TAG: MemTag = MemTag::new("desim.critpath");

/// Unique identifier of one application-level operation (e.g. one ARMCI get,
/// put, accumulate or atomic). Allocated by [`Lifecycle::begin_op`] and
/// threaded through every layer the operation's messages traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

/// What an operation was doing during an attributed interval.
///
/// The taxonomy follows the paper's attribution axes: CPU overheads and
/// handler execution are *compute*; time spent in FIFOs behind earlier
/// traffic (or behind an active service batch) is *queueing*; header flight
/// and payload serialization are *wire*; waiting for a shared resource held
/// by someone else (a torus link, the context lock) is *contention*; and time
/// a request sits at its target with **nobody driving the progress engine**
/// is *progress starvation* — the §III-D pathology the asynchronous progress
/// thread eliminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegCategory {
    /// CPU work: send/receive overheads, handler execution, packing.
    Compute,
    /// Waiting in a FIFO behind earlier traffic or an active service batch.
    Queueing,
    /// Header flight time plus payload serialization on the wire.
    Wire,
    /// Waiting for a busy shared resource (torus link, context lock).
    Contention,
    /// Sitting unserviced at the target while no one drives progress.
    Starvation,
    /// Waiting out a timeout + backoff before retransmitting a message the
    /// fault layer dropped (dead link or corrupted packet).
    Retry,
}

impl SegCategory {
    /// All categories, in canonical (reporting) order.
    pub const ALL: [SegCategory; 6] = [
        SegCategory::Compute,
        SegCategory::Queueing,
        SegCategory::Wire,
        SegCategory::Contention,
        SegCategory::Starvation,
        SegCategory::Retry,
    ];

    /// Stable lower-case name, used as a JSON key.
    pub fn name(self) -> &'static str {
        match self {
            SegCategory::Compute => "compute",
            SegCategory::Queueing => "queueing",
            SegCategory::Wire => "wire",
            SegCategory::Contention => "contention",
            SegCategory::Starvation => "starvation",
            SegCategory::Retry => "retry",
        }
    }

    /// Index into per-category accumulator arrays (matches [`Self::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One interval of a (rank, category) union, chained to the one appended
/// before it.
#[derive(Clone, Copy)]
struct Span {
    start: SimTime,
    end: SimTime,
    /// 1 + the index of the previous interval of the same union (0: none).
    prev: u32,
}

#[derive(Default)]
struct Acc {
    /// The issuing rank of each operation, indexed by id.
    op_rank: Vec<u32>,
    /// The latest `(end, op)` so far, and that operation's rank.
    latest: Option<(SimTime, OpId, u32)>,
    /// Per rank and category: 1 + the index in `spans` of the union's last
    /// interval (0: empty).
    tails: Vec<[u32; 6]>,
    spans: Vec<Span>,
    /// Running totals per link, keyed by the network's dense link id.
    links: FxHashMap<u32, LinkStat>,
    /// Attributed time per probe row slot, beside the row's label.
    rows: Vec<(&'static str, SimDuration)>,
}

impl Acc {
    fn end(&mut self, end: SimTime, op: OpId, rank: u32) {
        if self.latest.is_none_or(|(e, o, _)| (end, op) > (e, o)) {
            self.latest = Some((end, op, rank));
        }
    }
}

/// Shared, cheaply-cloneable lifecycle accumulator, read by [`analyze`].
///
/// Like the [`crate::Tracer`], it is **disabled by default**: every call
/// short-circuits on one `Cell<bool>` read. Operations begin and end at the
/// simulation's current time, so an operation's end only moves forward.
#[derive(Clone, Default)]
pub struct Lifecycle {
    inner: Rc<LifecycleInner>,
}

#[derive(Default)]
struct LifecycleInner {
    on: Cell<bool>,
    acc: RefCell<Acc>,
}

impl Lifecycle {
    /// Whether lifecycle data is being accumulated.
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.on.get()
    }

    /// Start accumulating.
    pub fn enable(&self) {
        self.inner.on.set(true);
    }

    /// Allocate an [`OpId`] for an operation issued by `rank` at `now`.
    /// Returns `None` when disabled, so instrumentation sites can skip all
    /// further attribution work.
    pub fn begin_op(&self, now: SimTime, rank: u32) -> Option<OpId> {
        if !self.on() {
            return None;
        }
        let _mem = memprof::scope(&LIFECYCLE_TAG);
        let mut acc = self.inner.acc.borrow_mut();
        let op = OpId(acc.op_rank.len() as u64);
        acc.op_rank.push(rank);
        // An operation that never ends counts as ending at issue.
        acc.end(now, op, rank);
        Some(op)
    }

    /// Mark `op` complete (initiator-side) at `now`.
    pub fn end_op(&self, op: OpId, now: SimTime) {
        if !self.on() {
            return;
        }
        let mut acc = self.inner.acc.borrow_mut();
        if let Some(&rank) = acc.op_rank.get(op.0 as usize) {
            acc.end(now, op, rank);
        }
    }

    /// Charge `[start, end)` to `op` under `row`'s segment category and
    /// label; a row without one, or an empty interval, records nothing.
    pub(crate) fn segment(&self, row: &Probe, op: OpId, start: SimTime, end: SimTime) {
        let Attribution::Segment(cat, label) = row.attribution else {
            return;
        };
        if !self.on() || end <= start {
            return;
        }
        let _mem = memprof::scope(&LIFECYCLE_TAG);
        let acc = &mut *self.inner.acc.borrow_mut();
        let slot = row.slot();
        if acc.rows.len() <= slot {
            acc.rows.resize(slot + 1, ("", SimDuration::ZERO));
        }
        acc.rows[slot].0 = label;
        acc.rows[slot].1 += end.since(start);
        let Some(&rank) = acc.op_rank.get(op.0 as usize) else {
            return;
        };
        let rank = rank as usize;
        if acc.tails.len() <= rank {
            acc.tails.resize(rank + 1, [0; 6]);
        }
        let tail = &mut acc.tails[rank][cat.index()];
        match (*tail as usize).checked_sub(1).map(|i| &mut acc.spans[i]) {
            Some(last) if start <= last.end && last.start <= end => {
                last.start = last.start.min(start);
                last.end = last.end.max(end);
            }
            _ => {
                acc.spans.push(Span {
                    start,
                    end,
                    prev: *tail,
                });
                *tail = u32::try_from(acc.spans.len()).expect("under 2^32 lifecycle intervals");
            }
        }
    }

    /// One message's passage through link `link`: it asked for the link at
    /// `request`, was granted it at `grant` and released it at `release`.
    /// `name` is called once per link, on its first use.
    pub fn link(
        &self,
        link: u32,
        name: impl FnOnce() -> String,
        request: SimTime,
        grant: SimTime,
        release: SimTime,
    ) {
        if !self.on() {
            return;
        }
        let _mem = memprof::scope(&LIFECYCLE_TAG);
        let mut acc = self.inner.acc.borrow_mut();
        let stat = acc.links.entry(link).or_insert_with(|| LinkStat {
            name: name(),
            busy: SimDuration::ZERO,
            wait: SimDuration::ZERO,
            messages: 0,
        });
        stat.busy += release.since(grant);
        stat.wait += grant.since(request);
        stat.messages += 1;
    }

    /// When the operation that completed last did (`None` before any began).
    pub fn latest_end(&self) -> Option<SimTime> {
        self.inner.acc.borrow().latest.map(|(end, _, _)| end)
    }

    /// Time charged through rows labelled `label`, summed over every
    /// operation and not clipped to any end.
    pub fn attributed(&self, label: &str) -> SimDuration {
        let acc = self.inner.acc.borrow();
        acc.rows
            .iter()
            .filter(|(l, _)| *l == label)
            .fold(SimDuration::ZERO, |sum, (_, d)| sum + *d)
    }
}

/// Per-category time totals of one critical-path decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// CPU work plus any time not covered by an attributed segment.
    pub compute: SimDuration,
    /// FIFO waits (injection FIFO, pair ordering, active service batches).
    pub queueing: SimDuration,
    /// Header flight and payload serialization.
    pub wire: SimDuration,
    /// Waits on busy shared resources (links, context locks).
    pub contention: SimDuration,
    /// Unserviced time at the target with nobody driving progress.
    pub starvation: SimDuration,
    /// Timeout + backoff waits before retransmitting fault-dropped messages.
    pub retry: SimDuration,
}

impl Breakdown {
    /// The total for one category.
    pub fn get(&self, cat: SegCategory) -> SimDuration {
        match cat {
            SegCategory::Compute => self.compute,
            SegCategory::Queueing => self.queueing,
            SegCategory::Wire => self.wire,
            SegCategory::Contention => self.contention,
            SegCategory::Starvation => self.starvation,
            SegCategory::Retry => self.retry,
        }
    }

    fn add(&mut self, cat: SegCategory, d: SimDuration) {
        match cat {
            SegCategory::Compute => self.compute += d,
            SegCategory::Queueing => self.queueing += d,
            SegCategory::Wire => self.wire += d,
            SegCategory::Contention => self.contention += d,
            SegCategory::Starvation => self.starvation += d,
            SegCategory::Retry => self.retry += d,
        }
    }

    /// Sum across all categories; equals the analyzed total by construction.
    pub fn total(&self) -> SimDuration {
        self.compute + self.queueing + self.wire + self.contention + self.starvation + self.retry
    }

    /// Category with the largest share (ties resolve in [`SegCategory::ALL`]
    /// order).
    pub fn dominant(&self) -> SegCategory {
        let mut best = SegCategory::Compute;
        for cat in SegCategory::ALL {
            if self.get(cat) > self.get(best) {
                best = cat;
            }
        }
        best
    }
}

/// Aggregated traffic through one directed link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStat {
    /// Link name (source coordinate, dimension, direction).
    pub name: String,
    /// Total occupancy (grant → release).
    pub busy: SimDuration,
    /// Total contention wait (request → grant) of messages that found the
    /// link busy — i.e. whose request overlapped another occupancy interval.
    pub wait: SimDuration,
    /// Messages that crossed the link.
    pub messages: u64,
}

/// Result of [`analyze`]: the run's critical-path decomposition.
#[derive(Debug, Clone)]
pub struct CritPath {
    /// Length of the analyzed timeline `[0, total)`.
    pub total: SimDuration,
    /// Rank whose last operation completed latest.
    pub terminal_rank: u32,
    /// Operations issued by the terminal rank.
    pub ops_on_path: u64,
    /// Per-category decomposition; sums exactly to `total`.
    pub breakdown: Breakdown,
    /// Per-link contention heatmap, sorted by link name.
    pub links: Vec<LinkStat>,
}

/// Priority when several categories cover the same instant: charge the most
/// actionable cause first. Retry outranks everything: an instant spent
/// waiting out a retransmit backoff is pure fault-induced loss, regardless
/// of what else the operation overlapped.
const BLAME_ORDER: [SegCategory; 5] = [
    SegCategory::Retry,
    SegCategory::Starvation,
    SegCategory::Contention,
    SegCategory::Queueing,
    SegCategory::Wire,
];

/// Decompose the timeline `[0, end)` of the run accumulated in `lc`.
pub fn analyze(lc: &Lifecycle, end: SimTime) -> CritPath {
    let acc = lc.inner.acc.borrow();
    let total = end.since(SimTime::ZERO);

    // Terminal rank: owner of the operation that completed last. Ties break
    // toward the later op id (the later issue), which is deterministic.
    let terminal_rank = acc.latest.map_or(0, |(_, _, rank)| rank);
    let ops_on_path = acc.op_rank.iter().filter(|&&r| r == terminal_rank).count() as u64;

    // Sweep the terminal rank's intervals. Each boundary toggles a
    // per-category active count; between boundaries the interval is charged
    // to the highest priority active category, or compute when uncovered.
    let mut events: Vec<(u64, usize, i64)> = Vec::new();
    let tails = acc
        .tails
        .get(terminal_rank as usize)
        .copied()
        .unwrap_or_default();
    for (cat, &tail) in tails.iter().enumerate() {
        let mut next = tail;
        while let Some(i) = (next as usize).checked_sub(1) {
            let span = acc.spans[i];
            next = span.prev;
            let s = span.start.min(end);
            let e = span.end.min(end);
            if e <= s {
                continue;
            }
            events.push((s.as_ps(), cat, 1));
            events.push((e.as_ps(), cat, -1));
        }
    }
    events.sort_unstable();

    let mut breakdown = Breakdown::default();
    let mut active = [0i64; 6];
    let mut prev: u64 = 0;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        if t > prev {
            breakdown.add(pick(&active), SimDuration::from_ps(t - prev));
            prev = t;
        }
        while i < events.len() && events[i].0 == t {
            active[events[i].1] += events[i].2;
            i += 1;
        }
    }
    if end.as_ps() > prev {
        breakdown.add(
            SegCategory::Compute,
            SimDuration::from_ps(end.as_ps() - prev),
        );
    }
    debug_assert_eq!(breakdown.total(), total, "decomposition must tile [0, end)");

    let mut links: Vec<LinkStat> = acc.links.values().cloned().collect();
    links.sort_by(|a, b| a.name.cmp(&b.name));

    CritPath {
        total,
        terminal_rank,
        ops_on_path,
        breakdown,
        links,
    }
}

fn pick(active: &[i64; 6]) -> SegCategory {
    for cat in BLAME_ORDER {
        if active[cat.index()] > 0 {
            return cat;
        }
    }
    SegCategory::Compute
}

impl CritPath {
    /// Deterministic JSON rendering (integer picoseconds throughout).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"total_ps\":");
        json::push_u64(&mut out, self.total.as_ps());
        out.push_str(",\"terminal_rank\":");
        json::push_u64(&mut out, self.terminal_rank as u64);
        out.push_str(",\"ops_on_path\":");
        json::push_u64(&mut out, self.ops_on_path);
        out.push_str(",\"breakdown_ps\":{");
        for (i, cat) in SegCategory::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, cat.name());
            out.push(':');
            json::push_u64(&mut out, self.breakdown.get(*cat).as_ps());
        }
        out.push_str("},\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"link\":");
            json::push_str(&mut out, &l.name);
            out.push_str(",\"busy_ps\":");
            json::push_u64(&mut out, l.busy.as_ps());
            out.push_str(",\"wait_ps\":");
            json::push_u64(&mut out, l.wait.as_ps());
            out.push_str(",\"messages\":");
            json::push_u64(&mut out, l.messages);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Small human-readable table of the decomposition.
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "critical path: total {} on rank {} ({} ops), dominated by {}\n",
            self.total,
            self.terminal_rank,
            self.ops_on_path,
            self.breakdown.dominant().name()
        ));
        for cat in SegCategory::ALL {
            let d = self.breakdown.get(cat);
            let pct = if self.total.as_ps() == 0 {
                0.0
            } else {
                100.0 * d.as_ps() as f64 / self.total.as_ps() as f64
            };
            s.push_str(&format!(
                "  {:<11} {:>12}  {:5.1}%\n",
                cat.name(),
                format!("{d}"),
                pct
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Observe, Probes};

    static OP: Probe = Probe::op("test.op");
    static QUEUE: Probe = Probe::new().segment(SegCategory::Queueing, "q");
    static WIRE: Probe = Probe::new().segment(SegCategory::Wire, "w");
    static WIRE_TOO: Probe = Probe::new().segment(SegCategory::Wire, "w");
    static CONTENDED: Probe = Probe::new().segment(SegCategory::Contention, "c");
    static STARVED: Probe = Probe::new().segment(SegCategory::Starvation, "s");
    static RETRY: Probe = Probe::new().segment(SegCategory::Retry, "pami.retry");

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    fn on() -> Lifecycle {
        let lc = Lifecycle::default();
        lc.enable();
        lc
    }

    #[test]
    fn disabled_accumulator_records_nothing() {
        let lc = Lifecycle::default();
        assert_eq!(lc.begin_op(t(0), 0), None);
        lc.segment(&WIRE, OpId(0), t(0), t(1));
        lc.link(0, || unreachable!("not named while off"), t(0), t(0), t(1));
        assert_eq!(lc.latest_end(), None);
        assert_eq!(lc.attributed("w"), SimDuration::ZERO);
        assert!(analyze(&lc, t(1)).links.is_empty());
    }

    #[test]
    fn empty_recorder_is_all_compute() {
        let cp = analyze(&on(), t(10));
        assert_eq!(cp.breakdown.compute, SimDuration::from_us(10));
        assert_eq!(cp.breakdown.total(), cp.total);
        assert!(cp.links.is_empty());
    }

    #[test]
    fn segments_tile_and_gaps_are_compute() {
        let lc = on();
        let op = lc.begin_op(t(0), 2).unwrap();
        lc.segment(&WIRE, op, t(1), t(3));
        lc.segment(&STARVED, op, t(4), t(9));
        lc.end_op(op, t(9));
        let cp = analyze(&lc, t(10));
        assert_eq!(cp.terminal_rank, 2);
        assert_eq!(cp.ops_on_path, 1);
        assert_eq!(cp.breakdown.wire, SimDuration::from_us(2));
        assert_eq!(cp.breakdown.starvation, SimDuration::from_us(5));
        assert_eq!(cp.breakdown.compute, SimDuration::from_us(3));
        assert_eq!(cp.breakdown.total(), cp.total);
        assert_eq!(cp.breakdown.dominant(), SegCategory::Starvation);
    }

    #[test]
    fn overlaps_charge_the_higher_priority_cause() {
        let lc = on();
        let op = lc.begin_op(t(0), 0).unwrap();
        // Wire covers [0,8); starvation covers [2,5): the overlap goes to
        // starvation, the rest of the wire interval stays wire.
        lc.segment(&WIRE, op, t(0), t(8));
        lc.segment(&STARVED, op, t(2), t(5));
        lc.end_op(op, t(8));
        let cp = analyze(&lc, t(8));
        assert_eq!(cp.breakdown.starvation, SimDuration::from_us(3));
        assert_eq!(cp.breakdown.wire, SimDuration::from_us(5));
        assert_eq!(cp.breakdown.total(), cp.total);
    }

    #[test]
    fn retry_outranks_every_other_category() {
        let lc = on();
        let op = lc.begin_op(t(0), 0).unwrap();
        // Retry [1,6) overlaps starvation [2,4) and wire [0,8): the whole
        // retry window is blamed on retry.
        lc.segment(&WIRE, op, t(0), t(8));
        lc.segment(&STARVED, op, t(2), t(4));
        lc.segment(&RETRY, op, t(1), t(6));
        lc.end_op(op, t(8));
        let cp = analyze(&lc, t(8));
        assert_eq!(cp.breakdown.retry, SimDuration::from_us(5));
        assert_eq!(cp.breakdown.starvation, SimDuration::ZERO);
        assert_eq!(cp.breakdown.wire, SimDuration::from_us(3));
        assert_eq!(cp.breakdown.total(), cp.total);
        assert!(cp.to_json().contains("\"retry\":5000000"));
    }

    #[test]
    fn only_terminal_rank_segments_count() {
        let lc = on();
        let a = lc.begin_op(t(0), 0).unwrap();
        let b = lc.begin_op(t(0), 1).unwrap();
        lc.segment(&WIRE, a, t(0), t(2));
        lc.segment(&CONTENDED, b, t(0), t(4));
        lc.end_op(a, t(2));
        lc.end_op(b, t(6)); // rank 1 finishes last -> terminal
        assert_eq!(lc.latest_end(), Some(t(6)));
        let cp = analyze(&lc, t(6));
        assert_eq!(cp.terminal_rank, 1);
        assert_eq!(cp.breakdown.wire, SimDuration::ZERO);
        assert_eq!(cp.breakdown.contention, SimDuration::from_us(4));
        assert_eq!(cp.breakdown.compute, SimDuration::from_us(2));
    }

    #[test]
    fn equal_ends_break_toward_the_later_op() {
        let lc = on();
        let a = lc.begin_op(t(0), 4).unwrap();
        let b = lc.begin_op(t(1), 7).unwrap();
        lc.end_op(b, t(3));
        lc.end_op(a, t(3));
        let cp = analyze(&lc, t(3));
        assert_eq!((cp.terminal_rank, cp.ops_on_path), (7, 1));
        // An op that never ends counts as ending at issue.
        lc.begin_op(t(3), 9).unwrap();
        lc.end_op(a, t(3));
        assert_eq!(analyze(&lc, t(3)).terminal_rank, 9);
    }

    #[test]
    fn segments_clip_to_the_analyzed_end() {
        let lc = on();
        let op = lc.begin_op(t(0), 0).unwrap();
        lc.segment(&WIRE, op, t(2), t(20));
        let cp = analyze(&lc, t(5));
        assert_eq!(cp.breakdown.wire, SimDuration::from_us(3));
        assert_eq!(cp.breakdown.total(), SimDuration::from_us(5));
    }

    #[test]
    fn unions_merge_touching_overlapping_and_out_of_order_intervals() {
        let lc = on();
        let op = lc.begin_op(t(0), 0).unwrap();
        lc.segment(&WIRE, op, t(4), t(6));
        lc.segment(&WIRE_TOO, op, t(6), t(7)); // touches: extends
        lc.segment(&WIRE, op, t(3), t(5)); // overlaps from the left
        lc.segment(&WIRE, op, t(4), t(5)); // nested
        lc.segment(&WIRE, op, t(0), t(1)); // out of order: appended
        lc.segment(&WIRE, op, t(9), t(10)); // gap: appended
        lc.segment(&WIRE, op, t(0), t(2)); // overlaps only a non-last one
        lc.segment(&QUEUE, op, t(5), t(5)); // empty: dropped
        assert_eq!(lc.inner.acc.borrow().spans.len(), 4);
        let cp = analyze(&lc, t(10));
        // Wire covers [0,2) ∪ [3,7) ∪ [9,10).
        assert_eq!(cp.breakdown.wire, SimDuration::from_us(7));
        assert_eq!(cp.breakdown.queueing, SimDuration::ZERO);
        assert_eq!(cp.breakdown.compute, SimDuration::from_us(3));
        // Attribution sums every interval, overlaps included, per label.
        assert_eq!(lc.attributed("w"), SimDuration::from_us(10));
        assert_eq!(lc.attributed("q"), SimDuration::ZERO);
    }

    #[test]
    fn links_are_keyed_by_id_and_named_once() {
        let lc = on();
        let named = Cell::new(0);
        let name = |s: &str| {
            named.set(named.get() + 1);
            s.to_string()
        };
        lc.link(0, || name("(0,0,0,0,0)+A"), t(0), t(1), t(2));
        lc.link(1, || name("(1,0,0,0,0)+A"), t(0), t(0), t(1));
        lc.link(0, || name("renamed"), t(2), t(2), t(3));
        assert_eq!(named.get(), 2, "a reused id is not named again");
        let cp = analyze(&lc, t(3));
        assert_eq!(cp.links.len(), 2, "distinct ids stay distinct links");
        assert_eq!(cp.links[0].name, "(0,0,0,0,0)+A");
        assert_eq!(cp.links[0].messages, 2);
        assert_eq!(cp.links[1].name, "(1,0,0,0,0)+A");
        assert_eq!(cp.links[1].messages, 1);
    }

    #[test]
    fn link_heatmap_aggregates_and_sorts() {
        let lc = on();
        let named = Cell::new(0);
        let name = |s: &str| {
            named.set(named.get() + 1);
            s.to_string()
        };
        lc.link(7, || name("b-link"), t(0), t(0), t(2));
        lc.link(7, || name("b-link"), t(1), t(2), t(4)); // waited 1us
        lc.link(3, || name("a-link"), t(0), t(0), t(1));
        assert_eq!(named.get(), 2, "a link is named on first use only");
        let cp = analyze(&lc, t(4));
        assert_eq!(cp.links.len(), 2);
        assert_eq!(cp.links[0].name, "a-link");
        assert_eq!(cp.links[1].name, "b-link");
        assert_eq!(cp.links[1].messages, 2);
        assert_eq!(cp.links[1].busy, SimDuration::from_us(4));
        assert_eq!(cp.links[1].wait, SimDuration::from_us(1));
    }

    #[test]
    fn json_is_deterministic_and_sums() {
        let build = || {
            let lc = on();
            let op = lc.begin_op(t(0), 0).unwrap();
            lc.segment(&QUEUE, op, t(0), t(1));
            lc.segment(&WIRE, op, t(1), t(3));
            lc.end_op(op, t(3));
            analyze(&lc, t(4)).to_json()
        };
        let j = build();
        assert_eq!(j, build());
        assert!(j.contains("\"total_ps\":4000000"));
        assert!(j.contains("\"queueing\":1000000"));
        assert!(j.contains("\"compute\":1000000"));
    }

    /// More intervals than any log budget: nothing is dropped, so the last
    /// one still shapes the breakdown.
    #[test]
    fn no_capacity_keeps_the_last_segment() {
        let p = Probes::default();
        let observe = Observe {
            crit: true,
            ..Observe::default()
        };
        observe.start(&p);
        let ps = SimTime;
        let op = p.begin_op(&OP, ps(0), 5);
        let n: u64 = (1 << 22) + 1;
        for i in 0..n - 1 {
            p.span(&WIRE, op, ps(i), ps(i + 1), 0);
        }
        p.span(&STARVED, op, ps(n - 1), ps(n), 0);
        p.end_op(&OP, op, ps(n));
        let cp = observe.finish(&p, ps(n)).crit.expect("critical path");
        assert_eq!(cp.terminal_rank, 5);
        assert_eq!(cp.breakdown.starvation, SimDuration::from_ps(1));
        assert_eq!(cp.breakdown.wire, SimDuration::from_ps(n - 1));
    }
}
