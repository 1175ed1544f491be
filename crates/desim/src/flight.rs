//! Message-lifecycle flight recorder.
//!
//! While [`crate::trace`] records flat spans for human inspection, the flight
//! recorder captures *attributed* lifecycle data: every operation issued by
//! higher layers gets a unique [`OpId`], and every interval of simulated time
//! the operation spends somewhere (an injection FIFO, a torus link, a target
//! work queue, a progress-engine lock) is recorded as a [`Segment`] tagged
//! with a [`SegCategory`]. The [`crate::critpath`] analyzer replays these
//! segments to compute a critical-path time breakdown and a per-link
//! contention heatmap.
//!
//! Like the [`crate::Tracer`], the recorder is **disabled by default**: every
//! recording call short-circuits on one `Cell<bool>` read, so instrumented
//! code costs nothing unless [`FlightRecorder::enable`] was called. Storage
//! is capacity-bounded; once the budget is exhausted further records are
//! counted in [`FlightRecorder::dropped`] instead of stored.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::memprof::{self, MemTag};
use crate::time::SimTime;

/// Flight-recorder op/segment/link-use storage.
static FLIGHT_TAG: MemTag = MemTag::new("desim.flight");

/// Unique identifier of one application-level operation (e.g. one ARMCI get,
/// put, accumulate or atomic). Allocated by [`FlightRecorder::begin_op`] and
/// threaded through every layer the operation's messages traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

/// What an operation was doing during a recorded [`Segment`].
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
        match self {
            SegCategory::Compute => 0,
            SegCategory::Queueing => 1,
            SegCategory::Wire => 2,
            SegCategory::Contention => 3,
            SegCategory::Starvation => 4,
            SegCategory::Retry => 5,
        }
    }
}

/// One attributed interval of an operation's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The operation this interval belongs to.
    pub op: OpId,
    /// What the operation was doing.
    pub cat: SegCategory,
    /// Stable label of the mechanism (e.g. `net.link_wait`, `pami.starved`).
    pub label: &'static str,
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive). Always `> start`.
    pub end: SimTime,
}

/// Per-operation metadata: who issued it, what it was, and its overall span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation id (equals its allocation order).
    pub op: OpId,
    /// Rank that issued the operation.
    pub rank: u32,
    /// Stable operation kind (e.g. `armci.get`, `armci.rmw`).
    pub kind: &'static str,
    /// Issue time.
    pub issue: SimTime,
    /// Completion time (initiator-side). Equals `issue` until
    /// [`FlightRecorder::end_op`] is called.
    pub end: SimTime,
}

/// One message's passage through one directed link: when it asked for the
/// link, when the link was granted, and when its payload released it. The
/// gap `grant - request` is the contention wait; `release - grant` is the
/// occupancy. Overlapping request/occupancy intervals on a link are exactly
/// what the contention heatmap aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkUse {
    /// Interned link id (see [`FlightRecorder::link_id`]).
    pub link: u32,
    /// When the message's header arrived at the link.
    pub request: SimTime,
    /// When the link became free for it (`>= request`).
    pub grant: SimTime,
    /// When the payload finished draining off the link.
    pub release: SimTime,
    /// Operation the message belongs to, if attributed.
    pub op: Option<OpId>,
}

#[derive(Default)]
struct FlightInner {
    enabled: Cell<bool>,
    capacity: Cell<usize>,
    next_op: Cell<u64>,
    ops: RefCell<Vec<OpRecord>>,
    segments: RefCell<Vec<Segment>>,
    link_uses: RefCell<Vec<LinkUse>>,
    /// Link names in creation order; index == interned id. Deterministic
    /// because the simulation is.
    links: RefCell<Vec<String>>,
    /// Ids of `links` sorted by name, so interning is a binary search
    /// instead of a linear scan (ids stay creation-ordered).
    link_index: RefCell<Vec<u32>>,
    dropped: Cell<u64>,
}

/// Shared, cheaply-cloneable lifecycle recorder (like [`crate::Tracer`]).
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Rc<FlightInner>,
}

impl FlightRecorder {
    /// New disabled recorder. Usually obtained via `Sim::flight()` instead.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Whether lifecycle data is currently being recorded.
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Start recording, keeping at most `capacity` of each record kind
    /// (operations, segments, link uses). Past the budget, new records are
    /// counted in [`FlightRecorder::dropped`] and discarded, so early history
    /// stays intact.
    pub fn enable(&self, capacity: usize) {
        self.inner.capacity.set(capacity.max(1));
        self.inner.enabled.set(true);
    }

    /// Allocate an [`OpId`] for an operation issued by `rank` at `now`.
    /// Returns `None` when disabled (or over budget) so instrumentation sites
    /// can skip all further attribution work.
    pub fn begin_op(&self, now: SimTime, rank: u32, kind: &'static str) -> Option<OpId> {
        if !self.on() {
            return None;
        }
        let _mem = memprof::scope(&FLIGHT_TAG);
        let mut ops = self.inner.ops.borrow_mut();
        if ops.len() >= self.inner.capacity.get() {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
            return None;
        }
        let id = OpId(self.inner.next_op.get());
        self.inner.next_op.set(id.0 + 1);
        ops.push(OpRecord {
            op: id,
            rank,
            kind,
            issue: now,
            end: now,
        });
        Some(id)
    }

    /// Mark `op` complete (initiator-side) at `now`.
    pub fn end_op(&self, op: OpId, now: SimTime) {
        if !self.on() {
            return;
        }
        let mut ops = self.inner.ops.borrow_mut();
        // Ops are appended in id order, so the index equals the id.
        if let Some(rec) = ops.get_mut(op.0 as usize) {
            debug_assert_eq!(rec.op, op);
            rec.end = now;
        }
    }

    /// Record an attributed interval `[start, end)` for `op`. Zero-length
    /// intervals are ignored.
    pub fn segment(
        &self,
        op: OpId,
        cat: SegCategory,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.on() || end <= start {
            return;
        }
        let _mem = memprof::scope(&FLIGHT_TAG);
        let mut segs = self.inner.segments.borrow_mut();
        if segs.len() >= self.inner.capacity.get() {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
            return;
        }
        segs.push(Segment {
            op,
            cat,
            label,
            start,
            end,
        });
    }

    /// Intern a link by name, returning its id. Ids are assigned in first-use
    /// order (so existing id streams are unchanged); lookup goes through a
    /// name-sorted index, making interning O(log n) instead of a linear scan.
    /// Returns 0 without allocating when disabled.
    pub fn link_id(&self, name: &str) -> u32 {
        if !self.on() {
            return 0;
        }
        let _mem = memprof::scope(&FLIGHT_TAG);
        let mut links = self.inner.links.borrow_mut();
        let mut index = self.inner.link_index.borrow_mut();
        match index.binary_search_by(|&id| links[id as usize].as_str().cmp(name)) {
            Ok(pos) => index[pos],
            Err(pos) => {
                let id = links.len() as u32;
                links.push(name.to_string());
                index.insert(pos, id);
                id
            }
        }
    }

    /// Name of an interned link id (empty when unknown).
    pub fn link_name(&self, id: u32) -> String {
        self.inner
            .links
            .borrow()
            .get(id as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Record one message's passage through one link.
    pub fn link_use(
        &self,
        link: u32,
        request: SimTime,
        grant: SimTime,
        release: SimTime,
        op: Option<OpId>,
    ) {
        if !self.on() {
            return;
        }
        let _mem = memprof::scope(&FLIGHT_TAG);
        let mut uses = self.inner.link_uses.borrow_mut();
        if uses.len() >= self.inner.capacity.get() {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
            return;
        }
        uses.push(LinkUse {
            link,
            request,
            grant,
            release,
            op,
        });
    }

    /// Snapshot of all operation records, in allocation order.
    pub fn ops(&self) -> Vec<OpRecord> {
        self.inner.ops.borrow().clone()
    }

    /// Snapshot of all recorded segments, in recording order.
    pub fn segments(&self) -> Vec<Segment> {
        self.inner.segments.borrow().clone()
    }

    /// Snapshot of all recorded link uses, in recording order.
    pub fn link_uses(&self) -> Vec<LinkUse> {
        self.inner.link_uses.borrow().clone()
    }

    /// Number of recorded segments.
    pub fn len(&self) -> usize {
        self.inner.segments.borrow().len()
    }

    /// True when no segments were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records discarded because a capacity budget was exhausted.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Drop all recorded data (does not change enablement).
    pub fn clear(&self) {
        self.inner.ops.borrow_mut().clear();
        self.inner.segments.borrow_mut().clear();
        self.inner.link_uses.borrow_mut().clear();
        self.inner.links.borrow_mut().clear();
        self.inner.link_index.borrow_mut().clear();
        self.inner.next_op.set(0);
        self.inner.dropped.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let fl = FlightRecorder::new();
        assert_eq!(fl.begin_op(t(0), 0, "armci.get"), None);
        fl.segment(OpId(0), SegCategory::Wire, "x", t(0), t(1));
        fl.link_use(0, t(0), t(0), t(1), None);
        assert!(fl.is_empty());
        assert!(fl.ops().is_empty());
        assert!(fl.link_uses().is_empty());
        assert_eq!(fl.dropped(), 0);
    }

    #[test]
    fn op_lifecycle_and_segments() {
        let fl = FlightRecorder::new();
        fl.enable(64);
        let a = fl.begin_op(t(0), 3, "armci.rmw").unwrap();
        let b = fl.begin_op(t(1), 4, "armci.get").unwrap();
        assert_ne!(a, b);
        fl.segment(a, SegCategory::Wire, "net.header", t(0), t(2));
        fl.segment(a, SegCategory::Starvation, "pami.starved", t(2), t(5));
        fl.end_op(a, t(6));
        let ops = fl.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].end, t(6));
        assert_eq!(ops[1].end, t(1), "unended op keeps issue time");
        assert_eq!(fl.segments().len(), 2);
    }

    #[test]
    fn zero_length_segments_are_skipped() {
        let fl = FlightRecorder::new();
        fl.enable(8);
        let op = fl.begin_op(t(0), 0, "x").unwrap();
        fl.segment(op, SegCategory::Queueing, "q", t(3), t(3));
        fl.segment(op, SegCategory::Queueing, "q", t(3), t(2));
        assert!(fl.is_empty());
    }

    #[test]
    fn capacity_budget_drops_and_counts() {
        let fl = FlightRecorder::new();
        fl.enable(2);
        let op = fl.begin_op(t(0), 0, "x").unwrap();
        for i in 0..5 {
            fl.segment(op, SegCategory::Compute, "c", t(i), t(i + 1));
        }
        assert_eq!(fl.len(), 2);
        assert_eq!(fl.dropped(), 3);
        // Early records survive (head-preserving, unlike the tracer's ring).
        assert_eq!(fl.segments()[0].start, t(0));
    }

    #[test]
    fn links_are_interned() {
        let fl = FlightRecorder::new();
        fl.enable(8);
        let a = fl.link_id("(0,0,0,0,0)+A");
        let b = fl.link_id("(1,0,0,0,0)+A");
        assert_ne!(a, b);
        assert_eq!(fl.link_id("(0,0,0,0,0)+A"), a);
        assert_eq!(fl.link_name(b), "(1,0,0,0,0)+A");
        fl.link_use(a, t(0), t(1), t(2), None);
        assert_eq!(fl.link_uses().len(), 1);
    }

    #[test]
    fn link_ids_stay_creation_ordered_under_sorted_index() {
        // The sorted lookup index must not change the id assignment: ids are
        // handed out in first-use order regardless of name order.
        let fl = FlightRecorder::new();
        fl.enable(8);
        let names: Vec<String> = (0..100u32).rev().map(|i| format!("link-{i:03}")).collect();
        for (expect, name) in names.iter().enumerate() {
            assert_eq!(fl.link_id(name), expect as u32);
        }
        // Re-interning any of them (in a different order) finds the same id.
        for (expect, name) in names.iter().enumerate() {
            assert_eq!(fl.link_id(name), expect as u32, "{name}");
            assert_eq!(fl.link_name(expect as u32), *name);
        }
        // clear() resets both the names and the index.
        fl.clear();
        assert_eq!(fl.link_id("fresh"), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let fl = FlightRecorder::new();
        fl.enable(2);
        let op = fl.begin_op(t(0), 0, "x").unwrap();
        fl.segment(op, SegCategory::Wire, "w", t(0), t(1));
        fl.segment(op, SegCategory::Wire, "w", t(1), t(2));
        fl.segment(op, SegCategory::Wire, "w", t(2), t(3));
        assert!(fl.dropped() > 0);
        fl.clear();
        assert!(fl.is_empty());
        assert_eq!(fl.dropped(), 0);
        assert_eq!(fl.begin_op(t(9), 0, "y"), Some(OpId(0)));
    }
}
