//! Per-destination active-message aggregation (the Lamellar-style batcher).
//!
//! When [`crate::MachineConfig::am_batching`] is configured, every
//! [`crate::PamiRank::send_am`] call lands here instead of posting its own
//! wire message: the AM is appended to a per-`(src, dst)` buffer for the
//! cost of a cache-resident copy ([`torus5d::BgqParams::am_enqueue`]), and
//! the buffer is flushed as **one** wire message when either
//!
//! * the buffer reaches the size threshold ([`AmBatchConfig::max_bytes`],
//!   flushed inline by the enqueueing task), or
//! * the flush window expires ([`AmBatchConfig::window`], a sim-time timer
//!   armed at the first enqueue into an empty buffer).
//!
//! Each source keeps at most one timer armed — a sweep that flushes every
//! buffer whose deadline has passed, in ascending destination order, then
//! re-arms for the earliest remaining deadline. Flush order is therefore
//! deterministic by `(deadline, dst)` regardless of enqueue interleaving.
//!
//! The coalesced message travels through `rank::deliver_then` as an
//! `Ordered`-class payload, so pair-FIFO ordering, fault drops, retries and
//! `FailureMode` semantics all apply to a batch exactly as they do to any
//! other ordered message.
//!
//! Determinism: buffers are keyed by `BTreeMap<dst, _>` (sorted sweeps), the
//! sweep timer is armed only from deterministic sim events, and a source's
//! timer deadline is monotone (a new buffer's deadline `now + window` can
//! never undercut an armed one), so a single timer per source suffices.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use desim::memprof::{self, MemTag};
use desim::{OpId, Probe, SegCategory, SimDuration, SimTime};

use crate::context::{AmEntry, Effect, WorkItem};
use crate::machine::Machine;
use crate::rank::{deliver_then, enqueue_at_target};
use crate::retry::Leg;
use crate::service::Service;

/// Aggregation buffers, pending entries and flush-timer closures.
static AM_TAG: MemTag = MemTag::new("pami.am");

// A machine without a batcher records none of these, so its stats and
// timeline carry no `am.*` series.
static SENT: Probe = Probe::new().count("am.sent").series("am.sent");
static FLUSHES: Probe = Probe::new().count("am.flushes").series("am.flushes");
static BYTES: Probe = Probe::new().count("am.bytes").series("am.bytes");
/// Flushed wire messages coalescing two or more AMs.
static BATCHES: Probe = Probe::new().count("am.batches").series("am.batches");
static BATCH_SIZE: Probe = Probe::new().hist("am.batch_size");
/// The level of AMs waiting in aggregation buffers.
static QUEUE_DEPTH: Probe = Probe::new().gauge("am.queue_depth");
/// At each flush, how long the oldest entry waited.
static OLDEST_WAIT: Probe = Probe::new().gauge("am.oldest_wait_ps");
/// An AM's time in its buffer.
static AGGR: Probe = Probe::new().segment(SegCategory::Queueing, "pami.am_aggr");

/// Wire framing bytes per active message inside a coalesced batch
/// (dispatch id + header/payload lengths).
pub const AM_FRAME_BYTES: usize = 8;

/// Tuning of the per-destination aggregation buffer.
#[derive(Debug, Clone, Copy)]
pub struct AmBatchConfig {
    /// Flush a buffer as soon as its framed bytes reach this threshold.
    pub max_bytes: usize,
    /// Flush a buffer no later than this long after its first enqueue.
    pub window: SimDuration,
}

/// One AM waiting in an aggregation buffer.
pub(crate) struct PendAm {
    pub am: AmEntry,
    /// When the AM entered the buffer (start of its aggregation wait).
    pub enqueued: SimTime,
    /// Operation the AM is attributed to, for lifecycle segments.
    pub op: Option<OpId>,
}

/// A non-empty per-destination buffer.
struct DstBuf {
    entries: Vec<PendAm>,
    /// Framed bytes accumulated (headers + payloads + per-AM framing).
    bytes: usize,
    /// Window expiry: `first enqueue + window`.
    deadline: SimTime,
    /// Enqueue time of the oldest entry (equals the first enqueue).
    oldest: SimTime,
}

/// Per-source buffer set plus its single armed sweep timer.
struct SrcState {
    bufs: RefCell<BTreeMap<usize, DstBuf>>,
    /// Deadline the armed sweep timer fires at; `None` when no timer is
    /// armed (all buffers empty, or everything flushed by size).
    timer_at: Cell<Option<SimTime>>,
}

/// The machine-wide batcher: aggregation buffers for every source rank.
pub struct Batcher {
    cfg: AmBatchConfig,
    srcs: RefCell<desim::FxHashMap<usize, Rc<SrcState>>>,
}

impl Batcher {
    pub(crate) fn new(cfg: AmBatchConfig) -> Batcher {
        assert!(cfg.max_bytes > 0, "need a nonzero size threshold");
        assert!(!cfg.window.is_zero(), "need a nonzero flush window");
        Batcher {
            cfg,
            srcs: RefCell::new(desim::FxHashMap::default()),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> AmBatchConfig {
        self.cfg
    }

    fn src_state(&self, src: usize) -> Rc<SrcState> {
        if let Some(ss) = self.srcs.borrow().get(&src) {
            return Rc::clone(ss);
        }
        let _mem = memprof::scope(&AM_TAG);
        let ss = Rc::new(SrcState {
            bufs: RefCell::new(BTreeMap::new()),
            timer_at: Cell::new(None),
        });
        self.srcs.borrow_mut().insert(src, Rc::clone(&ss));
        ss
    }

    /// Append one AM to the `(src, dst)` buffer, flushing inline when the
    /// size threshold trips, otherwise making sure a window timer is armed.
    pub(crate) fn enqueue(&self, m: &Machine, src: usize, dst: usize, pend: PendAm) {
        let now = m.sim().now();
        let ss = self.src_state(src);
        let framed = pend.am.header.len() + pend.am.payload.len() + AM_FRAME_BYTES;
        let size_trip = {
            let _mem = memprof::scope(&AM_TAG);
            let mut bufs = ss.bufs.borrow_mut();
            let buf = bufs.entry(dst).or_insert_with(|| DstBuf {
                entries: Vec::new(),
                bytes: 0,
                deadline: now + self.cfg.window,
                oldest: now,
            });
            buf.entries.push(pend);
            buf.bytes += framed;
            buf.bytes >= self.cfg.max_bytes
        };
        m.sim().probes().count(&SENT, now, 1);
        m.sim().probes().level(&QUEUE_DEPTH, now, 1);
        if size_trip {
            self.flush_pair(m, src, dst, now);
        } else if ss.timer_at.get().is_none() {
            // First pending buffer for this source: arm the sweep. A later
            // enqueue can only add deadlines >= the armed one, so one timer
            // per source is always enough.
            self.arm_timer(m, src, &ss, now + self.cfg.window);
        }
    }

    fn arm_timer(&self, m: &Machine, src: usize, ss: &Rc<SrcState>, at: SimTime) {
        ss.timer_at.set(Some(at));
        let m2 = m.clone();
        let _mem = memprof::scope(&AM_TAG);
        m.sim().schedule(at, move || {
            if let Some(b) = m2.batcher() {
                b.sweep(&m2, src, at);
            }
        });
    }

    /// Window-timer body: flush every buffer of `src` whose deadline has
    /// passed (ascending destination order), then re-arm for the earliest
    /// remaining deadline. A spurious firing (everything already flushed by
    /// size) just re-arms or goes idle.
    fn sweep(&self, m: &Machine, src: usize, now: SimTime) {
        let ss = self.src_state(src);
        ss.timer_at.set(None);
        let due: Vec<usize> = ss
            .bufs
            .borrow()
            .iter()
            .filter(|(_, b)| b.deadline <= now)
            .map(|(&d, _)| d)
            .collect();
        for dst in due {
            self.flush_pair(m, src, dst, now);
        }
        let next = ss.bufs.borrow().values().map(|b| b.deadline).min();
        if let Some(next) = next {
            self.arm_timer(m, src, &ss, next);
        }
    }

    /// Flush the `(src, dst)` buffer now, if it has anything pending. Public
    /// so upper layers can force ordering points (e.g. an AM fence) without
    /// waiting out the window.
    pub fn flush_pair(&self, m: &Machine, src: usize, dst: usize, now: SimTime) {
        let buf = {
            let ss = self.src_state(src);
            let removed = ss.bufs.borrow_mut().remove(&dst);
            removed
        };
        if let Some(buf) = buf {
            self.flush_buf(m, src, dst, buf, now);
        }
    }

    /// Ship one buffer as a single wire message that lands as a batch on
    /// the destination's target context, priced by the `am_batch` row.
    fn flush_buf(&self, m: &Machine, src: usize, dst: usize, buf: DstBuf, now: SimTime) {
        let _mem = memprof::scope(&AM_TAG);
        let p = m.params();
        let row = Service::AmBatch.row();
        let n = buf.entries.len();
        let wire = (row.wire)(p, buf.bytes, 0);
        let probes = m.sim().probes();
        probes.count(&FLUSHES, now, 1);
        probes.count(&row.counter, now, 1);
        probes.count(&BYTES, now, wire as u64);
        probes.count(&BATCH_SIZE, now, n as u64);
        if n > 1 {
            probes.count(&BATCHES, now, 1);
        }
        probes.level(&QUEUE_DEPTH, now, -(n as i64));
        probes.gauge(&OLDEST_WAIT, now, now.since(buf.oldest).as_ps() as i64);
        // Attribute each AM's time in the buffer: queueing the critpath can
        // see (the cost side of the batching trade).
        for e in &buf.entries {
            probes.span(&AGGR, e.op, e.enqueued, now, 0);
        }
        let op = buf.entries[0].op;
        let entries: Vec<AmEntry> = buf.entries.into_iter().map(|e| e.am).collect();
        // One NIC post for the whole batch, then the ordinary reliable
        // ordered delivery path (faults, retries, pair FIFO).
        let inject = now + p.o_send;
        let m2 = m.clone();
        let leg = Leg {
            src,
            dst,
            payload: wire,
            class: row.class,
            op,
        };
        deliver_then(
            m,
            inject,
            leg,
            SimDuration::ZERO,
            move |arrival, delivered| {
                if delivered {
                    let item = WorkItem::new(Service::AmBatch, src, Effect::Batch(entries));
                    enqueue_at_target(&m2, dst, arrival, item, op);
                }
            },
        );
    }
}
