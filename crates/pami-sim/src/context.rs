//! PAMI communication contexts and the work items they service.
//!
//! A context is a *threading point*: remote requests that need target-CPU
//! involvement (software puts/gets, atomic memory operations, active
//! messages) are enqueued on a target context and executed only when some
//! task at the target drives the progress engine ([`crate::PamiRank::advance`]).
//! The context lock models the mutual exclusion between the main thread and
//! the asynchronous progress thread when they share one context (ρ = 1).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use desim::memprof::{self, MemTag};
use desim::sync::{MutexCell, NotifyCell};
use desim::{Completion, OpId, Probe, SegCategory, SimTime};

/// Context work queues.
static QUEUES_TAG: MemTag = MemTag::new("pami.queues");

/// Servicing one kind of work: a `pami.service.*` trace span on the serving
/// lane, and a `compute` segment of the work's operation.
const fn service(span: &'static str) -> Probe {
    Probe::new()
        .trace(span)
        .segment(SegCategory::Compute, "pami.service")
}
static SW_PUT: Probe = service("pami.service.sw_put");
static SW_GET: Probe = service("pami.service.sw_get");
static RMW: Probe = service("pami.service.rmw");
static ACC: Probe = service("pami.service.acc");
static PACKED_GET: Probe = service("pami.service.packed_get");
static PACKED_PUT: Probe = service("pami.service.packed_put");
static ACC_STRIDED: Probe = service("pami.service.acc_strided");
static AM: Probe = service("pami.service.am");
static AM_BATCH: Probe = service("pami.service.am_batch");

/// Atomic read-modify-write operations (paper §III-D).
///
/// PAMI on BG/Q lacks NIC support for generic AMOs, so every variant is
/// serviced by target-side software — the very limitation the asynchronous
/// thread design addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// Atomically add and return the previous value (load-balance counters).
    FetchAdd(i64),
    /// Atomically replace and return the previous value.
    Swap(i64),
    /// Compare-and-swap: store `swap` if the current value equals `compare`;
    /// returns the previous value either way.
    CompareSwap {
        /// Expected current value.
        compare: i64,
        /// Replacement value on match.
        swap: i64,
    },
}

/// A user-registered active-message handler, executed at the target during
/// progress. Handlers receive the machine handle and may issue further
/// communication (e.g. the fall-back get replies with a put).
pub type AmHandler = Rc<dyn Fn(AmEnv, AmMsg)>;

/// Target-side environment passed to an active-message handler.
pub struct AmEnv {
    /// The machine the handler runs on.
    pub machine: crate::Machine,
    /// Rank executing the handler (the message target).
    pub rank: usize,
}

/// An active message as seen by its handler.
pub struct AmMsg {
    /// Originating rank.
    pub src: usize,
    /// Small immediate header.
    pub header: Vec<u8>,
    /// Bulk payload.
    pub payload: Vec<u8>,
}

/// One active message inside a coalesced [`WorkItem::AmBatch`] wire message.
pub struct AmEntry {
    /// Handler registry key.
    pub dispatch: u16,
    /// Small immediate header.
    pub header: Vec<u8>,
    /// Bulk payload.
    pub payload: Vec<u8>,
}

/// A unit of target-side work queued on a context.
pub enum WorkItem {
    /// Software (non-RDMA) put: payload written to memory at service time.
    SwPut {
        /// Originating rank.
        src: usize,
        /// Destination offset in the target's memory.
        offset: usize,
        /// Bytes to store.
        data: Vec<u8>,
        /// Completed once the data is globally visible at the target.
        remote_done: Completion<()>,
    },
    /// Software (non-RDMA) get request: target reads and replies.
    SwGet {
        /// Originating rank (reply destination).
        src: usize,
        /// Source offset in the target's memory.
        offset: usize,
        /// Bytes requested.
        len: usize,
        /// Destination offset in the *requester's* memory.
        local_off: usize,
        /// Completed at the requester once the reply lands.
        done: Completion<()>,
    },
    /// Atomic read-modify-write on an 8-byte integer.
    Rmw {
        /// Originating rank (reply destination).
        src: usize,
        /// Offset of the i64 in the target's memory.
        offset: usize,
        /// The operation.
        op: RmwOp,
        /// Completed at the requester with the previous value.
        done: Completion<i64>,
    },
    /// Accumulate: `dst[i] += scale * src[i]` over f64 elements.
    AccF64 {
        /// Originating rank.
        src: usize,
        /// Destination offset in the target's memory (f64-aligned).
        offset: usize,
        /// Scale factor applied to the incoming data.
        scale: f64,
        /// Incoming f64s as raw little-endian bytes.
        data: Vec<u8>,
        /// Completed once the update is applied.
        remote_done: Completion<()>,
    },
    /// Packed (typed-datatype) strided get: the target CPU gathers the
    /// described chunks into one bulk reply (used for tall-skinny strided
    /// transfers where per-chunk RDMA would drown in per-chunk overhead).
    PackedGet {
        /// Originating rank (reply destination).
        src: usize,
        /// `(offset, len)` chunks to gather from the target's memory.
        chunks: Vec<(usize, usize)>,
        /// `(offset, len)` chunks to scatter into at the requester.
        local_chunks: Vec<(usize, usize)>,
        /// Completed at the requester once the reply is unpacked.
        done: Completion<()>,
    },
    /// Packed (typed-datatype) strided put: one bulk message the target CPU
    /// scatters into the described chunks.
    PackedPut {
        /// Originating rank.
        src: usize,
        /// Packed payload (concatenation of the chunks).
        data: Vec<u8>,
        /// `(offset, len)` chunks to scatter into at the target.
        chunks: Vec<(usize, usize)>,
        /// Completed once the scatter is applied.
        remote_done: Completion<()>,
    },
    /// Packed strided accumulate: the target CPU scatters
    /// `dst[i] += scale·src[i]` into the described chunks.
    AccStrided {
        /// Originating rank.
        src: usize,
        /// Packed f64 payload (concatenation of the chunks).
        data: Vec<u8>,
        /// `(offset, len)` chunks to accumulate into at the target.
        chunks: Vec<(usize, usize)>,
        /// Scale factor applied to incoming data.
        scale: f64,
        /// Completed once the update is applied.
        remote_done: Completion<()>,
    },
    /// A user active message dispatched to a registered handler.
    Am {
        /// Originating rank.
        src: usize,
        /// Handler registry key.
        dispatch: u16,
        /// Small immediate header.
        header: Vec<u8>,
        /// Bulk payload.
        payload: Vec<u8>,
    },
    /// A coalesced wire message carrying several active messages for the
    /// same destination (produced by the per-destination aggregation buffer,
    /// [`crate::batcher`]). The entries are dispatched in order; the batch
    /// paid one dispatch/NIC-post overhead for all of them.
    AmBatch {
        /// Originating rank (one buffer per `(src, dst)` pair).
        src: usize,
        /// The coalesced messages, in enqueue order.
        entries: Vec<AmEntry>,
    },
}

impl WorkItem {
    /// The probe row of servicing this kind of work (its trace span is
    /// named `pami.service.*`).
    pub fn service(&self) -> &'static Probe {
        match self {
            WorkItem::SwPut { .. } => &SW_PUT,
            WorkItem::SwGet { .. } => &SW_GET,
            WorkItem::Rmw { .. } => &RMW,
            WorkItem::AccF64 { .. } => &ACC,
            WorkItem::PackedGet { .. } => &PACKED_GET,
            WorkItem::PackedPut { .. } => &PACKED_PUT,
            WorkItem::AccStrided { .. } => &ACC_STRIDED,
            WorkItem::Am { .. } => &AM,
            WorkItem::AmBatch { .. } => &AM_BATCH,
        }
    }

    /// Rank that originated this work item.
    pub fn src(&self) -> usize {
        match self {
            WorkItem::SwPut { src, .. }
            | WorkItem::SwGet { src, .. }
            | WorkItem::Rmw { src, .. }
            | WorkItem::AccF64 { src, .. }
            | WorkItem::PackedGet { src, .. }
            | WorkItem::PackedPut { src, .. }
            | WorkItem::AccStrided { src, .. }
            | WorkItem::Am { src, .. }
            | WorkItem::AmBatch { src, .. } => *src,
        }
    }
}

/// A [`WorkItem`] sitting in a context queue, together with the lifecycle
/// metadata the flight recorder needs: the originating [`OpId`] (if the
/// issuing rank was attributing) and the arrival time, from which the
/// queueing / progress-starvation split is computed at service time.
pub struct Queued {
    /// The work itself.
    pub item: WorkItem,
    /// Operation this work belongs to, when flight recording is on.
    pub op: Option<OpId>,
    /// When the request arrived at the target context.
    pub enqueued: SimTime,
}

/// State of one communication context. Lives inside its rank's single
/// state block (`machine::RankState`): every field is stored inline, and an
/// idle context owns no allocation of its own — the notifier and the lock
/// are embedded cells, reached through the rank block's `CtxRef` handle.
pub struct CtxState {
    /// Arrived-but-unserviced work.
    pub queue: RefCell<VecDeque<Queued>>,
    /// Signalled whenever work arrives (wakes the async progress thread).
    pub arrived: NotifyCell,
    /// The progress-engine lock guarding `advance`.
    pub lock: MutexCell,
    /// Items serviced over the context's lifetime.
    pub serviced: Cell<u64>,
    /// High-water mark of the queue depth.
    pub max_depth: Cell<usize>,
    /// Since when *someone* (a blocking call or the async progress thread)
    /// has been continuously driving this context's progress engine; `None`
    /// while nobody is. Queue time before this instant is **progress
    /// starvation** (§III-D); queue time after it is ordinary queueing behind
    /// the active service batch.
    pub progress_since: Cell<Option<SimTime>>,
}

impl CtxState {
    /// Create an idle context.
    pub fn new() -> CtxState {
        CtxState {
            queue: RefCell::new(VecDeque::new()),
            arrived: NotifyCell::new(),
            lock: MutexCell::new(),
            serviced: Cell::new(0),
            max_depth: Cell::new(0),
            progress_since: Cell::new(None),
        }
    }

    /// Enqueue arrived work and signal the progress thread.
    pub fn push(&self, item: WorkItem, op: Option<OpId>, enqueued: SimTime) {
        let _mem = memprof::scope(&QUEUES_TAG);
        let depth = {
            let mut q = self.queue.borrow_mut();
            q.push_back(Queued { item, op, enqueued });
            q.len()
        };
        if depth > self.max_depth.get() {
            self.max_depth.set(depth);
        }
        self.arrived.notify_all();
    }

    /// Number of queued items.
    pub fn depth(&self) -> usize {
        self.queue.borrow().len()
    }
}

impl Default for CtxState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tracks_depth_and_highwater() {
        let c = CtxState::new();
        assert_eq!(c.depth(), 0);
        for i in 0..3 {
            c.push(
                WorkItem::Rmw {
                    src: 0,
                    offset: 0,
                    op: RmwOp::FetchAdd(1),
                    done: Completion::new(),
                },
                None,
                SimTime::ZERO,
            );
            assert_eq!(c.depth(), i + 1);
        }
        assert_eq!(c.max_depth.get(), 3);
        c.queue.borrow_mut().pop_front();
        assert_eq!(c.depth(), 2);
        assert_eq!(c.max_depth.get(), 3);
    }
}
