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
use desim::{Completion, OpId, SimTime};

use crate::service::Service;

/// Context work queues.
static QUEUES_TAG: MemTag = MemTag::new("pami.queues");

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

/// An active message on its way to its handler: alone, or one entry of a
/// coalesced batch.
pub struct AmEntry {
    /// Handler registry key.
    pub dispatch: u16,
    /// Small immediate header.
    pub header: Vec<u8>,
    /// Bulk payload.
    pub payload: Vec<u8>,
}

/// Where a service stores or loads: one span, or a chunk list.
pub(crate) enum Place {
    One((usize, usize)),
    Chunks(Vec<(usize, usize)>),
}

impl Place {
    /// The `(offset, len)` pieces, in order.
    pub fn pieces(&self) -> &[(usize, usize)] {
        match self {
            Place::One(piece) => std::slice::from_ref(piece),
            Place::Chunks(chunks) => chunks,
        }
    }

    /// Bytes covered.
    pub fn len(&self) -> usize {
        self.pieces().iter().map(|&(_, len)| len).sum()
    }

    /// Each piece's offset with its slice of `data`, which covers the
    /// pieces back to back.
    pub fn split<'a>(&'a self, mut data: &'a [u8]) -> impl Iterator<Item = (usize, &'a [u8])> {
        self.pieces().iter().map(move |&(off, len)| {
            let (piece, rest) = data.split_at(len);
            data = rest;
            (off, piece)
        })
    }
}

/// What servicing a work item does, by shape; its kind's
/// [`crate::service`] row says how long it takes and how it replies.
pub(crate) enum Effect {
    /// Store `data` into `to` — or, for an accumulating kind, add
    /// `scale·f64` — then complete `done`.
    Store {
        to: Place,
        data: Box<[u8]>,
        scale: f64,
        done: Completion<()>,
    },
    /// Read `from` and reply; the reply is written into the requester's
    /// `to` and completes `done` there.
    Load {
        from: Place,
        to: Place,
        done: Completion<()>,
    },
    /// Read-modify-write the i64 at `offset`; reply with the old value.
    Rmw {
        offset: usize,
        op: RmwOp,
        done: Completion<i64>,
    },
    /// Run the message's handler.
    Am(AmEntry),
    /// Run each coalesced entry's handler, in order.
    Batch(Vec<AmEntry>),
}

/// A unit of target-side work queued on a context: what it does, who sent
/// it, and — one byte — which service row prices it.
pub struct WorkItem {
    pub(crate) effect: Effect,
    pub(crate) src: u32,
    pub(crate) kind: Service,
}

impl WorkItem {
    pub(crate) fn new(kind: Service, src: usize, effect: Effect) -> WorkItem {
        WorkItem {
            effect,
            src: u32::try_from(src).expect("rank ids fit in 32 bits"),
            kind,
        }
    }

    /// The bytes servicing it stores or loads: what its busy period is of.
    pub(crate) fn bytes(&self) -> usize {
        match &self.effect {
            Effect::Store { data, .. } => data.len(),
            Effect::Load { from, .. } => from.len(),
            _ => 0,
        }
    }
}

/// A [`WorkItem`] sitting in a context queue, together with the lifecycle
/// metadata lifecycle attribution needs: the originating [`OpId`] (if the
/// issuing rank was attributing) and the arrival time, from which the
/// queueing / progress-starvation split is computed at service time.
pub struct Queued {
    /// The work itself.
    pub item: WorkItem,
    /// Operation this work belongs to, when lifecycle attribution is on.
    pub op: Option<OpId>,
    /// When the request arrived at the target context.
    pub enqueued: SimTime,
}

/// State of a rank's work context: the one incoming work targets
/// ([`crate::Machine::target_ctx`]). It is the rank's only context with host
/// state, a block of its own made on first use (`machine::RankState::work`):
/// when work first reaches the rank, when a ρ = 1 blocking wait first drives
/// it, or when a progress thread starts on it. The notifier and the lock are
/// embedded cells, reached through the `CtxRef` handle that keeps the rank
/// block alive.
#[derive(Default)]
pub struct CtxState {
    /// Arrived-but-unserviced work.
    pub queue: RefCell<VecDeque<Queued>>,
    /// Signalled whenever work arrives (wakes the async progress thread).
    pub arrived: NotifyCell,
    /// The progress-engine lock guarding `advance`.
    pub lock: MutexCell,
    /// Since when *someone* (a blocking call or the async progress thread)
    /// has been continuously driving this context's progress engine; `None`
    /// while nobody is. Queue time before this instant is **progress
    /// starvation** (§III-D); queue time after it is ordinary queueing behind
    /// the active service batch.
    pub progress_since: Cell<Option<SimTime>>,
    /// The lazily spawned progress-thread handle of a rank armed with
    /// [`crate::PamiRank::enable_async_progress`]: `Some` from the first work
    /// item that reaches the rank until the machine stops its progress
    /// threads.
    pub(crate) at: RefCell<Option<crate::AsyncThread>>,
}

impl CtxState {
    /// Enqueue arrived work and signal the progress thread.
    pub fn push(&self, item: WorkItem, op: Option<OpId>, enqueued: SimTime) {
        let _mem = memprof::scope(&QUEUES_TAG);
        self.queue
            .borrow_mut()
            .push_back(Queued { item, op, enqueued });
        self.arrived.notify_all();
    }

    /// Number of queued items.
    pub fn depth(&self) -> usize {
        self.queue.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tracks_depth() {
        let c = CtxState::default();
        assert_eq!(c.depth(), 0);
        for i in 0..3 {
            let effect = Effect::Rmw {
                offset: 0,
                op: RmwOp::FetchAdd(1),
                done: Completion::new(),
            };
            c.push(WorkItem::new(Service::Rmw, 0, effect), None, SimTime::ZERO);
            assert_eq!(c.depth(), i + 1);
        }
        c.queue.borrow_mut().pop_front();
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn a_queue_entry_fits_in_96_bytes() {
        // rmw_dense queues about 262 k entries on rank 0: every byte here is
        // a quarter megabyte of its peak RSS.
        assert!(std::mem::size_of::<Queued>() <= 96);
    }
}
