//! The active-message surface: one dispatch registry and the batchable
//! [`PamiRank::send_am`] entry point.
//!
//! Modeled on the paper's PAMI send/dispatch objects (§III-A2): a sender
//! names a **dispatch id**, the destination runs the registered handler in
//! sim time during progress, and the handler may reply with a response AM
//! ([`crate::AmEnv::reply`]). Handlers live in one machine-wide table
//! ([`Machine::register_am`]): every rank runs the same code, so one entry
//! serves every destination and context, and a materializing rank pays for
//! no table of its own.
//!
//! Every AM is posted by one body (`PamiRank::post_am`) behind two entry
//! points that differ in class, counters and batching:
//!
//! * [`PamiRank::send_am`] — the data plane. `Ordered` (pair-FIFO through
//!   the data FIFO): with no batcher configured it posts one wire message
//!   per AM; with [`crate::MachineConfig::am_batching`] the AM is appended
//!   to the per-destination aggregation buffer (see [`crate::batcher`]) for
//!   [`torus5d::BgqParams::am_enqueue`], and the wire message, NIC post and
//!   dispatch overheads are paid once per *batch*. A batch must not overtake
//!   or be overtaken by other batches to the same destination, and the
//!   unbatched path uses the same class so the two are directly comparable.
//! * [`PamiRank::send_control_am`] — the control plane. `Control` class,
//!   never batched: request/reply and completion signals.

use std::future::Future;
use std::rc::Rc;

use desim::{Completion, Probe};

use crate::batcher::PendAm;
use crate::context::{AmEntry, AmHandler};
use crate::machine::Machine;
use crate::rank::PamiRank;
use crate::service::{copy, Service};

// An unbatched AM, counted but not in the timeline: the batcher's rows carry
// the `am.*` series. Its wire message is counted by its service row.
static SENT: Probe = Probe::new().count("am.sent");
static BYTES: Probe = Probe::new().count("am.bytes");

impl Machine {
    /// Register the active-message handler for `dispatch`, for every rank
    /// and context; registering the same id again replaces the old handler.
    /// An AM whose id has no handler is counted in `pami.am_unhandled` and
    /// dropped. (Charged
    /// to the caller's memprof scope, not `pami.am`: the table exists even
    /// when aggregation is off, and the `pami.am` tag tracks only the
    /// batcher so the tag's absence certifies the zero-cost path.)
    pub fn register_am(&self, dispatch: u16, handler: AmHandler) {
        self.inner
            .am_handlers
            .borrow_mut()
            .insert(dispatch, handler);
    }

    /// Look up the handler registered under `dispatch`.
    pub(crate) fn am_handler(&self, dispatch: u16) -> Option<AmHandler> {
        self.inner.am_handlers.borrow().get(&dispatch).cloned()
    }

    /// The aggregation batcher, `Some` only when
    /// [`crate::MachineConfig::am_batching`] was configured.
    pub fn batcher(&self) -> Option<Rc<crate::batcher::Batcher>> {
        self.inner.batcher.clone()
    }

    /// Force the `(src, dst)` aggregation buffer out **now** (no-op without
    /// a batcher, or when the buffer is empty). An ordering point: every AM
    /// already enqueued for `dst` is on the wire, ahead of anything sent
    /// later, so a subsequent round-trip AM fences the pair.
    pub fn am_flush_pair(&self, src: usize, dst: usize) {
        if let Some(b) = self.batcher() {
            b.flush_pair(self, src, dst, self.sim().now());
        }
    }
}

impl PamiRank {
    /// Send an active message to the handler registered under `dispatch` at
    /// `target`. The returned completion covers *local* send completion: the
    /// AM is on the wire, or safely parked in the aggregation buffer.
    // An `async move` block, not an `async fn`: the arguments live in the future
    // once, as captures, instead of twice (DESIGN.md, "Ops as data").
    #[allow(clippy::manual_async_fn)]
    pub fn send_am(
        &self,
        target: usize,
        dispatch: u16,
        header: Vec<u8>,
        payload: Vec<u8>,
    ) -> impl Future<Output = Completion<()>> + '_ {
        async move {
            let sim = self.m.sim();
            let p = self.m.params();
            let bytes = header.len() + payload.len();
            let Some(b) = self.m.batcher() else {
                // Unbatched hot path: one NIC post + one wire message per AM.
                sim.count(&SENT, 1);
                sim.count(&BYTES, (Service::AmData.row().wire)(p, bytes, 0) as u64);
                return self
                    .post_am(Service::AmData, target, dispatch, header, payload)
                    .await;
            };
            // Batched path: pay a buffer append (cache-resident copy), not a
            // NIC post. The flush pays the post once for the whole batch.
            sim.sleep(p.am_enqueue + copy(p, bytes)).await;
            let op = self.current_op();
            b.enqueue(
                &self.m,
                self.r,
                target,
                PendAm {
                    am: AmEntry {
                        dispatch,
                        header,
                        payload,
                    },
                    enqueued: sim.now(),
                    op,
                },
            );
            let done = Completion::new();
            done.complete(());
            done
        }
    }
}

impl crate::context::AmEnv {
    /// Reply to an AM's originator with a response AM (the PAMI
    /// send-from-dispatch pattern). Spawned as a task on the handling rank;
    /// goes through [`PamiRank::send_am`], so replies batch too when a
    /// batcher is configured.
    pub fn reply(&self, to: usize, dispatch: u16, header: Vec<u8>, payload: Vec<u8>) {
        let responder = self.machine.rank(self.rank);
        self.machine.sim().spawn(async move {
            responder.send_am(to, dispatch, header, payload).await;
        });
    }
}
