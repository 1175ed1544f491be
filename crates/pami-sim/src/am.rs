//! The active-message surface: machine-wide dispatch registration and the
//! batchable [`PamiRank::send_am`] entry point.
//!
//! Modeled on the paper's PAMI send/dispatch objects (§III-A2): a sender
//! names a **dispatch id**, the destination runs the registered handler in
//! sim time during progress, and the handler may reply with a response AM
//! ([`crate::AmEnv::reply`]). Two registries exist:
//!
//! * [`PamiRank::register_dispatch`] — per-rank, per-context (the original
//!   surface; consulted first, so existing users are unaffected);
//! * [`Machine::register_am`] — machine-wide, consulted on a per-context
//!   miss. Upper layers with uniform handlers (every rank runs the same
//!   code) register once instead of burning per-rank table memory.
//!
//! Delivery: with no batcher configured, [`PamiRank::send_am`] posts one
//! `Ordered`-class wire message per AM — the untouched hot path, one
//! `Option` check away from the pre-AM code. With
//! [`crate::MachineConfig::am_batching`] configured, the AM is appended to
//! the per-destination aggregation buffer (see [`crate::batcher`]) for
//! [`torus5d::BgqParams::am_enqueue`] — the wire message, NIC post and
//! dispatch overheads are paid once per *batch* instead of once per AM.
//!
//! `send_am` traffic is `Ordered` (pair-FIFO through the data FIFO), unlike
//! the legacy [`PamiRank::am_send`] which rides the `Control` channel: a
//! batch must not overtake or be overtaken by other batches to the same
//! destination, and the unbatched path uses the same class so the two are
//! directly comparable.

use std::rc::Rc;

use desim::{Completion, SimDuration};
use torus5d::MsgClass;

use crate::batcher::PendAm;
use crate::context::{AmHandler, WorkItem};
use crate::machine::Machine;
use crate::rank::PamiRank;

impl Machine {
    /// Register a machine-wide active-message handler under `dispatch`.
    /// Consulted when a destination's per-context table has no entry for the
    /// id; registering the same id again replaces the old handler. (Charged
    /// to the caller's memprof scope, not `pami.am`: the table exists even
    /// when aggregation is off, and the `pami.am` tag tracks only the
    /// batcher so the tag's absence certifies the zero-cost path.)
    pub fn register_am(&self, dispatch: u16, handler: AmHandler) {
        self.inner
            .am_handlers
            .borrow_mut()
            .insert(dispatch, handler);
    }

    /// Look up a machine-wide handler.
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
    /// `target` (per-context table first, then the machine-wide table). The
    /// returned completion covers *local* send completion: the AM is on the
    /// wire, or safely parked in the aggregation buffer.
    pub async fn send_am(
        &self,
        target: usize,
        dispatch: u16,
        header: Vec<u8>,
        payload: Vec<u8>,
    ) -> Completion<()> {
        let sim = self.m.sim();
        let p = self.m.params();
        let stats = self.m.stats();
        stats.incr("am.sent");
        let done = Completion::new();
        if let Some(b) = self.m.batcher() {
            // Batched path: pay a buffer append (cache-resident copy), not a
            // NIC post. The flush pays the post once for the whole batch.
            let bytes = header.len() + payload.len();
            sim.sleep(p.am_enqueue + SimDuration::from_ps(bytes as u64 * p.pack_byte_time_ps))
                .await;
            let op = self.current_op();
            b.enqueue(
                &self.m,
                self.r,
                target,
                PendAm {
                    dispatch,
                    header,
                    payload,
                    enqueued: sim.now(),
                    op,
                },
            );
            done.complete(());
            return done;
        }
        // Unbatched hot path: one NIC post + one wire message per AM,
        // structurally identical to the legacy `am_send` but Ordered-class.
        let op = self.current_op();
        sim.sleep(p.o_send).await;
        let wire = header.len() + payload.len() + p.am_header_bytes;
        stats.incr("am.wire_msgs");
        stats.add("am.bytes", wire as u64);
        let (arrival, delivered) = self
            .deliver_reliable(sim.now(), target, wire, MsgClass::Ordered, op)
            .await;
        done.complete(());
        if delivered {
            self.push_to_target(
                target,
                arrival,
                WorkItem::Am {
                    src: self.r,
                    dispatch,
                    header,
                    payload,
                },
                op,
            );
        }
        done
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
