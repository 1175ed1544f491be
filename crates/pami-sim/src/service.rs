//! The software path as data: one row per target-side service kind.
//!
//! The paper prices every service the target CPU performs as a short
//! composition of PAMI object costs (§III, Tables I/II, Eq. 8): a dispatch
//! `o` (or the AMO service time), plus per-byte copy and per-element terms,
//! and for a get-style service one reply leg. A [`Row`] writes that
//! composition down for one kind, and every place that prices a
//! software-path message reads it: the initiator head (counter, request
//! class, wire bytes, pack), the progress engine's busy period and the
//! apply step (accumulate or store, the reply leg).

use desim::{Probe, SegCategory, SimDuration};
use torus5d::BgqParams;
use torus5d::MsgClass::{self, Control, Ordered, Unordered};

/// A time in Table I/II terms, of the bytes a message carries.
type Cost = fn(&BgqParams, usize) -> SimDuration;
/// Request bytes on the wire, of the payload and the chunk descriptors.
type Wire = fn(&BgqParams, usize, usize) -> usize;
/// A reply leg: class, bytes (of the bytes loaded), what lands after it.
type Reply = (MsgClass, fn(usize) -> usize, Cost);

/// How one service is priced, from the initiator's request to the reply.
pub(crate) struct Row {
    /// The `pami.service.*` span, and the `pami.service` compute segment of
    /// the operation it serves.
    pub span: Probe,
    /// Counted once per request, at the initiator.
    pub counter: Probe,
    pub class: MsgClass,
    pub wire: Wire,
    /// Whether the initiator packs the payload ([`copy`]) before sending.
    pub pack: bool,
    /// The target's busy period, of the bytes it stores or loads.
    pub busy: Cost,
    /// Whether a store adds `scale·f64` rather than writing bytes.
    pub acc: bool,
    pub reply: Option<Reply>,
}

impl Row {
    const fn new(span: &'static str, counter: &'static str, class: MsgClass) -> Row {
        Row {
            span: Probe::new()
                .trace(span)
                .segment(SegCategory::Compute, "pami.service"),
            counter: Probe::new().count(counter),
            class,
            wire: AM_WIRE,
            pack: false,
            busy: |p, _| p.am_dispatch,
            acc: false,
            reply: None,
        }
    }
}

/// The per-byte copy — pack, unpack, deserialisation — of `bytes`.
pub(crate) fn copy(p: &BgqParams, bytes: usize) -> SimDuration {
    SimDuration::from_ps(bytes as u64 * p.pack_byte_time_ps)
}

/// An active message's request: the AM header, then the payload.
const AM_WIRE: Wire = |p, payload, _| p.am_header_bytes + payload;
/// A packed transfer's: an active message plus 16 B per chunk descriptor.
const PACKED: Wire = |p, payload, chunks| p.am_header_bytes + payload + chunks * 16;
/// Dispatch, then add each f64.
const DISPATCH_ACC: Cost =
    |p, n| p.am_dispatch + SimDuration::from_ps((n / 8) as u64 * p.acc_elem_time_ps);
/// Dispatch, then gather or scatter each byte.
const DISPATCH_COPY: Cost = |p, n| p.am_dispatch + copy(p, n);

/// A software-path service: its row's index, one byte in every queued item.
#[derive(Clone, Copy)]
#[repr(u8)]
pub(crate) enum Service {
    SwPut,
    SwGet,
    Acc,
    Rmw,
    PackedGet,
    PackedPut,
    AccStrided,
    /// A control-plane active message.
    Am,
    /// A data-plane active message, unbatched.
    AmData,
    /// A coalesced batch: one dispatch, then each entry's [`copy`].
    AmBatch,
}

impl Service {
    pub fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }
}

/// The rows, in [`Service`] order.
#[rustfmt::skip]
static ROWS: [Row; 10] = [
    Row::new("pami.service.sw_put", "pami.sw_put", Ordered),
    Row { reply: Some((Ordered, |n| n, |p, n| p.align_penalty(n))), ..Row::new("pami.service.sw_get", "pami.sw_get", Control) },
    Row { busy: DISPATCH_ACC, acc: true, ..Row::new("pami.service.acc", "pami.acc", Ordered) },
    Row { wire: |_, _, _| 16, busy: |p, _| p.rmw_service, reply: Some((Unordered, |_| 8, |_, _| SimDuration::ZERO)), ..Row::new("pami.service.rmw", "pami.rmw", Unordered) },
    Row { wire: PACKED, busy: DISPATCH_COPY, reply: Some((Ordered, |n| n, copy)), ..Row::new("pami.service.packed_get", "pami.packed_get", Control) },
    Row { wire: PACKED, pack: true, busy: DISPATCH_COPY, ..Row::new("pami.service.packed_put", "pami.packed_put", Ordered) },
    Row { wire: PACKED, pack: true, busy: DISPATCH_ACC, acc: true, ..Row::new("pami.service.acc_strided", "pami.acc_strided", Ordered) },
    Row::new("pami.service.am", "pami.am", Control),
    // Counted with the batcher's wire messages, but not in the timeline.
    Row::new("pami.service.am", "am.wire_msgs", Ordered),
    Row { counter: Probe::new().count("am.wire_msgs").series("am.wire_msgs"), ..Row::new("pami.service.am_batch", "am.wire_msgs", Ordered) },
];
