//! The operation table: each ARMCI operation described once, as data.
//!
//! The paper's cost model (§III, Tables I/II, Eqs. 7–9) makes every
//! operation the same short composition — endpoint, region resolution,
//! consistency gate, a protocol choice, one or two PAMI legs, a completion —
//! differing in a handful of constants. Those constants are the rows below;
//! the composition itself exists once, in `ops.rs`.

use desim::Probe;

use crate::handle::OpKind::{self, Acc, Get, Put, Rmw};

/// The completion-processing overhead a blocking wait charges once the
/// operation's completion has fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overhead {
    /// `o_recv`: reap the arrived data or reply.
    Recv,
    /// `o_put_local`: reap the hardware acknowledgement.
    PutLocal,
    /// Nothing to reap (the payload was buffered at send).
    None,
}

/// One row of the operation table: everything in which an ARMCI operation
/// differs from the others, apart from the PAMI calls of its protocol step.
/// The one issue path (`ArmciRank::issue`), the one rmw core and
/// [`crate::ArmciRank::wait`] read a row instead of matching on the
/// operation. Two attributes follow from the others by construction and are
/// not stored: an operation is a *read* that takes the consistency gate iff
/// `kind` is [`OpKind::Get`] and a recorded *write* otherwise, and it
/// resolves the remote region (cache, then an AM query to the owner) iff it
/// has a direct `protocol` to use it for — a software-only operation takes
/// the region key from the cache alone, to scope conflict tracking. What
/// the operation records is part of the row, as [`Probe`] rows.
#[derive(Debug)]
pub struct OpDesc {
    /// The operation: its counter and trace span are its name, it owns the
    /// lifecycle intervals attributed to it, and it raises the
    /// `armci.inflight` level from begin to end.
    pub op: Probe,
    /// What completion means and how consistency treats the operation.
    pub kind: OpKind,
    /// Counter the bytes moved are added to (no key: not counted).
    pub bytes: Probe,
    /// Counters of the protocols the issue path chooses between —
    /// `[direct (RDMA), through the target CPU]` — or `None` when only the
    /// software path exists (no NIC support for accumulate or AMOs).
    pub protocol: Option<[Probe; 2]>,
    /// Pieces below `ArmciConfig::pack_threshold` go through the target CPU
    /// even when both regions are known (tall-skinny transfers, §III-C2).
    pub packs: bool,
    /// The blocking wait: an `armci.wait.*` duration and its histogram.
    pub wait: Probe,
    /// Completion overhead the blocking wait charges.
    pub completion: Overhead,
}

/// An operation's probe row: counted, traced and lifecycle-attributed under
/// `name`, and in flight (`armci.inflight`) from its begin to its end.
pub(crate) const fn op(name: &'static str) -> Probe {
    Probe::op(name).gauge("armci.inflight")
}

impl OpDesc {
    /// A row of `kind`, whose byte counter, wait and completion overhead
    /// follow from the kind.
    const fn new(
        name: &'static str,
        kind: OpKind,
        protocol: Option<[&'static str; 2]>,
        packs: bool,
    ) -> OpDesc {
        let (bytes, wait, completion) = match kind {
            Get => ("armci.get_bytes", "armci.wait.get", Overhead::Recv),
            Put => ("armci.put_bytes", "armci.wait.put", Overhead::PutLocal),
            Acc => ("armci.acc_bytes", "armci.wait.acc", Overhead::None),
            Rmw => ("", "armci.wait.rmw", Overhead::Recv),
        };
        OpDesc {
            op: op(name),
            kind,
            bytes: if bytes.is_empty() {
                Probe::new()
            } else {
                Probe::new().count(bytes)
            },
            protocol: match protocol {
                Some([direct, cpu]) => Some([Probe::new().count(direct), Probe::new().count(cpu)]),
                None => None,
            },
            packs,
            wait: Probe::new().time_hist(wait),
            completion,
        }
    }

    /// The operation's name (`armci.get`, …).
    pub fn name(&self) -> &'static str {
        self.op.key()
    }

    /// The counter of the protocol taken, given whether the direct one was
    /// possible; `None` for a software-only operation.
    pub fn protocol_taken(&self, direct: bool) -> Option<&Probe> {
        self.protocol.as_ref().map(|p| &p[usize::from(!direct)])
    }
}

const GETS: Option<[&str; 2]> = Some(["armci.get_rdma", "armci.get_fallback"]);
const PUTS: Option<[&str; 2]> = Some(["armci.put_rdma", "armci.put_fallback"]);
const STRIDED: Option<[&str; 2]> = Some(["armci.strided_zero_copy", "armci.strided_packed"]);

/// Contiguous get (Eq. 7 direct, Eq. 8 fallback).
pub static GET: OpDesc = OpDesc::new("armci.get", Get, GETS, false);
/// Contiguous put.
pub static PUT: OpDesc = OpDesc::new("armci.put", Put, PUTS, false);
/// Contiguous accumulate.
pub static ACC: OpDesc = OpDesc::new("armci.acc", Acc, None, false);
/// Strided get: a chunk train (Eq. 9) or the packed path.
pub static GET_STRIDED: OpDesc = OpDesc::new("armci.get_strided", Get, STRIDED, true);
/// Strided put.
pub static PUT_STRIDED: OpDesc = OpDesc::new("armci.put_strided", Put, STRIDED, true);
/// Vector (I/O-vector) get.
pub static GETV: OpDesc = OpDesc::new("armci.getv", Get, STRIDED, true);
/// Vector put.
pub static PUTV: OpDesc = OpDesc::new("armci.putv", Put, STRIDED, true);
/// Strided accumulate.
pub static ACC_STRIDED: OpDesc = OpDesc::new("armci.acc_strided", Acc, None, false);
/// Fetch-and-add, swap and compare-and-swap.
pub static RMW: OpDesc = OpDesc::new("armci.rmw", Rmw, None, false);

/// Every row of the operation table.
pub static OPS: [&OpDesc; 9] = [
    &GET,
    &PUT,
    &ACC,
    &GET_STRIDED,
    &PUT_STRIDED,
    &GETV,
    &PUTV,
    &ACC_STRIDED,
    &RMW,
];
