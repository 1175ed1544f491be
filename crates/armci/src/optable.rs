//! The operation table: each ARMCI operation described once, as data.
//!
//! The paper's cost model (§III, Tables I/II, Eqs. 7–9) makes every
//! operation the same short composition — endpoint, region resolution,
//! consistency gate, a protocol choice, one or two PAMI legs, a completion —
//! differing in a handful of constants. Those constants are the rows below;
//! the composition itself exists once, in `ops.rs`.

use crate::handle::OpKind;

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
/// the region key from the cache alone, to scope conflict tracking.
#[derive(Debug, Clone, Copy)]
pub struct OpDesc {
    /// Flight-recorder kind, trace-span name and operation counter key.
    pub name: &'static str,
    /// What completion means and how consistency treats the operation.
    pub kind: OpKind,
    /// Counter the bytes moved are added to (`""`: not counted).
    pub bytes: &'static str,
    /// Counter keys of the protocols the issue path chooses between —
    /// `[direct (RDMA), through the target CPU]` — or `None` when only the
    /// software path exists (no NIC support for accumulate or AMOs).
    pub protocol: Option<[&'static str; 2]>,
    /// Pieces below `ArmciConfig::pack_threshold` go through the target CPU
    /// even when both regions are known (tall-skinny transfers, §III-C2).
    pub packs: bool,
    /// `armci.wait.*` duration and histogram key of the blocking wait.
    pub wait: &'static str,
    /// Completion overhead the blocking wait charges.
    pub completion: Overhead,
}

impl OpDesc {
    /// Counter key of the protocol taken, given whether the direct one was
    /// possible; `None` for a software-only operation.
    pub fn protocol_key(&self, direct: bool) -> Option<&'static str> {
        self.protocol.map(|keys| keys[usize::from(!direct)])
    }
}

/// Contiguous get (Eq. 7 direct, Eq. 8 fallback).
pub static GET: OpDesc = OpDesc {
    name: "armci.get",
    kind: OpKind::Get,
    bytes: "armci.get_bytes",
    protocol: Some(["armci.get_rdma", "armci.get_fallback"]),
    packs: false,
    wait: "armci.wait.get",
    completion: Overhead::Recv,
};
/// Contiguous put.
pub static PUT: OpDesc = OpDesc {
    name: "armci.put",
    kind: OpKind::Put,
    bytes: "armci.put_bytes",
    protocol: Some(["armci.put_rdma", "armci.put_fallback"]),
    packs: false,
    wait: "armci.wait.put",
    completion: Overhead::PutLocal,
};
/// Contiguous accumulate.
pub static ACC: OpDesc = OpDesc {
    name: "armci.acc",
    kind: OpKind::Acc,
    bytes: "armci.acc_bytes",
    protocol: None,
    packs: false,
    wait: "armci.wait.acc",
    completion: Overhead::None,
};
/// Strided get: a chunk train (Eq. 9) or the packed path.
pub static GET_STRIDED: OpDesc = OpDesc {
    name: "armci.get_strided",
    protocol: Some(["armci.strided_zero_copy", "armci.strided_packed"]),
    packs: true,
    ..GET
};
/// Strided put.
pub static PUT_STRIDED: OpDesc = OpDesc {
    name: "armci.put_strided",
    protocol: GET_STRIDED.protocol,
    packs: true,
    ..PUT
};
/// Vector (I/O-vector) get.
pub static GETV: OpDesc = OpDesc {
    name: "armci.getv",
    ..GET_STRIDED
};
/// Vector put.
pub static PUTV: OpDesc = OpDesc {
    name: "armci.putv",
    ..PUT_STRIDED
};
/// Strided accumulate.
pub static ACC_STRIDED: OpDesc = OpDesc {
    name: "armci.acc_strided",
    ..ACC
};
/// Fetch-and-add, swap and compare-and-swap.
pub static RMW: OpDesc = OpDesc {
    name: "armci.rmw",
    kind: OpKind::Rmw,
    bytes: "",
    protocol: None,
    packs: false,
    wait: "armci.wait.rmw",
    completion: Overhead::Recv,
};

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
