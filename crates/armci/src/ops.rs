//! Per-rank ARMCI operations: contiguous and strided get/put/accumulate,
//! atomic memory operations, fences, barriers, mutexes and notify/wait.
//!
//! Protocol selection follows §III-C: contiguous transfers use RDMA whenever
//! both the local and the remote memory region are available (remote
//! metadata comes from the LFU region cache, misses cost an active-message
//! round trip to the owner), falling back to the active-message protocol
//! otherwise (Eq. 8 — one extra `o`, plus a dependence on target progress).
//! Strided transfers post a chunk list of non-blocking RDMA operations
//! (Eq. 9) unless the contiguous chunk is below the pack threshold
//! (tall-skinny), in which case the packed typed-datatype path is used.

use std::cell::OnceCell;
use std::rc::Rc;

use desim::memprof::{self, MemTag};
use desim::{Completion, FlightRecorder, OpId, SimDuration, TraceValue, Tracer, TrackId};
use pami_sim::{PamiRank, RmwOp};

/// Implicit-handle sets and non-blocking handle state.
static HANDLES_TAG: MemTag = MemTag::new("armci.handles");

use crate::handle::{NbHandle, OpKind};
use crate::region_cache::RemoteRegion;
use crate::runtime::{
    Armci, RankRt, DISPATCH_ACC_AM, DISPATCH_AM_PING, DISPATCH_NOTIFY_AM, DISPATCH_REGION_QUERY,
};
use crate::strided::Strided;

/// Handle for one rank's view of the ARMCI runtime.
///
/// All operations are issued *by* this rank; blocking variants drive the
/// PAMI progress engine while they wait (so a blocked rank services remote
/// requests — the "default" progress mode of the paper).
#[derive(Clone)]
pub struct ArmciRank {
    pub(crate) a: Armci,
    pub(crate) r: usize,
    pub(crate) pami: PamiRank,
    /// This rank's runtime state, remembered after the first touch so that
    /// per-operation accesses do not re-hash the runtime's rank table.
    pub(crate) rt: OnceCell<Rc<RankRt>>,
}

impl ArmciRank {
    /// This rank's id.
    pub fn id(&self) -> usize {
        self.r
    }

    /// The runtime this rank belongs to.
    pub fn armci(&self) -> &Armci {
        &self.a
    }

    /// The underlying PAMI rank (for memory access in tests/apps).
    pub fn pami(&self) -> &PamiRank {
        &self.pami
    }

    fn rt(&self) -> &RankRt {
        self.rt.get_or_init(|| self.a.rank_rt(self.r))
    }

    fn stats(&self) -> desim::Stats {
        self.a.inner.machine.stats()
    }

    fn tracer(&self) -> Tracer {
        self.a.sim().tracer()
    }

    /// This rank's trace track. The `format!` (and everything else) is
    /// guarded on enablement so disabled tracing allocates nothing.
    fn op_track(&self, tr: &Tracer) -> TrackId {
        if tr.on() {
            tr.track(&format!("rank {}", self.r))
        } else {
            TrackId(0)
        }
    }

    fn flight(&self) -> FlightRecorder {
        self.a.sim().flight()
    }

    /// Open a flight-recorder lifecycle record for an operation of `kind`
    /// and mark this rank's subsequent injections with its id. Returns
    /// `None` (and records nothing) when the recorder is disabled.
    fn begin_op(&self, kind: &'static str) -> Option<OpId> {
        // The in-flight gauge counts op begin/end call pairs, independent of
        // whether the flight recorder hands out an id.
        self.a.op_inflight(self.a.sim().now(), 1);
        let op = self
            .flight()
            .begin_op(self.a.sim().now(), self.r as u32, kind);
        if op.is_some() {
            self.pami.set_current_op(op);
        }
        op
    }

    /// Detach attribution at the end of a *non-blocking* call: later
    /// injections by this rank are no longer this op's, but the op record
    /// stays open until the matching [`ArmciRank::wait`] closes it.
    fn detach_op(&self, op: Option<OpId>) {
        if op.is_some() {
            self.pami.set_current_op(None);
        }
    }

    /// Close an operation's lifecycle record (initiator-side completion).
    fn end_op(&self, op: Option<OpId>) {
        self.a.op_inflight(self.a.sim().now(), -1);
        if let Some(op) = op {
            self.flight().end_op(op, self.a.sim().now());
            self.pami.set_current_op(None);
        }
    }

    // ------------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------------

    /// Allocate `len` bytes of remotely accessible memory and register it as
    /// an RDMA region (cost δ). If registration fails (region limit), the
    /// memory is still usable — operations on it take the fall-back path.
    pub async fn malloc(&self, len: usize) -> usize {
        let off = self.pami.alloc(len);
        if self.pami.register_region(off, len).await.is_err() {
            self.stats().incr("armci.malloc_unregistered");
        }
        off
    }

    /// Allocate without registering (always exercises the fall-back path).
    pub fn alloc_unregistered(&self, len: usize) -> usize {
        self.pami.alloc(len)
    }

    /// Collective allocation (ARMCI_Malloc): every rank allocates and
    /// registers `len` bytes, region keys are exchanged among all ranks
    /// (seeding the remote-region caches — Eq. 5's σ·ζ·γ term), and the
    /// offsets of all ranks' blocks are returned. All ranks must call this
    /// in the same order; it synchronizes like a barrier.
    pub async fn malloc_collective(&self, len: usize) -> Vec<usize> {
        let p = self.a.nprocs();
        let off = self.pami.alloc(len);
        let registered = self.pami.register_region(off, len).await.is_ok();
        if !registered {
            self.stats().incr("armci.malloc_unregistered");
        }
        let seq = {
            let mut seqs = self.a.inner.collective_seq.borrow_mut();
            let e = seqs.entry(self.r).or_insert(0);
            let s = *e;
            *e += 1;
            s
        };
        let (done, ready) = {
            let mut calls = self.a.inner.collective.borrow_mut();
            let st = calls
                .entry(seq)
                .or_insert_with(|| crate::runtime::CollectiveAlloc {
                    offs: vec![0; p],
                    arrived: 0,
                    done: Completion::new(),
                });
            st.offs[self.r] = off;
            st.arrived += 1;
            (st.done.clone(), st.arrived == p)
        };
        if ready {
            let st = self
                .a
                .inner
                .collective
                .borrow_mut()
                .remove(&seq)
                .expect("collective state present");
            // Exchange region keys: seed every rank's cache with every
            // other rank's block (only blocks that actually registered).
            for r in 0..p {
                for (owner, &o) in st.offs.iter().enumerate() {
                    if owner != r
                        && self
                            .a
                            .inner
                            .machine
                            .rank(owner)
                            .find_region(o, len)
                            .is_some()
                    {
                        self.a.seed_region(r, owner, o, len);
                    }
                }
            }
            // The metadata exchange rides the collective network.
            let cost = self.a.inner.machine.params().barrier_cost(p);
            let offs = std::rc::Rc::new(st.offs);
            let done2 = st.done.clone();
            self.a.sim().schedule_in(cost, move || done2.complete(offs));
        }
        let offs = self.pami.progress_wait(&done).await;
        (*offs).clone()
    }

    // ------------------------------------------------------------------
    // Region / endpoint resolution
    // ------------------------------------------------------------------

    /// Resolve the remote memory region covering `[off, off+len)` at
    /// `target`: local registry for self, else the LFU cache, else an
    /// active-message query to the owner (which needs the owner's progress —
    /// the expensive miss path).
    pub async fn resolve_remote(
        &self,
        target: usize,
        off: usize,
        len: usize,
    ) -> Option<RemoteRegion> {
        if target == self.r {
            return self.pami.find_region(off, len).map(|id| {
                let (o, l) = self.pami.region_bounds(id);
                RemoteRegion { off: o, len: l }
            });
        }
        if let Some(r) = self.rt().region_cache.borrow_mut().lookup(target, off, len) {
            return Some(r);
        }
        // Miss: query the owner.
        self.stats().incr("armci.region_query");
        let reply: Completion<Option<RemoteRegion>> = Completion::new();
        let reply_id = {
            let mut rare = self.rt().rare();
            let id = rare.next_reply;
            rare.next_reply += 1;
            rare.pending_replies.insert(id, reply.clone());
            id
        };
        let mut header = Vec::with_capacity(24);
        header.extend_from_slice(&reply_id.to_le_bytes());
        header.extend_from_slice(&(off as u64).to_le_bytes());
        header.extend_from_slice(&(len as u64).to_le_bytes());
        self.pami
            .am_send(target, DISPATCH_REGION_QUERY, header, Vec::new())
            .await;
        let res = self.pami.progress_wait(&reply).await;
        if let Some(region) = res {
            self.rt().region_cache.borrow_mut().insert(target, region);
        }
        res
    }

    /// Make sure the local side `[off, off+len)` is covered by a region,
    /// registering one (cost δ) if needed. Returns false when registration
    /// is impossible (region limit) — the fall-back protocol must be used.
    async fn ensure_local_region(&self, off: usize, len: usize) -> bool {
        if self.pami.find_region(off, len).is_some() {
            return true;
        }
        self.pami.register_region(off, len).await.is_ok()
    }

    async fn ensure_endpoint(&self, target: usize) {
        let ctx = self.a.inner.machine.target_ctx();
        self.pami.ensure_endpoint(target, ctx).await;
    }

    /// Await the conflicting writes location consistency demands before a
    /// read of `(target, key)` (§III-E).
    async fn consistency_read_gate(&self, target: usize, key: Option<usize>) {
        let conflicts = self
            .rt()
            .consistency
            .borrow_mut()
            .conflicts_for_read(target, key);
        if !conflicts.is_empty() {
            self.stats().incr("armci.induced_fence");
            for c in conflicts {
                self.pami.progress_wait(&c).await;
            }
        }
    }

    // ------------------------------------------------------------------
    // Contiguous get/put/acc
    // ------------------------------------------------------------------

    /// Non-blocking contiguous get.
    pub async fn nbget(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> NbHandle {
        let op = self.begin_op("armci.get");
        self.stats().incr("armci.get");
        self.stats().add("armci.get_bytes", len as u64);
        let tr = self.tracer();
        let track = self.op_track(&tr);
        tr.span_begin(
            track,
            "armci.get",
            self.a.sim().now(),
            &[
                ("target", TraceValue::U64(target as u64)),
                ("bytes", TraceValue::U64(len as u64)),
            ],
        );
        self.ensure_endpoint(target).await;
        let remote = self.resolve_remote(target, remote_off, len).await;
        let key = remote.map(|r| r.off);
        self.consistency_read_gate(target, key).await;
        let local_ok = self.ensure_local_region(local_off, len).await;
        let (done, path) = if local_ok && remote.is_some() {
            self.stats().incr("armci.get_rdma");
            (
                self.pami.rdma_get(target, local_off, remote_off, len).await,
                "rdma",
            )
        } else {
            self.stats().incr("armci.get_fallback");
            (
                self.pami.sw_get(target, local_off, remote_off, len).await,
                "fallback",
            )
        };
        tr.span_end(
            track,
            "armci.get",
            self.a.sim().now(),
            &[("path", TraceValue::Str(path))],
        );
        self.detach_op(op);
        let h = NbHandle {
            kind: OpKind::Get,
            target,
            done,
            remote: None,
            op,
        };
        let _mem = memprof::scope(&HANDLES_TAG);
        self.rt().implicit.borrow_mut().push(h.done.clone());
        h
    }

    /// Blocking contiguous get.
    pub async fn get(&self, target: usize, local_off: usize, remote_off: usize, len: usize) {
        let h = self.nbget(target, local_off, remote_off, len).await;
        self.wait(&h).await;
    }

    /// Non-blocking contiguous put.
    pub async fn nbput(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> NbHandle {
        let op = self.begin_op("armci.put");
        self.stats().incr("armci.put");
        self.stats().add("armci.put_bytes", len as u64);
        let tr = self.tracer();
        let track = self.op_track(&tr);
        tr.span_begin(
            track,
            "armci.put",
            self.a.sim().now(),
            &[
                ("target", TraceValue::U64(target as u64)),
                ("bytes", TraceValue::U64(len as u64)),
            ],
        );
        self.ensure_endpoint(target).await;
        let remote = self.resolve_remote(target, remote_off, len).await;
        let key = remote.map(|r| r.off);
        let local_ok = self.ensure_local_region(local_off, len).await;
        let (handles, path) = if local_ok && remote.is_some() {
            self.stats().incr("armci.put_rdma");
            (
                self.pami.rdma_put(target, local_off, remote_off, len).await,
                "rdma",
            )
        } else {
            self.stats().incr("armci.put_fallback");
            (
                self.pami.sw_put(target, local_off, remote_off, len).await,
                "fallback",
            )
        };
        tr.span_end(
            track,
            "armci.put",
            self.a.sim().now(),
            &[("path", TraceValue::Str(path))],
        );
        self.rt()
            .consistency
            .borrow_mut()
            .record_write(target, key, handles.remote.clone());
        self.detach_op(op);
        let h = NbHandle {
            kind: OpKind::Put,
            target,
            done: handles.local.clone(),
            remote: Some(handles.remote),
            op,
        };
        let _mem = memprof::scope(&HANDLES_TAG);
        self.rt().implicit.borrow_mut().push(h.done.clone());
        h
    }

    /// Blocking contiguous put (returns when the local buffer is reusable).
    pub async fn put(&self, target: usize, local_off: usize, remote_off: usize, len: usize) {
        let h = self.nbput(target, local_off, remote_off, len).await;
        self.wait(&h).await;
    }

    /// Non-blocking accumulate of `elems` f64s: `dst += scale·src`. Always
    /// travels the software path (no NIC support for accumulate on BG/Q).
    pub async fn nbacc(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        elems: usize,
        scale: f64,
    ) -> NbHandle {
        let op = self.begin_op("armci.acc");
        self.stats().incr("armci.acc");
        self.stats().add("armci.acc_bytes", (elems * 8) as u64);
        let tr = self.tracer();
        let track = self.op_track(&tr);
        tr.span_begin(
            track,
            "armci.acc",
            self.a.sim().now(),
            &[
                ("target", TraceValue::U64(target as u64)),
                ("bytes", TraceValue::U64((elems * 8) as u64)),
                ("path", TraceValue::Str("software")),
            ],
        );
        self.ensure_endpoint(target).await;
        // Accumulates never need the region for the transfer itself, but the
        // region key (if cheaply known) lets cs_mr scope conflict tracking.
        let key = self
            .rt()
            .region_cache
            .borrow_mut()
            .lookup(target, remote_off, elems * 8)
            .map(|r| r.off);
        let handles = self
            .pami
            .acc_f64(target, local_off, remote_off, elems, scale)
            .await;
        tr.span_end(track, "armci.acc", self.a.sim().now(), &[]);
        self.rt()
            .consistency
            .borrow_mut()
            .record_write(target, key, handles.remote.clone());
        self.detach_op(op);
        let h = NbHandle {
            kind: OpKind::Acc,
            target,
            done: handles.local.clone(),
            remote: Some(handles.remote),
            op,
        };
        let _mem = memprof::scope(&HANDLES_TAG);
        self.rt().implicit.borrow_mut().push(h.done.clone());
        h
    }

    /// Blocking accumulate (local completion only; the remote update is
    /// fenced later, matching location consistency).
    pub async fn acc(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        elems: usize,
        scale: f64,
    ) {
        let h = self
            .nbacc(target, local_off, remote_off, elems, scale)
            .await;
        self.wait(&h).await;
    }

    // ------------------------------------------------------------------
    // Strided (uniformly non-contiguous) get/put/acc
    // ------------------------------------------------------------------

    /// Non-blocking strided get; `local` and `remote` must be
    /// shape-compatible.
    pub async fn nbget_strided(
        &self,
        target: usize,
        local: &Strided,
        remote: &Strided,
    ) -> NbHandle {
        assert!(local.compatible(remote), "incompatible strided descriptors");
        let list = StridedPair { local, remote };
        self.nb_chunked(OpKind::Get, "armci.get_strided", target, &list)
            .await
    }

    /// Blocking strided get.
    pub async fn get_strided(&self, target: usize, local: &Strided, remote: &Strided) {
        let h = self.nbget_strided(target, local, remote).await;
        self.wait(&h).await;
    }

    /// Non-blocking strided put.
    pub async fn nbput_strided(
        &self,
        target: usize,
        local: &Strided,
        remote: &Strided,
    ) -> NbHandle {
        assert!(local.compatible(remote), "incompatible strided descriptors");
        let list = StridedPair { local, remote };
        self.nb_chunked(OpKind::Put, "armci.put_strided", target, &list)
            .await
    }

    /// Blocking strided put.
    pub async fn put_strided(&self, target: usize, local: &Strided, remote: &Strided) {
        let h = self.nbput_strided(target, local, remote).await;
        self.wait(&h).await;
    }

    /// The handle of a transfer over no chunks (a zero count): complete on
    /// the spot, with no message.
    fn nothing_to_move(&self, kind: OpKind, target: usize, op: Option<OpId>) -> NbHandle {
        self.detach_op(op);
        let done = Completion::new();
        done.complete(());
        NbHandle {
            kind,
            target,
            remote: (kind != OpKind::Get).then(|| done.clone()),
            done,
            op,
        }
    }

    /// The issue path every chunked get and put shares (strided and vector):
    /// resolve both sides, then either post the pieces as one RDMA chunk
    /// train (zero-copy, Eq. 9) or, for pieces under the pack threshold or
    /// without regions, take the packed typed-datatype path. A transfer of
    /// no chunks completes on the spot, with no message.
    async fn nb_chunked(
        &self,
        kind: OpKind,
        name: &'static str,
        target: usize,
        list: &impl ChunkList,
    ) -> NbHandle {
        let op = self.begin_op(name);
        self.stats().incr(name);
        let (mut chunks, mut total, mut min_len) = (0u64, 0, usize::MAX);
        for (_, _, len) in list.pieces() {
            chunks += 1;
            total += len;
            min_len = min_len.min(len);
        }
        if chunks == 0 {
            return self.nothing_to_move(kind, target, op);
        }
        let is_get = kind == OpKind::Get;
        let bytes_key = if is_get {
            "armci.get_bytes"
        } else {
            "armci.put_bytes"
        };
        self.stats().add(bytes_key, total as u64);
        self.ensure_endpoint(target).await;
        let ((loff, llen), (roff, rlen)) = list.spans();
        let region = self.resolve_remote(target, roff, rlen).await;
        let key = region.map(|r| r.off);
        if is_get {
            self.consistency_read_gate(target, key).await;
        }
        let local_ok = self.ensure_local_region(loff, llen).await;
        let zero_copy = min_len >= self.a.inner.cfg.pack_threshold && local_ok && region.is_some();
        let tr = self.tracer();
        let track = self.op_track(&tr);
        tr.span_begin(
            track,
            name,
            self.a.sim().now(),
            &[
                ("target", TraceValue::U64(target as u64)),
                ("bytes", TraceValue::U64(total as u64)),
                ("chunks", TraceValue::U64(chunks)),
                (
                    "path",
                    TraceValue::Str(if zero_copy { "zero_copy" } else { "packed" }),
                ),
            ],
        );
        self.stats().incr(if zero_copy {
            "armci.strided_zero_copy"
        } else {
            "armci.strided_packed"
        });
        let (done, remote) = if is_get {
            let done = if zero_copy {
                self.pami.rdma_get_list(target, list.pieces(), total).await
            } else {
                let (local, remote) = list.chunk_lists();
                self.pami.packed_get(target, remote, local).await
            };
            (done, None)
        } else {
            let h = if zero_copy {
                self.pami.rdma_put_list(target, list.pieces(), total).await
            } else {
                let (local, remote) = list.chunk_lists();
                self.pami.packed_put(target, local, remote).await
            };
            (h.local, Some(h.remote))
        };
        tr.span_end(track, name, self.a.sim().now(), &[]);
        if let Some(remote) = &remote {
            self.rt()
                .consistency
                .borrow_mut()
                .record_write(target, key, remote.clone());
        }
        self.detach_op(op);
        let h = NbHandle {
            kind,
            target,
            done,
            remote,
            op,
        };
        let _mem = memprof::scope(&HANDLES_TAG);
        self.rt().implicit.borrow_mut().push(h.done.clone());
        h
    }

    /// Non-blocking strided accumulate (`dst += scale·src` elementwise over
    /// f64 chunks).
    pub async fn nbacc_strided(
        &self,
        target: usize,
        local: &Strided,
        remote: &Strided,
        scale: f64,
    ) -> NbHandle {
        assert!(local.compatible(remote), "incompatible strided descriptors");
        let op = self.begin_op("armci.acc_strided");
        self.stats().incr("armci.acc_strided");
        if remote.nchunks() == 0 {
            return self.nothing_to_move(OpKind::Acc, target, op);
        }
        self.stats()
            .add("armci.acc_bytes", remote.total_bytes() as u64);
        self.ensure_endpoint(target).await;
        let (roff, rlen) = span(remote);
        let key = self
            .rt()
            .region_cache
            .borrow_mut()
            .lookup(target, roff, rlen)
            .map(|r| r.off);
        let h = self
            .pami
            .acc_strided_f64(target, local.chunk_list(), remote.chunk_list(), scale)
            .await;
        self.rt()
            .consistency
            .borrow_mut()
            .record_write(target, key, h.remote.clone());
        self.detach_op(op);
        let handle = NbHandle {
            kind: OpKind::Acc,
            target,
            done: h.local.clone(),
            remote: Some(h.remote),
            op,
        };
        let _mem = memprof::scope(&HANDLES_TAG);
        self.rt().implicit.borrow_mut().push(handle.done.clone());
        handle
    }

    /// Blocking strided accumulate.
    pub async fn acc_strided(&self, target: usize, local: &Strided, remote: &Strided, scale: f64) {
        let h = self.nbacc_strided(target, local, remote, scale).await;
        self.wait(&h).await;
    }

    /// Blocking single-value put (ARMCI_PutValueLong): stages the value in a
    /// scratch cell and writes it to the target. Used for flags and small
    /// control words.
    pub async fn put_value_i64(&self, target: usize, remote_off: usize, v: i64) {
        let scratch = self.pami.alloc(8);
        self.pami.write_i64(scratch, v);
        self.put(target, scratch, remote_off, 8).await;
    }

    /// Blocking single-value get (ARMCI_GetValueLong).
    pub async fn get_value_i64(&self, target: usize, remote_off: usize) -> i64 {
        let scratch = self.pami.alloc(8);
        self.get(target, scratch, remote_off, 8).await;
        self.pami.read_i64(scratch)
    }

    // ------------------------------------------------------------------
    // Generalized I/O vector (ARMCI_GetV/PutV)
    // ------------------------------------------------------------------

    /// Non-blocking vector get: explicit `(local_off, remote_off, len)`
    /// triples (the general I/O-vector interface; strided descriptors are
    /// the compact special case, §III-C2).
    pub async fn nbgetv(&self, target: usize, parts: &[(usize, usize, usize)]) -> NbHandle {
        assert!(!parts.is_empty(), "empty vector request");
        self.nb_chunked(OpKind::Get, "armci.getv", target, &parts)
            .await
    }

    /// Blocking vector get.
    pub async fn getv(&self, target: usize, parts: &[(usize, usize, usize)]) {
        let h = self.nbgetv(target, parts).await;
        self.wait(&h).await;
    }

    /// Non-blocking vector put.
    pub async fn nbputv(&self, target: usize, parts: &[(usize, usize, usize)]) -> NbHandle {
        assert!(!parts.is_empty(), "empty vector request");
        self.nb_chunked(OpKind::Put, "armci.putv", target, &parts)
            .await
    }

    /// Blocking vector put.
    pub async fn putv(&self, target: usize, parts: &[(usize, usize, usize)]) {
        let h = self.nbputv(target, parts).await;
        self.wait(&h).await;
    }

    // ------------------------------------------------------------------
    // Completion / synchronization
    // ------------------------------------------------------------------

    /// Wait for one explicit non-blocking handle, driving progress meanwhile.
    /// Records the wait time under `armci.wait.{get,put,acc}` in the stats
    /// registry.
    pub async fn wait(&self, h: &NbHandle) {
        let t0 = self.a.sim().now();
        let tr = self.tracer();
        let track = self.op_track(&tr);
        tr.span_begin(
            track,
            "armci.wait",
            t0,
            &[("target", TraceValue::U64(h.target as u64))],
        );
        // Re-attach attribution: progress driven while blocked here (lock
        // waits, messages injected on the op's behalf) belongs to this op.
        if h.op.is_some() {
            self.pami.set_current_op(h.op);
        }
        self.pami.progress_wait(&h.done).await;
        let p = self.a.inner.machine.params();
        match h.kind {
            OpKind::Get => self.a.sim().sleep(p.o_recv).await,
            OpKind::Put => self.a.sim().sleep(p.o_put_local).await,
            OpKind::Acc => {}
        }
        let key = match h.kind {
            OpKind::Get => "armci.wait.get",
            OpKind::Put => "armci.wait.put",
            OpKind::Acc => "armci.wait.acc",
        };
        let waited = self.a.sim().now() - t0;
        self.stats().record_time(key, waited);
        // Same key in the histogram space: ns-granularity latency buckets.
        self.stats().record_hist(key, waited.as_ps() / 1000);
        tr.span_end(track, "armci.wait", self.a.sim().now(), &[]);
        self.end_op(h.op);
    }

    /// Wait for all outstanding implicit requests of this rank.
    pub async fn wait_all(&self) {
        let pending: Vec<Completion<()>> = self.rt().implicit.borrow_mut().drain(..).collect();
        for c in pending {
            self.pami.progress_wait(&c).await;
        }
    }

    /// Fence: block until all outstanding writes to `target` are remotely
    /// complete.
    pub async fn fence(&self, target: usize) {
        self.stats().incr("armci.fence");
        let writes = self.rt().consistency.borrow_mut().drain_target(target);
        for c in writes {
            self.pami.progress_wait(&c).await;
        }
    }

    /// Fence all targets.
    pub async fn fence_all(&self) {
        self.stats().incr("armci.fence_all");
        let writes = self.rt().consistency.borrow_mut().drain_all();
        for c in writes {
            self.pami.progress_wait(&c).await;
        }
    }

    /// Collective barrier: fence-all followed by the hardware barrier
    /// network. All ranks must call it.
    pub async fn barrier(&self) {
        self.fence_all().await;
        self.wait_all().await;
        let (done, leader) = {
            let mut b = self.a.inner.barrier.borrow_mut();
            if b.current.is_none() {
                b.current = Some(Completion::new());
            }
            let done = b.current.clone().expect("just set");
            b.arrived += 1;
            let leader = b.arrived == self.a.nprocs();
            if leader {
                b.arrived = 0;
                b.current = None;
            }
            (done, leader)
        };
        if leader {
            let cost = self.a.inner.machine.params().barrier_cost(self.a.nprocs());
            let d2 = done.clone();
            self.a.sim().schedule_in(cost, move || d2.complete(()));
        }
        self.pami.progress_wait(&done).await;
    }

    // ------------------------------------------------------------------
    // Atomic memory operations (load-balance counters)
    // ------------------------------------------------------------------

    /// Blocking fetch-and-add on an i64 at the target; returns the previous
    /// value. This is the load-balance-counter primitive (§III-D).
    pub async fn rmw_fetch_add(&self, target: usize, remote_off: usize, val: i64) -> i64 {
        let op = self.begin_op("armci.rmw");
        let t0 = self.a.sim().now();
        // The full blocking call is one span: in D mode its length is
        // dominated by waiting for the *target* to enter a blocking call and
        // service the queue — exactly the pathology of §III-D.
        let tr = self.tracer();
        let track = self.op_track(&tr);
        tr.span_begin(
            track,
            "armci.rmw",
            t0,
            &[
                ("target", TraceValue::U64(target as u64)),
                ("op", TraceValue::Str("fetch_add")),
            ],
        );
        self.ensure_endpoint(target).await;
        self.stats().incr("armci.rmw");
        let done = self
            .pami
            .rmw(target, remote_off, RmwOp::FetchAdd(val))
            .await;
        let old = self.pami.progress_wait(&done).await;
        self.a
            .sim()
            .sleep(self.a.inner.machine.params().o_recv)
            .await;
        let waited = self.a.sim().now() - t0;
        self.stats().record_time("armci.wait.rmw", waited);
        self.stats()
            .record_hist("armci.wait.rmw", waited.as_ps() / 1000);
        tr.span_end(track, "armci.rmw", self.a.sim().now(), &[]);
        self.end_op(op);
        old
    }

    /// Blocking atomic swap; returns the previous value.
    pub async fn rmw_swap(&self, target: usize, remote_off: usize, val: i64) -> i64 {
        let op = self.begin_op("armci.rmw");
        self.ensure_endpoint(target).await;
        self.stats().incr("armci.rmw");
        let done = self.pami.rmw(target, remote_off, RmwOp::Swap(val)).await;
        let old = self.pami.progress_wait(&done).await;
        self.a
            .sim()
            .sleep(self.a.inner.machine.params().o_recv)
            .await;
        self.end_op(op);
        old
    }

    /// Blocking compare-and-swap; returns the previous value.
    pub async fn rmw_cas(&self, target: usize, remote_off: usize, compare: i64, swap: i64) -> i64 {
        let op = self.begin_op("armci.rmw");
        self.ensure_endpoint(target).await;
        self.stats().incr("armci.rmw");
        let done = self
            .pami
            .rmw(target, remote_off, RmwOp::CompareSwap { compare, swap })
            .await;
        let old = self.pami.progress_wait(&done).await;
        self.a
            .sim()
            .sleep(self.a.inner.machine.params().o_recv)
            .await;
        self.end_op(op);
        old
    }

    // ------------------------------------------------------------------
    // Mutexes
    // ------------------------------------------------------------------

    /// Collectively create `n` mutexes hosted on every rank. All ranks must
    /// call it (includes a barrier).
    pub async fn create_mutexes(&self, n: usize) {
        let off = self.pami.alloc(n * 8);
        self.rt().mutex_off.set(off);
        self.a.inner.nmutexes.set(n);
        self.barrier().await;
    }

    /// Acquire mutex `idx` hosted at `owner` (CAS spin with linear backoff).
    pub async fn lock(&self, idx: usize, owner: usize) {
        assert!(idx < self.a.inner.nmutexes.get(), "mutex {idx} not created");
        let off = self.a.rank_rt(owner).mutex_off.get() + idx * 8;
        assert_ne!(off, usize::MAX, "mutexes not created on owner");
        let me = self.r as i64 + 1;
        let mut attempts: u64 = 0;
        loop {
            let old = self.rmw_cas(owner, off, 0, me).await;
            if old == 0 {
                self.stats().incr("armci.lock_acquired");
                return;
            }
            attempts += 1;
            self.stats().incr("armci.lock_retry");
            let backoff = SimDuration::from_us(attempts.min(8));
            self.a.sim().sleep(backoff).await;
        }
    }

    /// Release mutex `idx` hosted at `owner`.
    pub async fn unlock(&self, idx: usize, owner: usize) {
        let off = self.a.rank_rt(owner).mutex_off.get() + idx * 8;
        let old = self.rmw_swap(owner, off, 0).await;
        debug_assert_eq!(old, self.r as i64 + 1, "unlocking a mutex we don't hold");
    }

    // ------------------------------------------------------------------
    // Pairwise notify/wait
    // ------------------------------------------------------------------

    /// The next notification sequence number for `target` (1-based; shared
    /// by the software-put and the AM notify paths).
    fn next_notify_seq(&self, target: usize) -> i64 {
        let mut rare = self.rt().rare();
        let seq = rare.notify_seq.entry(target).or_insert(0);
        *seq += 1;
        *seq
    }

    /// Post a notification to `target`; returns this notification's sequence
    /// number (1-based, monotonically increasing per target).
    pub async fn notify(&self, target: usize) -> i64 {
        let seq = self.next_notify_seq(target);
        // Stage the sequence number in a scratch cell and software-put it
        // into the target's notify slot for this rank.
        let scratch = self.pami.alloc(8);
        self.pami.write_i64(scratch, seq);
        let dst = self.a.rank_rt(target).notify_off.get() + 8 * self.r;
        let h = self.pami.sw_put(target, scratch, dst, 8).await;
        self.rt()
            .consistency
            .borrow_mut()
            .record_write(target, None, h.remote.clone());
        seq
    }

    /// Wait until at least `seq` notifications from `src` have arrived,
    /// driving progress meanwhile.
    pub async fn wait_notify(&self, src: usize, seq: i64) {
        let cell = self.rt().notify_off.get() + 8 * src;
        loop {
            if self.pami.read_i64(cell) >= seq {
                return;
            }
            self.pami.advance(0, usize::MAX).await;
            if self.pami.read_i64(cell) >= seq {
                return;
            }
            self.a.sim().sleep(SimDuration::from_ns(500)).await;
        }
    }

    // ------------------------------------------------------------------
    // Active-message-backed operations (aggregation surface)
    // ------------------------------------------------------------------

    /// Post a notification to `target` as an active message. Shares the
    /// per-target sequence space with [`ArmciRank::notify`], and the
    /// handler writes the same notify cell, so the receiver waits with the
    /// ordinary [`ArmciRank::wait_notify`]. Under AM batching the
    /// notification may sit in an aggregation buffer until the window
    /// expires; use [`ArmciRank::am_fence`] to force it out.
    pub async fn notify_am(&self, target: usize) -> i64 {
        let op = self.begin_op("armci.notify_am");
        self.stats().incr("armci.notify_am");
        let seq = self.next_notify_seq(target);
        // Materialize the target's notify cells before the AM can land.
        self.a.rank_rt(target);
        self.pami
            .send_am(
                target,
                DISPATCH_NOTIFY_AM,
                seq.to_le_bytes().to_vec(),
                Vec::new(),
            )
            .await;
        self.end_op(op);
        seq
    }

    /// `am_broadcast`-style notify: post one AM notification to each target,
    /// returning the per-target sequence numbers. With batching enabled,
    /// notifications to the same destination coalesce with any other queued
    /// AM traffic into one wire message per destination.
    pub async fn notify_broadcast(&self, targets: &[usize]) -> Vec<i64> {
        let mut seqs = Vec::with_capacity(targets.len());
        for &t in targets {
            seqs.push(self.notify_am(t).await);
        }
        seqs
    }

    /// AM-based accumulate fallback: `target[remote_off..] += scale · vals`,
    /// carrying the values inside the message rather than staging them in
    /// registered memory — no region lookup, no RDMA descriptor, ideal for
    /// many tiny updates. Fire-and-forget: remote application is ordered
    /// (pairwise) after prior AMs and can be awaited with
    /// [`ArmciRank::am_fence`].
    pub async fn acc_am(&self, target: usize, remote_off: usize, vals: &[f64], scale: f64) {
        let op = self.begin_op("armci.acc_am");
        self.stats().incr("armci.acc_am");
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&(remote_off as u64).to_le_bytes());
        header.extend_from_slice(&scale.to_le_bytes());
        let mut payload = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.pami
            .send_am(target, DISPATCH_ACC_AM, header, payload)
            .await;
        self.end_op(op);
    }

    /// Fence all AM-layer traffic from this rank to `target`: queue a ping
    /// behind everything already buffered, force-flush the pair's
    /// aggregation buffer, and wait for the target's pong. On return every
    /// AM this rank sent to `target` before the fence has been executed
    /// there (buffer FIFO + ordered wire + in-order service).
    pub async fn am_fence(&self, target: usize) {
        let op = self.begin_op("armci.am_fence");
        self.stats().incr("armci.am_fence");
        let done = Completion::new();
        let reply_id = {
            let _mem = memprof::scope(&HANDLES_TAG);
            let mut rare = self.rt().rare();
            let id = rare.next_ping;
            rare.next_ping += 1;
            rare.pending_pings.insert(id, done.clone());
            id
        };
        self.pami
            .send_am(
                target,
                DISPATCH_AM_PING,
                reply_id.to_le_bytes().to_vec(),
                Vec::new(),
            )
            .await;
        self.a.machine().am_flush_pair(self.r, target);
        self.pami.progress_wait(&done).await;
        self.end_op(op);
    }
}

/// `(offset, len)` of the smallest span covering every chunk of `desc`.
fn span(desc: &Strided) -> (usize, usize) {
    let extra: usize = desc
        .counts
        .iter()
        .zip(&desc.strides)
        .map(|(&c, &s)| c.saturating_sub(1) * s)
        .sum();
    (desc.offset, extra + desc.chunk)
}

/// `(offset, len)` chunks of one side of a transfer.
type Spans = Vec<(usize, usize)>;

/// A chunked transfer as [`ArmciRank::nb_chunked`] sees it: a strided
/// descriptor pair or an explicit I/O vector.
trait ChunkList {
    /// `(local_off, remote_off, len)` of every piece, in posting order.
    fn pieces(&self) -> impl Iterator<Item = (usize, usize, usize)>;
    /// Covering `(offset, len)` span of the local and of the remote side.
    fn spans(&self) -> ((usize, usize), (usize, usize));
    /// The `(local, remote)` chunk lists a packed work item carries.
    fn chunk_lists(&self) -> (Spans, Spans);
}

struct StridedPair<'a> {
    local: &'a Strided,
    remote: &'a Strided,
}

impl ChunkList for StridedPair<'_> {
    fn pieces(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        Strided::pair_chunks(self.local, self.remote).map(|((lo, len), (ro, _))| (lo, ro, len))
    }

    fn spans(&self) -> ((usize, usize), (usize, usize)) {
        (span(self.local), span(self.remote))
    }

    fn chunk_lists(&self) -> (Spans, Spans) {
        (self.local.chunk_list(), self.remote.chunk_list())
    }
}

impl ChunkList for &[(usize, usize, usize)] {
    fn pieces(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        self.iter().copied()
    }

    fn spans(&self) -> ((usize, usize), (usize, usize)) {
        let cover = |side: fn(&(usize, usize, usize)) -> usize| {
            let lo = self.iter().map(side).min().unwrap_or(0);
            let hi = self.iter().map(|p| side(p) + p.2).max().unwrap_or(0);
            (lo, hi - lo)
        };
        (cover(|p| p.0), cover(|p| p.1))
    }

    fn chunk_lists(&self) -> (Spans, Spans) {
        (
            self.iter().map(|&(l, _, len)| (l, len)).collect(),
            self.iter().map(|&(_, r, len)| (r, len)).collect(),
        )
    }
}
