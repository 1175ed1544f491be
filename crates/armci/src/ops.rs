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
//!
//! Every get, put and accumulate — contiguous, strided or vector — runs the
//! one issue path, `ArmciRank::issue`, over its row of the operation table
//! ([`crate::optable`]); the operation itself contributes only its *protocol
//! step*, the PAMI calls that move the data.

use std::cell::{OnceCell, RefMut};
use std::future::Future;
use std::rc::Rc;

use desim::memprof::{self, MemTag};
use desim::{Completion, Lane, OpId, Probe, Probes, SimDuration, SimTime, TraceValue};
use pami_sim::{PamiRank, Pieces, PutHandles, RmwOp};

/// Implicit-handle sets and non-blocking handle state.
static HANDLES_TAG: MemTag = MemTag::new("armci.handles");

use crate::collectives::Part;
use crate::handle::{NbHandle, OpKind};
use crate::optable::{self, OpDesc, Overhead};
use crate::region_cache::{RegionCache, RemoteRegion};
use crate::runtime::{
    Armci, RankRt, DISPATCH_ACC_AM, DISPATCH_AM_PING, DISPATCH_NOTIFY, DISPATCH_REGION_QUERY,
};
use crate::strided::Strided;

// Operations outside the table, recorded like a row's.
static NOTIFY: Probe = optable::op("armci.notify");
static ACC_AM: Probe = optable::op("armci.acc_am");
static AM_FENCE: Probe = optable::op("armci.am_fence");
/// A blocking wait, drawn as a span on the rank's lane.
static WAIT: Probe = Probe::new().trace("armci.wait");
static FENCE: Probe = Probe::new().count("armci.fence");
static FENCE_ALL: Probe = Probe::new().count("armci.fence_all");
static REGION_QUERY: Probe = Probe::new().count("armci.region_query");
static INDUCED_FENCE: Probe = Probe::new().count("armci.induced_fence");
static MALLOC_UNREGISTERED: Probe = Probe::new().count("armci.malloc_unregistered");
static LOCK_ACQUIRED: Probe = Probe::new().count("armci.lock_acquired");
static LOCK_RETRY: Probe = Probe::new().count("armci.lock_retry");

/// What a protocol step hands back: the caller-visible completion and, for
/// a write, the remote completion fences wait on.
type Posted = (Completion<()>, Option<Completion<()>>);

fn written(h: PutHandles) -> Posted {
    (h.local, Some(h.remote))
}

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

    /// This rank's region cache, created on first use.
    fn region_cache(&self) -> RefMut<'_, RegionCache> {
        self.rt()
            .region_cache(self.a.config().region_cache_capacity)
    }

    fn probes(&self) -> &Probes {
        self.a.sim().probes()
    }

    /// Begin an operation of `row` — counted, in flight, and with an
    /// [`OpId`] that marks this rank's subsequent injections for the
    /// lifecycle accumulator. The id is `None` (and nothing is attributed)
    /// while the accumulator is off.
    fn begin_op(&self, row: &'static Probe) -> Option<OpId> {
        let op = self.probes().begin_op(row, self.a.sim().now(), self.r);
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

    /// End an operation of `row` (initiator-side completion).
    fn end_op(&self, row: &'static Probe, op: Option<OpId>) {
        self.probes().end_op(row, op, self.a.sim().now());
        if op.is_some() {
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
            self.a.sim().count(&MALLOC_UNREGISTERED, 1);
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
        let off = self.pami.alloc(len);
        let registered = self.pami.register_region(off, len).await.is_ok();
        if !registered {
            self.a.sim().count(&MALLOC_UNREGISTERED, 1);
        }
        let done = self.join_round(Part::Alloc { off, len });
        self.pami.progress_wait(&done).await.offs.clone()
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
        if let Some(r) = self.region_cache().lookup(target, off, len) {
            return Some(r);
        }
        // Miss: query the owner.
        self.a.sim().count(&REGION_QUERY, 1);
        let (reply_id, reply) = self.pending_reply();
        let mut header = Vec::with_capacity(24);
        header.extend_from_slice(&reply_id.to_le_bytes());
        header.extend_from_slice(&(off as u64).to_le_bytes());
        header.extend_from_slice(&(len as u64).to_le_bytes());
        self.pami
            .send_control_am(target, DISPATCH_REGION_QUERY, header, Vec::new())
            .await;
        let res = self.pami.progress_wait(&reply).await;
        if let Some(region) = res {
            self.region_cache().insert(target, region);
        }
        res
    }

    /// A fresh entry in this rank's reply table, which region queries and
    /// AM fences share: the id the request carries, and the completion its
    /// reply fires (with the region found, for a query).
    fn pending_reply(&self) -> (u64, Completion<Option<RemoteRegion>>) {
        let done = Completion::new();
        let _mem = memprof::scope(&HANDLES_TAG);
        let mut rare = self.rt().rare();
        let id = rare.next_reply;
        rare.next_reply += 1;
        rare.pending_replies.insert(id, done.clone());
        (id, done)
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
    fn consistency_read_gate(
        &self,
        target: usize,
        key: Option<usize>,
    ) -> impl Future<Output = ()> + '_ {
        // Collected at the call (every caller awaits at once), so the future
        // holds the conflicts and not the arguments they were found by.
        let conflicts = self
            .rt()
            .consistency
            .borrow_mut()
            .conflicts_for_read(target, key);
        async move {
            if !conflicts.is_empty() {
                self.a.sim().count(&INDUCED_FENCE, 1);
                for c in conflicts {
                    self.pami.progress_wait(&c).await;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The issue path
    // ------------------------------------------------------------------

    /// Issue one non-blocking transfer of the pieces of `list`, described by
    /// the table row `desc`: the prologue (lifecycle record, counters, trace
    /// span, endpoint, region resolution, consistency gate, local region,
    /// protocol choice), the operation's own protocol `step` — told whether
    /// the direct protocol may be used — and the epilogue (span end, write
    /// record, detach, handle, implicit list).
    /// Generic over the step rather than boxing it: the future of each public
    /// operation holds its own PAMI calls inline and nothing else's. A
    /// transfer of no chunks completes on the spot, with no message.
    // An `async move` block, not an `async fn`: the arguments live in the future
    // once, as captures, instead of twice (DESIGN.md, "Ops as data").
    #[allow(clippy::manual_async_fn)]
    fn issue<'a, S, F>(
        &'a self,
        desc: &'static OpDesc,
        target: usize,
        list: impl ChunkList + 'a,
        step: S,
    ) -> impl Future<Output = NbHandle> + 'a
    where
        S: FnOnce(bool) -> F + 'a,
        F: Future<Output = Posted> + 'a,
    {
        async move {
            let op = self.begin_op(&desc.op);
            let (mut chunks, mut total, mut min_len) = (0u64, 0, usize::MAX);
            for (_, _, len) in list.pieces() {
                chunks += 1;
                total += len;
                min_len = min_len.min(len);
            }
            if chunks == 0 {
                self.detach_op(op);
                let done = Completion::new();
                done.complete(());
                return NbHandle {
                    desc,
                    target,
                    remote: (desc.kind != OpKind::Get).then(|| done.clone()),
                    done,
                    op,
                };
            }
            self.a.sim().count(&desc.bytes, total as u64);
            let packed = desc.packs && min_len < self.a.inner.cfg.pack_threshold;
            let t0 = self.a.sim().now();
            self.probes().begin(
                &desc.op,
                Lane::Rank(self.r),
                t0,
                &[
                    ("target", TraceValue::U64(target as u64)),
                    ("bytes", TraceValue::U64(total as u64)),
                    ("chunks", TraceValue::U64(chunks)),
                ],
            );
            self.ensure_endpoint(target).await;
            let ((loff, llen), (roff, rlen)) = list.spans();
            let (key, direct) = if desc.protocol.is_some() {
                let region = self.resolve_remote(target, roff, rlen).await;
                let key = region.map(|r| r.off);
                if desc.kind == OpKind::Get {
                    self.consistency_read_gate(target, key).await;
                }
                let local_ok = self.ensure_local_region(loff, llen).await;
                (key, local_ok && key.is_some() && !packed)
            } else {
                // Software only: the transfer itself never needs the region,
                // but its key (if cheaply known) lets cs_mr scope conflict
                // tracking.
                let key = self.region_cache().lookup(target, roff, rlen);
                (key.map(|r| r.off), false)
            };
            if let Some(taken) = desc.protocol_taken(direct) {
                self.a.sim().count(taken, 1);
            }
            let (done, remote) = step(direct).await;
            // Looked up again rather than kept across the step's await: the
            // row is static, the future's bytes are per rank.
            let path = desc.protocol_taken(direct).map_or("software", Probe::key);
            self.probes().end(
                &desc.op,
                Lane::Rank(self.r),
                None,
                t0,
                self.a.sim().now(),
                &[("path", TraceValue::Str(path))],
            );
            if let Some(remote) = &remote {
                self.rt()
                    .consistency
                    .borrow_mut()
                    .record_write(target, key, remote.clone());
            }
            self.detach_op(op);
            let h = NbHandle {
                desc,
                target,
                done,
                remote,
                op,
            };
            let _mem = memprof::scope(&HANDLES_TAG);
            let mut implicit = self.rt().implicit.borrow_mut();
            // Only an outstanding request can hold up `wait_all`: drop the
            // completed ones whenever the buffer is full, so a run of
            // blocking operations never grows it.
            if implicit.len() == implicit.capacity() {
                implicit.retain(|c| !c.is_complete());
            }
            implicit.push(h.done.clone());
            h
        }
    }

    // ------------------------------------------------------------------
    // Contiguous get/put/acc: chunk lists of one piece
    // ------------------------------------------------------------------

    /// Non-blocking contiguous get.
    pub fn nbget(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> impl Future<Output = NbHandle> + '_ {
        let piece = (local_off, remote_off, len);
        self.issue(&optable::GET, target, piece, move |rdma| async move {
            let done = if rdma {
                self.pami.rdma_get(target, local_off, remote_off, len).await
            } else {
                self.pami.sw_get(target, local_off, remote_off, len).await
            };
            (done, None)
        })
    }

    /// Blocking contiguous get.
    pub async fn get(&self, target: usize, local_off: usize, remote_off: usize, len: usize) {
        let h = self.nbget(target, local_off, remote_off, len).await;
        self.wait(&h).await;
    }

    /// Non-blocking contiguous put.
    pub fn nbput(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> impl Future<Output = NbHandle> + '_ {
        let piece = (local_off, remote_off, len);
        self.issue(&optable::PUT, target, piece, move |rdma| async move {
            written(if rdma {
                self.pami.rdma_put(target, local_off, remote_off, len).await
            } else {
                self.pami.sw_put(target, local_off, remote_off, len).await
            })
        })
    }

    /// Blocking contiguous put (returns when the local buffer is reusable).
    pub async fn put(&self, target: usize, local_off: usize, remote_off: usize, len: usize) {
        let h = self.nbput(target, local_off, remote_off, len).await;
        self.wait(&h).await;
    }

    /// Non-blocking accumulate of `elems` f64s: `dst += scale·src`. Always
    /// travels the software path (no NIC support for accumulate on BG/Q).
    pub fn nbacc(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        elems: usize,
        scale: f64,
    ) -> impl Future<Output = NbHandle> + '_ {
        let piece = (local_off, remote_off, elems * 8);
        self.issue(&optable::ACC, target, piece, move |_| async move {
            written(
                self.pami
                    .acc_f64(target, local_off, remote_off, elems, scale)
                    .await,
            )
        })
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
    // Strided (uniformly non-contiguous) and vector get/put/acc
    // ------------------------------------------------------------------

    /// The chunked transfer every strided and vector get and put is: the
    /// pieces as one RDMA chunk train (zero-copy, Eq. 9) or, for pieces under
    /// the pack threshold or without regions, the packed typed-datatype path.
    fn nb_chunked<'a>(
        &'a self,
        desc: &'static OpDesc,
        target: usize,
        list: impl ChunkList + 'a,
    ) -> impl Future<Output = NbHandle> + 'a {
        self.issue(desc, target, list, move |zero_copy| async move {
            match (desc.kind == OpKind::Get, zero_copy) {
                (true, true) => {
                    let get = list.train(|pieces| self.pami.rdma_get_list(target, pieces));
                    (get.await, None)
                }
                (true, false) => {
                    let (local, remote) = list.chunk_lists();
                    (self.pami.packed_get(target, remote, local).await, None)
                }
                (false, true) => {
                    let put = list.train(|pieces| self.pami.rdma_put_list(target, pieces));
                    written(put.await)
                }
                (false, false) => {
                    let (local, remote) = list.chunk_lists();
                    written(self.pami.packed_put(target, local, remote).await)
                }
            }
        })
    }

    /// Non-blocking strided get; `local` and `remote` must be
    /// shape-compatible.
    pub fn nbget_strided<'a>(
        &'a self,
        target: usize,
        local: &'a Strided,
        remote: &'a Strided,
    ) -> impl Future<Output = NbHandle> + 'a {
        let list = StridedPair::new(local, remote);
        self.nb_chunked(&optable::GET_STRIDED, target, list)
    }

    /// Blocking strided get.
    pub async fn get_strided(&self, target: usize, local: &Strided, remote: &Strided) {
        let h = self.nbget_strided(target, local, remote).await;
        self.wait(&h).await;
    }

    /// Non-blocking strided put.
    pub fn nbput_strided<'a>(
        &'a self,
        target: usize,
        local: &'a Strided,
        remote: &'a Strided,
    ) -> impl Future<Output = NbHandle> + 'a {
        let list = StridedPair::new(local, remote);
        self.nb_chunked(&optable::PUT_STRIDED, target, list)
    }

    /// Blocking strided put.
    pub async fn put_strided(&self, target: usize, local: &Strided, remote: &Strided) {
        let h = self.nbput_strided(target, local, remote).await;
        self.wait(&h).await;
    }

    /// Non-blocking strided accumulate (`dst += scale·src` elementwise over
    /// f64 chunks).
    pub fn nbacc_strided<'a>(
        &'a self,
        target: usize,
        local: &'a Strided,
        remote: &'a Strided,
        scale: f64,
    ) -> impl Future<Output = NbHandle> + 'a {
        let list = StridedPair::new(local, remote);
        self.issue(&optable::ACC_STRIDED, target, list, move |_| async move {
            let (local, remote) = list.chunk_lists();
            written(
                self.pami
                    .acc_strided_f64(target, local, remote, scale)
                    .await,
            )
        })
    }

    /// Blocking strided accumulate.
    pub async fn acc_strided(&self, target: usize, local: &Strided, remote: &Strided, scale: f64) {
        let h = self.nbacc_strided(target, local, remote, scale).await;
        self.wait(&h).await;
    }

    /// This rank's scratch word for single-value transfers: allocated on
    /// first use and registered (δ, once) by the first transfer through it.
    fn scratch_word(&self) -> usize {
        let mut rare = self.rt().rare();
        *rare.scratch.get_or_insert_with(|| self.pami.alloc(8))
    }

    /// Blocking single-value put (ARMCI_PutValueLong): stages the value in
    /// the rank's scratch word and writes it to the target. Used for flags
    /// and small control words.
    pub async fn put_value_i64(&self, target: usize, remote_off: usize, v: i64) {
        let scratch = self.scratch_word();
        self.pami.write_i64(scratch, v);
        self.put(target, scratch, remote_off, 8).await;
    }

    /// Blocking single-value get (ARMCI_GetValueLong), through the same
    /// scratch word: one single-value transfer per rank at a time.
    pub async fn get_value_i64(&self, target: usize, remote_off: usize) -> i64 {
        let scratch = self.scratch_word();
        self.get(target, scratch, remote_off, 8).await;
        self.pami.read_i64(scratch)
    }

    // ------------------------------------------------------------------
    // Generalized I/O vector (ARMCI_GetV/PutV)
    // ------------------------------------------------------------------

    /// Non-blocking vector get: explicit `(local_off, remote_off, len)`
    /// triples (the general I/O-vector interface; strided descriptors are
    /// the compact special case, §III-C2). An empty vector completes on the
    /// spot.
    pub fn nbgetv<'a>(
        &'a self,
        target: usize,
        parts: &'a [(usize, usize, usize)],
    ) -> impl Future<Output = NbHandle> + 'a {
        self.nb_chunked(&optable::GETV, target, parts)
    }

    /// Blocking vector get.
    pub async fn getv(&self, target: usize, parts: &[(usize, usize, usize)]) {
        let h = self.nbgetv(target, parts).await;
        self.wait(&h).await;
    }

    /// Non-blocking vector put.
    pub fn nbputv<'a>(
        &'a self,
        target: usize,
        parts: &'a [(usize, usize, usize)],
    ) -> impl Future<Output = NbHandle> + 'a {
        self.nb_chunked(&optable::PUTV, target, parts)
    }

    /// Blocking vector put.
    pub async fn putv(&self, target: usize, parts: &[(usize, usize, usize)]) {
        let h = self.nbputv(target, parts).await;
        self.wait(&h).await;
    }

    // ------------------------------------------------------------------
    // Completion / synchronization
    // ------------------------------------------------------------------

    /// The tail of every blocking wait, begun at `t0`, once the operation's
    /// completion has fired: charge the row's completion overhead and record
    /// the wait on the row's `armci.wait.*` probe (duration, and the same
    /// key in the histogram space at ns granularity).
    async fn reap(&self, desc: &'static OpDesc, t0: SimTime) {
        let p = self.a.inner.machine.params();
        match desc.completion {
            Overhead::Recv => self.a.sim().sleep(p.o_recv).await,
            Overhead::PutLocal => self.a.sim().sleep(p.o_put_local).await,
            Overhead::None => {}
        }
        self.probes()
            .span(&desc.wait, None, t0, self.a.sim().now(), 0);
    }

    /// Wait for one explicit non-blocking handle, driving progress meanwhile.
    /// Records the wait time under `armci.wait.{get,put,acc}` in the stats
    /// registry.
    pub async fn wait(&self, h: &NbHandle) {
        let t0 = self.a.sim().now();
        let target = TraceValue::U64(h.target as u64);
        let lane = Lane::Rank(self.r);
        self.probes().begin(&WAIT, lane, t0, &[("target", target)]);
        // Re-attach attribution: progress driven while blocked here (lock
        // waits, messages injected on the op's behalf) belongs to this op.
        if h.op.is_some() {
            self.pami.set_current_op(h.op);
        }
        self.pami.progress_wait(&h.done).await;
        self.reap(h.desc, t0).await;
        let lane = Lane::Rank(self.r);
        self.probes()
            .end(&WAIT, lane, None, t0, self.a.sim().now(), &[]);
        self.end_op(&h.desc.op, h.op);
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
        self.a.sim().count(&FENCE, 1);
        let writes = self.rt().consistency.borrow_mut().drain_target(target);
        for c in writes {
            self.pami.progress_wait(&c).await;
        }
    }

    /// Fence all targets.
    pub async fn fence_all(&self) {
        self.a.sim().count(&FENCE_ALL, 1);
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
        let done = self.join_round(Part::Barrier);
        self.pami.progress_wait(&done).await;
    }

    // ------------------------------------------------------------------
    // Atomic memory operations (load-balance counters)
    // ------------------------------------------------------------------

    /// The one blocking read-modify-write: the full call is one span, whose
    /// length in D mode is dominated by waiting for the *target* to enter a
    /// blocking call and service the queue — the pathology of §III-D.
    // An `async move` block, not an `async fn`: the arguments live in the future
    // once, as captures, instead of twice (DESIGN.md, "Ops as data").
    #[allow(clippy::manual_async_fn)]
    fn rmw(&self, target: usize, remote_off: usize, rmw: RmwOp) -> impl Future<Output = i64> + '_ {
        const DESC: &OpDesc = &optable::RMW;
        async move {
            let op = self.begin_op(&DESC.op);
            let t0 = self.a.sim().now();
            let form = match rmw {
                RmwOp::FetchAdd(_) => "fetch_add",
                RmwOp::Swap(_) => "swap",
                RmwOp::CompareSwap { .. } => "cas",
            };
            self.probes().begin(
                &DESC.op,
                Lane::Rank(self.r),
                t0,
                &[
                    ("target", TraceValue::U64(target as u64)),
                    ("op", TraceValue::Str(form)),
                ],
            );
            self.ensure_endpoint(target).await;
            let done = self.pami.rmw(target, remote_off, rmw).await;
            let old = self.pami.progress_wait(&done).await;
            self.reap(DESC, t0).await;
            let lane = Lane::Rank(self.r);
            self.probes()
                .end(&DESC.op, lane, None, t0, self.a.sim().now(), &[]);
            self.end_op(&DESC.op, op);
            old
        }
    }

    /// Blocking fetch-and-add on an i64 at the target; returns the previous
    /// value. This is the load-balance-counter primitive (§III-D).
    pub fn rmw_fetch_add(
        &self,
        target: usize,
        remote_off: usize,
        val: i64,
    ) -> impl Future<Output = i64> + '_ {
        self.rmw(target, remote_off, RmwOp::FetchAdd(val))
    }

    /// Blocking atomic swap; returns the previous value.
    pub fn rmw_swap(
        &self,
        target: usize,
        remote_off: usize,
        val: i64,
    ) -> impl Future<Output = i64> + '_ {
        self.rmw(target, remote_off, RmwOp::Swap(val))
    }

    /// Blocking compare-and-swap; returns the previous value.
    pub fn rmw_cas(
        &self,
        target: usize,
        remote_off: usize,
        compare: i64,
        swap: i64,
    ) -> impl Future<Output = i64> + '_ {
        self.rmw(target, remote_off, RmwOp::CompareSwap { compare, swap })
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
                self.a.sim().count(&LOCK_ACQUIRED, 1);
                return;
            }
            attempts += 1;
            self.a.sim().count(&LOCK_RETRY, 1);
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

    /// Post a notification to `target`; returns this notification's sequence
    /// number (1-based, monotonically increasing per target). The
    /// notification is an active message whose handler raises this rank's
    /// cell at the target, so it is ordered after this rank's earlier puts
    /// to the same target (`Ordered` class, pair FIFO). Under AM batching it
    /// may sit in an aggregation buffer until the window expires; an AM has
    /// only local completion, so `fence(target)` does not wait for it —
    /// [`ArmciRank::am_fence`] is the fence that forces it out and waits
    /// until it has been applied.
    pub async fn notify(&self, target: usize) -> i64 {
        let op = self.begin_op(&NOTIFY);
        let seq = {
            let mut rare = self.rt().rare();
            let seq = rare.notify_seq.entry(target).or_insert(0);
            *seq += 1;
            *seq
        };
        // Materialize the target's notify cells before the AM can land.
        self.a.rank_rt(target);
        let header = seq.to_le_bytes().to_vec();
        self.pami
            .send_am(target, DISPATCH_NOTIFY, header, Vec::new())
            .await;
        self.end_op(&NOTIFY, op);
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

    /// `am_broadcast`-style notify: post one notification to each target,
    /// returning the per-target sequence numbers. With batching enabled,
    /// notifications to the same destination coalesce with any other queued
    /// AM traffic into one wire message per destination.
    pub async fn notify_broadcast(&self, targets: &[usize]) -> Vec<i64> {
        let mut seqs = Vec::with_capacity(targets.len());
        for &t in targets {
            seqs.push(self.notify(t).await);
        }
        seqs
    }

    // ------------------------------------------------------------------
    // Active-message-backed operations (aggregation surface)
    // ------------------------------------------------------------------

    /// AM-based accumulate fallback: `target[remote_off..] += scale · vals`,
    /// carrying the values inside the message rather than staging them in
    /// registered memory — no region lookup, no RDMA descriptor, ideal for
    /// many tiny updates. Fire-and-forget: remote application is ordered
    /// (pairwise) after prior AMs and can be awaited with
    /// [`ArmciRank::am_fence`].
    pub async fn acc_am(&self, target: usize, remote_off: usize, vals: &[f64], scale: f64) {
        let op = self.begin_op(&ACC_AM);
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
        self.end_op(&ACC_AM, op);
    }

    /// Fence all AM-layer traffic from this rank to `target`: queue a ping
    /// behind everything already buffered, force-flush the pair's
    /// aggregation buffer, and wait for the target's pong. On return every
    /// AM this rank sent to `target` before the fence has been executed
    /// there (buffer FIFO + ordered wire + in-order service).
    pub async fn am_fence(&self, target: usize) {
        let op = self.begin_op(&AM_FENCE);
        let (reply_id, done) = self.pending_reply();
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
        self.end_op(&AM_FENCE, op);
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

/// A transfer as the issue path and its protocol steps see it: one
/// contiguous piece, a strided descriptor pair or an explicit I/O vector.
trait ChunkList: Copy {
    /// `(local_off, remote_off, len)` of every piece, in posting order.
    fn pieces(&self) -> impl Iterator<Item = (usize, usize, usize)>;
    /// `f` of the pieces as a chunk train's descriptor.
    fn train<R>(&self, f: impl FnOnce(Pieces<'_>) -> R) -> R;
    /// Covering `(offset, len)` span of the local and of the remote side.
    fn spans(&self) -> ((usize, usize), (usize, usize));
    /// The `(local, remote)` chunk lists a packed work item carries.
    fn chunk_lists(&self) -> (Spans, Spans);
}

/// A contiguous transfer is the chunk list of one piece.
impl ChunkList for (usize, usize, usize) {
    fn pieces(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        std::iter::once(*self)
    }

    fn train<R>(&self, f: impl FnOnce(Pieces<'_>) -> R) -> R {
        f(Pieces::one(self.0, self.1, self.2))
    }

    fn spans(&self) -> ((usize, usize), (usize, usize)) {
        ((self.0, self.2), (self.1, self.2))
    }

    fn chunk_lists(&self) -> (Spans, Spans) {
        (vec![(self.0, self.2)], vec![(self.1, self.2)])
    }
}

#[derive(Clone, Copy)]
struct StridedPair<'a> {
    local: &'a Strided,
    remote: &'a Strided,
}

impl<'a> StridedPair<'a> {
    fn new(local: &'a Strided, remote: &'a Strided) -> StridedPair<'a> {
        assert!(local.compatible(remote), "incompatible strided descriptors");
        StridedPair { local, remote }
    }
}

impl ChunkList for StridedPair<'_> {
    fn pieces(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        Strided::pair_chunks(self.local, self.remote).map(|((lo, len), (ro, _))| (lo, ro, len))
    }

    /// Pieces of one length when the smaller coalesced chunk divides the
    /// larger (a dense side split into the other side's rows, say); a list
    /// otherwise, or past [`pami_sim::MAX_LEVELS`].
    fn train<R>(&self, f: impl FnOnce(Pieces<'_>) -> R) -> R {
        let len = self
            .local
            .dense_prefix()
            .1
            .min(self.remote.dense_prefix().1);
        match (self.local.train_side(len), self.remote.train_side(len)) {
            (Some(local), Some(remote)) => f(Pieces::Strided { len, local, remote }),
            _ => f(Pieces::List(&self.pieces().collect::<Vec<_>>())),
        }
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

    fn train<R>(&self, f: impl FnOnce(Pieces<'_>) -> R) -> R {
        f(Pieces::List(self))
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
