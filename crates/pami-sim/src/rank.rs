//! Per-rank PAMI operations: memory, regions, endpoints, RMA, AMOs, AM and
//! the progress engine.

use std::cell::OnceCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use desim::futures::{race, Either};
use desim::memprof::{self, MemTag};
use desim::sync::{MutexCell, NotifyCell};
use desim::SegCategory::{Contention, Queueing, Starvation};
use desim::{Completion, Lane, OpId, Probe, SimDuration, SimTime};

/// Scheduled-but-unsent retransmit state (boxed retry continuations).
static RETRY_TAG: MemTag = MemTag::new("pami.retry");
use torus5d::MsgClass;

use crate::context::{AmEntry, AmEnv, AmMsg, Effect, Place, RmwOp, WorkItem};
use crate::machine::{CtxRef, Machine, RankState, Region, RegionError, RegionId};
use crate::retry::{self, Attempt, Leg};
use crate::service::{copy, Service};
use crate::train::{self, Pieces};

// The progress engine (§III-D): a context-lock wait is the ρ = 1
// contention, charged to the operation its driver works on.
static LOCK_WAIT: Probe = Probe::new()
    .time("pami.ctx.lock_wait")
    .count("pami.ctx.lock_contended")
    .series("pami.ctx.lock_wait_ps")
    .segment(Contention, "pami.lock_wait");
/// A held context lock, carrying the batch of items serviced.
static LOCK_HOLD: Probe = Probe::new()
    .time("pami.ctx.lock_hold")
    .hist("pami.advance_batch")
    .series("pami.ctx.lock_hold_ps");
/// Target context depth, sampled after each push and each batch.
static QUEUE_DEPTH: Probe = Probe::new().gauge("pami.queue_depth");
/// A queued item's wait before anyone drove progress.
static STARVED: Probe = Probe::new().segment(Starvation, "pami.starved");
/// A queued item's wait behind the batch ahead of it.
static QUEUED: Probe = Probe::new().segment(Queueing, "pami.queue");
static AT_SERVICED: Probe = Probe::new().count("pami.at_serviced");
static AM_UNHANDLED: Probe = Probe::new().count("pami.am_unhandled");
static CONTEXTS_CREATED: Probe = Probe::new().count("pami.contexts_created");
static ENDPOINTS_CREATED: Probe = Probe::new().count("pami.endpoints_created");
static REGIONS_CREATED: Probe = Probe::new().count("pami.regions_created");
static REGION_REGISTER_FAILED: Probe = Probe::new().count("pami.region_register_failed");

/// Completions returned by a put-style operation.
#[derive(Clone)]
pub struct PutHandles {
    /// Source buffer is reusable (MPI-style buffer-reuse semantics).
    pub local: Completion<()>,
    /// Data is globally visible at the target (what `fence` waits on).
    pub remote: Completion<()>,
}

/// Handle to a running asynchronous progress thread.
pub struct AsyncThread {
    stop: Completion<()>,
}

impl AsyncThread {
    /// Ask the thread to exit at its next wake-up.
    pub fn stop(&self) {
        if !self.stop.is_complete() {
            self.stop.complete(());
        }
    }
}

/// Deliver one network leg from a scheduled (non-async) closure — response
/// legs of get/rmw-style operations — retrying per the machine's
/// [`crate::RetryPolicy`] when the fault layer drops it, then invoke
/// `then(arrival, delivered)` as an event at `arrival + extra`. Without an
/// active fault plan this is exactly one `deliver_op` plus one `schedule`
/// holding `then` inline, so fault-free event streams are unchanged.
pub(crate) fn deliver_then(
    m: &Machine,
    inject: SimTime,
    leg: Leg,
    extra: SimDuration,
    then: impl FnOnce(SimTime, bool) + 'static,
) {
    if m.faults_active() {
        return deliver_faulty(m, inject, leg, extra, 0, Box::new(then));
    }
    let arrival = deliver(m, inject, &leg) + extra;
    let fifo = lane(leg.src, leg.dst, leg.class);
    m.sim()
        .schedule_fifo(arrival, fifo, move || then(arrival, true));
}

/// The kernel lane of a `class` message's arrival from `src` at `dst`. The
/// network keeps a pair's `Ordered` and `Control` messages in order, ties
/// included, and the lane keeps their arrival events in that order under
/// any schedule seed; an AMO (`Unordered`) may overtake.
pub(crate) fn lane(src: usize, dst: usize, class: MsgClass) -> Option<u64> {
    (class != MsgClass::Unordered).then_some((src as u64) << 32 | dst as u64)
}

/// Deliver `leg` at `inject` on a network without an active fault plan.
/// Every message leaves at the kernel clock or later, so the clock is the
/// network's delivery floor (DESIGN.md §19).
pub(crate) fn deliver(m: &Machine, inject: SimTime, leg: &Leg) -> SimTime {
    let mut net = m.inner.net.borrow_mut();
    net.raise_floor(m.sim().now());
    net.deliver_op(inject, leg.src, leg.dst, leg.payload, leg.class, leg.op)
}

/// [`deliver_then`] under an active fault plan: drives [`retry::attempt`]
/// through scheduled closures rather than awaiting, so the target's progress
/// engine keeps running while a reply waits out its backoff.
pub(crate) fn deliver_faulty(
    m: &Machine,
    inject: SimTime,
    leg: Leg,
    extra: SimDuration,
    attempt: u32,
    then: Box<dyn FnOnce(SimTime, bool)>,
) {
    let sim = m.sim();
    match retry::attempt(m, inject, &leg, attempt) {
        Attempt::Arrived(t) => {
            let arrival = t + extra;
            let fifo = lane(leg.src, leg.dst, leg.class);
            sim.schedule_fifo(arrival, fifo, move || then(arrival, true));
        }
        Attempt::GaveUp(at) => sim.schedule(at, move || then(at, false)),
        Attempt::Backoff(resume) => {
            let m2 = m.clone();
            let _mem = memprof::scope(&RETRY_TAG);
            sim.schedule(resume, move || {
                deliver_faulty(&m2, resume, leg, extra, attempt + 1, then);
            });
        }
    }
}

/// The landing half of a software-path message: enqueue `item` on the
/// target's designated context at `arrival`. Must run *as* the landing event
/// (callers `schedule` it, or invoke it directly from a
/// `deliver_then` continuation, which already is one). Spawns the target's
/// asynchronous progress thread lazily, before the push, so the freshly
/// enqueued thread polls ahead of anyone the push's notify wakes — the same
/// order an eagerly spawned thread (parked on `arrived` since t=0) would
/// wake in.
pub(crate) fn enqueue_at_target(
    m: &Machine,
    target: usize,
    arrival: SimTime,
    item: WorkItem,
    op: Option<OpId>,
) {
    let st = m.rank_state(target);
    let ctx = st.work_ctx();
    if st.async_progress.get() && ctx.at.borrow().is_none() {
        let at = m.rank(target).start_progress_thread();
        *ctx.at.borrow_mut() = Some(at);
    }
    ctx.push(item, op, arrival);
    // Sample the post-push depth: the per-window gauge max is the deepest
    // any sampled context queue got inside that window.
    m.sim()
        .probes()
        .gauge(&QUEUE_DEPTH, arrival, ctx.depth() as i64);
}

/// Handle to one simulated process ("task" in PAMI terms).
///
/// All communication primitives are modelled after PAMI's RMA/AM interface:
/// `rdma_*` operations complete without target-CPU involvement; `sw_*`,
/// [`PamiRank::rmw`], [`PamiRank::acc_f64`] and [`PamiRank::send_am`] enqueue
/// work that the target only executes when its progress engine runs
/// ([`PamiRank::advance`], driven by [`PamiRank::progress_wait`] or an
/// asynchronous progress thread).
#[derive(Clone)]
pub struct PamiRank {
    pub(crate) m: Machine,
    pub(crate) r: usize,
    /// The rank's state block, remembered after the first touch so that
    /// per-operation accesses do not re-hash the machine's rank table.
    pub(crate) st: OnceCell<Rc<RankState>>,
}

impl PamiRank {
    /// This rank's id.
    pub fn id(&self) -> usize {
        self.r
    }

    /// The machine this rank belongs to.
    pub fn machine(&self) -> &Machine {
        &self.m
    }

    pub(crate) fn state(&self) -> &Rc<RankState> {
        self.st.get_or_init(|| self.m.rank_state(self.r))
    }

    /// The work context, made on first use.
    fn ctx(&self) -> CtxRef {
        self.state().work_ctx();
        CtxRef(Rc::clone(self.state()))
    }

    /// Arm asynchronous progress for this rank: the progress thread that
    /// services the work context is spawned lazily, when the first work
    /// item actually targets this rank — an idle rank armed for async
    /// progress carries no task. Stopped collectively via
    /// [`Machine::stop_progress_threads`].
    pub fn enable_async_progress(&self) {
        self.state().async_progress.set(true);
    }

    /// The operation id messages injected by this rank are currently
    /// attributed to (set by the ARMCI layer around each operation; `None`
    /// when the lifecycle accumulator is off or no operation is in flight).
    pub fn current_op(&self) -> Option<OpId> {
        self.state().cur_op.get()
    }

    /// Set (or clear) the operation id subsequent injections by this rank
    /// are attributed to.
    pub fn set_current_op(&self, op: Option<OpId>) {
        self.state().cur_op.set(op);
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocate `len` bytes in this rank's memory arena (8-byte aligned).
    pub fn alloc(&self, len: usize) -> usize {
        let st = self.state();
        let off = (st.next_alloc.get() + 7) & !7;
        st.next_alloc.set(off + len);
        off
    }

    /// Write raw bytes into this rank's memory.
    pub fn write_bytes(&self, off: usize, data: &[u8]) {
        self.state().write(off, data);
    }

    /// Read raw bytes from this rank's memory.
    pub fn read_bytes(&self, off: usize, len: usize) -> Vec<u8> {
        self.state().read(off, len)
    }

    /// Read an `i64` (little-endian) from this rank's memory.
    pub fn read_i64(&self, off: usize) -> i64 {
        self.state().read_i64(off)
    }

    /// Write an `i64` (little-endian) into this rank's memory.
    pub fn write_i64(&self, off: usize, v: i64) {
        self.state().write_i64(off, v);
    }

    /// Read `n` f64s from this rank's memory.
    pub fn read_f64s(&self, off: usize, n: usize) -> Vec<f64> {
        self.state().with(off, n * 8, |raw| {
            raw.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect()
        })
    }

    /// Write f64s into this rank's memory.
    pub fn write_f64s(&self, off: usize, xs: &[f64]) {
        self.state().with_mut(off, xs.len() * 8, |mem| {
            for (c, x) in mem.chunks_exact_mut(8).zip(xs) {
                c.copy_from_slice(&x.to_le_bytes());
            }
        });
    }

    // ------------------------------------------------------------------
    // PAMI objects: contexts, endpoints, memory regions
    // ------------------------------------------------------------------

    /// Pay the context-creation cost for this rank's ρ contexts and account
    /// their space (ε each). Called once at runtime initialization.
    pub async fn create_contexts(&self) {
        let p = self.m.params();
        let n = self.m.config().contexts_per_rank as u64;
        self.m.sim().sleep(p.context_create * n).await;
        let created = &self.state().contexts_created;
        created.set(created.get() + n as u32);
        self.m.sim().count(&CONTEXTS_CREATED, n);
    }

    /// Ensure an endpoint addressing `(target, ctx)` exists; creating one
    /// costs β and α bytes. Returns `true` when it was created by this call.
    ///
    /// # Panics
    /// If `target` is not a rank of the machine or `ctx` is not one of its
    /// ρ contexts.
    pub async fn ensure_endpoint(&self, target: usize, ctx: usize) -> bool {
        assert!(target < self.m.nprocs(), "rank {target} out of range");
        let rho = self.m.config().contexts_per_rank;
        assert!(ctx < rho, "context {ctx} out of range");
        let key = (target as u32, ctx as u8);
        if self.state().endpoints.borrow().contains(&key) {
            return false;
        }
        self.m.sim().sleep(self.m.params().endpoint_create).await;
        self.state().endpoints.borrow_mut().insert(key);
        self.m.sim().count(&ENDPOINTS_CREATED, 1);
        true
    }

    /// Register `[off, off+len)` as an RDMA memory region. Costs δ and γ
    /// bytes of metadata; fails once the per-rank limit is reached.
    pub async fn register_region(&self, off: usize, len: usize) -> Result<RegionId, RegionError> {
        self.region_slot_free()?;
        self.m.sim().sleep(self.m.params().memregion_create).await;
        Ok(self.add_region(off, len))
    }

    /// Register a region without charging δ — for setup-phase allocations
    /// (e.g. collective array creation) excluded from measurement windows.
    /// Still respects the region limit and accounts γ bytes.
    pub fn register_region_untimed(&self, off: usize, len: usize) -> Result<RegionId, RegionError> {
        self.region_slot_free()?;
        Ok(self.add_region(off, len))
    }

    /// Fails (and counts the failure) when the per-rank region limit is hit.
    fn region_slot_free(&self) -> Result<(), RegionError> {
        match self.m.config().memregion_limit {
            Some(limit) if self.state().active_regions() >= limit => {
                self.m.sim().count(&REGION_REGISTER_FAILED, 1);
                Err(RegionError::LimitReached)
            }
            _ => Ok(()),
        }
    }

    fn add_region(&self, off: usize, len: usize) -> RegionId {
        let st = self.state();
        let mut regions = st.regions.borrow_mut();
        regions.push(Region {
            off,
            len,
            active: true,
        });
        self.m.sim().count(&REGIONS_CREATED, 1);
        RegionId(regions.len() - 1)
    }

    /// Deregister a region, freeing a limit slot and its metadata bytes.
    pub fn deregister_region(&self, id: RegionId) {
        self.state().regions.borrow_mut()[id.0].active = false;
    }

    /// Find an active region of this rank fully covering `[off, off+len)`.
    pub fn find_region(&self, off: usize, len: usize) -> Option<RegionId> {
        self.state()
            .regions
            .borrow()
            .iter()
            .enumerate()
            .find(|(_, reg)| reg.active && reg.off <= off && off + len <= reg.off + reg.len)
            .map(|(i, _)| RegionId(i))
    }

    /// `(offset, len)` bounds of a registered region.
    pub fn region_bounds(&self, id: RegionId) -> (usize, usize) {
        let st = self.state();
        let regions = st.regions.borrow();
        let r = &regions[id.0];
        (r.off, r.len)
    }

    // ------------------------------------------------------------------
    // Reliable delivery (fault-plan aware)
    // ------------------------------------------------------------------

    /// The retry loop of a software-path request leg under a fault plan.
    /// Boxed by its one caller: only a fault plan runs it, so the futures of
    /// every issue path carry a pointer instead of its state.
    async fn deliver_retrying(&self, mut inject: SimTime, leg: Leg) -> (SimTime, bool) {
        let mut attempt = 0;
        loop {
            match retry::attempt(&self.m, inject, &leg, attempt) {
                Attempt::Arrived(arrival) => return (arrival, true),
                Attempt::GaveUp(at) => return (at, false),
                Attempt::Backoff(resume) => {
                    self.m.sim().sleep_until(resume).await;
                    (inject, attempt) = (resume, attempt + 1);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // RDMA (zero-copy, no target CPU)
    // ------------------------------------------------------------------

    /// RDMA put: `len` bytes from this rank's `local_off` to `target`'s
    /// `remote_off` — a chunk train of one chunk.
    pub async fn rdma_put(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> PutHandles {
        self.rdma_put_list(target, Pieces::one(local_off, remote_off, len))
            .await
    }

    /// RDMA put of `pieces` (paper Eq. 9): one NIC post per piece, `o_send`
    /// apart. Each piece's data snapshot is taken at its post time
    /// (buffer-reuse semantics). The remote completion fires when the last
    /// payload has landed, the local completion after the last hardware ack
    /// returns. The train is built by this call; awaiting it posts.
    pub fn rdma_put_list(
        &self,
        target: usize,
        pieces: Pieces<'_>,
    ) -> impl Future<Output = PutHandles> {
        train::put(self, target, pieces)
    }

    /// RDMA get: `len` bytes from `target`'s `remote_off` into this rank's
    /// `local_off` — a chunk train of one chunk.
    pub async fn rdma_get(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> Completion<()> {
        self.rdma_get_list(target, Pieces::one(local_off, remote_off, len))
            .await
    }

    /// RDMA get of `pieces`: one request per piece, `o_send` apart. A
    /// piece's bytes are read when its request reaches the target NIC — no
    /// target CPU involvement (paper Eq. 7) — and written into this rank's
    /// buffer at that instant, or when its reply lands under a fault plan.
    /// The buffer is defined once the completion fires, when the last reply
    /// has landed (DESIGN.md §18). The train is built by this call; awaiting
    /// it posts.
    pub fn rdma_get_list(
        &self,
        target: usize,
        pieces: Pieces<'_>,
    ) -> impl Future<Output = Completion<()>> {
        train::get(self, target, pieces)
    }

    // ------------------------------------------------------------------
    // Software path (target CPU required)
    // ------------------------------------------------------------------

    /// Queue `item` on `target`'s context when its request lands.
    fn push_to_target(&self, target: usize, arrival: SimTime, item: WorkItem, op: Option<OpId>) {
        let m = self.m.clone();
        let fifo = lane(self.r, target, item.kind.row().class);
        self.m.sim().schedule_fifo(arrival, fifo, move || {
            enqueue_at_target(&m, target, arrival, item, op);
        });
    }

    /// The head every software-path initiator shares, priced by `kind`'s
    /// row: count, pay `o_send` (and a packing kind's pack of `payload`
    /// bytes), take `stage`'s snapshot, and send `payload` bytes and
    /// `chunks` descriptors — one `deliver_op`, or the retry loop under a
    /// fault plan. Returns the snapshot, the leg's arrival and whether it was
    /// delivered (`false` only after a best-effort give-up), and the op.
    // An `async move` block, not an `async fn`: the arguments live in the future
    // once, as captures, instead of twice (DESIGN.md, "Ops as data").
    #[allow(clippy::manual_async_fn)]
    fn send_request<'a, S>(
        &'a self,
        kind: Service,
        target: usize,
        (payload, chunks): (usize, usize),
        stage: impl FnOnce() -> S + 'a,
    ) -> impl Future<Output = (S, (SimTime, bool), Option<OpId>)> + 'a {
        async move {
            let sim = self.m.sim();
            let op = self.current_op();
            sim.count(&kind.row().counter, 1);
            sim.sleep(self.m.params().o_send).await;
            if kind.row().pack {
                sim.sleep(copy(self.m.params(), payload)).await;
            }
            let staged = stage();
            let row = kind.row();
            let leg = Leg {
                src: self.r,
                dst: target,
                payload: (row.wire)(self.m.params(), payload, chunks),
                class: row.class,
                op,
            };
            let sent = if self.m.faults_active() {
                Box::pin(self.deliver_retrying(sim.now(), leg)).await
            } else {
                (deliver(&self.m, sim.now(), &leg), true)
            };
            (staged, sent, op)
        }
    }

    /// A software-path request whose target completes it: the head, then
    /// `effect(snapshot, completion)` as `kind` work at the target, and the
    /// caller's view of that completion, `finish(completion)`. A request
    /// that was not delivered (best-effort give-up) never reaches the
    /// target; its completion fires with the default value — no data, a
    /// fetch of 0 — at the give-up time.
    #[allow(clippy::manual_async_fn)]
    fn request<'a, S, T: Clone + Default + 'static, R: 'a>(
        &'a self,
        kind: Service,
        target: usize,
        shape: (usize, usize),
        stage: impl FnOnce() -> S + 'a,
        effect: impl FnOnce(S, Completion<T>) -> Effect + 'a,
        finish: impl FnOnce(Completion<T>) -> R + 'a,
    ) -> impl Future<Output = R> + 'a {
        async move {
            let (staged, (arrival, delivered), op) =
                self.send_request(kind, target, shape, stage).await;
            let done = Completion::new();
            if delivered {
                let item = WorkItem::new(kind, self.r, effect(staged, done.clone()));
                self.push_to_target(target, arrival, item, op);
            } else {
                let done = done.clone();
                self.m
                    .sim()
                    .schedule(arrival, move || done.complete(T::default()));
            }
            finish(done)
        }
    }

    /// Concatenate this rank's memory over `place` (the CPU pack step).
    fn gather(&self, place: &Place) -> Vec<u8> {
        let mut data = Vec::with_capacity(place.len());
        for &(off, len) in place.pieces() {
            self.state().with(off, len, |b| data.extend_from_slice(b));
        }
        data
    }

    /// A storing kind: pack `local`, send it, and have the target store it
    /// into `to` (or add `scale·` it). The payload was buffered at send, so
    /// the local completion has already fired.
    fn store(
        &self,
        kind: Service,
        target: usize,
        local: Place,
        to: Place,
        scale: f64,
    ) -> impl Future<Output = PutHandles> + '_ {
        let shape = (local.len(), to.pieces().len());
        let stage = move || self.gather(&local).into_boxed_slice();
        let effect = move |data, done| Effect::Store {
            to,
            data,
            scale,
            done,
        };
        self.request(kind, target, shape, stage, effect, |remote| {
            let local = Completion::new();
            local.complete(());
            PutHandles { local, remote }
        })
    }

    /// Software put (PAMI default RMA): the payload travels as an active
    /// message and is written by the *target CPU* during progress.
    pub fn sw_put(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> impl Future<Output = PutHandles> + '_ {
        let (local, to) = (Place::One((local_off, len)), Place::One((remote_off, len)));
        self.store(Service::SwPut, target, local, to, 1.0)
    }

    /// Software get (the fall-back protocol, paper Eq. 8): an active message
    /// asks the target to read and reply; requires target progress.
    pub fn sw_get(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        len: usize,
    ) -> impl Future<Output = Completion<()>> + '_ {
        let (from, to) = (Place::One((remote_off, len)), Place::One((local_off, len)));
        let effect = |(), done| Effect::Load { from, to, done };
        self.request(Service::SwGet, target, (0, 1), || (), effect, |done| done)
    }

    /// Accumulate `dst[i] += scale·src[i]` over f64s at the target (applied
    /// by the target CPU during progress; associative, so unordered with
    /// respect to other accumulates).
    pub fn acc_f64(
        &self,
        target: usize,
        local_off: usize,
        remote_off: usize,
        elems: usize,
        scale: f64,
    ) -> impl Future<Output = PutHandles> + '_ {
        let len = elems * 8;
        let (local, to) = (Place::One((local_off, len)), Place::One((remote_off, len)));
        self.store(Service::Acc, target, local, to, scale)
    }

    /// Atomic read-modify-write on an i64 in the target's memory. AMOs are
    /// **unordered** with respect to all other traffic (paper §III-A4) and
    /// serviced by target-side software (§III-D). An AMO given up on (best
    /// effort) never reached the target; its fetch result is reported as 0.
    pub fn rmw(
        &self,
        target: usize,
        offset: usize,
        op: RmwOp,
    ) -> impl Future<Output = Completion<i64>> + '_ {
        let effect = move |(), done| Effect::Rmw { offset, op, done };
        self.request(Service::Rmw, target, (0, 0), || (), effect, |done| done)
    }

    /// Packed (typed-datatype) strided get: ship a chunk descriptor to the
    /// target, whose CPU gathers the chunks into one bulk reply; the reply is
    /// scattered into `local_chunks` here. Used for tall-skinny strided
    /// transfers (paper §III-C2).
    pub fn packed_get(
        &self,
        target: usize,
        chunks: Vec<(usize, usize)>,
        local_chunks: Vec<(usize, usize)>,
    ) -> impl Future<Output = Completion<()>> + '_ {
        let shape = (0, chunks.len());
        let (from, to) = (Place::Chunks(chunks), Place::Chunks(local_chunks));
        let effect = |(), done| Effect::Load { from, to, done };
        self.request(Service::PackedGet, target, shape, || (), effect, |d| d)
    }

    /// Packed (typed-datatype) strided put: gather the local chunks (CPU
    /// pack cost), ship one bulk message, and have the target CPU scatter it.
    pub fn packed_put(
        &self,
        target: usize,
        local_chunks: Vec<(usize, usize)>,
        remote_chunks: Vec<(usize, usize)>,
    ) -> impl Future<Output = PutHandles> + '_ {
        let (local, to) = (Place::Chunks(local_chunks), Place::Chunks(remote_chunks));
        self.store(Service::PackedPut, target, local, to, 1.0)
    }

    /// Packed strided accumulate: gather local chunks, ship one message, and
    /// have the target CPU scatter-accumulate (`dst += scale·src`) into the
    /// remote chunks.
    ///
    /// # Panics
    /// When a remote chunk does not hold whole f64s: the target adds
    /// element by element, chunk after chunk.
    pub fn acc_strided_f64(
        &self,
        target: usize,
        local_chunks: Vec<(usize, usize)>,
        remote_chunks: Vec<(usize, usize)>,
        scale: f64,
    ) -> impl Future<Output = PutHandles> + '_ {
        assert!(
            remote_chunks.iter().all(|&(_, len)| len % 8 == 0),
            "accumulate chunks must hold whole f64s"
        );
        let (local, to) = (Place::Chunks(local_chunks), Place::Chunks(remote_chunks));
        self.store(Service::AccStrided, target, local, to, scale)
    }

    /// The one active-message post: a software-path request of `kind` — the
    /// data plane ([`PamiRank::send_am`]) or the control plane
    /// ([`PamiRank::send_control_am`]) — whose work runs the handler
    /// registered under `dispatch`. The returned completion covers *local*
    /// send completion only, so it is already complete.
    // An `async move` block, not an `async fn`: the arguments live in the future
    // once, as captures, instead of twice (DESIGN.md, "Ops as data").
    #[allow(clippy::manual_async_fn)]
    pub(crate) fn post_am(
        &self,
        kind: Service,
        target: usize,
        dispatch: u16,
        header: Vec<u8>,
        payload: Vec<u8>,
    ) -> impl Future<Output = Completion<()>> + '_ {
        async move {
            let shape = (header.len() + payload.len(), 0);
            let ((), (arrival, delivered), op) =
                self.send_request(kind, target, shape, || ()).await;
            if delivered {
                let am = AmEntry {
                    dispatch,
                    header,
                    payload,
                };
                let item = WorkItem::new(kind, self.r, Effect::Am(am));
                self.push_to_target(target, arrival, item, op);
            }
            let done = Completion::new();
            done.complete(());
            done
        }
    }

    /// Send a control-plane active message: a request/reply or completion
    /// signal (region query and reply, the AM-fence pong) that must not wait
    /// in an aggregation buffer or queue behind ordered data. It rides the
    /// `Control` class, is never batched, and is counted under `pami.am`.
    pub fn send_control_am(
        &self,
        target: usize,
        dispatch: u16,
        header: Vec<u8>,
        payload: Vec<u8>,
    ) -> impl Future<Output = Completion<()>> + '_ {
        self.post_am(Service::Am, target, dispatch, header, payload)
    }

    // ------------------------------------------------------------------
    // Progress engine
    // ------------------------------------------------------------------

    /// Drive the progress engine on context `ctx_idx`: acquire the context
    /// lock and service up to `max_items` queued work items. Returns the
    /// number serviced. Only the work context ([`Machine::target_ctx`])
    /// ever holds an item; any other context, and a work context no work
    /// has reached yet, services none.
    pub async fn advance(&self, ctx_idx: usize, max_items: usize) -> usize {
        let rho = self.m.config().contexts_per_rank;
        assert!(ctx_idx < rho, "context {ctx_idx} out of range");
        let work = ctx_idx == self.m.target_ctx();
        self.advance_on(work, max_items, false).await
    }

    /// `advance` with attribution: `from_at` marks the asynchronous progress
    /// thread as the driver, so trace spans land on its own track and the
    /// §III-D lock contention (main thread vs AT on one context) is visible.
    /// `work` is false for a context that is not the work context.
    async fn advance_on(&self, work: bool, max_items: usize, from_at: bool) -> usize {
        let sim = self.m.sim();
        // A hung node (fault plan) cannot drive its progress engine: stall
        // here until the hang window ends. No-op without an active plan.
        if let Some(resume) = self.m.node_hang_until(self.r, sim.now()) {
            sim.sleep_until(resume).await;
        }
        // No item, so nothing to lock: an unheld lock is taken and released
        // without an event, and an empty batch records nothing.
        if !work || self.state().work.get().is_none() {
            return 0;
        }
        let ctx = self.ctx();
        let t_req = sim.now();
        // The op the *driver* of this advance is working on: lock-wait time
        // is charged to it as contention. The AT drives on its own behalf.
        let driver_op = if from_at { None } else { self.current_op() };
        let _guard = MutexCell::lock(ctx.clone()).await;
        if sim.now() > t_req {
            // Someone else held the progress lock: the ρ=1 contention.
            sim.probes()
                .span(&LOCK_WAIT, driver_op, t_req, sim.now(), 1);
        }
        let t_hold = sim.now();
        // Progress work is drawn on the rank's lane, or on its AT's.
        let lane = if from_at {
            Lane::Progress(self.r)
        } else {
            Lane::Rank(self.r)
        };
        sim.probes().open(lane);
        let mut n = 0;
        while n < max_items {
            // Scoped: only the item itself is kept across the service await.
            let (item, item_op, enqueued) = match ctx.queue.borrow_mut().pop_front() {
                Some(q) => (q.item, q.op, q.enqueued),
                None => break,
            };
            let svc_start = sim.now();
            if item_op.is_some() {
                // Split the item's queue time at the instant the servicing
                // rank started continuously driving progress: before that,
                // nobody was listening (§III-D progress starvation); after
                // it, the item merely waited its turn behind the batch.
                let since = ctx.progress_since.get().unwrap_or(t_req);
                let boundary = since.max(enqueued).min(svc_start);
                sim.probes().span(&STARVED, item_op, enqueued, boundary, 0);
                sim.probes().span(&QUEUED, item_op, boundary, svc_start, 0);
            }
            let row = item.kind.row();
            // Built in the call: an argument array kept as a local would
            // live in the future across the service sleep.
            let src = desim::TraceValue::U64(u64::from(item.src));
            sim.probes()
                .begin(&row.span, lane, svc_start, &[("src", src)]);
            // Service = one busy period, then the effect — the paper's cost
            // composition (Tables I/II), read off the item's service row.
            // Only a coalesced batch keeps a loop.
            sim.sleep((row.busy)(self.m.params(), item.bytes())).await;
            if let Some(batch) = self.apply_item(item, item_op) {
                batch.await;
            }
            sim.probes()
                .end(&row.span, lane, item_op, svc_start, sim.now(), &[]);
            n += 1;
        }
        if n > 0 {
            sim.probes()
                .span(&LOCK_HOLD, None, t_hold, sim.now(), n as u64);
            // Post-batch depth sample: captures drain (toward zero) as
            // well as the build-up sampled at push time.
            sim.probes()
                .gauge(&QUEUE_DEPTH, sim.now(), ctx.depth() as i64);
        }
        n
    }

    /// Dispatch a coalesced batch entry by entry. The protocol dispatch was
    /// paid once for the whole wire message; each coalesced AM then costs
    /// only its deserialization copy — the receive-side batching win.
    async fn service_batch(&self, src: usize, entries: Vec<AmEntry>) {
        for e in entries {
            let bytes = e.header.len() + e.payload.len();
            self.m.sim().sleep(copy(self.m.params(), bytes)).await;
            self.dispatch_am(src, e);
        }
    }

    /// Apply one serviced item's effect, synchronously, at the end of its
    /// busy period; a coalesced batch instead returns its entry loop.
    /// Reply messages it injects are attributed to `flight_op`, the
    /// operation the item belongs to.
    fn apply_item(
        &self,
        item: WorkItem,
        flight_op: Option<OpId>,
    ) -> Option<Pin<Box<impl Future<Output = ()> + '_>>> {
        let (row, src, now) = (item.kind.row(), item.src as usize, self.m.sim().now());
        // A get-style service's reply to `src`, as its row prices it: the
        // leg, and what lands after the leg's arrival.
        let reply = |loaded| {
            let (class, bytes, extra) = row.reply.expect("a get-style service replies");
            let payload = bytes(loaded);
            let leg = Leg {
                src: self.r,
                dst: src,
                payload,
                class,
                op: flight_op,
            };
            (leg, extra(self.m.params(), payload))
        };
        match item.effect {
            Effect::Store {
                to,
                data,
                scale,
                done,
            } => {
                for (off, bytes) in to.split(&data) {
                    if row.acc {
                        self.accumulate(off, bytes, scale);
                    } else {
                        self.state().write(off, bytes);
                    }
                }
                done.complete(());
            }
            Effect::Load { from, to, done } => {
                let data = self.gather(&from);
                let src_state = self.m.rank_state(src);
                let (leg, extra) = reply(data.len());
                deliver_then(&self.m, now, leg, extra, move |_, delivered| {
                    if delivered {
                        for (off, bytes) in to.split(&data) {
                            src_state.write(off, bytes);
                        }
                    }
                    done.complete(());
                });
            }
            Effect::Rmw { offset, op, done } => {
                let old = self.state().read_i64(offset);
                let new = match op {
                    RmwOp::FetchAdd(v) => Some(old.wrapping_add(v)),
                    RmwOp::Swap(v) => Some(v),
                    RmwOp::CompareSwap { compare, swap } => (old == compare).then_some(swap),
                };
                if let Some(new) = new {
                    self.state().write_i64(offset, new);
                }
                let (leg, extra) = reply(8);
                deliver_then(&self.m, now, leg, extra, move |_, _| done.complete(old));
            }
            Effect::Am(am) => self.dispatch_am(src, am),
            // Boxed: one allocation per coalesced wire message keeps the
            // batch loop's state out of every `advance` future (and so out
            // of every blocking ARMCI call that embeds one).
            Effect::Batch(entries) => return Some(Box::pin(self.service_batch(src, entries))),
        }
        None
    }

    /// `mem[off..] += scale · incoming` over little-endian f64s.
    fn accumulate(&self, off: usize, incoming: &[u8], scale: f64) {
        let f64_of = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
        self.state().with_mut(off, incoming.len() / 8 * 8, |mem| {
            for (c, b) in mem.chunks_exact_mut(8).zip(incoming.chunks_exact(8)) {
                let sum = f64_of(c) + scale * f64_of(b);
                c.copy_from_slice(&sum.to_le_bytes());
            }
        });
    }

    /// Run the handler registered for `am.dispatch` ([`Machine::register_am`]).
    fn dispatch_am(&self, src: usize, am: AmEntry) {
        match self.m.am_handler(am.dispatch) {
            Some(h) => h(
                AmEnv {
                    machine: self.m.clone(),
                    rank: self.r,
                },
                AmMsg {
                    src,
                    header: am.header,
                    payload: am.payload,
                },
            ),
            None => self.m.sim().count(&AM_UNHANDLED, 1),
        }
    }

    /// Block until `done` completes, *while driving the progress engine* on
    /// the main context — this is how the default (D) configuration services
    /// remote requests: only when the main thread is inside a blocking
    /// communication call (paper §IV-B3). At ρ ≥ 2 the main context never
    /// holds work, so this is a plain wait on `done` (DESIGN.md §8,
    /// "Completion reaping").
    pub async fn progress_wait<T: Clone + 'static>(&self, done: &Completion<T>) -> T {
        if self.m.target_ctx() != 0 {
            return done.wait().await;
        }
        let main_ctx = self.ctx();
        // While blocked here the rank *is* continuously driving the main
        // context's progress engine: work arriving from now on is queueing,
        // not progress starvation. Restore on exit so compute phases between
        // blocking calls count as starvation again.
        let mark_progress = main_ctx.progress_since.get().is_none();
        if mark_progress {
            main_ctx.progress_since.set(Some(self.m.sim().now()));
        }
        let v = loop {
            if let Some(v) = done.peek() {
                break v;
            }
            if main_ctx.depth() > 0 {
                // Boxed: only ρ = 1 runs the engine from a blocking call, so
                // at ρ = 2 no blocking call carries the engine's state.
                Box::pin(self.advance_on(true, 1, false)).await;
                continue;
            }
            if let Either::Left(v) = race(done.wait(), NotifyCell::wait(main_ctx.clone())).await {
                break v;
            }
        };
        // Completions are reaped by advancing the context, which requires
        // the progress-engine lock — with ρ=1 this is where the main thread
        // contends with the asynchronous progress thread (§III-D).
        drop(MutexCell::lock(main_ctx.clone()).await);
        if mark_progress {
            main_ctx.progress_since.set(None);
        }
        v
    }

    /// Start an asynchronous progress thread (the paper's "AT" design): a
    /// task on one of the node's spare SMT threads that services the work
    /// context whenever work arrives, independent of the main thread.
    pub fn start_progress_thread(&self) -> AsyncThread {
        let stop = Completion::new();
        let stop2 = stop.clone();
        let this = self.clone();
        let sim = self.m.sim().clone();
        self.m.sim().spawn(async move {
            loop {
                if stop2.is_complete() {
                    break;
                }
                let ctx = this.ctx();
                if ctx.depth() == 0 {
                    // Idle: until re-awoken, freshly arriving work starves.
                    ctx.progress_since.set(None);
                    match race(NotifyCell::wait(ctx.clone()), stop2.wait()).await {
                        Either::Left(()) => {}
                        Either::Right(()) => break,
                    }
                    continue;
                }
                sim.sleep(this.m.params().at_wakeup).await;
                // Awake and about to service: the wake-up delay itself counts
                // as starvation, everything after as batch queueing.
                if ctx.progress_since.get().is_none() {
                    ctx.progress_since.set(Some(sim.now()));
                }
                let n = this.advance_on(true, usize::MAX, true).await;
                this.m.sim().count(&AT_SERVICED, n as u64);
            }
        });
        AsyncThread { stop }
    }
}
