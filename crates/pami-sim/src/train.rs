//! RDMA chunk trains (DESIGN.md §18): a strided or vector transfer, one NIC
//! post per chunk, as one object on the host.

use std::cell::{Cell, OnceCell, RefCell};
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::{Poll, Waker};

use desim::memprof::{self, MemTag};
use desim::{Completion, Fire, OpId, Probe, SimDuration, SimTime};
use torus5d::MsgClass;

use crate::machine::{Machine, RankState};
use crate::rank::{deliver, deliver_faulty, lane, PamiRank, PutHandles};
use crate::retry::{self, Attempt, Leg};

/// Chunk-train staging buffers, in flight and pooled.
static STAGING_TAG: MemTag = MemTag::new("pami.staging");
// The chunk trains count chunks; the software path counts from its rows.
static RDMA_GET: Probe = Probe::new().count("pami.rdma_get");
static RDMA_PUT: Probe = Probe::new().count("pami.rdma_put");

/// Stride levels a [`Side`] holds inline.
pub const MAX_LEVELS: usize = 4;

/// One side of a strided chunk train, as an odometer: piece `k` starts at
/// the base offset plus each digit of `k` — mixed radix, innermost level
/// first — times its level's stride.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    base: usize,
    depth: usize,
    /// `(count, stride)` of each level, innermost first; `depth` in use.
    levels: [(usize, usize); MAX_LEVELS],
}

impl Side {
    /// A side at `base` with `(count, stride)` levels, innermost first —
    /// `None` for more than [`MAX_LEVELS`].
    pub fn new(base: usize, levels: impl IntoIterator<Item = (usize, usize)>) -> Option<Side> {
        let mut side = Side {
            base,
            depth: 0,
            levels: [(0, 0); MAX_LEVELS],
        };
        for level in levels {
            *side.levels.get_mut(side.depth)? = level;
            side.depth += 1;
        }
        Some(side)
    }

    /// How many pieces the side has.
    pub fn pieces(&self) -> usize {
        self.levels[..self.depth].iter().map(|l| l.0).product()
    }

    /// Piece `k`'s offset.
    pub fn at(&self, mut k: usize) -> usize {
        let mut off = self.base;
        if let Some(((_, outer), inner)) = self.levels[..self.depth].split_last() {
            for &(count, stride) in inner {
                off += k % count * stride;
                k /= count;
            }
            off += k * outer;
        }
        off
    }
}

/// The pieces of a chunk train, as it is issued.
#[derive(Clone, Copy, Debug)]
pub enum Pieces<'a> {
    /// Pieces of `len` bytes, as many as each side's counts multiply to
    /// (the same on both sides): piece `k` moves between `local`'s and
    /// `remote`'s piece `k`. The train reads them from this descriptor.
    Strided {
        /// Bytes per piece.
        len: usize,
        /// The initiator's side.
        local: Side,
        /// The target's side.
        remote: Side,
    },
    /// `(local_off, remote_off, len)` of every piece, in posting order. The
    /// train keeps a copy in its staging buffer.
    List(&'a [(usize, usize, usize)]),
}

impl Pieces<'_> {
    /// One contiguous piece: a strided train of sides without levels.
    pub fn one(local: usize, remote: usize, len: usize) -> Pieces<'static> {
        let side = |base| Side::new(base, []).expect("no levels");
        Pieces::Strided {
            len,
            local: side(local),
            remote: side(remote),
        }
    }
}

/// Fires `done` when the last of a fixed number of parts has finished — at
/// once when there are none.
struct Countdown {
    left: Cell<usize>,
    done: Completion<()>,
}

impl Countdown {
    fn new(parts: usize) -> Countdown {
        let done = Completion::new();
        if parts == 0 {
            done.complete(());
        }
        Countdown {
            left: Cell::new(parts),
            done,
        }
    }

    /// One part finished: after the last, fire `done`.
    fn arrive(&self) {
        let left = self.left.get() - 1;
        self.left.set(left);
        if left == 0 {
            self.done.complete(());
        }
    }
}

/// One chunk of a train: `len` bytes between the initiator's `local` and
/// the target's `remote` offset, where its snapshot sits in the staging
/// buffer (if the train stages), and whether its landing may be the train's
/// last — and so needs an event of its own on a network without a fault
/// plan.
#[derive(Clone, Copy)]
struct Chunk {
    local: usize,
    remote: usize,
    len: usize,
    pos: usize,
    lands: bool,
}

/// A listed chunk's words at the head of the staging buffer: its offsets,
/// and the end of its bytes among all the train's bytes (so a chunk's
/// snapshot starts where the one before it ends).
const LIST_WORDS: usize = 3;
const WORD: usize = std::mem::size_of::<usize>();

// A train's events. The `u32` its `Fire` impl receives holds the event in
// the low `EV_BITS` bits and the chunk index above them.
/// The next post, or the post chain resuming after a request's backoff.
const POST: u32 = 0;
/// A get chunk's request reached the target NIC.
const ARRIVED: u32 = 1;
/// A chunk's first leg was given up on: a get's request, a put's payload. (A
/// get reply under a fault plan lands through `deliver_faulty`.)
const LOST: u32 = 2;
/// A get chunk's reply, or a put chunk's payload, landed.
const LANDED: u32 = 3;
/// A put chunk's ack returned.
const ACKED: u32 = 4;
const EV_BITS: u32 = 3;

/// Most idle bytes a [`StagingPool`] keeps: about thirty 16 KiB trains.
/// Twice that saved `scf_fock` 0.2 allocations per task and cost it 0.8 %
/// more peak RSS (single traced `bgq-perf` runs).
const POOL_BYTES: usize = 1 << 19;

/// The staging buffers of finished trains, reused last in, first out — so
/// which buffer a train gets follows from the event order alone, and no
/// simulated cost depends on it. A buffer that would take the idle capacity
/// past [`POOL_BYTES`] is freed instead. One per [`Machine`].
#[derive(Default)]
pub(crate) struct StagingPool {
    idle: Vec<Vec<u8>>,
    /// Capacity of the buffers in `idle`.
    bytes: usize,
}

impl StagingPool {
    /// An empty buffer, with the capacity the last one returned had.
    fn take(&mut self) -> Vec<u8> {
        let buf = self.idle.pop().unwrap_or_default();
        self.bytes -= buf.capacity();
        buf
    }

    fn give(&mut self, mut buf: Vec<u8>) {
        let cap = buf.capacity();
        if cap == 0 || self.bytes + cap > POOL_BYTES {
            return;
        }
        buf.clear();
        self.bytes += cap;
        let _mem = memprof::scope(&STAGING_TAG);
        self.idle.push(buf);
    }
}

/// Where a train finds its chunks' offsets and lengths.
enum Layout {
    /// In the descriptor it was issued with ([`Pieces::Strided`]).
    Strided {
        len: usize,
        local: Side,
        remote: Side,
    },
    /// In [`LIST_WORDS`] words per chunk at the head of the staging buffer.
    List,
}

/// One RDMA *chunk train* (DESIGN.md §18): a strided or vector transfer,
/// still one NIC post, one request and one message per chunk, `o_send`
/// apart — link reservations depend on call order — but the rank states,
/// parameters, op id, chunk descriptor, staging bytes and completions exist
/// once. The issuing task posts chunk 0; each post then schedules the next,
/// and the last wakes the task. Every event of the train targets the train
/// itself ([`Fire`]), so no event allocates. A strided get on a network
/// without a fault plan keeps nothing per chunk: each chunk's bytes go
/// straight into the initiator's buffer when its request reaches the
/// target. A put stages its snapshots (its source buffer may be reused),
/// and so does a get under a fault plan (its reply may be lost); a listed
/// train keeps its list. That buffer comes from the machine's pool and goes
/// back when the train drops. `D` is a get's countdown or a put's two.
struct Train<D> {
    m: Machine,
    src: usize,
    target: usize,
    src_state: Rc<RankState>,
    /// Materialized when the first chunk reaches the target.
    tgt_state: OnceCell<Rc<RankState>>,
    p: Rc<torus5d::BgqParams>,
    op: Option<OpId>,
    layout: Layout,
    chunks: usize,
    /// The last chunk with a larger alignment penalty than the final
    /// chunk's, if any. Replies arrive in chunk order, and the penalty is a
    /// step (one value below `align_threshold`, zero from there), so a
    /// chunk lands at or before some later chunk unless it is this one or
    /// the final one.
    slow: Option<usize>,
    /// A listed train's chunks, then the snapshots of a train that stages,
    /// each where the chunk before it ends.
    buf: RefCell<Vec<u8>>,
    /// The chunk to post next, and which transmission of its request (0,
    /// then retransmits under a fault plan).
    next: Cell<usize>,
    attempt: Cell<u32>,
    /// The issuing task, while it waits for the last post.
    poster: Cell<Option<Waker>>,
    done: D,
}

/// A put train's countdowns: acks returned, payloads landed.
struct PutDone {
    local: Countdown,
    remote: Countdown,
    /// From a payload's landing to its ack's return.
    ack_after: SimDuration,
}

/// What a get train and a put train do differently.
trait Kind: Sized + 'static {
    /// Whether a chunk's request carries its bytes (a put, `Ordered`) or
    /// only asks for them (a get, a header-only `Control` message).
    const CARRIES_DATA: bool;
    /// The row counting chunks.
    const COUNTER: &'static Probe;

    /// Chunk `k`'s request reached the target NIC at `at` — or, when not
    /// `delivered`, was given up on at `at`. Runs at the chunk's post.
    fn sent(t: &Rc<Train<Self>>, k: usize, at: SimTime, delivered: bool);

    /// Event `ev` (not [`POST`]) of chunk `k`, at its instant.
    fn fire(t: Rc<Train<Self>>, ev: u32, k: usize);
}

impl<D: Kind> Fire for Train<D> {
    fn fire(self: Rc<Self>, arg: u32) {
        let (ev, k) = (arg & ((1 << EV_BITS) - 1), (arg >> EV_BITS) as usize);
        if ev == POST {
            self.post();
        } else {
            D::fire(self, ev, k);
        }
    }
}

impl<D> Drop for Train<D> {
    fn drop(&mut self) {
        let buf = std::mem::take(self.buf.get_mut());
        self.m.inner.staging.borrow_mut().give(buf);
    }
}

impl<D: Kind> Train<D> {
    /// A train of `pieces` with the completions `done(chunks, lands)`, whose
    /// completing event is one of `lands` events: one per chunk that may
    /// land last, or one per chunk under a fault plan, where every outcome
    /// arrives as an event of the retry core.
    fn new(
        rank: &PamiRank,
        target: usize,
        pieces: Pieces<'_>,
        done: impl FnOnce(usize, usize) -> D,
    ) -> Rc<Train<D>> {
        let (m, p) = (&rank.m, rank.m.params_rc());
        let faults = m.faults_active();
        let mut buf = Vec::new();
        let (layout, chunks, total, slow) = match pieces {
            Pieces::Strided { len, local, remote } => {
                let chunks = local.pieces();
                assert_eq!(chunks, remote.pieces(), "sides of different sizes");
                (
                    Layout::Strided { len, local, remote },
                    chunks,
                    chunks * len,
                    None,
                )
            }
            Pieces::List(list) => {
                let _mem = memprof::scope(&STAGING_TAG);
                buf = m.inner.staging.borrow_mut().take();
                buf.reserve(list.len() * LIST_WORDS * WORD);
                let (mut end, mut slow) = (0, None);
                let last = list.last().map_or(0, |l| l.2);
                for (k, &(local, remote, len)) in list.iter().enumerate() {
                    end += len;
                    let words = [local, remote, end].map(usize::to_ne_bytes);
                    buf.extend_from_slice(words.as_flattened());
                    if p.align_penalty(len) > p.align_penalty(last) {
                        slow = Some(k);
                    }
                }
                (Layout::List, list.len(), end, slow)
            }
        };
        assert!(
            chunks >> (32 - EV_BITS) == 0,
            "{chunks} chunks in one train"
        );
        if D::CARRIES_DATA || faults {
            let _mem = memprof::scope(&STAGING_TAG);
            if buf.capacity() == 0 {
                buf = m.inner.staging.borrow_mut().take();
            }
            buf.resize(buf.len() + total, 0);
        }
        let lands = if faults {
            chunks
        } else {
            usize::from(chunks > 0) + usize::from(slow.is_some())
        };
        Rc::new(Train {
            m: m.clone(),
            src: rank.r,
            target,
            src_state: Rc::clone(rank.state()),
            tgt_state: OnceCell::new(),
            p,
            op: rank.current_op(),
            layout,
            chunks,
            slow,
            buf: RefCell::new(buf),
            next: Cell::new(0),
            attempt: Cell::new(0),
            poster: Cell::new(None),
            done: done(chunks, lands),
        })
    }

    fn tgt(&self) -> &Rc<RankState> {
        self.tgt_state
            .get_or_init(|| self.m.rank_state(self.target))
    }

    /// Chunk `k`, from the descriptor or the list.
    fn chunk(&self, k: usize) -> Chunk {
        let lands = k + 1 == self.chunks || self.slow == Some(k);
        match &self.layout {
            Layout::Strided { len, local, remote } => Chunk {
                local: local.at(k),
                remote: remote.at(k),
                len: *len,
                pos: k * len,
                lands,
            },
            Layout::List => {
                let buf = self.buf.borrow();
                let word = |i: usize| usize::from_ne_bytes(buf.as_chunks::<WORD>().0[i]);
                let start = if k == 0 { 0 } else { word(k * LIST_WORDS - 1) };
                Chunk {
                    local: word(k * LIST_WORDS),
                    remote: word(k * LIST_WORDS + 1),
                    len: word(k * LIST_WORDS + 2) - start,
                    pos: self.chunks * LIST_WORDS * WORD + start,
                    lands,
                }
            }
        }
    }

    /// Copy chunk `c`'s bytes from `mem` at `off` into its staging slot.
    fn stage(&self, c: Chunk, mem: &RankState, off: usize) {
        mem.with(off, c.len, |b| {
            self.buf.borrow_mut()[c.pos..][..c.len].copy_from_slice(b);
        });
    }

    /// Write chunk `c`'s staged bytes into `mem` at `off`.
    fn unstage(&self, c: Chunk, mem: &RankState, off: usize) {
        mem.write(off, &self.buf.borrow()[c.pos..][..c.len]);
    }

    /// Fire event `ev` of chunk `k` at `at`: a chunk's arrival in its
    /// pair's lane ([`lane`]).
    fn schedule(self: &Rc<Self>, at: SimTime, ev: u32, k: usize) {
        let arg = (k as u32) << EV_BITS | ev;
        let fifo = match ev {
            POST | LOST | ACKED => None,
            LANDED if !D::CARRIES_DATA => lane(self.target, self.src, MsgClass::Ordered),
            _ => lane(self.src, self.target, MsgClass::Ordered),
        };
        self.m
            .sim()
            .schedule_fire_fifo(at, fifo, Rc::clone(self) as Rc<dyn Fire>, arg);
    }

    /// The issuing task's part: sleep one `o_send`, post chunk 0, and wait —
    /// not polled — while the other chunks post themselves.
    async fn run(self: &Rc<Self>) {
        let chunks = self.chunks;
        if chunks == 0 {
            return;
        }
        self.m.sim().sleep(self.p.o_send).await;
        self.post();
        poll_fn(|cx| {
            if self.next.get() == chunks {
                return Poll::Ready(());
            }
            self.poster.set(Some(cx.waker().clone()));
            Poll::Pending
        })
        .await;
        self.m.sim().count(D::COUNTER, chunks as u64);
    }

    /// Post chunks from `next` on, now. Each request is delivered at its own
    /// injection instant. The next post is scheduled `o_send` later, right
    /// after this chunk's events — where the issuing task's sleep used to
    /// register — or runs at once when `o_send` is zero; a request that
    /// backs off resumes the chain at its retransmit instant instead. The
    /// last post wakes the issuing task.
    fn post(self: &Rc<Self>) {
        let sim = self.m.sim();
        loop {
            let (k, attempt) = (self.next.get(), self.attempt.get());
            let mut inject = sim.now();
            let mut payload = 0;
            if D::CARRIES_DATA {
                let c = self.chunk(k);
                if attempt == 0 {
                    self.stage(c, &self.src_state, c.local);
                }
                payload = c.len;
            }
            if attempt == 0 {
                inject += self.p.rdma_engine;
            }
            let leg = Leg {
                src: self.src,
                dst: self.target,
                payload,
                class: if D::CARRIES_DATA {
                    MsgClass::Ordered
                } else {
                    MsgClass::Control
                },
                op: self.op,
            };
            let (at, delivered) = if !self.m.faults_active() {
                (deliver(&self.m, inject, &leg), true)
            } else {
                match retry::attempt(&self.m, inject, &leg, attempt) {
                    Attempt::Arrived(t) => (t, true),
                    Attempt::GaveUp(t) => (t, false),
                    Attempt::Backoff(resume) => {
                        self.attempt.set(attempt + 1);
                        self.schedule(resume, POST, k);
                        return;
                    }
                }
            };
            self.attempt.set(0);
            D::sent(self, k, at, delivered);
            self.next.set(k + 1);
            if k + 1 == self.chunks {
                if let Some(poster) = self.poster.take() {
                    poster.wake();
                }
                return;
            }
            if !self.p.o_send.is_zero() {
                self.schedule(sim.now() + self.p.o_send, POST, k + 1);
                return;
            }
        }
    }
}

impl Kind for Countdown {
    const CARRIES_DATA: bool = false;
    const COUNTER: &'static Probe = &RDMA_GET;

    fn sent(t: &Rc<Train<Self>>, k: usize, at: SimTime, delivered: bool) {
        t.schedule(at, if delivered { ARRIVED } else { LOST }, k);
    }

    fn fire(t: Rc<Train<Self>>, ev: u32, k: usize) {
        match ev {
            ARRIVED => t.reply(k),
            _ => t.land(k, ev == LANDED),
        }
    }
}

impl Train<Countdown> {
    /// Chunk `k`'s request reached the target NIC now: read the target
    /// bytes and send them back. Without a fault plan they go straight into
    /// the initiator's buffer, and the reply's landing is an event only if
    /// it may complete the train; under one the reply may be lost, so they
    /// are staged until it lands.
    fn reply(self: Rc<Self>, k: usize) {
        let at = self.m.sim().now();
        let c = self.chunk(k);
        let m = self.m.clone();
        let extra = self.p.align_penalty(c.len);
        let leg = Leg {
            src: self.target,
            dst: self.src,
            payload: c.len,
            class: MsgClass::Ordered,
            op: self.op,
        };
        if m.faults_active() {
            self.stage(c, self.tgt(), c.remote);
            let then = move |_, delivered| self.land(k, delivered);
            return deliver_faulty(&m, at, leg, extra, 0, Box::new(then));
        }
        self.tgt()
            .copy_to(c.remote, &self.src_state, c.local, c.len);
        let landing = deliver(&m, at, &leg) + extra;
        if c.lands {
            self.schedule(landing, LANDED, k);
        }
    }

    /// Chunk `k`'s reply landed (or was lost). A staged chunk's bytes are
    /// written into the initiator's buffer now; the last landing completes
    /// the get.
    fn land(&self, k: usize, delivered: bool) {
        if delivered && self.m.faults_active() {
            let c = self.chunk(k);
            self.unstage(c, &self.src_state, c.local);
        }
        self.done.arrive();
    }
}

impl Kind for PutDone {
    const CARRIES_DATA: bool = true;
    const COUNTER: &'static Probe = &RDMA_PUT;

    /// A payload lands at the target, where others can see it, in an event
    /// of its own; its ack only counts down, so it is an event only if it may
    /// complete the train.
    fn sent(t: &Rc<Train<Self>>, k: usize, raw: SimTime, delivered: bool) {
        let c = t.chunk(k);
        let arrival = raw + t.p.align_penalty(c.len);
        // The target materializes where a single put's always has: once the
        // first payload is on its way.
        t.tgt();
        t.schedule(arrival, if delivered { LANDED } else { LOST }, k);
        if t.m.faults_active() || c.lands {
            t.schedule(arrival + t.done.ack_after, ACKED, k);
        }
    }

    fn fire(t: Rc<Train<Self>>, ev: u32, k: usize) {
        match ev {
            ACKED => t.done.local.arrive(),
            _ => {
                if ev == LANDED {
                    let c = t.chunk(k);
                    t.unstage(c, t.tgt(), c.remote);
                }
                t.done.remote.arrive();
            }
        }
    }
}

/// A get train of `pieces` from `target` into `rank`'s memory, built now;
/// the future posts it and returns its completion.
pub(crate) fn get(
    rank: &PamiRank,
    target: usize,
    pieces: Pieces<'_>,
) -> impl Future<Output = Completion<()>> {
    let train = Train::new(rank, target, pieces, |_, lands| Countdown::new(lands));
    async move {
        train.run().await;
        train.done.done.clone()
    }
}

/// A put train of `pieces` from `rank`'s memory to `target`, built now; the
/// future posts it and returns its completions.
pub(crate) fn put(
    rank: &PamiRank,
    target: usize,
    pieces: Pieces<'_>,
) -> impl Future<Output = PutHandles> {
    let hops = rank.m.inner.net.borrow().hops(rank.r, target);
    let ack_after = rank.m.params().oneway_header(hops);
    let train = Train::new(rank, target, pieces, |chunks, lands| PutDone {
        local: Countdown::new(lands),
        remote: Countdown::new(chunks),
        ack_after,
    });
    async move {
        train.run().await;
        PutHandles {
            local: train.done.local.done.clone(),
            remote: train.done.remote.done.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use desim::Sim;

    /// 63 ranks each put 48 one-KiB chunks to rank 0 at once: 3 MiB of
    /// staging in flight, six times the pool's budget.
    fn burst(m: &Machine) {
        for r in 1..64 {
            let rk = m.rank(r);
            let local = rk.alloc(48 << 10);
            m.sim().spawn(async move {
                let side = |base| Side::new(base, [(48, 1024)]).expect("one level");
                let pieces = Pieces::Strided {
                    len: 1024,
                    local: side(local),
                    remote: side(0),
                };
                rk.rdma_put_list(0, pieces).await.remote.wait().await;
            });
        }
        m.sim().run();
    }

    #[test]
    fn a_burst_of_trains_leaves_the_pool_within_its_budget() {
        let m = Machine::new(Sim::new(), MachineConfig::new(64));
        burst(&m);
        let cap = 48 << 10;
        let pool = m.inner.staging.borrow();
        assert!(pool
            .idle
            .iter()
            .all(|buf| buf.is_empty() && buf.capacity() == cap));
        assert_eq!(pool.bytes, pool.idle.len() * cap);
        assert_eq!(pool.idle.len(), POOL_BYTES / cap, "as many as fit");
        drop(pool);
        // A second burst reuses them, and leaves the pool as it was.
        burst(&m);
        assert_eq!(m.inner.staging.borrow().idle.len(), POOL_BYTES / cap);
    }

    #[test]
    fn a_side_counts_its_pieces_mixed_radix() {
        let side = Side::new(100, [(2, 10), (3, 1000)]).expect("two levels");
        assert_eq!(side.pieces(), 6);
        let offs: Vec<usize> = (0..6).map(|k| side.at(k)).collect();
        assert_eq!(offs, [100, 110, 1100, 1110, 2100, 2110]);
        assert!(Side::new(0, [(1, 1); MAX_LEVELS + 1]).is_none());
        let one = Side::new(7, []).expect("no levels");
        assert_eq!((one.pieces(), one.at(0)), (1, 7));
    }

    #[test]
    fn a_strided_get_stages_nothing() {
        let m = Machine::new(Sim::new(), MachineConfig::new(2));
        let rk = m.rank(1);
        let local = rk.alloc(8 << 10);
        m.rank(0).alloc(64 << 10);
        let rk2 = rk.clone();
        m.sim().spawn(async move {
            let pieces = Pieces::Strided {
                len: 1024,
                local: Side::new(local, [(8, 1024)]).expect("one level"),
                remote: Side::new(0, [(8, 4096)]).expect("one level"),
            };
            rk2.rdma_get_list(0, pieces).await.wait().await;
        });
        m.sim().run();
        let pool = m.inner.staging.borrow();
        assert_eq!((pool.idle.len(), pool.bytes), (0, 0), "no buffer taken");
    }
}
