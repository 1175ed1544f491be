//! The ARMCI runtime: configuration, initialization, and shared state.

use std::cell::{Cell, OnceCell, RefCell, RefMut};
use std::rc::{Rc, Weak};

use desim::memprof::{self, MemTag};
use desim::{Completion, FxHashMap, PagedMap, Sim};
use pami_sim::{Machine, PamiRank};

/// Per-rank ARMCI runtime state (caches, implicit sets, reply maps).
static HANDLES_TAG: MemTag = MemTag::new("armci.handles");

use crate::collectives::Round;
use crate::consistency::{ConsistencyMode, ConsistencyTracker};
use crate::region_cache::{RegionCache, RegionTable, RemoteRegion};

/// Progress-engine configuration (the paper's central design axis, §III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// "D": remote software requests (AMOs, fall-back gets, accumulates) are
    /// serviced only while the main thread sits inside a blocking ARMCI call.
    Default,
    /// "AT": a dedicated SMT progress thread services them continuously.
    AsyncThread,
}

/// ARMCI runtime configuration.
#[derive(Debug, Clone)]
pub struct ArmciConfig {
    /// Progress mode (D vs AT).
    pub progress: ProgressMode,
    /// Conflict-tracking granularity for location consistency.
    pub consistency: ConsistencyMode,
    /// Per-rank remote memory-region cache capacity (entries).
    pub region_cache_capacity: usize,
    /// Strided transfers with contiguous chunks smaller than this use the
    /// packed typed-datatype path instead of per-chunk RDMA (§III-C2,
    /// "tall-skinny" transfers).
    pub pack_threshold: usize,
}

impl Default for ArmciConfig {
    fn default() -> Self {
        ArmciConfig {
            progress: ProgressMode::AsyncThread,
            consistency: ConsistencyMode::PerRegion,
            region_cache_capacity: 1 << 16,
            pack_threshold: 32,
        }
    }
}

impl ArmciConfig {
    /// Set the progress mode.
    pub fn progress(mut self, p: ProgressMode) -> Self {
        self.progress = p;
        self
    }

    /// Set the consistency mode.
    pub fn consistency(mut self, c: ConsistencyMode) -> Self {
        self.consistency = c;
        self
    }

    /// Set the region-cache capacity.
    pub fn region_cache_capacity(mut self, n: usize) -> Self {
        self.region_cache_capacity = n;
        self
    }

    /// Set the packed-path threshold.
    pub fn pack_threshold(mut self, bytes: usize) -> Self {
        self.pack_threshold = bytes;
        self
    }
}

/// AM dispatch ids used internally by the runtime.
/// Region query (header = `[reply_id u64][off u64][len u64]`): the owner
/// answers with a [`DISPATCH_REPLY`] carrying the region it found.
pub(crate) const DISPATCH_REGION_QUERY: u16 = 1;
/// Reply (header = `[reply_id u64]`, then for a region query `[found u8]
/// [off u64][len u64]`): completes the requester's pending entry.
pub(crate) const DISPATCH_REPLY: u16 = 2;
/// Notify (header = `[seq i64]`): the handler raises the sender's slot of
/// the destination's notify-cell array, which [`crate::ArmciRank::wait_notify`]
/// polls.
pub(crate) const DISPATCH_NOTIFY: u16 = 3;
/// AM-backed accumulate (header = `[off u64][scale f64]`, payload = f64s):
/// the handler applies `dst[i] += scale·x[i]` at the destination.
pub(crate) const DISPATCH_ACC_AM: u16 = 4;
/// AM fence ping (header = `[reply_id u64]`): the handler echoes the header
/// back as the pong, a [`DISPATCH_REPLY`] on the unbatched control channel.
pub(crate) const DISPATCH_AM_PING: u16 = 5;

pub(crate) struct RankRt {
    /// Created on first use ([`RankRt::region_cache`]): a rank that only
    /// does fetch-and-add never looks a region up.
    region_cache: RefCell<Option<Box<RegionCache>>>,
    pub consistency: RefCell<ConsistencyTracker>,
    /// Implicit-handle set: local completions of issued operations, pruned
    /// of completed ones whenever its buffer fills (`ArmciRank::issue`).
    pub implicit: RefCell<Vec<Completion<()>>>,
    /// Offset of this rank's mutex array (usize::MAX = not created).
    pub mutex_off: Cell<usize>,
    /// Offset of this rank's notify cells (one i64 per peer).
    pub notify_off: Cell<usize>,
    /// Request/reply bookkeeping, created on first use: most ranks never
    /// miss the region cache, notify or AM-fence.
    rare: RefCell<Option<Box<RareRt>>>,
}

/// The rarely used part of [`RankRt`] (see [`RankRt::rare`]).
#[derive(Default)]
pub(crate) struct RareRt {
    /// Region queries and AM fences awaiting their reply, by reply id (a
    /// fence's reply carries no region).
    pub pending_replies: FxHashMap<u64, Completion<Option<RemoteRegion>>>,
    pub next_reply: u64,
    /// Notification sequence numbers sent, per target.
    pub notify_seq: FxHashMap<usize, i64>,
    /// The scratch word single-value transfers stage through, once allocated.
    pub scratch: Option<usize>,
}

impl RankRt {
    fn new(cfg: &ArmciConfig) -> RankRt {
        RankRt {
            region_cache: RefCell::new(None),
            consistency: RefCell::new(ConsistencyTracker::new(cfg.consistency)),
            implicit: RefCell::new(Vec::new()),
            mutex_off: Cell::new(usize::MAX),
            notify_off: Cell::new(usize::MAX),
            rare: RefCell::new(None),
        }
    }

    /// The request/reply bookkeeping, created on first use.
    pub fn rare(&self) -> RefMut<'_, RareRt> {
        let _mem = memprof::scope(&HANDLES_TAG);
        RefMut::map(self.rare.borrow_mut(), |r| {
            &mut **r.get_or_insert_with(Box::default)
        })
    }

    /// The region cache, created on first use bounded to `capacity`.
    pub fn region_cache(&self, capacity: usize) -> RefMut<'_, RegionCache> {
        let _mem = memprof::scope(&HANDLES_TAG);
        RefMut::map(self.region_cache.borrow_mut(), |c| {
            &mut **c.get_or_insert_with(|| Box::new(RegionCache::new(capacity)))
        })
    }
}

pub(crate) struct ArmciInner {
    pub machine: Machine,
    pub cfg: ArmciConfig,
    /// Lazily materialized per-rank runtime state, keyed by rank id and
    /// created by the machine's rank-init hook — an untouched rank has no
    /// entry here (and its page none unless a neighbour has one).
    pub ranks: RefCell<PagedMap<Rc<RankRt>>>,
    /// The collective round in progress, if any (barrier, allreduce,
    /// broadcast and collective allocation alike).
    pub round: RefCell<Option<Round>>,
    pub nmutexes: Cell<usize>,
}

/// The ARMCI runtime over a simulated machine. Clone freely.
#[derive(Clone)]
pub struct Armci {
    pub(crate) inner: Rc<ArmciInner>,
}

impl Armci {
    /// Initialize ARMCI over `machine`. Per-rank setup — region-query
    /// active messages, notification cells, async-progress arming — is
    /// deferred to the machine's rank-init hook, so it runs only for ranks
    /// the program actually touches; initialization itself is O(1) in
    /// `nprocs`.
    pub fn new(machine: Machine, cfg: ArmciConfig) -> Armci {
        let _mem = memprof::scope(&HANDLES_TAG);
        let inner = Rc::new(ArmciInner {
            machine: machine.clone(),
            cfg,
            ranks: RefCell::new(PagedMap::new()),
            round: RefCell::new(None),
            nmutexes: Cell::new(0),
        });
        let weak = Rc::downgrade(&inner);
        machine.set_rank_init(Rc::new(move |pr| init_rank(&weak, pr)));
        install_am_handlers(&machine, &Rc::downgrade(&inner));
        // Ranks that materialized before this runtime existed missed the
        // hook: bring them up now, in rank order, exactly as the hook would.
        let a = Armci { inner };
        for r in machine.materialized_ranks() {
            init_rank(&Rc::downgrade(&a.inner), machine.rank(r));
        }
        a
    }

    /// The simulation driving this runtime.
    pub fn sim(&self) -> &Sim {
        self.inner.machine.sim()
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.inner.machine.nprocs()
    }

    /// Runtime configuration.
    pub fn config(&self) -> &ArmciConfig {
        &self.inner.cfg
    }

    /// Handle for one rank's ARMCI operations.
    pub fn rank(&self, r: usize) -> crate::ArmciRank {
        crate::ArmciRank {
            a: self.clone(),
            r,
            pami: self.inner.machine.rank(r),
            rt: OnceCell::new(),
        }
    }

    /// This rank's ARMCI runtime state, materializing the underlying PAMI
    /// rank (and hence running the init hook) on first touch.
    pub(crate) fn rank_rt(&self, r: usize) -> Rc<RankRt> {
        if let Some(rt) = self.inner.ranks.borrow().get(r) {
            return Rc::clone(rt);
        }
        self.inner.machine.materialize_rank(r);
        if let Some(rt) = self.inner.ranks.borrow().get(r) {
            return Rc::clone(rt);
        }
        // The rank materialized under an older hook (e.g. a second runtime
        // over the same machine): run this runtime's init directly.
        init_rank(&Rc::downgrade(&self.inner), self.inner.machine.rank(r));
        Rc::clone(
            self.inner
                .ranks
                .borrow()
                .get(r)
                .expect("init_rank inserts the rank"),
        )
    }

    /// Stop all asynchronous progress threads (finalize).
    pub fn finalize(&self) {
        self.inner.machine.stop_progress_threads();
    }

    /// Region-cache statistics summed over all ranks: `(hits, misses,
    /// evictions)`. A rank whose cache was never used counts zeros.
    pub fn region_cache_totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for rt in self.inner.ranks.borrow().values() {
            if let Some(c) = rt.region_cache.borrow().as_deref() {
                t.0 += c.hits();
                t.1 += c.misses();
                t.2 += c.evictions();
            }
        }
        t
    }

    /// Hand every rank one collective structure's region keys: `table`
    /// holds each owner's block (`None`: it did not register), and each
    /// rank whose table names another owner's block caches it.
    ///
    /// Collective allocation (ARMCI_Malloc / GA create) exchanges region
    /// keys among all ranks at allocation time, so subsequent RDMA needs no
    /// query round trip; this is the σ·ζ·γ term of Eq. 5. The query-on-miss
    /// path remains for non-collective allocations and evicted entries.
    pub fn seed_collective(&self, table: &RegionTable) {
        let registered = table.iter().filter(|r| r.is_some()).count();
        for (r, own) in table.iter().enumerate() {
            if registered > usize::from(own.is_some()) {
                self.rank_rt(r)
                    .region_cache(self.inner.cfg.region_cache_capacity)
                    .seed(r, table);
            }
        }
    }

    /// Induced fences (reads forced to wait on writes) over all ranks: the
    /// `armci.induced_fence` counter.
    pub fn induced_fences(&self) -> u64 {
        self.inner.machine.stats().counter("armci.induced_fence")
    }
}

/// Bring up one rank's ARMCI state: runtime struct, notification cells,
/// async-progress arming. Runs as the machine's
/// rank-init hook the moment the rank's PAMI state materializes — the rank's
/// notification cells are its very first allocation, exactly as they were
/// when initialization looped over every rank eagerly.
fn init_rank(weak: &Weak<ArmciInner>, pr: PamiRank) {
    let Some(inner) = weak.upgrade() else { return };
    if inner.ranks.borrow().contains(pr.id()) {
        return;
    }
    let _mem = memprof::scope(&HANDLES_TAG);
    let rt = Rc::new(RankRt::new(&inner.cfg));
    inner.ranks.borrow_mut().insert(pr.id(), Rc::clone(&rt));
    // Notification cells: one i64 per peer (offsets only — the backing
    // memory grows on first write).
    rt.notify_off.set(pr.alloc(inner.machine.nprocs() * 8));
    if inner.cfg.progress == ProgressMode::AsyncThread {
        pr.enable_async_progress();
    }
}

/// Install the runtime's AM handlers — region query/reply and the `send_am`
/// / aggregation surface — in the machine-wide table. Every rank runs the
/// same code and the handlers carry no per-rank state beyond what
/// `ArmciInner` already tracks (the destination comes in through
/// [`pami_sim::AmEnv`]), so one table entry serves every destination and a
/// materializing rank pays for no table or closure of its own.
fn install_am_handlers(machine: &Machine, weak: &Weak<ArmciInner>) {
    // REGION_QUERY: the owner looks up its registered regions and replies.
    machine.register_am(
        DISPATCH_REGION_QUERY,
        Rc::new(move |env, msg| {
            let word =
                |i: usize| u64::from_le_bytes(msg.header[8 * i..8 * i + 8].try_into().expect("8"));
            let (reply_id, off, len) = (word(0), word(1) as usize, word(2) as usize);
            let owner = env.machine.rank(env.rank);
            let found = owner
                .find_region(off, len)
                .map(|id| owner.region_bounds(id));
            let mut reply = Vec::with_capacity(25);
            reply.extend_from_slice(&reply_id.to_le_bytes());
            reply.push(u8::from(found.is_some()));
            let (roff, rlen) = found.unwrap_or((0, 0));
            reply.extend_from_slice(&(roff as u64).to_le_bytes());
            reply.extend_from_slice(&(rlen as u64).to_le_bytes());
            let src = msg.src;
            env.machine.sim().spawn(async move {
                owner
                    .send_control_am(src, DISPATCH_REPLY, reply, Vec::new())
                    .await;
            });
        }),
    );
    // REPLY: complete the pending query or fence at the requester.
    {
        let weak = weak.clone();
        machine.register_am(
            DISPATCH_REPLY,
            Rc::new(move |env, msg| {
                let Some(inner) = weak.upgrade() else { return };
                let word =
                    |at: usize| u64::from_le_bytes(msg.header[at..at + 8].try_into().expect("8"));
                // A pong is the id alone; a query's reply adds the region.
                let found = msg.header.len() > 8 && msg.header[8] != 0;
                let region = found.then(|| RemoteRegion {
                    off: word(9) as usize,
                    len: word(17) as usize,
                });
                let pending = inner
                    .ranks
                    .borrow()
                    .get(env.rank)
                    .and_then(|rt| rt.rare().pending_replies.remove(&word(0)));
                if let Some(c) = pending {
                    c.complete(region);
                }
            }),
        );
    }
    // NOTIFY: write the sender's notify cell at the destination. The
    // write is monotone-max so a retransmit-delayed older notify can never
    // roll the cell back below a newer one.
    {
        let weak = weak.clone();
        machine.register_am(
            DISPATCH_NOTIFY,
            Rc::new(move |env, msg| {
                let Some(inner) = weak.upgrade() else { return };
                let seq = i64::from_le_bytes(msg.header[0..8].try_into().expect("8"));
                let rt = inner.ranks.borrow().get(env.rank).cloned();
                let Some(rt) = rt else { return };
                let cell = rt.notify_off.get() + 8 * msg.src;
                let pr = env.machine.rank(env.rank);
                if pr.read_i64(cell) < seq {
                    pr.write_i64(cell, seq);
                }
            }),
        );
    }
    // ACC_AM: value-carrying accumulate, dst[i] += scale * x[i]. The
    // per-element compute cost is covered by the per-byte deserialize the
    // service loop already charges for each coalesced entry.
    machine.register_am(
        DISPATCH_ACC_AM,
        Rc::new(move |env, msg| {
            let off = u64::from_le_bytes(msg.header[0..8].try_into().expect("8")) as usize;
            let scale = f64::from_le_bytes(msg.header[8..16].try_into().expect("8"));
            let pr = env.machine.rank(env.rank);
            let n = msg.payload.len() / 8;
            let mut cur = pr.read_f64s(off, n);
            for (i, c) in cur.iter_mut().enumerate() {
                let x = f64::from_le_bytes(msg.payload[i * 8..i * 8 + 8].try_into().expect("8"));
                *c += scale * x;
            }
            pr.write_f64s(off, &cur);
        }),
    );
    // AM_PING: echo the header back as a pong on the unbatched control
    // plane — the pong is a completion signal, not ordered data, and must
    // not sit out a batch window at the target.
    machine.register_am(
        DISPATCH_AM_PING,
        Rc::new(move |env, msg| {
            let responder = env.machine.rank(env.rank);
            let src = msg.src;
            let header = msg.header;
            env.machine.sim().spawn(async move {
                responder
                    .send_control_am(src, DISPATCH_REPLY, header, Vec::new())
                    .await;
            });
        }),
    );
}
