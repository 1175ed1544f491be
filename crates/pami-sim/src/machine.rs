//! The simulated machine: ranks, memories, contexts and the interconnect.

use std::cell::{Cell, OnceCell, RefCell};
use std::ops::Deref;
use std::rc::Rc;

use desim::memprof::{self, MemTag};
use desim::sync::{MutexCell, NotifyCell};
use desim::{FaultPlan, OpId, PagedMap, Probe, Sim, SimTime, Stats};

/// Per-rank state blocks and work contexts, backing memory, region tables
/// and endpoint sets, and the pages of the rank table.
static RANKMEM_TAG: MemTag = MemTag::new("pami.rankmem");

use torus5d::{BgqParams, Mapping, NetState, Topology};

use crate::batcher::AmBatchConfig;
use crate::context::{AmHandler, CtxState};
use crate::retry::RetryPolicy;
use crate::space::SpaceSnapshot;

// The interconnect totals [`Machine::flush_net_stats`] folds in.
static NET_MESSAGES: Probe = Probe::new().count("net.messages");
static NET_BYTES: Probe = Probe::new().count("net.bytes");
static LINKS_USED: Probe = Probe::new().count("net.links_used");
static LINK_BUSY_US: Probe = Probe::new().hist("net.link_busy_us");
static LINK_DOWN_PS: Probe = Probe::new().count("fault.link_down_ps");
static LINK_DOWN_EVENTS: Probe = Probe::new().count("fault.link_down_events");
static DROPS: Probe = Probe::new().count("fault.drops");

/// Most contexts a rank can have (the paper uses ρ = 1 or 2; only the work
/// context, [`Machine::target_ctx`], ever carries work).
pub const MAX_CONTEXTS: usize = 4;

/// Configuration of a simulated partition.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processes (`p`).
    pub nprocs: usize,
    /// Processes per node (`c`, 1–16).
    pub procs_per_node: usize,
    /// Cost-model constants.
    pub params: BgqParams,
    /// Communication contexts per rank (`ρ`, 1 or 2 in the paper).
    pub contexts_per_rank: usize,
    /// Enable per-link contention modelling.
    pub contention: bool,
    /// Maximum simultaneously registered memory regions per rank
    /// (`None` = unlimited). Exceeding it makes registration fail, forcing
    /// the ARMCI fall-back protocol — the paper's "creation of memory region
    /// may fail due to memory constraints" case.
    pub memregion_limit: Option<usize>,
    /// Process→torus mapping.
    pub mapping: Mapping,
    /// Explicit torus shape (default: the standard BG/Q partition shape for
    /// the node count). Useful for stressing specific dimensions.
    pub shape: Option<torus5d::TorusShape>,
    /// Deterministic fault schedule to install on the interconnect
    /// (`None` = perfect network). An *empty* plan is installed but arms
    /// nothing: outputs stay byte-identical to `None`.
    pub fault_plan: Option<FaultPlan>,
    /// Timeout/backoff/retry policy for network legs; only consulted when a
    /// non-empty fault plan is installed.
    pub retry: RetryPolicy,
    /// Per-destination active-message aggregation (see [`crate::batcher`]).
    /// `None` (the default) keeps [`crate::PamiRank::send_am`] on the
    /// unbatched hot path — the AM layer is zero-cost when disabled.
    pub am_batch: Option<AmBatchConfig>,
}

impl MachineConfig {
    /// A conventional configuration: `nprocs` ranks, 16/node, analytic
    /// network, one context, unlimited regions, `ABCDET` mapping.
    pub fn new(nprocs: usize) -> MachineConfig {
        MachineConfig {
            nprocs,
            procs_per_node: 16,
            params: BgqParams::default(),
            contexts_per_rank: 1,
            contention: false,
            memregion_limit: None,
            mapping: Mapping::abcdet(),
            shape: None,
            fault_plan: None,
            retry: RetryPolicy::default(),
            am_batch: None,
        }
    }

    /// Enable per-destination active-message aggregation: buffers flush at
    /// `max_bytes` of framed payload or after `window` of sim time,
    /// whichever comes first.
    pub fn am_batching(mut self, max_bytes: usize, window: desim::SimDuration) -> Self {
        self.am_batch = Some(AmBatchConfig { max_bytes, window });
        self
    }

    /// Set processes per node.
    pub fn procs_per_node(mut self, c: usize) -> Self {
        self.procs_per_node = c;
        self
    }

    /// Set the context count (ρ, 1 to [`MAX_CONTEXTS`]).
    pub fn contexts(mut self, n: usize) -> Self {
        assert!(
            (1..=MAX_CONTEXTS).contains(&n),
            "need 1 to {MAX_CONTEXTS} contexts per rank"
        );
        self.contexts_per_rank = n;
        self
    }

    /// Enable/disable link contention.
    pub fn contention(mut self, on: bool) -> Self {
        self.contention = on;
        self
    }

    /// Set a per-rank memory-region limit.
    pub fn memregion_limit(mut self, limit: Option<usize>) -> Self {
        self.memregion_limit = limit;
        self
    }

    /// Override the cost parameters.
    pub fn params(mut self, p: BgqParams) -> Self {
        self.params = p;
        self
    }

    /// Force an explicit torus shape (must hold ≥ nprocs/procs_per_node
    /// nodes).
    pub fn shape(mut self, dims: [u16; 5]) -> Self {
        self.shape = Some(torus5d::TorusShape::new(dims));
        self
    }

    /// Install a deterministic fault schedule on the interconnect.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Set the timeout/backoff/retry policy used under fault injection.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }
}

/// Identifier of a registered memory region within one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// Why memory-region registration failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The per-rank region limit was reached (paper: registration "may fail
    /// due to memory constraints" at scale).
    LimitReached,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::LimitReached => write!(f, "memory region limit reached"),
        }
    }
}

impl std::error::Error for RegionError {}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    pub off: usize,
    pub len: usize,
    pub active: bool,
}

/// A rank's endpoints, as `(target, context)` keys. Most ranks address one
/// or two peers (Fig 9: rank 0's counter), so the first two keys sit inline
/// in the rank block; the third insert spills the set, in place, into a
/// sorted array. A key costs 8 B there (a hash set's slack made it ≈ 18 B),
/// and a probe is a binary search over one small array instead of a
/// control-group load and a bucket load. An insert shifts the tail; the
/// largest sets in any figure hold a few hundred keys (Fig 11, p = 1024).
/// The spill is not boxed: an extra pointer chase per probe cost the
/// all-to-all runs more than the box saved.
pub(crate) enum Endpoints {
    Inline { len: u8, keys: [(u32, u8); 2] },
    Spilled(Vec<(u32, u8)>),
}

impl Default for Endpoints {
    fn default() -> Self {
        Endpoints::Inline {
            len: 0,
            keys: [(0, 0); 2],
        }
    }
}

impl Endpoints {
    pub fn contains(&self, key: &(u32, u8)) -> bool {
        match self {
            Endpoints::Inline { len, keys } => keys[..*len as usize].contains(key),
            Endpoints::Spilled(keys) => keys.binary_search(key).is_ok(),
        }
    }

    /// Add `key`; returns `true` when it was not present.
    pub fn insert(&mut self, key: (u32, u8)) -> bool {
        match self {
            Endpoints::Inline { len, keys } => {
                if keys[..*len as usize].contains(&key) {
                    return false;
                }
                if (*len as usize) < keys.len() {
                    keys[*len as usize] = key;
                    *len += 1;
                } else {
                    let mut keys: Vec<_> = keys.iter().copied().chain([key]).collect();
                    keys.sort_unstable();
                    *self = Endpoints::Spilled(keys);
                }
                true
            }
            Endpoints::Spilled(keys) => match keys.binary_search(&key) {
                Ok(_) => false,
                Err(at) => {
                    keys.insert(at, key);
                    true
                }
            },
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Endpoints::Inline { len, .. } => *len as usize,
            Endpoints::Spilled(keys) => keys.len(),
        }
    }
}

/// Per-rank simulation state: **one heap block** per materialized rank, plus
/// the work context's own block once work reaches the rank. A rank that has
/// materialized but holds no memory, region, endpoint or work owns exactly
/// this allocation.
///
/// Materialized lazily: a rank that is never touched (no allocation, no
/// memory access, no incoming work) has no `RankState` at all — see
/// [`Machine::rank_state`].
#[derive(Default)]
pub(crate) struct RankState {
    pub memory: RefCell<Vec<u8>>,
    pub next_alloc: Cell<usize>,
    pub regions: RefCell<Vec<Region>>,
    pub endpoints: RefCell<Endpoints>,
    /// Contexts paid for by [`crate::PamiRank::create_contexts`] (ε each in
    /// [`Machine::space`]).
    pub contexts_created: Cell<u32>,
    /// The operation this rank is currently issuing/completing, threaded
    /// down into every message the rank injects while set. `None` when no
    /// attribution is active (lifecycle accumulator off, or between
    /// operations).
    pub cur_op: Cell<Option<OpId>>,
    /// Armed by [`crate::PamiRank::enable_async_progress`]: the first work
    /// item to reach the rank spawns a progress thread on the work context.
    pub async_progress: Cell<bool>,
    /// The work context ([`Machine::target_ctx`]), made on first use. The
    /// rank's other contexts never hold an item (DESIGN.md §8, "Completion
    /// reaping"), so they have no host state; ε is still charged for each
    /// one created.
    pub work: OnceCell<Box<CtxState>>,
}

impl RankState {
    /// The work context, made on first use.
    pub fn work_ctx(&self) -> &CtxState {
        self.work.get_or_init(|| {
            let _mem = memprof::scope(&RANKMEM_TAG);
            Box::default()
        })
    }

    /// Registered regions not yet deregistered.
    pub fn active_regions(&self) -> usize {
        self.regions.borrow().iter().filter(|r| r.active).count()
    }

    /// Run `f` over `[off, off + len)` of this rank's memory, growing the
    /// memory (zero-filled) to cover the range first. Inside the allocated
    /// arena (`next_alloc`) the capacity doubles only up to that end: to
    /// twice the touched end, at most the arena (DESIGN.md §15, "Rank
    /// memory"); past it, `Vec`'s own doubling.
    pub fn with_mut<R>(&self, off: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut mem = self.memory.borrow_mut();
        let end = off + len;
        if mem.len() < end {
            let _mem_tag = memprof::scope(&RANKMEM_TAG);
            let arena = self.next_alloc.get();
            if end > mem.capacity() && end <= arena {
                let extra = (2 * end).min(arena) - mem.len();
                mem.reserve_exact(extra);
            }
            mem.resize(end, 0);
        }
        f(&mut mem[off..end])
    }

    /// [`RankState::with_mut`] for readers (a read grows the memory too:
    /// untouched memory reads as zero).
    pub fn with<R>(&self, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.with_mut(off, len, |mem| f(mem))
    }

    pub fn write(&self, off: usize, data: &[u8]) {
        self.with_mut(off, data.len(), |mem| mem.copy_from_slice(data));
    }

    /// Copy `len` bytes at `off` into `dst` at `dst_off`, growing both as a
    /// read of the source and then a write of the destination would. Within
    /// one rank's memory the ranges may overlap (a `memmove`).
    pub fn copy_to(&self, off: usize, dst: &RankState, dst_off: usize, len: usize) {
        if !std::ptr::eq(self, dst) {
            return self.with(off, len, |b| dst.write(dst_off, b));
        }
        self.with(off, len, |_| ());
        self.with_mut(dst_off, len, |_| ());
        self.memory
            .borrow_mut()
            .copy_within(off..off + len, dst_off);
    }

    pub fn read(&self, off: usize, len: usize) -> Vec<u8> {
        self.with(off, len, <[u8]>::to_vec)
    }

    pub fn read_i64(&self, off: usize) -> i64 {
        self.with(off, 8, |b| {
            i64::from_le_bytes(b.try_into().expect("8 bytes"))
        })
    }

    pub fn write_i64(&self, off: usize, v: i64) {
        self.write(off, &v.to_le_bytes());
    }
}

/// Handle to the work context of a materialized rank: keeps the rank's
/// block alive and projects to the context it owns. This is what the
/// embedded notifier and lock futures hold instead of an `Rc` of their own.
#[derive(Clone)]
pub(crate) struct CtxRef(pub Rc<RankState>);

impl Deref for CtxRef {
    type Target = CtxState;
    fn deref(&self) -> &CtxState {
        self.0
            .work
            .get()
            .expect("a CtxRef is made with its context")
    }
}

impl AsRef<NotifyCell> for CtxRef {
    fn as_ref(&self) -> &NotifyCell {
        &self.arrived
    }
}

impl AsRef<MutexCell> for CtxRef {
    fn as_ref(&self) -> &MutexCell {
        &self.lock
    }
}

/// Per-rank initialization hook, run once when a rank materializes.
pub(crate) type RankInitHook = Rc<dyn Fn(crate::PamiRank)>;

pub(crate) struct MachineInner {
    pub sim: Sim,
    pub cfg: MachineConfig,
    pub topo: Topology,
    /// Cost constants, shared so issue paths can hold them across `await`s
    /// and inside `'static` closures without cloning the whole struct.
    pub params: Rc<BgqParams>,
    pub net: RefCell<NetState>,
    /// Lazily materialized per-rank state, keyed by rank id. Ranks the
    /// program never touches never appear here — the table is sized by the
    /// *active* rank set, not by `nprocs`.
    pub ranks: RefCell<PagedMap<Rc<RankState>>>,
    /// Hook run once per rank, right after its state materializes (upper
    /// layers hang their own per-rank init — dispatch tables, notification
    /// cells — off this instead of looping over all `nprocs` ranks).
    pub rank_init: RefCell<Option<RankInitHook>>,
    /// True when a *non-empty* fault plan is installed: the only case in
    /// which the retry machinery arms itself. Cached so the fault-free hot
    /// path costs a single bool read.
    pub faults_active: bool,
    /// Machine-wide active-message dispatch table, consulted when a
    /// destination's per-context table misses (see [`Machine::register_am`]).
    pub am_handlers: RefCell<desim::FxHashMap<u16, AmHandler>>,
    /// Per-destination AM aggregation buffers; `None` unless
    /// [`MachineConfig::am_batching`] was configured.
    pub batcher: Option<Rc<crate::batcher::Batcher>>,
    /// Staging buffers of finished chunk trains, lent to the next ones.
    pub staging: RefCell<crate::train::StagingPool>,
}

/// A simulated Blue Gene/Q partition running `nprocs` PGAS processes.
///
/// Clone freely; all clones share the underlying state. Obtain per-rank
/// handles with [`Machine::rank`] and spawn rank programs on the associated
/// [`Sim`].
#[derive(Clone)]
pub struct Machine {
    pub(crate) inner: Rc<MachineInner>,
}

impl Machine {
    /// Build a machine on `sim` with the given configuration.
    pub fn new(sim: Sim, cfg: MachineConfig) -> Machine {
        assert!(cfg.nprocs >= 1);
        assert!(
            (1..=MAX_CONTEXTS).contains(&cfg.contexts_per_rank),
            "need 1 to {MAX_CONTEXTS} contexts per rank"
        );
        let nodes = cfg.nprocs.div_ceil(cfg.procs_per_node);
        let shape = match cfg.shape {
            Some(shape) => {
                assert!(
                    shape.num_nodes() >= nodes,
                    "explicit shape {shape} too small for {nodes} nodes"
                );
                shape
            }
            None => torus5d::TorusShape::for_nodes(nodes),
        };
        let topo = Topology {
            shape,
            procs_per_node: cfg.procs_per_node,
            mapping: cfg.mapping.clone(),
        };
        let mut net = NetState::new(topo.clone(), cfg.params.clone(), cfg.contention);
        net.attach(sim.probes().clone());
        let faults_active = cfg.fault_plan.as_ref().is_some_and(|p| !p.is_empty());
        if let Some(plan) = &cfg.fault_plan {
            net.install_faults(plan.clone());
        }
        let params = Rc::new(cfg.params.clone());
        let batcher = cfg
            .am_batch
            .map(|bc| Rc::new(crate::batcher::Batcher::new(bc)));
        Machine {
            inner: Rc::new(MachineInner {
                sim,
                cfg,
                topo,
                params,
                net: RefCell::new(net),
                ranks: RefCell::new(PagedMap::new()),
                rank_init: RefCell::new(None),
                faults_active,
                am_handlers: RefCell::new(desim::FxHashMap::default()),
                batcher,
                staging: RefCell::default(),
            }),
        }
    }

    /// True when a non-empty fault plan is installed (deadlines and retries
    /// are armed).
    pub fn faults_active(&self) -> bool {
        self.inner.faults_active
    }

    /// The timeout/backoff/retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.inner.cfg.retry
    }

    /// If the node hosting `rank` is hung at `now` per the fault plan, the
    /// time it resumes driving progress.
    pub fn node_hang_until(&self, rank: usize, now: SimTime) -> Option<SimTime> {
        if !self.inner.faults_active {
            return None;
        }
        let mut net = self.inner.net.borrow_mut();
        let node = net.node_of(rank);
        net.hang_until(node, now)
    }

    /// The simulation this machine runs on.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.inner.cfg.nprocs
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.inner.cfg
    }

    /// Cost-model constants.
    pub fn params(&self) -> &BgqParams {
        &self.inner.params
    }

    /// Shared handle to the cost constants, for `'static` closures that
    /// outlive the caller's borrow.
    pub(crate) fn params_rc(&self) -> Rc<BgqParams> {
        self.inner.params.clone()
    }

    /// Partition topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// Shared statistics registry (same as the simulation's).
    pub fn stats(&self) -> Stats {
        self.inner.sim.stats()
    }

    /// Handle for one rank. Cheap: no per-rank state is created until the
    /// handle is actually used.
    pub fn rank(&self, r: usize) -> crate::PamiRank {
        assert!(r < self.nprocs(), "rank {r} out of range");
        crate::PamiRank {
            m: self.clone(),
            r,
            st: OnceCell::new(),
        }
    }

    /// This rank's state, materializing it on first touch. Materialization
    /// creates the queues/contexts/region tables and then runs the
    /// registered init hook (if any) with the freshly inserted state already
    /// visible, so the hook may re-enter for the same rank without looping.
    pub(crate) fn rank_state(&self, r: usize) -> Rc<RankState> {
        assert!(r < self.nprocs(), "rank {r} out of range");
        if let Some(st) = self.inner.ranks.borrow().get(r) {
            return Rc::clone(st);
        }
        let st = {
            let _mem = memprof::scope(&RANKMEM_TAG);
            let st = Rc::<RankState>::default();
            self.inner.ranks.borrow_mut().insert(r, Rc::clone(&st));
            st
        };
        let hook = self.inner.rank_init.borrow().clone();
        if let Some(hook) = hook {
            hook(self.rank(r));
        }
        st
    }

    /// Force rank `r`'s state into existence (runs the init hook if it has
    /// not run for this rank yet). Upper layers use this when they need a
    /// rank's runtime state outside any communication path.
    pub fn materialize_rank(&self, r: usize) {
        let _ = self.rank_state(r);
    }

    /// Register the per-rank init hook, run once for every rank as its
    /// state materializes. At most one hook; registering replaces the old.
    pub fn set_rank_init(&self, hook: Rc<dyn Fn(crate::PamiRank)>) {
        *self.inner.rank_init.borrow_mut() = Some(hook);
    }

    /// Ids of the ranks whose state has materialized, ascending.
    pub fn materialized_ranks(&self) -> Vec<usize> {
        self.inner.ranks.borrow().iter().map(|(r, _)| r).collect()
    }

    /// Number of ranks whose state has materialized.
    pub fn materialized_count(&self) -> usize {
        self.inner.ranks.borrow().len()
    }

    /// Stop every lazily spawned asynchronous progress thread (ascending
    /// rank order, for determinism). Ranks whose AT never spawned — or never
    /// materialized at all — cost nothing here.
    pub fn stop_progress_threads(&self) {
        // Stopping only wakes the thread (it exits when next polled), so no
        // rank materializes while the table is borrowed.
        for st in self.inner.ranks.borrow().values() {
            let at = st.work.get().and_then(|ctx| ctx.at.borrow_mut().take());
            if let Some(at) = at {
                at.stop();
            }
        }
    }

    /// The bytes of a rank's PAMI objects (Eqs. 1, 3 and 5), read off the
    /// objects themselves: the contexts it created times ε, its endpoints
    /// times α, its active regions times γ. Does **not** materialize: an
    /// untouched rank reports the all-zero snapshot it would have anyway.
    pub fn space(&self, rank: usize) -> SpaceSnapshot {
        assert!(rank < self.nprocs(), "rank {rank} out of range");
        let p = self.params();
        match self.inner.ranks.borrow().get(rank) {
            Some(st) => SpaceSnapshot {
                contexts: st.contexts_created.get() as usize * p.context_bytes,
                endpoints: st.endpoints.borrow().len() * p.endpoint_bytes,
                regions: st.active_regions() * p.memregion_bytes,
            },
            None => SpaceSnapshot::default(),
        }
    }

    /// The context index on which *incoming* remote requests are enqueued:
    /// with ρ ≥ 2 the dedicated progress context (1), otherwise the only
    /// context (0). Mirrors the paper's two-context design (§III-D).
    pub fn target_ctx(&self) -> usize {
        if self.inner.cfg.contexts_per_rank >= 2 {
            1
        } else {
            0
        }
    }

    /// Total messages the interconnect has delivered.
    pub fn net_messages(&self) -> u64 {
        self.inner.net.borrow().messages()
    }

    /// Total payload bytes the interconnect has delivered.
    pub fn net_bytes(&self) -> u64 {
        self.inner.net.borrow().bytes()
    }

    /// Fold interconnect totals into the stats registry under `net.*` keys:
    /// `net.messages`, `net.bytes`, `net.links_used`, and a `net.link_busy_us`
    /// histogram of per-link busy time (µs). Call once, at the end of a run,
    /// before snapshotting.
    pub fn flush_net_stats(&self) {
        let net = self.inner.net.borrow();
        self.inner.sim.count(&NET_MESSAGES, net.messages());
        self.inner.sim.count(&NET_BYTES, net.bytes());
        let util = net.link_utilization();
        self.inner.sim.count(&LINKS_USED, util.len() as u64);
        for (_, busy) in &util {
            self.inner.sim.count(&LINK_BUSY_US, busy.as_us() as u64);
        }
        // Fault accounting flushes only when a non-empty plan is installed,
        // so fault-free snapshots are byte-identical with or without the
        // fault hooks compiled in.
        if let Some(c) = net.fault_counters(self.inner.sim.now()) {
            self.inner.sim.count(&LINK_DOWN_PS, c.link_down_ps);
            self.inner.sim.count(&LINK_DOWN_EVENTS, c.link_down_events);
            self.inner.sim.count(&DROPS, c.drops());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Sim;

    #[test]
    fn machine_construction() {
        let sim = Sim::new();
        let m = Machine::new(sim, MachineConfig::new(64).procs_per_node(16));
        assert_eq!(m.nprocs(), 64);
        assert_eq!(m.topology().shape.num_nodes(), 4);
        assert_eq!(m.target_ctx(), 0);
    }

    #[test]
    fn two_context_machine_routes_to_ctx1() {
        let sim = Sim::new();
        let m = Machine::new(sim, MachineConfig::new(4).contexts(2));
        assert_eq!(m.target_ctx(), 1);
    }

    #[test]
    fn rank_state_memory_grows_on_demand() {
        let rs = RankState::default();
        rs.write(100, &[1, 2, 3]);
        assert_eq!(rs.read(100, 3), vec![1, 2, 3]);
        assert_eq!(rs.read(4000, 2), vec![0, 0]); // untouched memory is zero
        rs.write_i64(200, -77);
        assert_eq!(rs.read_i64(200), -77);
    }

    #[test]
    fn endpoints_match_a_reference_set_and_spill_on_the_third_key() {
        use std::collections::BTreeSet;
        for seed in 1..=32u64 {
            let mut rng = desim::SimRng::new(seed);
            // Few distinct keys, so sequences revisit keys before and after
            // the spill.
            let (targets, ctxs) = (1 + rng.next_below(6), 1 + rng.next_below(2));
            let mut set = Endpoints::default();
            let mut reference = BTreeSet::new();
            for _ in 0..40 {
                let key = (rng.next_below(targets) as u32, rng.next_below(ctxs) as u8);
                assert_eq!(set.contains(&key), reference.contains(&key));
                assert_eq!(set.insert(key), reference.insert(key), "seed {seed}");
                assert_eq!(set.len(), reference.len());
                let spilled = matches!(set, Endpoints::Spilled(_));
                assert_eq!(spilled, reference.len() > 2, "spill on the third key");
                for probe in 0..8u32 {
                    let key = (probe, 0);
                    assert_eq!(set.contains(&key), reference.contains(&key));
                }
            }
        }
        // A large spilled set: 4096 distinct keys over all four contexts, in
        // a seeded random order, each inserted twice.
        let mut keys: Vec<(u32, u8)> = (0..1024u32)
            .flat_map(|t| (0..4u8).map(move |c| (t * 977 % 100_003, c)))
            .collect();
        let mut rng = desim::SimRng::new(7);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut set = Endpoints::default();
        let mut reference = BTreeSet::new();
        for (n, &key) in keys.iter().enumerate() {
            assert!(!set.contains(&key));
            assert!(set.insert(key));
            assert!(!set.insert(key), "second insert of {key:?}");
            reference.insert(key);
            assert!(set.contains(&key));
            assert_eq!(set.len(), n + 1);
            // A present key, an absent one and a neighbour in each context.
            let (old, next) = (keys[n / 2], keys[(n + 1) % keys.len()]);
            for probe in [old, next, (key.0 + 1, key.1), (key.0, 3 - key.1)] {
                assert_eq!(set.contains(&probe), reference.contains(&probe));
            }
        }
        let Endpoints::Spilled(sorted) = &set else {
            panic!("4096 keys spill");
        };
        assert!(sorted.iter().eq(reference.iter()), "sorted like the oracle");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_panics() {
        let sim = Sim::new();
        let m = Machine::new(sim, MachineConfig::new(2));
        let _ = m.rank(2);
    }

    #[test]
    fn ranks_materialize_lazily() {
        let sim = Sim::new();
        let m = Machine::new(sim, MachineConfig::new(1 << 20));
        assert_eq!(m.materialized_count(), 0, "construction touches no rank");
        // Handles and space snapshots stay free.
        let _ = m.rank(999_999);
        assert_eq!(m.space(777_777).total(), 0);
        assert_eq!(m.materialized_count(), 0);
        // First real touch materializes exactly that rank.
        m.rank(42).write_i64(0, 7);
        assert_eq!(m.materialized_ranks(), vec![42]);
        assert_eq!(m.rank(42).read_i64(0), 7);
        assert_eq!(m.materialized_count(), 1);
    }

    #[test]
    fn rank_init_hook_runs_once_per_rank() {
        use std::cell::RefCell;
        let sim = Sim::new();
        let m = Machine::new(sim, MachineConfig::new(64));
        let seen: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        m.set_rank_init(Rc::new(move |pr| {
            seen2.borrow_mut().push(pr.id());
            // Hooks may touch the rank they init without recursing.
            let _ = pr.alloc(8);
        }));
        m.rank(3).write_i64(0, 1);
        m.rank(3).write_i64(8, 2);
        m.materialize_rank(5);
        m.materialize_rank(5);
        assert_eq!(*seen.borrow(), vec![3, 5]);
    }
}
