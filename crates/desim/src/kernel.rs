//! The discrete-event kernel: event queue, virtual clock and async executor.
//!
//! [`Sim`] is a cheaply cloneable handle to the kernel. Simulated entities are
//! spawned as futures with [`Sim::spawn`]; [`Sim::run`] then executes events
//! in deterministic `(time, sequence)` order until no work remains.
//!
//! # Hot-path internals
//!
//! The kernel is single-threaded by construction (`Sim` is `!Send`), and its
//! hot paths are built around that fact:
//!
//! * Timers live in a hierarchical **timer wheel** (`wheel::TimerWheel`) with
//!   a far-future fallback heap — `O(1)` inserts for the dominant near-term
//!   deadlines while preserving exact `(time, seq)` pop order.
//! * The ready queue is a plain `RefCell<VecDeque>` behind a hand-rolled
//!   `RawWaker` — no atomics, no mutex, non-atomic refcounts. The
//!   single-thread invariant this relies on is *enforced*: a waker used from
//!   a foreign thread panics instead of racing (see `check_owner_thread`).
//! * Each task id has a persistent 16-byte `TaskHook` carrying a `queued`
//!   flag: multiple wakes before the next poll collapse into **one** queue
//!   entry, so `events_processed` counts real polls, not wake multiplicity.
//!   Hooks sit in fixed pages of a table the ready queue owns; a `Waker`
//!   points at its hook and holds a count on the queue's `Rc`, so a task
//!   costs no `Rc` block of its own.
//! * A poll lends its task a waker that borrows the kernel's count: no
//!   clone and no drop per poll.
//! * Task slots (the boxed future and a `live` flag, 24 bytes) and their
//!   hooks are recycled across spawns.

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::event::Completion;
use crate::memprof::{self, MemTag};
use crate::probe::Probes;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::timeline::Timeline;
use crate::trace::Tracer;
use crate::wheel::TimerWheel;

/// Task futures, slots, hooks and wakers.
static KERNEL_TAG: MemTag = MemTag::new("desim.kernel");
/// Timer-wheel levels, far-future heap and boxed callbacks.
static WHEEL_TAG: MemTag = MemTag::new("desim.wheel");

/// Identifier of a spawned task within a [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub(crate) usize);

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// What a task slot boxes: the spawned future plus the completion its
/// [`JoinHandle`] waits on — the future stored **once**. (An `async move {
/// let out = future.await; done.complete(out) }` wrapper stores it twice:
/// once as the captured variable of the unresumed state, once as the
/// awaitee of the suspended state, and the compiler does not overlap them.)
struct TaskFut<F: Future> {
    /// Structurally pinned: polled in place, never moved out of the box.
    fut: F,
    done: Completion<F::Output>,
}

impl<F: Future> Future for TaskFut<F> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `fut` is structurally pinned — it is only ever reached
        // through this `Pin<&mut Self>`, is never moved after the first
        // poll, and is dropped in place with the box; `TaskFut` has no
        // `Drop` impl and is not `repr(packed)`. `done` is never pinned.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: as above — `this.fut` stays where the pinned box put it.
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        fut.poll(cx).map(|out| this.done.complete(out))
    }
}

/// An object already on the heap that an event can target. A
/// [`Sim::schedule`] callback boxes its captures once per event; an object
/// scheduled with [`Sim::schedule_fire`] is queued as itself, so the event
/// allocates nothing, and `arg` tells it which of its events this is.
pub trait Fire {
    /// The event's instant has come. Consumes the reference it was queued
    /// with.
    fn fire(self: Rc<Self>, arg: u32);
}

enum TimerKind {
    Waker(Waker),
    Callback(Box<dyn FnOnce()>),
    Fire(Rc<dyn Fire>, u32),
}

// The third kind fits beside the other two: a timer and a wheel entry stay
// the size they were.
const _: () = assert!(std::mem::size_of::<TimerKind>() == 24);
const _: () = assert!(std::mem::size_of::<crate::wheel::Entry<TimerKind>>() == 40);

/// Task hooks per page of the hook table: 4 KiB pages.
const HOOK_PAGE: usize = 256;

/// Ready-queue of task ids with a pending wake, in FIFO order, plus the
/// hook table its wakers point into. The executor is single-threaded and
/// `Sim` is `!Send`, so `RefCell`s suffice — the previous `Arc<Mutex<..>>`
/// existed only to satisfy `Waker: Send + Sync`, which the custom
/// `RawWaker` below sidesteps (see its safety argument).
struct ReadyQueue {
    q: RefCell<VecDeque<u32>>,
    /// Hook `id` sits at `[id / HOOK_PAGE][id % HOOK_PAGE]`. A page is
    /// filled when it is made and never grows, moves its hooks or frees
    /// while the queue lives, so a waker may point straight at its hook.
    hooks: RefCell<Vec<Vec<TaskHook>>>,
    /// Thread the owning kernel lives on; every vtable entry checks it so a
    /// `Waker` smuggled to another thread panics instead of racing the
    /// non-atomic `Rc` count / `RefCell` queue.
    owner: std::thread::ThreadId,
}

impl ReadyQueue {
    /// Run `f` on task `id`'s hook.
    fn with_hook<R>(&self, id: usize, f: impl FnOnce(&TaskHook) -> R) -> R {
        f(&self.hooks.borrow()[id / HOOK_PAGE][id % HOOK_PAGE])
    }
}

/// Per-task-id waker state: what a `Waker` points at. Hooks persist across
/// task-slot reuse, so respawning allocates nothing for them.
struct TaskHook {
    /// The queue whose table holds this hook.
    ready: *const ReadyQueue,
    id: u32,
    /// True iff `id` currently sits in the ready queue. Set on the first
    /// wake, cleared when the entry is popped for polling; further wakes in
    /// between are coalesced instead of queueing duplicate polls.
    queued: Cell<bool>,
}

const _: () = assert!(std::mem::size_of::<TaskHook>() == 16);

impl TaskHook {
    #[inline]
    fn ready(&self) -> &ReadyQueue {
        // SAFETY: the hook lives in a page its queue owns and frees only
        // when the queue itself drops, so the queue outlives any `&self`.
        unsafe { &*self.ready }
    }

    #[inline]
    fn enqueue(&self) {
        if !self.queued.replace(true) {
            self.ready().q.borrow_mut().push_back(self.id);
        }
    }
}

// SAFETY argument for the `Rc`-based waker: `Waker` is nominally
// `Send + Sync`, but every structure reachable from it here (the hook, the
// `Rc<ReadyQueue>` holding its page, the `RefCell` queue) belongs to a
// `Sim`, and `Sim` is `!Send`/`!Sync` (it is `Rc`-based itself). Futures,
// their wakers and all kernel state therefore live and die on the one
// thread that created the simulation — the parallel sweep harness
// parallelizes across whole simulations, never within one. Because `Waker`
// itself *is* `Send`, safe user code could still clone `cx.waker()` and
// ship it to another thread; the invariant is therefore enforced at
// runtime, not merely documented: every vtable entry first compares
// `ReadyQueue::owner` against the calling thread and panics on a mismatch,
// before any `Rc` count or `RefCell` is touched. (`owner` and the hook's
// fields other than `queued` are written once, before any waker exists, so
// the cross-thread reads used by the check itself are race-free.) A waker's
// data pointer is its hook; each owned handle holds one strong count on the
// hook's queue, which keeps the hook's page alive. Under that enforced
// invariant the vtable below upholds the `RawWaker` contract: clone takes a
// count, drop releases one, wake enqueues and then releases one. The waker a
// poll lends (`poll_task`) holds no count of its own: it borrows the
// kernel's for the duration of the poll and is never dropped.
const HOOK_VTABLE: RawWakerVTable =
    RawWakerVTable::new(hook_clone, hook_wake, hook_wake_by_ref, hook_drop);

/// Calling thread's id via a thread-local cache — cheaper than
/// `thread::current()` (which clones an `Arc`) on the wake hot path.
#[inline]
fn current_thread_id() -> std::thread::ThreadId {
    thread_local! {
        static TID: std::thread::ThreadId = std::thread::current().id();
    }
    TID.with(|t| *t)
}

/// Panic unless a waker is used on the thread that owns its kernel. Called
/// on the queue reached straight from the raw pointer, deliberately before
/// the non-atomic refcount or the `RefCell` queue could be touched.
#[inline]
fn check_owner_thread(ready: &ReadyQueue) {
    if ready.owner != current_thread_id() {
        panic!(
            "desim Waker used from a foreign thread: Sim and every waker it \
             hands out are single-threaded (parallelize across whole Sims, \
             never within one)"
        );
    }
}

/// The waker a poll lends its task: it borrows the kernel's count on the
/// queue, so it must never be dropped (clones take their own count).
fn lent_waker(hook: *const TaskHook) -> ManuallyDrop<Waker> {
    // SAFETY: see the vtable comment above; `ManuallyDrop` keeps `hook_drop`
    // from releasing the count this handle never took.
    ManuallyDrop::new(unsafe { Waker::from_raw(RawWaker::new(hook.cast(), &HOOK_VTABLE)) })
}

/// The hook behind a waker's data pointer, after the owner-thread check.
///
/// # Safety
///
/// `p` is the data pointer of a live waker from this module.
unsafe fn hook_of<'a>(p: *const ()) -> &'a TaskHook {
    // SAFETY: a live waker holds (or, lent, borrows) a count on the queue
    // whose page holds the hook, so the hook is alive.
    let hook = unsafe { &*p.cast::<TaskHook>() };
    check_owner_thread(hook.ready());
    hook
}

unsafe fn hook_clone(p: *const ()) -> RawWaker {
    // SAFETY: `p` comes from a live waker (vtable contract).
    let hook = unsafe { hook_of(p) };
    // SAFETY: the new handle takes its own count (same thread, checked).
    // `hook.ready` is `Rc::as_ptr` of the kernel's queue, the pointer
    // `Rc::into_raw` would return.
    unsafe { Rc::increment_strong_count(hook.ready) };
    RawWaker::new(p, &HOOK_VTABLE)
}

unsafe fn hook_wake(p: *const ()) {
    // SAFETY: as in `hook_clone`. On a foreign thread this panics before
    // touching the count, leaking it.
    let hook = unsafe { hook_of(p) };
    hook.enqueue();
    // SAFETY: a by-value wake consumes the handle's count, as in
    // `hook_drop`; the hook is not read after.
    unsafe { Rc::decrement_strong_count(hook.ready) };
}

unsafe fn hook_wake_by_ref(p: *const ()) {
    // SAFETY: as in `hook_clone`.
    unsafe { hook_of(p) }.enqueue();
}

unsafe fn hook_drop(p: *const ()) {
    // SAFETY: as in `hook_clone`; releases the handle's count, which may
    // free the queue and the hook's page, so the hook is not read after.
    unsafe { Rc::decrement_strong_count(hook_of(p).ready) };
}

/// One entry of the task table. Slots are allocated once and recycled: when
/// a task completes, its id goes on the free list but the slot and its hook
/// stay, so respawning costs no allocation.
struct TaskSlot {
    future: Option<BoxFuture>,
    /// False once the task completed or was shut down; guards against a
    /// poll-in-flight future being written back into a reaped slot.
    live: bool,
}

const _: () = assert!(std::mem::size_of::<TaskSlot>() == 24);

/// Sequence numbers a seeded key leaves in its low bits: 2⁴⁰ events a run.
const SEQ_BITS: u32 = 40;

/// The splitmix64 finalizer: a well-mixed function of `x`.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded order of same-instant events (DESIGN.md §11, "Perturbed
/// schedules"): any order of events at one instant is a legal schedule,
/// except within a `fifo` lane, which the layer above uses for what must
/// stay in order (a pair's ordered messages).
struct TieBreak {
    key: u64,
    /// Ready-queue pops so far: each pop's end is keyed on its count.
    pops: Cell<u64>,
}

impl TieBreak {
    /// The wheel key of sequence number `seq`: a keyed hash of its lane (of
    /// `seq` itself when it has none) above `seq`'s low bits. The low bits
    /// keep it a bijection of `seq`, and events of one lane share the high
    /// bits, so at one instant they pop in `seq` order.
    fn key(&self, seq: u64, fifo: Option<u64>) -> u64 {
        debug_assert!(seq >> SEQ_BITS == 0, "more than 2^40 events");
        let low = (1 << SEQ_BITS) - 1;
        let lane = fifo.map_or(seq, |f| f ^ (1 << 63));
        (mix(lane ^ self.key) & !low) | (seq & low)
    }

    /// Whether the next ready-queue pop takes the newest task, not the
    /// oldest.
    fn pop_back(&self) -> bool {
        let n = self.pops.get();
        self.pops.set(n + 1);
        mix(n ^ self.key) & 1 == 1
    }
}

pub(crate) struct Kernel {
    now: Cell<SimTime>,
    next_seq: Cell<u64>,
    /// Same-instant order: `None` (FIFO) at schedule seed 0.
    tie: Option<TieBreak>,
    timers: RefCell<TimerWheel<TimerKind>>,
    ready: Rc<ReadyQueue>,
    tasks: RefCell<Vec<TaskSlot>>,
    free: RefCell<Vec<usize>>,
    live_tasks: Cell<usize>,
    events_processed: Cell<u64>,
    probes: Probes,
    /// Next virtual time (ps) at which live-bytes gauges should be sampled
    /// into the timeline. Only consulted when the memory profiler is on.
    mem_next: Cell<u64>,
    /// Cached `mem.live_bytes.<tag>` series ids, indexed by tag id.
    mem_ids: RefCell<Vec<Option<usize>>>,
}

impl Kernel {
    fn new(seed: u64) -> Rc<Kernel> {
        Rc::new(Kernel {
            now: Cell::new(SimTime::ZERO),
            next_seq: Cell::new(0),
            tie: (seed != 0).then(|| TieBreak {
                key: mix(seed),
                pops: Cell::new(0),
            }),
            timers: RefCell::new(TimerWheel::new()),
            ready: Rc::new(ReadyQueue {
                q: RefCell::new(VecDeque::new()),
                hooks: RefCell::new(Vec::new()),
                owner: current_thread_id(),
            }),
            tasks: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            live_tasks: Cell::new(0),
            events_processed: Cell::new(0),
            probes: Probes::default(),
            mem_next: Cell::new(0),
            mem_ids: RefCell::new(Vec::new()),
        })
    }

    /// The next sequence number, as the wheel's tie-break key: the number
    /// itself at seed 0, else its keyed permutation, in which events of one
    /// `fifo` lane keep their order ([`TieBreak::key`]).
    fn bump_seq(&self, fifo: Option<u64>) -> u64 {
        let s = self.next_seq.get();
        self.next_seq.set(s + 1);
        match &self.tie {
            None => s,
            Some(tie) => tie.key(s, fifo),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    fn add_timer(&self, at: SimTime, fifo: Option<u64>, kind: TimerKind) {
        debug_assert!(at >= self.now.get(), "event scheduled in the past");
        let _mem = memprof::scope(&WHEEL_TAG);
        self.timers
            .borrow_mut()
            .insert(at.as_ps(), self.bump_seq(fifo), kind);
    }

    fn alloc_task(&self, future: BoxFuture) -> usize {
        let reused = self.free.borrow_mut().pop();
        let id = match reused {
            Some(id) => {
                let mut tasks = self.tasks.borrow_mut();
                let slot = &mut tasks[id];
                debug_assert!(slot.future.is_none() && !slot.live);
                // Note: the hook's `queued` is deliberately left alone — it
                // tracks ready-queue membership, which survives slot reuse.
                slot.future = Some(future);
                slot.live = true;
                id
            }
            None => {
                let mut tasks = self.tasks.borrow_mut();
                let id = tasks.len();
                if id.is_multiple_of(HOOK_PAGE) {
                    let ready = Rc::as_ptr(&self.ready);
                    let first = u32::try_from(id).expect("task ids fit in u32");
                    let mut page = Vec::with_capacity(HOOK_PAGE);
                    page.extend((first..).take(HOOK_PAGE).map(|id| TaskHook {
                        ready,
                        id,
                        queued: Cell::new(false),
                    }));
                    self.ready.hooks.borrow_mut().push(page);
                }
                tasks.push(TaskSlot {
                    future: Some(future),
                    live: true,
                });
                id
            }
        };
        self.live_tasks.set(self.live_tasks.get() + 1);
        id
    }

    fn enqueue_task(&self, id: usize) {
        self.ready.with_hook(id, TaskHook::enqueue);
    }

    /// Poll one task. The future is removed from its slot for the duration of
    /// the poll so the task table is not borrowed while user code runs (user
    /// code may spawn tasks, create timers, wake other tasks, …).
    fn poll_task(&self, id: usize) {
        let (mut future, hook) = {
            let mut tasks = self.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id) else {
                return;
            };
            // The queue entry is consumed: clear before polling, so a wake
            // *during* the poll re-queues the task as it must.
            let hook = self.ready.with_hook(id, |hook| {
                hook.queued.set(false);
                hook as *const TaskHook
            });
            let Some(future) = slot.future.take() else {
                return; // finished task (stale wake) or re-entrant poll
            };
            (future, hook)
        };
        let waker = lent_waker(hook);
        let mut cx = Context::from_waker(&waker);
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                {
                    let mut tasks = self.tasks.borrow_mut();
                    tasks[id].live = false;
                }
                self.free.borrow_mut().push(id);
                self.live_tasks.set(self.live_tasks.get() - 1);
                // `future` drops here, outside the task-table borrow.
            }
            Poll::Pending => {
                let mut tasks = self.tasks.borrow_mut();
                let slot = &mut tasks[id];
                if slot.live {
                    slot.future = Some(future);
                }
                // else: the task was shut down mid-poll; drop the future.
            }
        }
    }

    /// Drain the ready queue, polling tasks at the current time: in FIFO
    /// order at seed 0, else each from a keyed end of the queue.
    fn drain_ready(&self) {
        loop {
            let id = {
                let mut q = self.ready.q.borrow_mut();
                match &self.tie {
                    Some(tie) if tie.pop_back() => q.pop_back(),
                    _ => q.pop_front(),
                }
            };
            let Some(id) = id else { break };
            self.events_processed.set(self.events_processed.get() + 1);
            self.poll_task(id as usize);
        }
    }

    /// Fire the earliest timer, advancing the clock. Returns false if no
    /// timers remain.
    fn fire_next_timer(&self) -> bool {
        let entry = self.timers.borrow_mut().pop();
        match entry {
            Some(entry) => {
                debug_assert!(entry.at >= self.now.get().as_ps());
                self.now.set(SimTime(entry.at));
                self.maybe_sample_mem();
                self.events_processed.set(self.events_processed.get() + 1);
                match entry.payload {
                    TimerKind::Waker(w) => w.wake(),
                    TimerKind::Callback(cb) => cb(),
                    TimerKind::Fire(target, arg) => target.fire(arg),
                }
                true
            }
            None => false,
        }
    }

    /// Record `mem.live_bytes.<tag>` gauges into the timeline at most once
    /// per timeline window. The disabled-path cost on the timer hot path is
    /// the single relaxed load inside `memprof::enabled()`.
    fn maybe_sample_mem(&self) {
        let timeline = &self.probes.timeline;
        if !memprof::enabled() || !timeline.on() {
            return;
        }
        let now_ps = self.now.get().as_ps();
        if now_ps < self.mem_next.get() {
            return;
        }
        let w = timeline.window_ps().max(1);
        self.mem_next.set((now_ps / w + 1) * w);
        memprof::record_live_gauges(timeline, self.now.get(), &mut self.mem_ids.borrow_mut());
    }
}

/// Handle to a running simulation. Clone freely; all clones share the kernel.
#[derive(Clone)]
pub struct Sim {
    k: Rc<Kernel>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation at time zero.
    pub fn new() -> Sim {
        Sim { k: Kernel::new(0) }
    }

    /// A fresh simulation whose same-instant events run in an order keyed
    /// on `seed` (DESIGN.md §11, "Perturbed schedules"): timers at one
    /// instant pop in a seeded permutation of their insertion order, except
    /// that timers of one lane ([`Sim::schedule_fifo`]) keep theirs, and
    /// each ready-queue pop takes the oldest or the newest ready task. Every
    /// such order is a legal schedule; seed 0 is [`Sim::new`]'s FIFO order,
    /// the one every golden was made with.
    pub fn with_schedule_seed(seed: u64) -> Sim {
        Sim {
            k: Kernel::new(seed),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.k.now()
    }

    /// The simulation's sinks behind one handle: every layer records its
    /// [`crate::Probe`] rows here.
    #[inline]
    pub fn probes(&self) -> &Probes {
        &self.k.probes
    }

    /// Record `n` of `row` now ([`Probes::count`]).
    pub fn count(&self, row: crate::probe::Row, n: u64) {
        self.k.probes.count(row, self.now(), n);
    }

    /// Shared statistics registry for this simulation.
    pub fn stats(&self) -> Stats {
        self.k.probes.stats.clone()
    }

    /// Shared event tracer for this simulation. Disabled (and free) unless
    /// [`Tracer::enable`] is called.
    pub fn tracer(&self) -> Tracer {
        self.k.probes.tracer.clone()
    }

    /// Shared windowed telemetry timeline for this simulation. Disabled (and
    /// free) unless [`Timeline::enable`] is called.
    pub fn timeline(&self) -> Timeline {
        self.k.probes.timeline.clone()
    }

    /// Number of events (task polls + timer firings) processed so far.
    pub fn events_processed(&self) -> u64 {
        self.k.events_processed.get()
    }

    /// Number of tasks that have been spawned but not yet completed.
    pub fn pending_tasks(&self) -> usize {
        self.k.live_tasks.get()
    }

    /// Size of the task table (live slots plus recycled free slots). Slots
    /// are never reclaimed individually, so this is the high-water mark of
    /// *concurrently* live tasks — mass spawn/retire churn must not grow it
    /// past the widest wave (see `tests/task_churn.rs`).
    pub fn task_slots(&self) -> usize {
        self.k.tasks.borrow().len()
    }

    /// Heap bytes of `task`'s boxed future (the spawned future plus its
    /// completion handle), or `None` once the task has finished. What a
    /// parked task costs the host. Only `tests/task_size.rs` calls it; it
    /// stays because the task table is private to the kernel.
    pub fn task_bytes(&self, task: TaskId) -> Option<usize> {
        let tasks = self.k.tasks.borrow();
        let fut = tasks.get(task.0)?.future.as_ref()?;
        Some(std::mem::size_of_val(&**fut))
    }

    /// Spawn a task. It is scheduled to run at the current virtual time.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let done = Completion::new();
        let _mem = memprof::scope_default(&KERNEL_TAG);
        let id = self.k.alloc_task(Box::pin(TaskFut {
            fut: future,
            done: done.clone(),
        }));
        self.k.enqueue_task(id);
        JoinHandle {
            task: TaskId(id),
            done,
        }
    }

    /// Schedule `cb` to run at absolute time `at` (must not be in the past).
    pub fn schedule<F: FnOnce() + 'static>(&self, at: SimTime, cb: F) {
        self.schedule_fifo(at, None, cb);
    }

    /// [`Sim::schedule`] in lane `fifo`: under any schedule seed, events of
    /// one lane at one instant run in the order they were scheduled. `None`
    /// is [`Sim::schedule`].
    pub fn schedule_fifo<F: FnOnce() + 'static>(&self, at: SimTime, fifo: Option<u64>, cb: F) {
        let _mem = memprof::scope_default(&KERNEL_TAG);
        self.k
            .add_timer(at, fifo, TimerKind::Callback(Box::new(cb)));
    }

    /// Fire `target` with `arg` at absolute time `at` (must not be in the
    /// past). Ordered exactly like [`Sim::schedule`] — it takes the next
    /// sequence number where `schedule` would — but queues the `Rc` itself,
    /// so the event allocates nothing. [`Sim::shutdown`] drops pending
    /// targets.
    pub fn schedule_fire(&self, at: SimTime, target: Rc<dyn Fire>, arg: u32) {
        self.schedule_fire_fifo(at, None, target, arg);
    }

    /// [`Sim::schedule_fire`] in lane `fifo` ([`Sim::schedule_fifo`]).
    pub fn schedule_fire_fifo(
        &self,
        at: SimTime,
        fifo: Option<u64>,
        target: Rc<dyn Fire>,
        arg: u32,
    ) {
        self.k.add_timer(at, fifo, TimerKind::Fire(target, arg));
    }

    /// Schedule `cb` to run `after` from now.
    pub fn schedule_in<F: FnOnce() + 'static>(&self, after: SimDuration, cb: F) {
        self.schedule(self.now() + after, cb);
    }

    /// Future that completes once `d` of virtual time has elapsed.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Future that completes at absolute time `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            k: Rc::clone(&self.k),
            deadline,
            registered: false,
        }
    }

    /// Run until no events remain. Returns the final virtual time.
    ///
    /// Tasks that are still pending (e.g. daemon-style progress loops blocked
    /// on a channel) are left in place; inspect [`Sim::pending_tasks`] and use
    /// [`Sim::shutdown`] to reclaim them.
    pub fn run(&self) -> SimTime {
        loop {
            self.k.drain_ready();
            if !self.k.fire_next_timer() {
                break;
            }
        }
        self.now()
    }

    /// Run until the virtual clock would pass `deadline`; events at exactly
    /// `deadline` are processed. Returns the current time afterwards.
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        loop {
            self.k.drain_ready();
            let next = self.k.timers.borrow_mut().peek().map(|(at, _)| at);
            match next {
                Some(at) if at <= deadline.as_ps() => {
                    self.k.fire_next_timer();
                }
                _ => break,
            }
        }
        self.now()
    }

    /// Drop all remaining tasks and timers, breaking `Rc` cycles between the
    /// kernel and futures that captured `Sim` handles. Call when a simulation
    /// with daemon tasks is finished.
    pub fn shutdown(&self) {
        self.k.timers.borrow_mut().clear();
        self.k.ready.q.borrow_mut().clear();
        // Futures may own JoinHandles/Completions; dropping them can run Drop
        // impls that call back into the kernel, so take them out first.
        let futures: Vec<Option<BoxFuture>> = {
            let mut tasks = self.k.tasks.borrow_mut();
            tasks
                .iter_mut()
                .map(|slot| {
                    slot.live = false;
                    slot.future.take()
                })
                .collect()
        };
        drop(futures);
        // Those Drop impls may have woken tasks, re-queueing ids after the
        // clear above; reset queue state again as the final word so nothing
        // stale survives into the next run (a stale entry would cost one
        // no-op poll and could skew a respawned task's initial poll order).
        self.k.ready.q.borrow_mut().clear();
        for hook in self.k.ready.hooks.borrow().iter().flatten() {
            hook.queued.set(false);
        }
        let len = self.k.tasks.borrow().len();
        let mut free = self.k.free.borrow_mut();
        free.clear();
        // Reversed so the next allocations hand out ids 0, 1, 2, … exactly
        // like a fresh kernel would.
        free.extend((0..len).rev());
        self.k.live_tasks.set(0);
    }
}

/// Handle returned by [`Sim::spawn`]; await the task's result with
/// [`JoinHandle::join`].
pub struct JoinHandle<T> {
    task: TaskId,
    done: Completion<T>,
}

impl<T: Clone + 'static> JoinHandle<T> {
    /// Wait for the task to finish and return (a clone of) its output.
    pub async fn join(&self) -> T {
        self.done.wait().await
    }

    /// The task's output if it has already finished.
    pub fn try_result(&self) -> Option<T> {
        self.done.peek()
    }
}

impl<T> JoinHandle<T> {
    /// True once the task has run to completion.
    pub fn is_done(&self) -> bool {
        self.done.is_complete()
    }

    /// Identifier of the underlying task.
    pub fn task_id(&self) -> TaskId {
        self.task
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    k: Rc<Kernel>,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.k.now() >= this.deadline {
            Poll::Ready(())
        } else {
            // Register exactly once: the task waker is stable, and duplicate
            // timer entries from spurious re-polls would snowball.
            if !this.registered {
                this.k
                    .add_timer(this.deadline, None, TimerKind::Waker(cx.waker().clone()));
                this.registered = true;
            }
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn empty_sim_runs_to_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run(), SimTime::ZERO);
        assert_eq!(sim.pending_tasks(), 0);
    }

    #[test]
    fn sleep_advances_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_us(7)).await;
            s.now()
        });
        sim.run();
        assert_eq!(h.try_result().unwrap().as_us(), 7.0);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::ZERO).await;
            s.now()
        });
        sim.run();
        assert_eq!(h.try_result().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let order: Rc<StdRefCell<Vec<(u32, u64)>>> = Rc::new(StdRefCell::new(Vec::new()));
        let sim = Sim::new();
        for id in 0..3u32 {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                for step in 0..3u64 {
                    s.sleep(SimDuration::from_us(step + 1)).await;
                    order.borrow_mut().push((id, s.now().as_ps()));
                }
            });
        }
        sim.run();
        let got = order.borrow().clone();
        // All tasks share the same deadlines; ties must break by spawn order.
        let mut expect = Vec::new();
        for (step, t) in [(0u64, 1u64), (1, 3), (2, 6)] {
            let _ = step;
            for id in 0..3u32 {
                expect.push((id, t * 1_000_000));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn schedule_callbacks_fire_in_order() {
        let sim = Sim::new();
        let hits: Rc<StdRefCell<Vec<u64>>> = Rc::new(StdRefCell::new(Vec::new()));
        for us in [5u64, 1, 3] {
            let hits = Rc::clone(&hits);
            sim.schedule_in(SimDuration::from_us(us), move || {
                hits.borrow_mut().push(us);
            });
        }
        sim.run();
        assert_eq!(&*hits.borrow(), &[1, 3, 5]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_us(10)).await;
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_us(5));
        assert!(!h.is_done());
        assert_eq!(sim.pending_tasks(), 1);
        sim.run();
        assert!(h.is_done());
    }

    #[test]
    fn run_until_includes_exact_deadline() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_us(5)).await;
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_us(5));
        assert!(h.is_done());
    }

    #[test]
    fn spawn_from_within_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let s2 = s.clone();
            let inner = s.spawn(async move {
                s2.sleep(SimDuration::from_us(2)).await;
                42u32
            });
            inner.join().await
        });
        sim.run();
        assert_eq!(h.try_result(), Some(42));
    }

    #[test]
    fn shutdown_reclaims_daemon_tasks() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            loop {
                s.sleep(SimDuration::from_us(1)).await;
                if s.now() > SimTime::ZERO + SimDuration::from_ms(1) {
                    // Never true within run_until below; this is a daemon.
                }
            }
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_us(10));
        assert_eq!(sim.pending_tasks(), 1);
        sim.shutdown();
        assert_eq!(sim.pending_tasks(), 0);
        // A fresh run after shutdown is a no-op, not a panic.
        let t = sim.run();
        assert_eq!(t, SimTime::ZERO + SimDuration::from_us(10));
    }

    #[test]
    fn callbacks_and_tasks_interleave_by_schedule_order() {
        // A callback and a task wake at the same instant: the one scheduled
        // first (lower sequence) fires first.
        let sim = Sim::new();
        let log: Rc<StdRefCell<Vec<&'static str>>> = Rc::new(StdRefCell::new(Vec::new()));
        {
            let log = Rc::clone(&log);
            sim.schedule_in(SimDuration::from_us(5), move || {
                log.borrow_mut().push("callback");
            });
        }
        {
            let log = Rc::clone(&log);
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(5)).await;
                log.borrow_mut().push("task");
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &["callback", "task"]);
    }

    /// A `Fire` target that logs each event's `arg`.
    struct Logger(Rc<StdRefCell<Vec<String>>>);

    impl Fire for Logger {
        fn fire(self: Rc<Self>, arg: u32) {
            self.0.borrow_mut().push(format!("fire{arg}"));
        }
    }

    #[test]
    fn callbacks_fires_and_sleeps_at_one_instant_run_in_insertion_order() {
        let sim = Sim::new();
        let log: Rc<StdRefCell<Vec<String>>> = Rc::new(StdRefCell::new(Vec::new()));
        let target = Rc::new(Logger(Rc::clone(&log)));
        let at = SimTime::ZERO + SimDuration::from_us(5);
        let callback = |name: &'static str| {
            let log = Rc::clone(&log);
            move || log.borrow_mut().push(name.to_string())
        };
        sim.schedule_fire(at, target.clone(), 0);
        sim.schedule(at, callback("cb0"));
        {
            let (s, log) = (sim.clone(), Rc::clone(&log));
            sim.spawn(async move {
                s.sleep_until(at).await;
                log.borrow_mut().push("task".to_string());
            });
        }
        // The task registers its sleep when first polled: run up to it, so
        // the events below are inserted after the sleep.
        sim.run_until(SimTime::ZERO);
        sim.schedule_fire(at, target.clone(), 1);
        sim.schedule(at, callback("cb1"));
        sim.schedule_fire(at, target, 2);
        sim.run();
        assert_eq!(
            *log.borrow(),
            ["fire0", "cb0", "task", "fire1", "cb1", "fire2"]
        );
    }

    #[test]
    fn shutdown_releases_pending_fire_targets() {
        let sim = Sim::new();
        let target = Rc::new(Logger(Rc::new(StdRefCell::new(Vec::new()))));
        for (us, arg) in [(1, 0), (1 << 20, 1), (1 << 40, 2)] {
            sim.schedule_fire(
                SimTime::ZERO + SimDuration::from_us(us),
                target.clone(),
                arg,
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_us(2));
        assert_eq!(*target.0.borrow(), ["fire0"]);
        assert_eq!(Rc::strong_count(&target), 3);
        sim.shutdown();
        assert_eq!(Rc::strong_count(&target), 1);
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_us(1));
    }

    #[test]
    fn join_handle_try_result_before_completion() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_us(1)).await;
            7u8
        });
        assert_eq!(h.try_result(), None);
        assert!(!h.is_done());
        sim.run();
        assert_eq!(h.try_result(), Some(7));
        assert!(h.is_done());
    }

    #[test]
    fn run_is_idempotent_after_completion() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move { s.sleep(SimDuration::from_us(3)).await });
        let t1 = sim.run();
        let t2 = sim.run();
        assert_eq!(t1, t2);
    }

    #[test]
    fn events_processed_counts_work() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(1)).await;
        });
        sim.run();
        assert!(sim.events_processed() >= 2);
    }

    /// A future that parks until an external callback flips `ready`, exposing
    /// its waker so tests can wake it an arbitrary number of times.
    struct ManualGate {
        ready: Rc<Cell<bool>>,
        waker_out: Rc<StdRefCell<Option<Waker>>>,
    }

    impl Future for ManualGate {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.ready.get() {
                Poll::Ready(())
            } else {
                *self.waker_out.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    fn run_gate(wakes: usize) -> u64 {
        let sim = Sim::new();
        let ready = Rc::new(Cell::new(false));
        let waker_out: Rc<StdRefCell<Option<Waker>>> = Rc::new(StdRefCell::new(None));
        sim.spawn(ManualGate {
            ready: Rc::clone(&ready),
            waker_out: Rc::clone(&waker_out),
        });
        {
            let ready = Rc::clone(&ready);
            let waker_out = Rc::clone(&waker_out);
            sim.schedule_in(SimDuration::from_us(1), move || {
                ready.set(true);
                if let Some(w) = waker_out.borrow().as_ref() {
                    for _ in 0..wakes {
                        w.wake_by_ref();
                    }
                }
            });
        }
        sim.run();
        sim.events_processed()
    }

    #[test]
    fn duplicate_wakes_coalesce_into_one_poll() {
        // Regression test for double-poll inflation: N wakes of one task
        // before its next poll must queue exactly one poll, so the event
        // count cannot depend on wake multiplicity.
        let once = run_gate(1);
        let thrice = run_gate(3);
        assert_eq!(thrice, once);
    }

    #[test]
    fn sleeps_across_all_wheel_levels() {
        // Deadlines landing in the finest wheel level, the coarser levels,
        // and past the whole hierarchy (far-future heap + rebase).
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let mut hits = Vec::new();
            for d in [
                SimDuration::from_ns(1),
                SimDuration::from_us(100),
                SimDuration::from_ms(50),
                SimDuration::from_secs(2),
                SimDuration::from_ns(3),
            ] {
                s.sleep(d).await;
                hits.push(s.now().as_ps());
            }
            hits
        });
        sim.run();
        assert_eq!(
            h.try_result().unwrap(),
            vec![
                1_000,
                100_001_000,
                50_100_001_000,
                2_050_100_001_000,
                2_050_100_004_000,
            ]
        );
    }

    #[test]
    fn schedule_after_idle_run_fires() {
        // Regression: once run() drained everything, the timer wheel was
        // left exhausted and a later schedule_in() at various horizons was
        // silently dropped — run() returned immediately without firing it.
        let sim = Sim::new();
        sim.run(); // drive the (empty) wheel to full exhaustion
        let hits = Rc::new(Cell::new(0u32));
        for d in [
            SimDuration::from_ns(10),
            SimDuration::from_us(100),
            SimDuration::from_ms(100),
            SimDuration::from_secs(5),
        ] {
            let hits = Rc::clone(&hits);
            let before = sim.now();
            sim.schedule_in(d, move || hits.set(hits.get() + 1));
            assert_eq!(sim.run(), before + d, "timer lost after idle run");
        }
        assert_eq!(hits.get(), 4);
    }

    #[test]
    fn sleep_after_run_until_phase_fires() {
        // Multi-phase use: run_until() to idle, then schedule more work.
        let sim = Sim::new();
        sim.run_until(SimTime::ZERO + SimDuration::from_ms(1));
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_ms(50)).await;
            s.now()
        });
        sim.run();
        assert_eq!(
            h.try_result(),
            Some(SimTime::ZERO + SimDuration::from_ms(50))
        );
    }

    #[test]
    fn waker_panics_on_foreign_thread() {
        // A Waker clone is Send by type, but using it off the owning thread
        // must panic (enforced invariant) rather than race the Rc/RefCell.
        let sim = Sim::new();
        let ready = Rc::new(Cell::new(false));
        let waker_out: Rc<StdRefCell<Option<Waker>>> = Rc::new(StdRefCell::new(None));
        sim.spawn(ManualGate {
            ready: Rc::clone(&ready),
            waker_out: Rc::clone(&waker_out),
        });
        sim.run_until(SimTime::ZERO); // poll once so the waker is captured
        let waker = waker_out.borrow_mut().take().unwrap();
        let joined = std::thread::spawn(move || waker.wake()).join();
        assert!(joined.is_err(), "cross-thread wake must panic");
        sim.shutdown();
    }

    #[test]
    fn a_waker_outlives_its_sim() {
        // A clone holds a count on the ready queue, which owns the hook
        // table: cloning, waking and dropping after the Sim is gone touch
        // only memory that count keeps alive.
        let sim = Sim::new();
        let waker_out: Rc<StdRefCell<Option<Waker>>> = Rc::new(StdRefCell::new(None));
        sim.spawn(ManualGate {
            ready: Rc::new(Cell::new(false)),
            waker_out: Rc::clone(&waker_out),
        });
        sim.run_until(SimTime::ZERO);
        let waker = waker_out.borrow_mut().take().unwrap();
        drop(sim);
        let twin = waker.clone();
        twin.wake();
        waker.wake_by_ref();
        drop(waker);
    }

    #[test]
    fn a_stale_waker_wakes_its_slots_new_task_at_most_once() {
        let sim = Sim::new();
        let ready = Rc::new(Cell::new(false));
        let waker_out: Rc<StdRefCell<Option<Waker>>> = Rc::new(StdRefCell::new(None));
        let first = sim.spawn(ManualGate {
            ready: Rc::clone(&ready),
            waker_out: Rc::clone(&waker_out),
        });
        sim.run_until(SimTime::ZERO);
        let stale = waker_out.borrow_mut().take().unwrap();
        ready.set(true);
        stale.wake_by_ref();
        sim.run_until(SimTime::ZERO);
        assert!(first.is_done());

        // The next spawn reuses the slot, hook included; it parks forever.
        let polls = Rc::new(Cell::new(0u32));
        let counted = Rc::clone(&polls);
        let second = sim.spawn(std::future::poll_fn(move |_| {
            counted.set(counted.get() + 1);
            Poll::<()>::Pending
        }));
        assert_eq!(second.task_id(), first.task_id());
        sim.run_until(SimTime::ZERO);
        assert_eq!(polls.get(), 1);
        let before = sim.events_processed();
        for _ in 0..3 {
            stale.wake_by_ref();
        }
        let twin = stale.clone();
        twin.wake();
        sim.run_until(SimTime::ZERO);
        assert_eq!(polls.get(), 2, "four stale wakes, one poll");
        assert_eq!(sim.events_processed(), before + 1);
        drop(stale);
        sim.shutdown();
    }

    #[test]
    fn shutdown_survives_drop_impls_that_wake() {
        // A future's Drop impl may call back into the kernel and wake a
        // task; shutdown() must not let that re-queued id leak into the
        // next run (it would inflate events_processed by a no-op poll and
        // skew a respawned task's initial poll order).
        struct WakeOnDrop {
            waker: Rc<StdRefCell<Option<Waker>>>,
        }
        impl Drop for WakeOnDrop {
            fn drop(&mut self) {
                if let Some(w) = self.waker.borrow().as_ref() {
                    w.wake_by_ref();
                }
            }
        }
        let sim = Sim::new();
        let ready = Rc::new(Cell::new(false));
        let waker_out: Rc<StdRefCell<Option<Waker>>> = Rc::new(StdRefCell::new(None));
        let guard = WakeOnDrop {
            waker: Rc::clone(&waker_out),
        };
        let gate = ManualGate {
            ready: Rc::clone(&ready),
            waker_out: Rc::clone(&waker_out),
        };
        sim.spawn(async move {
            let _guard = guard;
            gate.await;
        });
        sim.run_until(SimTime::ZERO); // park the task, capturing its waker
        sim.shutdown();
        assert!(
            sim.k.ready.q.borrow().is_empty(),
            "stale ready entry survived shutdown"
        );
        let before = sim.events_processed();
        sim.run();
        assert_eq!(
            sim.events_processed(),
            before,
            "shutdown left a no-op poll behind"
        );
        // A respawn on the recycled slot behaves like a fresh kernel's.
        let h = sim.spawn(async {});
        sim.run();
        assert!(h.is_done());
    }

    #[test]
    fn task_slots_are_recycled() {
        // Sequentially spawn-and-finish many tasks: ids (and thus slots,
        // hooks, wakers) must be reused rather than growing the table.
        let sim = Sim::new();
        let first = sim.spawn(async {}).task_id();
        sim.run();
        for _ in 0..100 {
            let h = sim.spawn(async {});
            sim.run();
            assert_eq!(h.task_id(), first, "slot not recycled");
        }
    }
}
