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
//!   `RawWaker` over `Rc` — no atomics, no mutex, non-atomic refcounts. The
//!   single-thread invariant this relies on is *enforced*: a waker used from
//!   a foreign thread panics instead of racing (see `check_owner_thread`).
//! * Each task id has a persistent `TaskHook` carrying a `queued` flag:
//!   multiple wakes before the next poll collapse into **one** queue entry,
//!   so `events_processed` counts real polls, not wake multiplicity.
//! * Task slots and their hooks/wakers are recycled across spawns.

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

/// Ready-queue of task ids with a pending wake, in FIFO order. The executor
/// is single-threaded and `Sim` is `!Send`, so a `RefCell` suffices — the
/// previous `Arc<Mutex<..>>` existed only to satisfy `Waker: Send + Sync`,
/// which the custom `RawWaker` below sidesteps (see its safety argument).
struct ReadyQueue {
    q: RefCell<VecDeque<usize>>,
}

/// Per-task-slot waker state, shared between the task table and every
/// `Waker` clone handed out to futures. Hooks persist across task-slot
/// reuse, so spawning recycles the allocation and the `Waker`.
struct TaskHook {
    id: usize,
    /// True iff `id` currently sits in the ready queue. Set on the first
    /// wake, cleared when the entry is popped for polling; further wakes in
    /// between are coalesced instead of queueing duplicate polls.
    queued: Cell<bool>,
    ready: Rc<ReadyQueue>,
    /// Thread the owning kernel lives on; every vtable entry checks it so a
    /// `Waker` smuggled to another thread panics instead of racing the
    /// non-atomic `Rc` count / `RefCell` queue.
    owner: std::thread::ThreadId,
}

impl TaskHook {
    #[inline]
    fn enqueue(&self) {
        if !self.queued.replace(true) {
            self.ready.q.borrow_mut().push_back(self.id);
        }
    }
}

// SAFETY argument for the `Rc`-based waker: `Waker` is nominally
// `Send + Sync`, but every structure reachable from it here (`Rc<TaskHook>`,
// `RefCell` ready queue) belongs to a `Sim`, and `Sim` is `!Send`/`!Sync`
// (it is `Rc`-based itself). Futures, their wakers and all kernel state
// therefore live and die on the one thread that created the simulation —
// the parallel sweep harness parallelizes across whole simulations, never
// within one. Because `Waker` itself *is* `Send`, safe user code could still
// clone `cx.waker()` and ship it to another thread; the invariant is
// therefore enforced at runtime, not merely documented: every vtable entry
// first compares `TaskHook::owner` against the calling thread and panics on
// a mismatch, before any `Rc` count or `RefCell` is touched. (`owner` is
// written once, before any waker exists, so the cross-thread read used by
// the check itself is race-free.) Under that enforced invariant the vtable
// below upholds the `RawWaker` contract: clone/drop manage the `Rc` strong
// count, wake consumes (or borrows, for `wake_by_ref`) one reference.
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

/// Panic unless the hook is used on the thread that owns its kernel. Called
/// with the hook borrowed straight from the raw pointer, deliberately before
/// the non-atomic refcount or the `RefCell` queue could be touched.
#[inline]
fn check_owner_thread(hook: &TaskHook) {
    if hook.owner != current_thread_id() {
        panic!(
            "desim Waker used from a foreign thread: Sim and every waker it \
             hands out are single-threaded (parallelize across whole Sims, \
             never within one)"
        );
    }
}

fn hook_waker(hook: &Rc<TaskHook>) -> Waker {
    let raw = RawWaker::new(Rc::into_raw(Rc::clone(hook)) as *const (), &HOOK_VTABLE);
    // SAFETY: see the vtable comment above.
    unsafe { Waker::from_raw(raw) }
}

unsafe fn hook_clone(p: *const ()) -> RawWaker {
    // SAFETY: `p` came from `Rc::into_raw` and the allocation is kept alive
    // by the reference this handle holds; the shared borrow only reads the
    // write-once `owner` field.
    check_owner_thread(unsafe { &*(p as *const TaskHook) });
    // SAFETY: bump the count for the new handle (same thread, checked above).
    unsafe { Rc::increment_strong_count(p as *const TaskHook) };
    RawWaker::new(p, &HOOK_VTABLE)
}

unsafe fn hook_wake(p: *const ()) {
    // SAFETY: as in `hook_clone`. On a foreign thread this panics and leaks
    // the handle's reference — sound, since the count is never touched.
    check_owner_thread(unsafe { &*(p as *const TaskHook) });
    // SAFETY: by-value wake consumes the handle's reference.
    let hook = unsafe { Rc::from_raw(p as *const TaskHook) };
    hook.enqueue();
}

unsafe fn hook_wake_by_ref(p: *const ()) {
    // SAFETY: as in `hook_clone`.
    check_owner_thread(unsafe { &*(p as *const TaskHook) });
    // SAFETY: borrow the handle without consuming its reference.
    let hook = unsafe { ManuallyDrop::new(Rc::from_raw(p as *const TaskHook)) };
    hook.enqueue();
}

unsafe fn hook_drop(p: *const ()) {
    // SAFETY: as in `hook_clone`. Panicking here (from a foreign thread's
    // drop) beats corrupting the non-atomic count, and leaks one reference.
    check_owner_thread(unsafe { &*(p as *const TaskHook) });
    // SAFETY: consumes the handle's reference.
    drop(unsafe { Rc::from_raw(p as *const TaskHook) });
}

/// One entry of the task table. Slots are allocated once and recycled: when
/// a task completes, its id goes on the free list but the slot — hook and
/// prebuilt waker included — stays, so respawning costs no allocation.
struct TaskSlot {
    future: Option<BoxFuture>,
    /// False once the task completed or was shut down; guards against a
    /// poll-in-flight future being written back into a reaped slot.
    live: bool,
    hook: Rc<TaskHook>,
    waker: Waker,
}

pub(crate) struct Kernel {
    now: Cell<SimTime>,
    next_seq: Cell<u64>,
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
    fn new() -> Rc<Kernel> {
        Rc::new(Kernel {
            now: Cell::new(SimTime::ZERO),
            next_seq: Cell::new(0),
            timers: RefCell::new(TimerWheel::new()),
            ready: Rc::new(ReadyQueue {
                q: RefCell::new(VecDeque::new()),
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

    fn bump_seq(&self) -> u64 {
        let s = self.next_seq.get();
        self.next_seq.set(s + 1);
        s
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    fn add_timer(&self, at: SimTime, kind: TimerKind) {
        debug_assert!(at >= self.now.get(), "event scheduled in the past");
        let _mem = memprof::scope(&WHEEL_TAG);
        self.timers
            .borrow_mut()
            .insert(at.as_ps(), self.bump_seq(), kind);
    }

    fn alloc_task(&self, future: BoxFuture) -> usize {
        let reused = self.free.borrow_mut().pop();
        let id = match reused {
            Some(id) => {
                let mut tasks = self.tasks.borrow_mut();
                let slot = &mut tasks[id];
                debug_assert!(slot.future.is_none() && !slot.live);
                // Note: `hook.queued` is deliberately left alone — it tracks
                // ready-queue membership, which survives slot reuse.
                slot.future = Some(future);
                slot.live = true;
                id
            }
            None => {
                let mut tasks = self.tasks.borrow_mut();
                let id = tasks.len();
                let hook = Rc::new(TaskHook {
                    id,
                    queued: Cell::new(false),
                    ready: Rc::clone(&self.ready),
                    owner: current_thread_id(),
                });
                let waker = hook_waker(&hook);
                tasks.push(TaskSlot {
                    future: Some(future),
                    live: true,
                    hook,
                    waker,
                });
                id
            }
        };
        self.live_tasks.set(self.live_tasks.get() + 1);
        id
    }

    fn enqueue_task(&self, id: usize) {
        self.tasks.borrow()[id].hook.enqueue();
    }

    /// Poll one task. The future is removed from its slot for the duration of
    /// the poll so the task table is not borrowed while user code runs (user
    /// code may spawn tasks, create timers, wake other tasks, …).
    fn poll_task(&self, id: usize) {
        let (mut future, waker) = {
            let mut tasks = self.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id) else {
                return;
            };
            // The queue entry is consumed: clear before polling, so a wake
            // *during* the poll re-queues the task as it must.
            slot.hook.queued.set(false);
            let Some(future) = slot.future.take() else {
                return; // finished task (stale wake) or re-entrant poll
            };
            (future, slot.waker.clone())
        };
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

    /// Drain the ready queue, polling tasks in FIFO order at the current time.
    fn drain_ready(&self) {
        loop {
            let id = self.ready.q.borrow_mut().pop_front();
            let Some(id) = id else { break };
            self.events_processed.set(self.events_processed.get() + 1);
            self.poll_task(id);
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
        Sim { k: Kernel::new() }
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
    /// parked task costs the host; see `tests/task_size.rs`.
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
        let _mem = memprof::scope_default(&KERNEL_TAG);
        self.k.add_timer(at, TimerKind::Callback(Box::new(cb)));
    }

    /// Fire `target` with `arg` at absolute time `at` (must not be in the
    /// past). Ordered exactly like [`Sim::schedule`] — it takes the next
    /// sequence number where `schedule` would — but queues the `Rc` itself,
    /// so the event allocates nothing. [`Sim::shutdown`] drops pending
    /// targets.
    pub fn schedule_fire(&self, at: SimTime, target: Rc<dyn Fire>, arg: u32) {
        self.k.add_timer(at, TimerKind::Fire(target, arg));
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
                    slot.hook.queued.set(false);
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
        for slot in self.k.tasks.borrow().iter() {
            slot.hook.queued.set(false);
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
                    .add_timer(this.deadline, TimerKind::Waker(cx.waker().clone()));
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
