//! Synchronization primitives for simulated tasks.
//!
//! These consume no virtual time by themselves — they only order tasks. Time
//! costs (lock hold times, barrier network latency, …) are modelled by the
//! code running between acquisition and release, or by the layers above.
//!
//! * [`SimMutex`] — FIFO ticket lock with direct handoff (no barging), used to
//!   model the PAMI progress-engine lock shared by the main thread and the
//!   asynchronous progress thread.
//! * [`Barrier`] — reusable generation barrier.
//! * [`Notify`] — edge-triggered condition-variable-style wakeups.
//! * [`Semaphore`] — counting semaphore with FIFO waiters.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::waker_set::WakerSet;

// ---------------------------------------------------------------------------
// SimMutex: FIFO ticket lock with direct handoff
// ---------------------------------------------------------------------------

struct MutexState {
    next_ticket: u64,
    serving: u64,
    /// Queued tickets: the waiter's waker, or `None` once the waiter was
    /// cancelled while queued — the release path skips those so the handoff
    /// chain cannot wedge.
    waiters: Vec<(u64, Option<Waker>)>,
}

/// The state of a fair (FIFO, direct-handoff) mutex, embeddable in a larger
/// object: it owns no allocation of its own until a waiter queues. Lock
/// futures and guards reach it through a handle `H: AsRef<MutexCell>` that
/// keeps the enclosing object alive — [`SimMutex`] is the stand-alone form
/// (`H = Rc<MutexCell>`); an object that embeds the cell hands out a
/// handle that projects to its field (see `pami_sim`'s per-rank block).
pub struct MutexCell {
    state: RefCell<MutexState>,
}

impl Default for MutexCell {
    fn default() -> Self {
        Self::new()
    }
}

impl MutexCell {
    /// Create an unlocked cell.
    pub const fn new() -> MutexCell {
        MutexCell {
            state: RefCell::new(MutexState {
                next_ticket: 0,
                serving: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// Acquire the lock behind `h`, waiting FIFO behind earlier requesters.
    pub fn lock<H: AsRef<MutexCell> + Clone + Unpin>(h: H) -> MutexLock<H> {
        MutexLock { h, ticket: None }
    }

    /// Attempt to acquire the lock behind `h` without waiting.
    pub fn try_lock<H: AsRef<MutexCell>>(h: H) -> Option<MutexGuard<H>> {
        {
            let mut st = h.as_ref().state.borrow_mut();
            if st.serving != st.next_ticket {
                return None;
            }
            st.next_ticket += 1;
        }
        Some(MutexGuard { h })
    }

    /// True when some task currently holds the lock.
    pub fn is_locked(&self) -> bool {
        let st = self.state.borrow();
        st.serving < st.next_ticket
    }
}

/// A fair (FIFO, direct-handoff) mutex for simulated tasks.
///
/// Fairness matters for fidelity: the paper's §III-D discusses starvation
/// between the main thread and the asynchronous progress thread competing for
/// the progress-engine lock; a barging lock would hide that effect.
#[derive(Clone, Default)]
pub struct SimMutex {
    cell: Rc<MutexCell>,
}

impl SimMutex {
    /// Create an unlocked mutex.
    pub fn new() -> SimMutex {
        SimMutex::default()
    }

    /// Acquire the lock, waiting FIFO behind earlier requesters.
    pub fn lock(&self) -> MutexLock {
        MutexCell::lock(Rc::clone(&self.cell))
    }

    /// Attempt to acquire without waiting.
    pub fn try_lock(&self) -> Option<MutexGuard> {
        MutexCell::try_lock(Rc::clone(&self.cell))
    }

    /// True when some task currently holds the lock.
    pub fn is_locked(&self) -> bool {
        self.cell.is_locked()
    }
}

/// Future returned by [`SimMutex::lock`] / [`MutexCell::lock`].
pub struct MutexLock<H: AsRef<MutexCell> = Rc<MutexCell>> {
    h: H,
    ticket: Option<u64>,
}

impl<H: AsRef<MutexCell> + Clone + Unpin> Future for MutexLock<H> {
    type Output = MutexGuard<H>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<MutexGuard<H>> {
        let this = self.get_mut();
        let mut st = this.h.as_ref().state.borrow_mut();
        let ticket = match this.ticket {
            Some(t) => t,
            None => {
                let t = st.next_ticket;
                st.next_ticket += 1;
                this.ticket = Some(t);
                t
            }
        };
        if st.serving == ticket {
            drop(st);
            // Hand responsibility for the release to the guard; the future's
            // Drop must no longer treat this ticket as a cancelled waiter.
            this.ticket = None;
            Poll::Ready(MutexGuard { h: this.h.clone() })
        } else {
            let waker = Some(cx.waker().clone());
            match st.waiters.iter_mut().find(|(t, _)| *t == ticket) {
                Some(slot) => slot.1 = waker,
                None => st.waiters.push((ticket, waker)),
            }
            Poll::Pending
        }
    }
}

impl<H: AsRef<MutexCell>> Drop for MutexLock<H> {
    fn drop(&mut self) {
        // A cancelled waiter must give its turn away or the queue deadlocks.
        if let Some(ticket) = self.ticket {
            let mut st = self.h.as_ref().state.borrow_mut();
            st.waiters.retain(|(t, _)| *t != ticket);
            if st.serving == ticket {
                // We were just granted the lock but never produced a guard.
                advance_serving(&mut st);
            } else {
                // Still queued: mark the ticket dead so the release path
                // skips it when its turn comes.
                st.waiters.push((ticket, None));
            }
        }
    }
}

/// RAII guard; releasing hands the lock to the next waiter in FIFO order.
pub struct MutexGuard<H: AsRef<MutexCell> = Rc<MutexCell>> {
    h: H,
}

impl<H: AsRef<MutexCell>> Drop for MutexGuard<H> {
    fn drop(&mut self) {
        advance_serving(&mut self.h.as_ref().state.borrow_mut());
    }
}

fn advance_serving(st: &mut MutexState) {
    loop {
        st.serving += 1;
        let serving = st.serving;
        if serving >= st.next_ticket {
            break; // lock is free; the next lock() call acquires directly
        }
        // No entry at all: granted before its first poll, nobody to wake.
        if let Some(pos) = st.waiters.iter().position(|(t, _)| *t == serving) {
            match st.waiters.swap_remove(pos).1 {
                Some(w) => w.wake(),
                None => continue, // dead ticket: skip to the next waiter
            }
        }
        break;
    }
}

// ---------------------------------------------------------------------------
// Barrier: reusable generation barrier
// ---------------------------------------------------------------------------

struct BarrierState {
    parties: usize,
    arrived: usize,
    generation: u64,
    wakers: WakerSet,
}

/// A reusable barrier for a fixed set of parties.
pub struct Barrier {
    state: Rc<RefCell<BarrierState>>,
}

impl Clone for Barrier {
    fn clone(&self) -> Self {
        Barrier {
            state: Rc::clone(&self.state),
        }
    }
}

impl Barrier {
    /// Create a barrier for `parties` tasks.
    pub fn new(parties: usize) -> Barrier {
        assert!(parties > 0, "barrier needs at least one party");
        Barrier {
            state: Rc::new(RefCell::new(BarrierState {
                parties,
                arrived: 0,
                generation: 0,
                wakers: WakerSet::new(),
            })),
        }
    }

    /// Wait until all parties arrive. Resolves to `true` for the last
    /// arriving party (the "leader"), `false` otherwise.
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            state: Rc::clone(&self.state),
            generation: None,
            slot: None,
        }
    }

    /// Number of parties the barrier was created with.
    pub fn parties(&self) -> usize {
        self.state.borrow().parties
    }
}

/// Future returned by [`Barrier::wait`].
pub struct BarrierWait {
    state: Rc<RefCell<BarrierState>>,
    generation: Option<(u64, bool)>,
    slot: Option<u64>,
}

impl Drop for BarrierWait {
    fn drop(&mut self) {
        self.state.borrow_mut().wakers.remove(&self.slot);
    }
}

impl Future for BarrierWait {
    type Output = bool;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let this = self.get_mut();
        match this.generation {
            None => {
                let mut st = this.state.borrow_mut();
                let gen = st.generation;
                st.arrived += 1;
                if st.arrived == st.parties {
                    st.arrived = 0;
                    st.generation += 1;
                    let mut woken = st.wakers.take_all();
                    drop(st);
                    woken.wake();
                    // The next generation registers into the same storage.
                    this.state.borrow_mut().wakers.recycle(woken);
                    this.generation = Some((gen, true));
                    Poll::Ready(true)
                } else {
                    this.generation = Some((gen, false));
                    st.wakers.register(&mut this.slot, cx.waker());
                    Poll::Pending
                }
            }
            Some((gen, leader)) => {
                let mut st = this.state.borrow_mut();
                if st.generation != gen {
                    st.wakers.remove(&this.slot);
                    Poll::Ready(leader)
                } else {
                    st.wakers.register(&mut this.slot, cx.waker());
                    Poll::Pending
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Notify: condition-variable-style wakeups
// ---------------------------------------------------------------------------

struct NotifyState {
    epoch: u64,
    wakers: WakerSet,
}

/// The state of an edge-triggered notifier, embeddable in a larger object
/// (the [`MutexCell`] of notifications): wait futures reach it through a
/// handle `H: AsRef<NotifyCell>`; [`Notify`] is the stand-alone form.
pub struct NotifyCell {
    state: RefCell<NotifyState>,
}

impl Default for NotifyCell {
    fn default() -> Self {
        Self::new()
    }
}

impl NotifyCell {
    /// Create a notifier cell.
    pub const fn new() -> NotifyCell {
        NotifyCell {
            state: RefCell::new(NotifyState {
                epoch: 0,
                wakers: WakerSet::new(),
            }),
        }
    }

    /// Wake every current waiter (and satisfy `wait` futures already created).
    pub fn notify_all(&self) {
        let mut woken = {
            let mut st = self.state.borrow_mut();
            st.epoch += 1;
            st.wakers.take_all()
        };
        if woken.is_empty() {
            return;
        }
        woken.wake();
        self.state.borrow_mut().wakers.recycle(woken);
    }

    /// Future resolving at the next notification of the cell behind `h`.
    pub fn wait<H: AsRef<NotifyCell> + Unpin>(h: H) -> NotifyWait<H> {
        let epoch = h.as_ref().state.borrow().epoch;
        NotifyWait {
            h,
            epoch,
            slot: None,
        }
    }
}

/// Edge-triggered notification: [`Notify::wait`] resolves after the *next*
/// [`Notify::notify_all`] (notifications issued after the future is created,
/// even before its first poll, count — so the check-then-wait pattern has no
/// lost-wakeup window in the single-threaded executor).
#[derive(Clone, Default)]
pub struct Notify {
    cell: Rc<NotifyCell>,
}

impl Notify {
    /// Create a notifier.
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Wake every current waiter (and satisfy `wait` futures already created).
    pub fn notify_all(&self) {
        self.cell.notify_all();
    }

    /// Future resolving at the next notification.
    pub fn wait(&self) -> NotifyWait {
        NotifyCell::wait(Rc::clone(&self.cell))
    }
}

/// Future returned by [`Notify::wait`] / [`NotifyCell::wait`].
pub struct NotifyWait<H: AsRef<NotifyCell> = Rc<NotifyCell>> {
    h: H,
    epoch: u64,
    slot: Option<u64>,
}

impl<H: AsRef<NotifyCell> + Unpin> Future for NotifyWait<H> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.h.as_ref().state.borrow_mut();
        if st.epoch != this.epoch {
            st.wakers.remove(&this.slot);
            Poll::Ready(())
        } else {
            st.wakers.register(&mut this.slot, cx.waker());
            Poll::Pending
        }
    }
}

impl<H: AsRef<NotifyCell>> Drop for NotifyWait<H> {
    fn drop(&mut self) {
        self.h.as_ref().state.borrow_mut().wakers.remove(&self.slot);
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemState {
    permits: usize,
    waiters: Vec<(u64, usize, Waker)>, // (ticket, wanted, waker) in FIFO order
    next_ticket: u64,
}

/// Counting semaphore with FIFO waiters (no overtaking), useful for modelling
/// bounded request windows and flow control.
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        Semaphore {
            state: Rc::clone(&self.state),
        }
    }
}

impl Semaphore {
    /// Create a semaphore holding `permits` permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: Vec::new(),
                next_ticket: 0,
            })),
        }
    }

    /// Acquire `n` permits, waiting FIFO if necessary.
    pub fn acquire(&self, n: usize) -> SemAcquire {
        SemAcquire {
            state: Rc::clone(&self.state),
            n,
            ticket: None,
        }
    }

    /// Return `n` permits, waking eligible waiters in order.
    pub fn release(&self, n: usize) {
        let wakers = {
            let mut st = self.state.borrow_mut();
            st.permits += n;
            // Wake the longest-waiting requester whose demand now fits; it
            // will consume permits at poll time. Only the head may proceed
            // (FIFO, no overtaking).
            st.waiters
                .first()
                .filter(|(_, wanted, _)| *wanted <= st.permits)
                .map(|(_, _, w)| w.clone())
        };
        if let Some(w) = wakers {
            w.wake();
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct SemAcquire {
    state: Rc<RefCell<SemState>>,
    n: usize,
    ticket: Option<u64>,
}

impl Future for SemAcquire {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.state.borrow_mut();
        let ticket = match this.ticket {
            Some(t) => t,
            None => {
                let t = st.next_ticket;
                st.next_ticket += 1;
                this.ticket = Some(t);
                t
            }
        };
        // FIFO: may only take permits if no earlier requester is still waiting.
        let earlier_waiting = st.waiters.iter().any(|(t, _, _)| *t < ticket);
        if !earlier_waiting && st.permits >= this.n {
            st.permits -= this.n;
            st.waiters.retain(|(t, _, _)| *t != ticket);
            // Chain: the new head may also be satisfiable now.
            let next = st
                .waiters
                .first()
                .filter(|(_, wanted, _)| *wanted <= st.permits)
                .map(|(_, _, w)| w.clone());
            drop(st);
            if let Some(w) = next {
                w.wake();
            }
            Poll::Ready(())
        } else {
            match st.waiters.iter_mut().find(|(t, _, _)| *t == ticket) {
                Some(slot) => slot.2 = cx.waker().clone(),
                None => {
                    st.waiters.push((ticket, this.n, cx.waker().clone()));
                    st.waiters.sort_by_key(|(t, _, _)| *t);
                }
            }
            Poll::Pending
        }
    }
}

impl Drop for SemAcquire {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket {
            let next = {
                let mut st = self.state.borrow_mut();
                let before = st.waiters.len();
                st.waiters.retain(|(t, _, _)| *t != ticket);
                if st.waiters.len() != before {
                    st.waiters
                        .first()
                        .filter(|(_, wanted, _)| *wanted <= st.permits)
                        .map(|(_, _, w)| w.clone())
                } else {
                    None
                }
            };
            if let Some(w) = next {
                w.wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn mutex_mutual_exclusion_and_fifo() {
        let sim = Sim::new();
        let m = SimMutex::new();
        let order: Rc<StdRefCell<Vec<u32>>> = Rc::new(StdRefCell::new(Vec::new()));
        for id in 0..4u32 {
            let m = m.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let _g = m.lock().await;
                order.borrow_mut().push(id);
                s.sleep(SimDuration::from_us(10)).await;
            });
        }
        let end = sim.run();
        assert_eq!(&*order.borrow(), &[0, 1, 2, 3]);
        // Serialized: 4 * 10us.
        assert_eq!(end.as_us(), 40.0);
    }

    #[test]
    fn mutex_try_lock() {
        let m = SimMutex::new();
        let g = m.try_lock().unwrap();
        assert!(m.is_locked());
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(!m.is_locked());
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn mutex_handoff_no_barging() {
        // A task that releases and immediately relocks must go behind a
        // waiting task.
        let sim = Sim::new();
        let m = SimMutex::new();
        let order: Rc<StdRefCell<Vec<&'static str>>> = Rc::new(StdRefCell::new(Vec::new()));
        {
            let m = m.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let g = m.lock().await;
                order.borrow_mut().push("a1");
                s.sleep(SimDuration::from_us(5)).await;
                drop(g);
                let _g2 = m.lock().await;
                order.borrow_mut().push("a2");
            });
        }
        {
            let m = m.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(1)).await; // arrive while held
                let _g = m.lock().await;
                order.borrow_mut().push("b");
            });
        }
        sim.run();
        assert_eq!(&*order.borrow(), &["a1", "b", "a2"]);
    }

    #[test]
    fn barrier_releases_all_and_reports_leader() {
        let sim = Sim::new();
        let b = Barrier::new(3);
        let leaders: Rc<StdRefCell<Vec<bool>>> = Rc::new(StdRefCell::new(Vec::new()));
        for i in 0..3u64 {
            let b = b.clone();
            let s = sim.clone();
            let leaders = Rc::clone(&leaders);
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(i)).await;
                let leader = b.wait().await;
                leaders.borrow_mut().push(leader);
                assert_eq!(s.now().as_us(), 2.0); // all released at last arrival
            });
        }
        sim.run();
        assert_eq!(leaders.borrow().iter().filter(|&&l| l).count(), 1);
        assert_eq!(leaders.borrow().len(), 3);
    }

    #[test]
    fn barrier_is_reusable() {
        let sim = Sim::new();
        let b = Barrier::new(2);
        let mut handles = Vec::new();
        for i in 0..2u64 {
            let b = b.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                for round in 0..3u64 {
                    s.sleep(SimDuration::from_us(i + 1)).await;
                    b.wait().await;
                    let _ = round;
                }
                s.now()
            }));
        }
        sim.run();
        // Each round gated by the slower party (2us): 3 rounds -> 6us.
        for h in handles {
            assert_eq!(h.try_result().unwrap().as_us(), 6.0);
        }
    }

    #[test]
    fn notify_wakes_waiters() {
        let sim = Sim::new();
        let n = Notify::new();
        let n2 = n.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            n2.wait().await;
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_us(3)).await;
            n.notify_all();
        });
        sim.run();
        assert_eq!(h.try_result().unwrap().as_us(), 3.0);
    }

    #[test]
    fn notify_created_before_signal_counts() {
        let sim = Sim::new();
        let n = Notify::new();
        let fut = n.wait(); // created before the notification
        n.notify_all();
        let h = sim.spawn(async move {
            fut.await;
            true
        });
        sim.run();
        assert_eq!(h.try_result(), Some(true));
    }

    #[test]
    fn cells_embedded_in_one_block_lock_and_notify_through_a_handle() {
        // An object embedding both cells: one allocation, reached through a
        // handle that projects to the fields and keeps the block alive.
        struct Block {
            lock: MutexCell,
            arrived: NotifyCell,
            log: RefCell<Vec<(u32, u64)>>,
        }
        #[derive(Clone)]
        struct Handle(Rc<Block>);
        impl AsRef<MutexCell> for Handle {
            fn as_ref(&self) -> &MutexCell {
                &self.0.lock
            }
        }
        impl AsRef<NotifyCell> for Handle {
            fn as_ref(&self) -> &NotifyCell {
                &self.0.arrived
            }
        }
        let sim = Sim::new();
        let h = Handle(Rc::new(Block {
            lock: MutexCell::new(),
            arrived: NotifyCell::new(),
            log: RefCell::new(Vec::new()),
        }));
        for id in 0..3u32 {
            let (s, h) = (sim.clone(), h.clone());
            sim.spawn(async move {
                NotifyCell::wait(h.clone()).await;
                let _g = MutexCell::lock(h.clone()).await;
                s.sleep(SimDuration::from_us(1)).await;
                h.0.log.borrow_mut().push((id, s.now().as_ps()));
            });
        }
        let (s, h2) = (sim.clone(), h.clone());
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(5)).await;
            assert!(MutexCell::try_lock(h2.clone()).is_some());
            h2.0.arrived.notify_all();
        });
        sim.run();
        // FIFO handoff, one holder at a time, exactly like `SimMutex`.
        assert_eq!(
            &*h.0.log.borrow(),
            &[(0, 6_000_000), (1, 7_000_000), (2, 8_000_000)]
        );
        assert!(!h.0.lock.is_locked());
        assert_eq!(Rc::strong_count(&h.0), 1, "futures released the block");
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let active: Rc<StdRefCell<(usize, usize)>> = Rc::new(StdRefCell::new((0, 0))); // (current, max)
        for _ in 0..6 {
            let sem = sem.clone();
            let s = sim.clone();
            let active = Rc::clone(&active);
            sim.spawn(async move {
                sem.acquire(1).await;
                {
                    let mut a = active.borrow_mut();
                    a.0 += 1;
                    a.1 = a.1.max(a.0);
                }
                s.sleep(SimDuration::from_us(5)).await;
                active.borrow_mut().0 -= 1;
                sem.release(1);
            });
        }
        let end = sim.run();
        assert_eq!(active.borrow().1, 2);
        assert_eq!(end.as_us(), 15.0); // 6 tasks / 2 wide * 5us
    }

    #[test]
    fn semaphore_fifo_large_request_not_starved() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let order: Rc<StdRefCell<Vec<&'static str>>> = Rc::new(StdRefCell::new(Vec::new()));
        {
            let sem = sem.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                sem.acquire(2).await;
                order.borrow_mut().push("big0");
                s.sleep(SimDuration::from_us(5)).await;
                sem.release(2);
            });
        }
        {
            let sem = sem.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(1)).await;
                sem.acquire(2).await; // queued first
                order.borrow_mut().push("big1");
                sem.release(2);
            });
        }
        {
            let sem = sem.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(2)).await;
                sem.acquire(1).await; // arrives later; must not overtake big1
                order.borrow_mut().push("small");
                sem.release(1);
            });
        }
        sim.run();
        assert_eq!(&*order.borrow(), &["big0", "big1", "small"]);
    }
}
