//! Synchronization primitives for simulated tasks.
//!
//! These consume no virtual time by themselves — they only order tasks. Time
//! costs (lock hold times, barrier network latency, …) are modelled by the
//! code running between acquisition and release, or by the layers above.
//!
//! Each is a cell embeddable in a larger object, reached through a handle
//! that keeps that object alive; a stand-alone one is an `Rc` of its cell.
//!
//! * [`MutexCell`] — FIFO ticket lock with direct handoff (no barging), used
//!   to model the PAMI progress-engine lock shared by the main thread and the
//!   asynchronous progress thread.
//! * [`NotifyCell`] — edge-triggered condition-variable-style wakeups.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::waker_set::WakerSet;

// ---------------------------------------------------------------------------
// MutexCell: FIFO ticket lock with direct handoff
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
/// keeps the enclosing object alive — a stand-alone lock is an
/// `Rc<MutexCell>`; an object that embeds the cell hands out a handle that
/// projects to its field (see `pami_sim`'s per-rank block).
///
/// Fairness matters for fidelity: the paper's §III-D discusses starvation
/// between the main thread and the asynchronous progress thread competing for
/// the progress-engine lock; a barging lock would hide that effect.
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
}

/// Future returned by [`MutexCell::lock`].
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
// NotifyCell: condition-variable-style wakeups
// ---------------------------------------------------------------------------

struct NotifyState {
    epoch: u64,
    wakers: WakerSet,
}

/// The state of an edge-triggered notifier, embeddable in a larger object
/// (the [`MutexCell`] of notifications): wait futures reach it through a
/// handle `H: AsRef<NotifyCell>`; a stand-alone notifier is an
/// `Rc<NotifyCell>`.
///
/// [`NotifyCell::wait`] resolves after the *next*
/// [`NotifyCell::notify_all`]: notifications issued after the future is
/// created, even before its first poll, count — so the check-then-wait
/// pattern has no lost-wakeup window in the single-threaded executor.
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

/// Future returned by [`NotifyCell::wait`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn mutex_mutual_exclusion_and_fifo() {
        let sim = Sim::new();
        let m = Rc::new(MutexCell::new());
        let order: Rc<StdRefCell<Vec<u32>>> = Rc::new(StdRefCell::new(Vec::new()));
        for id in 0..4u32 {
            let m = Rc::clone(&m);
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let _g = MutexCell::lock(m).await;
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
    fn mutex_handoff_no_barging() {
        // A task that releases and immediately relocks must go behind a
        // waiting task.
        let sim = Sim::new();
        let m = Rc::new(MutexCell::new());
        let order: Rc<StdRefCell<Vec<&'static str>>> = Rc::new(StdRefCell::new(Vec::new()));
        {
            let m = Rc::clone(&m);
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let g = MutexCell::lock(Rc::clone(&m)).await;
                order.borrow_mut().push("a1");
                s.sleep(SimDuration::from_us(5)).await;
                drop(g);
                let _g2 = MutexCell::lock(m).await;
                order.borrow_mut().push("a2");
            });
        }
        {
            let m = Rc::clone(&m);
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(1)).await; // arrive while held
                let _g = MutexCell::lock(m).await;
                order.borrow_mut().push("b");
            });
        }
        sim.run();
        assert_eq!(&*order.borrow(), &["a1", "b", "a2"]);
    }

    #[test]
    fn notify_wakes_waiters() {
        let sim = Sim::new();
        let n = Rc::new(NotifyCell::new());
        let n2 = Rc::clone(&n);
        let s = sim.clone();
        let h = sim.spawn(async move {
            NotifyCell::wait(n2).await;
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
        let n = Rc::new(NotifyCell::new());
        let fut = NotifyCell::wait(Rc::clone(&n)); // created before the notification
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
            // Nobody holds the lock yet: it is granted without a wait.
            drop(MutexCell::lock(h2.clone()).await);
            assert_eq!(s.now().as_ps(), 5_000_000);
            h2.0.arrived.notify_all();
        });
        sim.run();
        // FIFO handoff, one holder at a time, exactly as through an
        // `Rc<MutexCell>`.
        assert_eq!(
            &*h.0.log.borrow(),
            &[(0, 6_000_000), (1, 7_000_000), (2, 8_000_000)]
        );
        assert_eq!(Rc::strong_count(&h.0), 1, "futures released the block");
        // The last holder released the lock: a new request is granted at
        // once.
        let (s, h3) = (sim.clone(), h.clone());
        let t0 = sim.now();
        let relock = sim.spawn(async move {
            drop(MutexCell::lock(h3).await);
            s.now()
        });
        sim.run();
        assert_eq!(relock.try_result(), Some(t0));
    }
}
