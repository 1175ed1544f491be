//! Keyed waker storage shared by the simulation primitives.
//!
//! Futures in this crate are frequently raced against each other (e.g. a
//! progress loop racing "operation complete" against "work arrived"), so the
//! losing future is dropped and may be re-created many times. Naively pushing
//! `cx.waker()` on every poll would leak one waker per drop and wake the task
//! once per stale entry — a quadratic wake amplification that can stall the
//! event loop. [`WakerSet`] gives every waiting future a keyed slot instead:
//! re-polling *replaces* the slot, dropping the future *removes* it.

use std::task::Waker;

/// A set of wakers keyed by a per-future registration id.
#[derive(Default, Debug)]
pub struct WakerSet {
    next_id: u64,
    entries: Vec<(u64, Waker)>,
}

impl WakerSet {
    /// Create an empty set.
    pub const fn new() -> WakerSet {
        WakerSet {
            next_id: 0,
            entries: Vec::new(),
        }
    }

    /// Register (or refresh) the waker for the future identified by `slot`.
    /// A `None` slot is assigned a fresh id, stored back into `slot`.
    pub fn register(&mut self, slot: &mut Option<u64>, waker: &Waker) {
        match *slot {
            Some(id) => match self.entries.iter_mut().find(|(eid, _)| *eid == id) {
                // Kernel task wakers are stable across polls, so refreshing
                // an existing entry is usually a no-op — skip the clone.
                Some(e) => {
                    if !e.1.will_wake(waker) {
                        e.1 = waker.clone();
                    }
                }
                None => self.entries.push((id, waker.clone())),
            },
            None => {
                let id = self.next_id;
                self.next_id += 1;
                *slot = Some(id);
                if self.entries.capacity() == 0 {
                    // Most sets only ever hold one waiter (a completion and
                    // the task blocked on it): size the first allocation for
                    // that, not for `Vec`'s minimum of four.
                    self.entries.reserve_exact(1);
                }
                self.entries.push((id, waker.clone()));
            }
        }
    }

    /// Remove the waker registered under `slot` (future dropped or done).
    pub fn remove(&mut self, slot: &Option<u64>) {
        if let Some(id) = slot {
            self.entries.retain(|(eid, _)| eid != id);
        }
    }

    /// Take every waker out of the set, to wake outside any borrow. The
    /// set's own storage moves into the returned [`Woken`]: nothing is
    /// allocated, and [`WakerSet::recycle`] hands the storage back to a set
    /// that will be waited on again.
    pub fn take_all(&mut self) -> Woken {
        if self.entries.is_empty() {
            return Woken::default();
        }
        Woken(std::mem::take(&mut self.entries))
    }

    /// Give a spent [`Woken`]'s storage back, unless a waiter re-registered
    /// in the meantime and the set already owns storage again.
    pub fn recycle(&mut self, woken: Woken) {
        if self.entries.capacity() == 0 {
            self.entries = woken.0;
        }
    }

    /// Take the longest-registered waker, if any.
    pub fn take_first(&mut self) -> Option<Waker> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0).1)
        }
    }

    /// Number of registered wakers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no wakers are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The wakers [`WakerSet::take_all`] removed, in registration order.
#[derive(Default)]
pub struct Woken(Vec<(u64, Waker)>);

impl Woken {
    /// Wake every taken waker, longest-registered first.
    pub fn wake(&mut self) {
        for (_, w) in self.0.drain(..) {
            w.wake();
        }
    }

    /// True when nothing is left to wake.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::Wake;

    struct Flag;
    impl Wake for Flag {
        fn wake(self: Arc<Self>) {}
    }

    fn waker() -> Waker {
        Waker::from(Arc::new(Flag))
    }

    #[test]
    fn register_assigns_and_refreshes_slot() {
        let mut s = WakerSet::new();
        let mut slot = None;
        s.register(&mut slot, &waker());
        assert!(slot.is_some());
        assert_eq!(s.len(), 1);
        // Re-registering the same slot must not grow the set.
        s.register(&mut slot, &waker());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_clears_entry() {
        let mut s = WakerSet::new();
        let mut a = None;
        let mut b = None;
        s.register(&mut a, &waker());
        s.register(&mut b, &waker());
        assert_eq!(s.len(), 2);
        s.remove(&a);
        assert_eq!(s.len(), 1);
        s.remove(&a); // idempotent
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn take_all_empties() {
        let mut s = WakerSet::new();
        let mut a = None;
        s.register(&mut a, &waker());
        assert!(!s.take_all().is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn recycle_returns_the_storage_unless_replaced() {
        let mut s = WakerSet::new();
        let (mut a, mut b) = (None, None);
        s.register(&mut a, &waker());
        s.register(&mut b, &waker());
        let cap = s.entries.capacity();
        let mut woken = s.take_all();
        assert_eq!(s.entries.capacity(), 0);
        woken.wake();
        assert!(woken.is_empty());
        s.recycle(woken);
        assert_eq!(s.entries.capacity(), cap);
        // A waiter that re-registered first keeps its entry.
        s.register(&mut b, &waker());
        let mut woken = s.take_all();
        s.register(&mut a, &waker());
        woken.wake();
        s.recycle(woken);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn take_first_is_fifo() {
        let mut s = WakerSet::new();
        let (mut a, mut b) = (None, None);
        s.register(&mut a, &waker());
        s.register(&mut b, &waker());
        s.take_first();
        assert_eq!(s.len(), 1);
        // Remaining entry must be b's.
        s.remove(&b);
        assert!(s.is_empty());
    }

    #[test]
    fn register_after_take_reinserts() {
        let mut s = WakerSet::new();
        let mut a = None;
        s.register(&mut a, &waker());
        s.take_all();
        // Slot id survives; re-registration reinserts rather than duplicating.
        s.register(&mut a, &waker());
        assert_eq!(s.len(), 1);
    }
}
