//! One-shot completion events.
//!
//! [`Completion`] is the simulator's basic completion-notification object: a
//! write-once cell that any number of tasks can await. It underpins
//! non-blocking communication handles (local/remote callbacks in the PAMI
//! layer complete a `Completion`, and the caller awaits it).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::waker_set::WakerSet;

struct State<T> {
    value: Option<T>,
    wakers: WakerSet,
}

/// A clonable, write-once event that tasks can await.
///
/// The payload must be `Clone` so multiple waiters can each receive it;
/// completions carrying large data should wrap it in `Rc`.
pub struct Completion<T = ()> {
    state: Rc<RefCell<State<T>>>,
}

impl<T> Clone for Completion<T> {
    fn clone(&self) -> Self {
        Completion {
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Default for Completion<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Completion<T> {
    /// Create an incomplete event.
    pub fn new() -> Completion<T> {
        Completion {
            state: Rc::new(RefCell::new(State {
                value: None,
                wakers: WakerSet::new(),
            })),
        }
    }

    /// Complete the event, waking all waiters.
    ///
    /// # Panics
    /// Panics if the event was already completed.
    pub fn complete(&self, value: T) {
        let mut woken = {
            let mut st = self.state.borrow_mut();
            assert!(st.value.is_none(), "Completion completed twice");
            st.value = Some(value);
            st.wakers.take_all()
        };
        // Write-once: nobody registers again, so the storage is not recycled.
        woken.wake();
    }

    /// True once [`Completion::complete`] has been called.
    pub fn is_complete(&self) -> bool {
        self.state.borrow().value.is_some()
    }
}

impl<T: Clone> Completion<T> {
    /// The completed value, if any, without waiting.
    pub fn peek(&self) -> Option<T> {
        self.state.borrow().value.clone()
    }

    /// Future resolving to (a clone of) the completed value.
    pub fn wait(&self) -> CompletionWait<T> {
        CompletionWait {
            state: Rc::clone(&self.state),
            slot: None,
        }
    }
}

/// Future returned by [`Completion::wait`].
pub struct CompletionWait<T> {
    state: Rc<RefCell<State<T>>>,
    slot: Option<u64>,
}

impl<T: Clone> Future for CompletionWait<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        let mut st = this.state.borrow_mut();
        match &st.value {
            Some(v) => {
                let v = v.clone();
                st.wakers.remove(&this.slot);
                Poll::Ready(v)
            }
            None => {
                st.wakers.register(&mut this.slot, cx.waker());
                Poll::Pending
            }
        }
    }
}

impl<T> Drop for CompletionWait<T> {
    fn drop(&mut self) {
        // A raced-and-dropped waiter must not leave a stale waker behind.
        self.state.borrow_mut().wakers.remove(&self.slot);
    }
}

/// Await every completion in a slice (in order; order does not affect the
/// final virtual time since waiting consumes no time by itself).
pub async fn wait_all<T: Clone + 'static>(events: &[Completion<T>]) {
    for e in events {
        e.wait().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn complete_before_wait() {
        let sim = Sim::new();
        let c: Completion<u32> = Completion::new();
        c.complete(5);
        let c2 = c.clone();
        let h = sim.spawn(async move { c2.wait().await });
        sim.run();
        assert_eq!(h.try_result(), Some(5));
    }

    #[test]
    fn wait_before_complete() {
        let sim = Sim::new();
        let c: Completion<u32> = Completion::new();
        let c2 = c.clone();
        let h = sim.spawn(async move { c2.wait().await });
        let s = sim.clone();
        let c3 = c.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(3)).await;
            c3.complete(9);
        });
        sim.run();
        assert_eq!(h.try_result(), Some(9));
        assert_eq!(sim.now().as_us(), 3.0);
    }

    #[test]
    fn multiple_waiters_all_receive() {
        let sim = Sim::new();
        let c: Completion<u64> = Completion::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c2 = c.clone();
            handles.push(sim.spawn(async move { c2.wait().await }));
        }
        let c3 = c.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_ns(10)).await;
            c3.complete(77);
        });
        sim.run();
        for h in handles {
            assert_eq!(h.try_result(), Some(77));
        }
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let c: Completion<()> = Completion::new();
        c.complete(());
        c.complete(());
    }

    #[test]
    fn peek_and_is_complete() {
        let c: Completion<u8> = Completion::new();
        assert!(!c.is_complete());
        assert_eq!(c.peek(), None);
        c.complete(1);
        assert!(c.is_complete());
        assert_eq!(c.peek(), Some(1));
    }

    #[test]
    fn wait_all_awaits_everything() {
        let sim = Sim::new();
        let events: Vec<Completion<()>> = (0..3).map(|_| Completion::new()).collect();
        for (i, e) in events.iter().enumerate() {
            let e = e.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_us((3 - i) as u64)).await;
                e.complete(());
            });
        }
        let evs = events.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            wait_all(&evs).await;
            s.now()
        });
        sim.run();
        assert_eq!(h.try_result().unwrap().as_us(), 3.0);
    }
}
