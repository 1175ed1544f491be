//! Unbounded FIFO channels between simulated tasks.
//!
//! Sends are immediate (they consume no virtual time — model link/processing
//! delay explicitly before sending, or use the network layer); receives block
//! the awaiting task until a message is available. Multiple receivers are
//! allowed and are served in FIFO wake order, which keeps schedules
//! deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::waker_set::{WakerSet, Woken};

struct Inner<T> {
    queue: VecDeque<T>,
    wakers: WakerSet,
    senders: usize,
    closed: bool,
}

/// Sending half of an unbounded channel.
pub struct Sender<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut woken = {
            let mut inner = self.inner.borrow_mut();
            inner.senders -= 1;
            if inner.senders == 0 {
                inner.closed = true;
                inner.wakers.take_all()
            } else {
                Woken::default()
            }
        };
        woken.wake();
    }
}

/// Create an unbounded channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(Inner {
        queue: VecDeque::new(),
        wakers: WakerSet::new(),
        senders: 1,
        closed: false,
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message, waking one waiting receiver.
    pub fn send(&self, value: T) {
        let waker = {
            let mut inner = self.inner.borrow_mut();
            inner.queue.push_back(value);
            inner.wakers.take_first()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Number of queued, unreceived messages.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receive the next message, waiting if none is queued. Returns `None`
    /// once all senders are dropped and the queue is drained.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv {
            rx: self,
            slot: None,
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a Receiver<T>,
    slot: Option<u64>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        let mut inner = this.rx.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            inner.wakers.remove(&this.slot);
            // Another message may remain for another waiting receiver.
            if !inner.queue.is_empty() {
                if let Some(w) = inner.wakers.take_first() {
                    w.wake();
                }
            }
            return Poll::Ready(Some(v));
        }
        if inner.closed {
            inner.wakers.remove(&this.slot);
            return Poll::Ready(None);
        }
        inner.wakers.register(&mut this.slot, cx.waker());
        Poll::Pending
    }
}

impl<T> Drop for Recv<'_, T> {
    fn drop(&mut self) {
        let mut inner = self.rx.inner.borrow_mut();
        inner.wakers.remove(&self.slot);
        // If messages remain and we were about to consume one, hand the
        // wake-up to the next waiting receiver.
        if !inner.queue.is_empty() {
            if let Some(w) = inner.wakers.take_first() {
                w.wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn send_then_recv() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        tx.send(1);
        tx.send(2);
        let h = sim.spawn(async move { (rx.recv().await, rx.recv().await) });
        sim.run();
        assert_eq!(h.try_result(), Some((Some(1), Some(2))));
    }

    #[test]
    fn recv_blocks_until_send() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let v = rx.recv().await.unwrap();
            (v, s.now())
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_us(4)).await;
            tx.send(9);
        });
        sim.run();
        let (v, t) = h.try_result().unwrap();
        assert_eq!(v, 9);
        assert_eq!(t.as_us(), 4.0);
    }

    #[test]
    fn closed_channel_returns_none() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        tx.send(1);
        drop(tx);
        let h = sim.spawn(async move { (rx.recv().await, rx.recv().await) });
        sim.run();
        assert_eq!(h.try_result(), Some((Some(1), None)));
    }

    #[test]
    fn drop_of_last_sender_wakes_waiters() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let h = sim.spawn(async move { rx.recv().await });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(1)).await;
            drop(tx);
        });
        sim.run();
        assert_eq!(h.try_result(), Some(None));
    }

    #[test]
    fn clone_sender_keeps_channel_open() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(3);
        let h = sim.spawn(async move { rx.recv().await });
        sim.run();
        assert_eq!(h.try_result(), Some(Some(3)));
    }

    #[test]
    fn len_counts_queued_messages() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        assert!(rx.is_empty());
        tx.send(7);
        assert_eq!((tx.len(), rx.len()), (1, 1));
        let rx2 = rx.clone();
        let h = sim.spawn(async move { rx2.recv().await });
        sim.run();
        assert_eq!(h.try_result(), Some(Some(7)));
        assert!(rx.is_empty() && tx.is_empty());
    }

    #[test]
    fn multiple_receivers_fifo() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let rx2 = rx.clone();
        let h1 = sim.spawn(async move { rx.recv().await });
        let h2 = sim.spawn(async move { rx2.recv().await });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(1)).await;
            tx.send(10);
            tx.send(20);
        });
        sim.run();
        // First-registered receiver gets the first message.
        assert_eq!(h1.try_result(), Some(Some(10)));
        assert_eq!(h2.try_result(), Some(Some(20)));
    }
}
