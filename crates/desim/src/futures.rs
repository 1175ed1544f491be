//! Small future combinators used by the simulation layers.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Which branch of a [`race`] finished first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future completed first.
    Left(A),
    /// The second future completed first.
    Right(B),
}

/// Future returned by [`race`].
pub struct Race2<A, B> {
    a: A,
    b: B,
}

/// Run two futures concurrently; resolve with whichever completes first
/// (ties go to the left). The loser is dropped.
///
/// Both futures must be cancel-safe, which all desim primitives are.
pub fn race<A: Future, B: Future>(a: A, b: B) -> Race2<A, B> {
    Race2 { a, b }
}

impl<A: Future, B: Future> Future for Race2<A, B> {
    type Output = Either<A::Output, B::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: we never move `a`/`b` out of the pinned struct.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: `this.a` is structurally pinned: `Race2` is pinned and
        // never moves or replaces its fields.
        let a = unsafe { Pin::new_unchecked(&mut this.a) };
        if let Poll::Ready(v) = a.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        // SAFETY: as for `this.a`.
        let b = unsafe { Pin::new_unchecked(&mut this.b) };
        if let Poll::Ready(v) = b.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn race_picks_earlier() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let r = race(
                s.sleep(SimDuration::from_us(5)),
                s.sleep(SimDuration::from_us(2)),
            )
            .await;
            (matches!(r, Either::Right(())), s.now())
        });
        sim.run();
        let (right, t) = h.try_result().unwrap();
        assert!(right);
        assert_eq!(t.as_us(), 2.0);
    }

    #[test]
    fn race_tie_goes_left() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let r = race(
                s.sleep(SimDuration::from_us(3)),
                s.sleep(SimDuration::from_us(3)),
            )
            .await;
            matches!(r, Either::Left(()))
        });
        sim.run();
        assert_eq!(h.try_result(), Some(true));
    }

    #[test]
    fn race_with_completion() {
        use crate::Completion;
        let sim = Sim::new();
        let c: Completion<u32> = Completion::new();
        let c2 = c.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            match race(c2.wait(), s.sleep(SimDuration::from_us(10))).await {
                Either::Left(v) => v,
                Either::Right(()) => 0,
            }
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_us(1)).await;
            c.complete(99);
        });
        sim.run();
        assert_eq!(h.try_result(), Some(99));
    }
}
