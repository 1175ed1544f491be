//! Size budget of the task box: what a parked task costs the host.
//!
//! `Sim::spawn` boxes the spawned future together with the completion its
//! `JoinHandle` waits on. The box must hold the future **once**. (The
//! `async move { let out = future.await; done.complete(out) }` wrapper the
//! kernel used to build stored it twice — as the captured variable of the
//! unresumed state and as the awaitee of the suspended one — so a 1 KiB rank
//! program cost 2 KiB per task, times every rank of a dense run.)

use std::future::Future;
use std::mem::size_of;
use std::pin::Pin;
use std::task::{Context, Poll};

use desim::{Sim, SimDuration};

/// A known 1 KiB future: parks forever, then is reclaimed by `shutdown`.
struct Kib([u8; 1024]);

impl Future for Kib {
    type Output = u8;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<u8> {
        match self.0[0] {
            0 => Poll::Ready(0),
            _ => Poll::Pending,
        }
    }
}

/// Slack for what the box holds besides the future: the completion handle
/// (one pointer today) and alignment padding.
const SLACK: usize = 48;

#[test]
fn task_box_holds_a_hand_written_future_once() {
    let sim = Sim::new();
    let h = sim.spawn(Kib([7; 1024]));
    let bytes = sim.task_bytes(h.task_id()).expect("task is live");
    assert!(bytes >= size_of::<Kib>());
    assert!(
        bytes <= size_of::<Kib>() + SLACK,
        "task box is {bytes} B for a {} B future",
        size_of::<Kib>()
    );
    sim.run();
    assert_eq!(
        sim.task_bytes(h.task_id()),
        Some(bytes),
        "parked, not freed"
    );
    sim.shutdown();
    assert_eq!(sim.task_bytes(h.task_id()), None);
}

#[test]
fn task_box_holds_an_async_block_once() {
    // The shape of a rank program: an async block keeping 1 KiB of state
    // alive across an await.
    fn size_of_future<F: Future>(_: &F) -> usize {
        size_of::<F>()
    }
    let sim = Sim::new();
    let s = sim.clone();
    let program = async move {
        let state = [3u8; 1024];
        s.sleep(SimDuration::from_us(1)).await;
        state.iter().map(|&b| b as u32).sum::<u32>()
    };
    let future_bytes = size_of_future(&program);
    assert!(future_bytes >= 1024);
    let h = sim.spawn(program);
    let bytes = sim.task_bytes(h.task_id()).expect("task is live");
    assert!(
        bytes <= future_bytes + SLACK,
        "task box is {bytes} B for a {future_bytes} B future"
    );
    sim.run();
    assert_eq!(h.try_result(), Some(3 * 1024));
    assert_eq!(
        sim.task_bytes(h.task_id()),
        None,
        "finished tasks free their box"
    );
}
