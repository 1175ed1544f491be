//! Regression tests for waker hygiene: racing/dropping futures against
//! simulation primitives must not leak wakers or duplicate timers.
//!
//! The original implementation pushed a waker on every poll and never
//! removed it; under `race()`-heavy loops (the progress engine) that caused
//! quadratic wake amplification — millions of stale timers and an event
//! loop stuck at one virtual instant. These tests pin the fix.

use desim::futures::race;
use desim::sync::{MutexCell, NotifyCell};
use desim::{Completion, Sim, SimDuration};
use std::cell::Cell;
use std::rc::Rc;

#[test]
fn racing_completion_against_notify_is_linear() {
    // A progress-wait style loop: race(done, notify) thousands of times.
    // With leaking wakers this took quadratic events; it must stay linear.
    let sim = Sim::new();
    let done: Completion<()> = Completion::new();
    let notify = Rc::new(NotifyCell::new());
    let iters = 2000u64;

    {
        let notify = Rc::clone(&notify);
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..iters {
                s.sleep(SimDuration::from_ns(100)).await;
                notify.notify_all();
            }
        });
    }
    {
        let done2 = done.clone();
        let notify = Rc::clone(&notify);
        let s = sim.clone();
        sim.spawn(async move {
            loop {
                if done2.peek().is_some() {
                    break;
                }
                match race(done2.wait(), NotifyCell::wait(Rc::clone(&notify))).await {
                    desim::Either::Left(()) => break,
                    desim::Either::Right(()) => {}
                }
                let _ = &s;
            }
        });
    }
    {
        let done2 = done.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(500)).await;
            done2.complete(());
        });
    }
    sim.run();
    let events = sim.events_processed();
    // Linear bound with generous slack: ~6 events per notify round.
    assert!(
        events < iters * 20,
        "event blow-up: {events} events for {iters} rounds"
    );
}

#[test]
fn repeated_sleep_registers_one_timer_each() {
    // A task woken spuriously while sleeping must not duplicate its timer.
    let sim = Sim::new();
    let notify = Rc::new(NotifyCell::new());
    {
        // Spammer: wakes the sleeper continuously via notify (stale-waker
        // style wakeups are simulated by racing).
        let notify = Rc::clone(&notify);
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..1000 {
                s.sleep(SimDuration::from_ns(10)).await;
                notify.notify_all();
            }
        });
    }
    let s = sim.clone();
    let woke = Rc::new(Cell::new(false));
    let woke2 = Rc::clone(&woke);
    sim.spawn(async move {
        // Race a long sleep against the notify storm; the sleep future gets
        // re-polled ~1000 times.
        let mut storms = 0;
        let sleep = s.sleep(SimDuration::from_us(100));
        futures_pin(sleep, &mut storms, &notify).await;
        woke2.set(true);
    });
    sim.run();
    assert!(woke.get());
    assert!(
        sim.events_processed() < 50_000,
        "timer duplication suspected: {} events",
        sim.events_processed()
    );
}

/// Poll a sleep future to completion while being woken by a notify storm.
async fn futures_pin(sleep: desim::kernel::Sleep, storms: &mut u32, notify: &Rc<NotifyCell>) {
    let mut sleep = Box::pin(sleep);
    loop {
        match race(sleep.as_mut(), NotifyCell::wait(Rc::clone(notify))).await {
            desim::Either::Left(()) => return,
            desim::Either::Right(()) => *storms += 1,
        }
    }
}

#[test]
fn dropped_mutex_waiter_does_not_deadlock() {
    // A lock() future dropped while queued must surrender its ticket.
    let sim = Sim::new();
    let m = Rc::new(MutexCell::new());
    let progressed = Rc::new(Cell::new(false));
    {
        let m = Rc::clone(&m);
        let s = sim.clone();
        sim.spawn(async move {
            let _g = MutexCell::lock(m).await;
            s.sleep(SimDuration::from_us(10)).await;
        });
    }
    {
        // This waiter gives up (races the lock against a short sleep).
        let m = Rc::clone(&m);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(1)).await;
            match race(MutexCell::lock(m), s.sleep(SimDuration::from_us(2))).await {
                desim::Either::Left(_g) => {}
                desim::Either::Right(()) => {} // cancelled while queued
            }
        });
    }
    {
        let m = Rc::clone(&m);
        let s = sim.clone();
        let progressed = Rc::clone(&progressed);
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(5)).await;
            let _g = MutexCell::lock(m).await; // must still be obtainable
            progressed.set(true);
        });
    }
    sim.run();
    assert!(progressed.get(), "mutex queue wedged by cancelled waiter");
}

#[test]
fn dropped_channel_waiter_cleans_up() {
    // A dropped Recv must hand queued messages to the next receiver.
    let sim = Sim::new();
    let fired = Rc::new(Cell::new(false));
    let (tx, rx) = desim::channel::channel::<u32>();
    {
        let rx2 = rx.clone();
        let s = sim.clone();
        sim.spawn(async move {
            // Give up on the first recv quickly.
            match race(rx2.recv(), s.sleep(SimDuration::from_ns(100))).await {
                desim::Either::Left(_) => {}
                desim::Either::Right(()) => {}
            }
        });
    }
    {
        let fired = Rc::clone(&fired);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(2)).await;
            tx.send(5);
            let v = rx.recv().await;
            assert_eq!(v, Some(5));
            fired.set(true);
        });
    }
    sim.run();
    assert!(fired.get());
}

#[test]
fn long_progress_loop_event_count_is_proportional() {
    // End-to-end guard: a rank-like loop of sleep+notify churn for 100k
    // virtual microseconds stays event-linear.
    let sim = Sim::new();
    let s = sim.clone();
    let n = Rc::new(NotifyCell::new());
    let n2 = Rc::clone(&n);
    sim.spawn(async move {
        for _ in 0..10_000 {
            s.sleep(SimDuration::from_ns(500)).await;
            n2.notify_all();
        }
    });
    let s2 = sim.clone();
    sim.spawn(async move {
        let deadline = desim::SimTime::ZERO + SimDuration::from_ms(5);
        while s2.now() < deadline {
            match race(
                NotifyCell::wait(Rc::clone(&n)),
                s2.sleep(SimDuration::from_us(1)),
            )
            .await
            {
                desim::Either::Left(()) | desim::Either::Right(()) => {}
            }
        }
    });
    sim.run();
    assert!(
        sim.events_processed() < 400_000,
        "{} events",
        sim.events_processed()
    );
}
