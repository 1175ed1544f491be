//! Same-instant order under a schedule seed (DESIGN.md §11, "Perturbed
//! schedules"): seed 0 is the FIFO order `Sim::new` runs, a seed repeats
//! itself, other seeds reorder timers and ready tasks that share an
//! instant, and the timers of one lane keep the order they were scheduled
//! in.

use std::cell::RefCell;
use std::rc::Rc;

use desim::{Sim, SimTime};

/// The order in which 48 callbacks at one instant run: every third one in
/// lane 7, the rest in no lane.
fn timer_order(sim: Sim) -> Vec<u32> {
    let order = Rc::new(RefCell::new(Vec::new()));
    let at = SimTime::ZERO + desim::SimDuration::from_ns(5);
    for i in 0..48u32 {
        let order = Rc::clone(&order);
        let lane = (i % 3 == 0).then_some(7);
        sim.schedule_fifo(at, lane, move || order.borrow_mut().push(i));
    }
    sim.run();
    order.take()
}

/// The order in which 16 tasks made ready at one instant are first polled.
fn poll_order(sim: Sim) -> Vec<u32> {
    let order = Rc::new(RefCell::new(Vec::new()));
    for i in 0..16u32 {
        let order = Rc::clone(&order);
        sim.spawn(async move { order.borrow_mut().push(i) });
    }
    sim.run();
    order.take()
}

#[test]
fn seed_zero_is_fifo_and_seeds_repeat() {
    let fifo: Vec<u32> = (0..48).collect();
    assert_eq!(timer_order(Sim::new()), fifo);
    assert_eq!(timer_order(Sim::with_schedule_seed(0)), fifo);
    assert_eq!(
        poll_order(Sim::with_schedule_seed(0)),
        (0..16).collect::<Vec<_>>()
    );
    for seed in 1..=8 {
        let s = || Sim::with_schedule_seed(seed);
        assert_eq!(timer_order(s()), timer_order(s()), "seed {seed}");
        assert_eq!(poll_order(s()), poll_order(s()), "seed {seed}");
    }
}

#[test]
fn seeds_reorder_an_instant_but_a_lane_keeps_its_order() {
    let (mut timers_moved, mut polls_moved) = (false, false);
    for seed in 1..=64 {
        let order = timer_order(Sim::with_schedule_seed(seed));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..48).collect::<Vec<_>>(),
            "seed {seed}: each runs once"
        );
        let lane: Vec<u32> = order.iter().copied().filter(|i| i % 3 == 0).collect();
        assert!(lane.is_sorted(), "seed {seed}: lane 7 ran {lane:?}");
        timers_moved |= !order.is_sorted();
        polls_moved |= !poll_order(Sim::with_schedule_seed(seed)).is_sorted();
    }
    assert!(timers_moved && polls_moved, "some seed reorders each queue");
}
