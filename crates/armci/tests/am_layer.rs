//! Tests of the AM-backed ARMCI operations (notify broadcast, accumulate
//! fallback, fence) over both the unbatched hot path and the per-destination
//! aggregation buffer.

use armci::{Armci, ArmciConfig};
use desim::{Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn setup(nprocs: usize, mcfg: impl FnOnce(MachineConfig) -> MachineConfig) -> (Sim, Armci) {
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        mcfg(MachineConfig::new(nprocs).procs_per_node(1)),
    );
    let armci = Armci::new(machine, ArmciConfig::default());
    (sim, armci)
}

fn finish(sim: &Sim) {
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    sim.shutdown();
}

#[test]
fn notify_observed_by_wait_notify_unbatched() {
    let (sim, a) = setup(2, |m| m);
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    let ok = Rc::new(RefCell::new(false));
    let ok2 = Rc::clone(&ok);
    let next_alloc = a.machine().rank(0).alloc(0);
    sim.spawn(async move {
        let s1 = r0.notify(1).await;
        let s2 = r0.notify(1).await;
        assert_eq!((s1, s2), (1, 2));
        r1.wait_notify(0, 2).await;
        *ok2.borrow_mut() = true;
    });
    finish(&sim);
    assert!(*ok.borrow());
    assert_eq!(a.machine().stats().counter("armci.notify"), 2);
    // Unbatched: every AM is its own wire message.
    assert_eq!(a.machine().stats().counter("am.wire_msgs"), 2);
    assert_eq!(a.machine().stats().counter("am.batches"), 0);
    // The sequence number travels in the message: nothing is staged in (or
    // leaked from) the sender's memory arena.
    assert_eq!(a.machine().rank(0).alloc(0), next_alloc);
}

/// What callers of `notify` rely on: it is ordered after this rank's
/// earlier puts to the same target, so data put before the notify is
/// visible to the waiter once `wait_notify` returns — on the unbatched path
/// and, with `am_fence` forcing the buffer out, under batching.
#[test]
fn put_before_notify_is_visible_after_wait_notify() {
    for (batched, registered) in [(false, false), (false, true), (true, false), (true, true)] {
        let (sim, a) = setup(2, |m| {
            if batched {
                m.am_batching(1 << 16, SimDuration::from_ms(1))
            } else {
                m
            }
        });
        let (r0, r1) = (a.rank(0), a.rank(1));
        let src = r0.pami().alloc(64);
        let dst = r1.pami().alloc(64);
        r0.pami().write_bytes(src, &[9u8; 64]);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        let ready = desim::Completion::new();
        let ready2 = ready.clone();
        sim.spawn(async move {
            if registered {
                r1.pami().register_region(dst, 64).await.expect("no limit");
            }
            ready2.complete(());
            r1.wait_notify(0, 1).await;
            *seen2.borrow_mut() = r1.pami().read_bytes(dst, 64);
        });
        sim.spawn(async move {
            ready.wait().await;
            r0.put(1, src, dst, 64).await;
            assert_eq!(r0.notify(1).await, 1);
            if batched {
                r0.am_fence(1).await;
            }
        });
        finish(&sim);
        assert_eq!(
            *seen.borrow(),
            vec![9u8; 64],
            "batched {batched}, registered {registered}"
        );
        let path = if registered {
            "armci.put_rdma"
        } else {
            "armci.put_fallback"
        };
        assert_eq!(a.machine().stats().counter(path), 1);
    }
}

#[test]
fn acc_am_batched_applies_and_coalesces() {
    let (sim, a) = setup(
        2,
        |m| m.am_batching(1 << 16, SimDuration::from_us(2)), // window-driven
    );
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    let ok = Rc::new(RefCell::new(false));
    let ok2 = Rc::clone(&ok);
    sim.spawn(async move {
        let dst = r1.malloc(8 * 16).await;
        r1.pami().write_f64s(dst, &[1.0; 16]);
        for i in 0..16 {
            r0.acc_am(1, dst + 8 * i, &[i as f64], 2.0).await;
        }
        r0.am_fence(1).await;
        let got = r1.pami().read_f64s(dst, 16);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, 1.0 + 2.0 * i as f64, "element {i}");
        }
        *ok2.borrow_mut() = true;
    });
    finish(&sim);
    assert!(*ok.borrow());
    let s = a.machine().stats();
    assert_eq!(s.counter("armci.acc_am"), 16);
    // 16 accs + the fence ping coalesced into one wire message.
    assert_eq!(s.counter("am.wire_msgs"), 1);
    assert_eq!(s.counter("am.batches"), 1);
    assert_eq!(s.counter("am.sent"), 17);
}

#[test]
fn size_threshold_flushes_before_window() {
    // Threshold small enough that the third enqueue trips it; the fence
    // flushes the remainder.
    let (sim, a) = setup(2, |m| m.am_batching(96, SimDuration::from_ms(100)));
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    sim.spawn(async move {
        let dst = r1.malloc(64).await;
        for i in 0..4 {
            r0.acc_am(1, dst + 8 * i, &[1.0], 1.0).await;
        }
        r0.am_fence(1).await;
        assert_eq!(r1.pami().read_f64s(dst, 4), vec![1.0; 4]);
    });
    finish(&sim);
    let s = a.machine().stats();
    assert!(
        s.counter("am.wire_msgs") >= 2,
        "size trip plus fence flush => at least two wire messages, got {}",
        s.counter("am.wire_msgs")
    );
}

#[test]
fn batched_matches_unbatched_values() {
    let run = |batch: bool| -> Vec<f64> {
        let (sim, a) = setup(4, |m| {
            if batch {
                m.am_batching(4096, SimDuration::from_us(4))
            } else {
                m
            }
        });
        let owner = a.rank(3);
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        let dst = Rc::new(RefCell::new(0usize));
        let dst2 = Rc::clone(&dst);
        let o2 = owner.clone();
        sim.spawn(async move {
            *dst2.borrow_mut() = o2.malloc(8 * 8).await;
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        for r in 0..3 {
            let rk = a.rank(r);
            let dst = *dst.borrow();
            sim.spawn(async move {
                for k in 0..8 {
                    rk.acc_am(3, dst + 8 * k, &[(r + 1) as f64], k as f64).await;
                }
                rk.am_fence(3).await;
            });
        }
        let off = *dst.borrow();
        finish(&sim);
        *got2.borrow_mut() = owner.pami().read_f64s(off, 8);
        let vals = got.borrow().clone();
        vals
    };
    let b = run(true);
    let u = run(false);
    assert_eq!(b, u);
    for (k, v) in b.iter().enumerate() {
        // sum over ranks r of (r+1) * k  =  6k
        assert_eq!(*v, 6.0 * k as f64, "element {k}");
    }
}

#[test]
fn notify_broadcast_reaches_all_targets() {
    let (sim, a) = setup(5, |m| m.am_batching(4096, SimDuration::from_us(1)));
    let r0 = a.rank(0);
    let ranks: Vec<_> = (1..5).map(|r| a.rank(r)).collect();
    let ok = Rc::new(RefCell::new(0));
    sim.spawn({
        let r0 = r0.clone();
        async move {
            let seqs = r0.notify_broadcast(&[1, 2, 3, 4]).await;
            assert_eq!(seqs, vec![1, 1, 1, 1]);
        }
    });
    for rk in ranks {
        let ok2 = Rc::clone(&ok);
        sim.spawn(async move {
            rk.wait_notify(0, 1).await;
            *ok2.borrow_mut() += 1;
        });
    }
    finish(&sim);
    assert_eq!(*ok.borrow(), 4);
    // One wire message per destination once the window expires.
    assert_eq!(a.machine().stats().counter("am.wire_msgs"), 4);
}
