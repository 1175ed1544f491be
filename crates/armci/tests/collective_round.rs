//! The collective round (barrier, allreduce, broadcast, collective
//! allocation over one rendezvous) and the shared request/reply table
//! (region queries and AM fences).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use armci::{Armci, ArmciConfig, ReduceOp, RemoteRegion};
use desim::{Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};

fn setup(p: usize) -> (Sim, Armci) {
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(p).procs_per_node(1).contexts(2),
    );
    let armci = Armci::new(machine, ArmciConfig::default());
    (sim, armci)
}

fn finish(sim: &Sim, a: &Armci) {
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    a.finalize();
    sim.shutdown();
}

/// Every collective kind back to back, twice, at p = 8: each result is
/// right, and the last barrier releases at the pinned instant.
#[test]
fn mixed_sequence_keeps_results_and_release_instant() {
    let p = 8;
    let (sim, a) = setup(p);
    type Seen = (Vec<Vec<f64>>, Vec<Vec<usize>>, Vec<Vec<u8>>);
    let seen: Vec<Rc<RefCell<Seen>>> = (0..p).map(|_| Rc::default()).collect();
    let released: Rc<RefCell<Vec<SimTime>>> = Rc::default();
    for (r, seen) in seen.iter().enumerate() {
        let (rk, s) = (a.rank(r), sim.clone());
        let (seen, released) = (Rc::clone(seen), Rc::clone(&released));
        sim.spawn(async move {
            for round in 0..2usize {
                rk.barrier().await;
                let sum = rk
                    .allreduce_f64(&[r as f64, 1.0, round as f64], ReduceOp::Sum)
                    .await;
                let offs = rk.malloc_collective(64 << round).await;
                let root = round + 1;
                let data = (r == root).then(|| vec![root as u8; 3 + round]);
                let got = rk.broadcast(root, data).await;
                rk.barrier().await;
                let mut seen = seen.borrow_mut();
                seen.0.push(sum);
                seen.1.push(offs);
                seen.2.push(got);
            }
            released.borrow_mut().push(s.now());
        });
    }
    finish(&sim, &a);
    let released = released.borrow();
    assert_eq!(released.len(), p, "every rank completes both rounds");
    assert!(released.iter().all(|&t| t == released[0]), "{released:?}");
    for round in 0..2 {
        let offs = &seen[0].borrow().1[round];
        assert_eq!(offs.len(), p);
        for (r, seen) in seen.iter().enumerate() {
            let seen = seen.borrow();
            let want_sum = vec![28.0, p as f64, (round * p) as f64];
            assert_eq!(seen.0[round], want_sum, "rank {r} round {round}");
            assert_eq!(&seen.1[round], offs, "rank {r} round {round}");
            let root = round + 1;
            assert_eq!(seen.2[round], vec![root as u8; 3 + round], "rank {r}");
        }
    }
    let (first, second) = (&seen[0].borrow().1[0], &seen[0].borrow().1[1]);
    assert!(first.iter().zip(second).all(|(x, y)| x != y));
    let stats = a.machine().stats();
    assert_eq!(stats.counter("armci.allreduce"), 2);
    assert_eq!(stats.counter("armci.broadcast"), 2);
    assert_eq!(stats.counter("armci.region_query"), 0);
    assert_eq!(released[0].as_ps(), PINNED_RELEASE_PS);
}

/// The mixed sequence's release instant: each collective completes
/// `barrier_cost(p) + wire_time(bytes)` after its last arrival, so a change
/// to any kind's pricing or closing step moves it.
const PINNED_RELEASE_PS: u64 = 102_530_965;

/// Two ranks in different collectives: the second arrival names both kinds
/// instead of both ranks waiting forever.
#[test]
#[should_panic(expected = "collective kind mismatch")]
fn mismatched_kinds_panic() {
    let (sim, a) = setup(2);
    let (r0, r1) = (a.rank(0), a.rank(1));
    sim.spawn(async move { r0.barrier().await });
    sim.spawn(async move {
        r1.allreduce_f64(&[1.0], ReduceOp::Sum).await;
    });
    finish(&sim, &a);
}

/// An empty first contribution must not switch off the length check for
/// the arrivals after it.
#[test]
#[should_panic(expected = "allreduce length mismatch")]
fn allreduce_checks_length_after_empty_first_arrival() {
    let (sim, a) = setup(2);
    let (r0, r1) = (a.rank(0), a.rank(1));
    sim.spawn(async move {
        r0.allreduce_f64(&[], ReduceOp::Sum).await;
    });
    sim.spawn(async move {
        r1.allreduce_f64(&[1.0, 2.0], ReduceOp::Sum).await;
    });
    finish(&sim, &a);
}

/// A region-query miss and an AM fence from one rank to the same target,
/// outstanding at once on two tasks, draw their reply ids from one table:
/// both complete, and the queried region is cached afterwards.
#[test]
fn region_query_and_am_fence_share_the_reply_table() {
    let (sim, a) = setup(2);
    let (r0, r1) = (a.rank(0), a.rank(1));
    let off = Rc::new(Cell::new(usize::MAX));
    {
        let off = Rc::clone(&off);
        sim.spawn(async move { off.set(r1.malloc(4096).await) });
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_us(100));
    let off = off.get();
    assert_ne!(off, usize::MAX, "the target registered its block");
    let started = sim.now();
    let region: Rc<Cell<Option<RemoteRegion>>> = Rc::default();
    let found: Rc<Cell<Option<SimTime>>> = Rc::default();
    let fenced: Rc<Cell<Option<SimTime>>> = Rc::default();
    {
        let (rk, s) = (r0.clone(), sim.clone());
        let (region, found) = (Rc::clone(&region), Rc::clone(&found));
        sim.spawn(async move {
            region.set(rk.resolve_remote(1, off, 64).await);
            found.set(Some(s.now()));
        });
    }
    {
        let (rk, s, fenced) = (r0.clone(), sim.clone(), Rc::clone(&fenced));
        sim.spawn(async move {
            rk.am_fence(1).await;
            fenced.set(Some(s.now()));
        });
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_us(500));
    let found_at = found.get().expect("the query completes");
    let fenced_at = fenced.get().expect("the fence completes");
    assert_eq!(region.get(), Some(RemoteRegion { off, len: 4096 }));
    assert!(found_at > started && fenced_at > started);
    let stats = a.machine().stats();
    assert_eq!(stats.counter("armci.region_query"), 1);
    // Cached: a second resolution is a hit, with no second query.
    let again: Rc<Cell<Option<RemoteRegion>>> = Rc::default();
    {
        let again = Rc::clone(&again);
        sim.spawn(async move { again.set(r0.resolve_remote(1, off + 8, 8).await) });
    }
    finish(&sim, &a);
    assert_eq!(again.get(), Some(RemoteRegion { off, len: 4096 }));
    assert_eq!(stats.counter("armci.region_query"), 1);
}
