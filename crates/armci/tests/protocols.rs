//! Protocol-level integration tests: I/O-vector transfers, collective
//! allocation, cache eviction under pressure, non-blocking strided handles,
//! and mixed-traffic stress.

use armci::{Armci, ArmciConfig, ProgressMode, Strided};
use desim::{Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn setup(nprocs: usize, mcfg: impl FnOnce(MachineConfig) -> MachineConfig) -> (Sim, Armci) {
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        mcfg(MachineConfig::new(nprocs).procs_per_node(1).contexts(2)),
    );
    let armci = Armci::new(machine, ArmciConfig::default());
    (sim, armci)
}

fn finish(sim: &Sim, armci: &Armci) {
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    armci.finalize();
    sim.shutdown();
}

#[test]
fn vector_put_get_round_trip() {
    let (sim, a) = setup(2, |m| m);
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    let ok = Rc::new(Cell::new(false));
    let ok2 = Rc::clone(&ok);
    sim.spawn(async move {
        let src = r0.malloc(4096).await;
        let dst = r1.malloc(8192).await;
        let back = r0.malloc(4096).await;
        for i in 0..4096 / 8 {
            r0.pami().write_i64(src + i * 8, i as i64);
        }
        // Scatter three disjoint pieces at irregular remote offsets.
        let parts = [
            (src, dst + 100, 1000),
            (src + 1000, dst + 3000, 500),
            (src + 1500, dst + 7000, 800),
        ];
        r0.putv(1, &parts).await;
        r0.fence(1).await;
        // Gather them back into a different local layout.
        let back_parts = [
            (back, dst + 100, 1000),
            (back + 1000, dst + 3000, 500),
            (back + 1500, dst + 7000, 800),
        ];
        r0.getv(1, &back_parts).await;
        assert_eq!(
            r0.pami().read_bytes(back, 2300),
            r0.pami().read_bytes(src, 2300)
        );
        ok2.set(true);
    });
    finish(&sim, &a);
    assert!(ok.get());
}

#[test]
fn vector_ops_pick_protocol_by_min_chunk() {
    let (sim, a) = setup(2, |m| m);
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    sim.spawn(async move {
        let src = r0.malloc(8192).await;
        let dst = r1.malloc(8192).await;
        // All chunks large: zero-copy.
        r0.putv(1, &[(src, dst, 2048), (src + 2048, dst + 4096, 2048)])
            .await;
        // One tiny chunk: packed.
        r0.putv(1, &[(src, dst, 2048), (src + 4000, dst + 6100, 8)])
            .await;
        r0.fence(1).await;
    });
    finish(&sim, &a);
    let stats = a.machine().stats();
    assert_eq!(stats.counter("armci.strided_zero_copy"), 1);
    assert_eq!(stats.counter("armci.strided_packed"), 1);
}

#[test]
fn malloc_collective_exchanges_offsets_and_keys() {
    let p = 5;
    let (sim, a) = setup(p, |m| m);
    let offsets: Rc<RefCell<Vec<Vec<usize>>>> = Rc::new(RefCell::new(vec![Vec::new(); p]));
    for r in 0..p {
        let rk = a.rank(r);
        let offsets = Rc::clone(&offsets);
        sim.spawn(async move {
            let offs = rk.malloc_collective(4096).await;
            offsets.borrow_mut()[r] = offs.clone();
            // Immediately RDMA into the right neighbour using the exchanged
            // offset — no query round trip should be needed.
            let next = (r + 1) % rk.armci().nprocs();
            let buf = rk.malloc(64).await;
            rk.pami().write_i64(buf, r as i64);
            rk.put(next, buf, offs[next], 8).await;
            rk.barrier().await;
        });
    }
    finish(&sim, &a);
    let offsets = offsets.borrow();
    // Every rank saw the same offset vector.
    for r in 1..p {
        assert_eq!(offsets[0], offsets[r]);
    }
    // All puts were RDMA (keys pre-exchanged, no queries).
    let stats = a.machine().stats();
    assert_eq!(stats.counter("armci.put_rdma"), p as u64);
    assert_eq!(stats.counter("armci.region_query"), 0);
    // And the data landed.
    for r in 0..p {
        let prev = (r + p - 1) % p;
        assert_eq!(a.machine().rank(r).read_i64(offsets[0][r]), prev as i64);
    }
}

#[test]
fn region_cache_eviction_forces_requery() {
    let p = 6;
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(p).procs_per_node(1).contexts(2),
    );
    // Cache only 2 entries: visiting 5 targets round-robin thrashes it.
    let armci = Armci::new(machine, ArmciConfig::default().region_cache_capacity(2));
    let r0 = armci.rank(0);
    let mut remotes = Vec::new();
    for t in 1..p {
        let pr = armci.machine().rank(t);
        let off = pr.alloc(1024);
        let _ = pr.register_region_untimed(off, 1024);
        remotes.push(off);
    }
    sim.spawn(async move {
        let local = r0.malloc(1024).await;
        for round in 0..4 {
            for t in 1..p {
                let _ = round;
                r0.get(t, local, remotes[t - 1], 256).await;
            }
        }
    });
    finish(&sim, &armci);
    let (hits, misses, evictions) = armci.region_cache_totals();
    assert!(misses > 5, "thrashing expected, misses = {misses}");
    assert!(evictions > 0);
    let _ = hits;
    // Data correctness is unaffected by eviction (every get still resolved).
    assert_eq!(
        armci.machine().stats().counter("armci.get_rdma"),
        4 * (p as u64 - 1)
    );
}

#[test]
fn nb_strided_handles_complete_out_of_order() {
    let (sim, a) = setup(3, |m| m);
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    let r2 = a.rank(2);
    sim.spawn(async move {
        let big_remote = r1.malloc(1 << 20).await;
        let small_remote = r2.malloc(4096).await;
        let big_local = r0.malloc(1 << 20).await;
        let small_local = r0.malloc(4096).await;
        let big = Strided::patch2d(big_remote, 64 * 1024, 16, 64 * 1024);
        let big_l = Strided::patch2d(big_local, 64 * 1024, 16, 64 * 1024);
        let h_big = r0.nbget_strided(1, &big_l, &big).await;
        let small = Strided::patch2d(small_remote, 1024, 4, 1024);
        let small_l = Strided::patch2d(small_local, 1024, 4, 1024);
        let h_small = r0.nbget_strided(2, &small_l, &small).await;
        // The small get (different target) finishes first.
        r0.wait(&h_small).await;
        assert!(!h_big.test(), "1MB strided get cannot beat 4KB");
        r0.wait(&h_big).await;
        assert!(h_big.test());
    });
    finish(&sim, &a);
}

#[test]
fn default_mode_mixed_traffic_stress() {
    // Default progress, every rank mixes puts/gets/accs/rmws — this must
    // neither deadlock nor corrupt data.
    let p = 6;
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(p).procs_per_node(1).contexts(1),
    );
    let armci = Armci::new(
        machine,
        ArmciConfig::default().progress(ProgressMode::Default),
    );
    let counter = armci.machine().rank(0).alloc(8);
    let handles: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(vec![false; p]));
    for r in 0..p {
        let rk = armci.rank(r);
        let handles = Rc::clone(&handles);
        sim.spawn(async move {
            let buf = rk.malloc(4096).await;
            let acc_src = rk.malloc(512).await;
            rk.pami().write_f64s(acc_src, &[1.0; 64]);
            let mine = rk.malloc(4096).await;
            rk.barrier().await;
            for i in 0..10 {
                let t = (r + 1 + i) % p;
                rk.rmw_fetch_add(0, counter, 1).await;
                rk.get(t, buf, mine, 1024).await;
                rk.nbacc(t, acc_src, mine + 2048, 64, 1.0).await;
            }
            rk.barrier().await;
            handles.borrow_mut()[rk.id()] = true;
        });
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    armci.finalize();
    sim.shutdown();
    assert!(handles.borrow().iter().all(|&d| d), "a rank hung");
    assert_eq!(armci.machine().rank(0).read_i64(counter), (p * 10) as i64);
}

#[test]
fn value_put_get_round_trip() {
    let (sim, a) = setup(2, |m| m);
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    let cell = a.machine().rank(1).alloc(8);
    let got = Rc::new(Cell::new(0i64));
    let got2 = Rc::clone(&got);
    sim.spawn(async move {
        r0.put_value_i64(1, cell, -1234).await;
        r0.fence(1).await;
        got2.set(r0.get_value_i64(1, cell).await);
    });
    finish(&sim, &a);
    assert_eq!(got.get(), -1234);
    assert_eq!(a.machine().rank(1).read_i64(cell), -1234);
    let _ = r1;
}

/// Single-value transfers stage through one scratch word per rank: a
/// hundred of them register one region, allocate eight bytes once, and —
/// the first paid δ for the registration — cost the same simulated time each.
#[test]
fn value_transfers_reuse_one_registered_scratch_word() {
    let (sim, a) = setup(2, |m| m);
    let r0 = a.rank(0);
    let cell = a.machine().rank(1).alloc(8);
    let regions = a.machine().stats().counter("pami.regions_created");
    let costs = Rc::new(std::cell::RefCell::new(Vec::new()));
    let costs2 = Rc::clone(&costs);
    let s = sim.clone();
    sim.spawn(async move {
        let mut next_alloc = None;
        for i in 0..100 {
            let t0 = s.now();
            r0.put_value_i64(1, cell, i).await;
            costs2.borrow_mut().push(s.now() - t0);
            let after = r0.pami().alloc(0);
            assert_eq!(
                *next_alloc.get_or_insert(after),
                after,
                "call {i} allocated"
            );
        }
        r0.fence(1).await;
        assert_eq!(r0.get_value_i64(1, cell).await, 99);
        assert_eq!(Some(r0.pami().alloc(0)), next_alloc);
    });
    finish(&sim, &a);
    let stats = a.machine().stats();
    assert_eq!(stats.counter("armci.put"), 100);
    assert!(stats.counter("pami.regions_created") - regions <= 1);
    let costs = costs.borrow();
    assert!(costs[0] > costs[1], "the first call registers the word");
    assert!(costs[1..].iter().all(|&c| c == costs[1]), "{costs:?}");
}

#[test]
fn deregistered_region_falls_back() {
    let (sim, a) = setup(2, |m| m);
    let r0 = a.rank(0);
    let r1 = a.rank(1);
    sim.spawn(async move {
        let dst = r1.malloc(1024).await;
        let buf = r0.malloc(1024).await;
        r0.get(1, buf, dst, 256).await; // RDMA (registered + cached)
                                        // Owner tears the region down; the stale cache entry still points at
                                        // it, but a *fresh* runtime lookup after eviction must fall back.
        let id = r1.pami().find_region(dst, 1024).expect("registered");
        r1.pami().deregister_region(id);
        assert!(r1.pami().find_region(dst, 256).is_none());
    });
    finish(&sim, &a);
    assert_eq!(a.machine().stats().counter("armci.get_rdma"), 1);
}
