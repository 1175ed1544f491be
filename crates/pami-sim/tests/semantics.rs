//! Semantics tests for the PAMI-like layer: data movement correctness,
//! timing against the closed-form cost models, progress-engine behaviour,
//! ordering, and object cost accounting.

use desim::{Sim, SimDuration};
use pami_sim::{Machine, MachineConfig, RmwOp};
use std::cell::RefCell;
use std::rc::Rc;

fn machine(nprocs: usize) -> (Sim, Machine) {
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(nprocs).procs_per_node(1));
    (sim, m)
}

#[test]
fn rdma_put_moves_data_and_completes() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let src = a.alloc(64);
    let dst = b.alloc(64);
    a.write_bytes(src, &[7u8; 64]);
    let b2 = b.clone();
    let h = sim.spawn(async move {
        let h = a.rdma_put(1, src, dst, 64).await;
        h.remote.wait().await;
        assert_eq!(b2.read_bytes(dst, 64), vec![7u8; 64]);
        h.local.wait().await;
    });
    sim.run();
    assert!(h.is_done());
}

#[test]
fn rdma_get_blocking_latency_matches_paper() {
    // Ranks on adjacent nodes (1 hop), 16-byte get: 2.89 us.
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let src = b.alloc(16);
    b.write_bytes(src, b"0123456789abcdef");
    let dst = a.alloc(16);
    let params = m.params().clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        let done = a.rdma_get(1, dst, src, 16).await;
        done.wait().await;
        s.sleep(params.o_recv).await;
        let lat = s.now() - t0;
        assert_eq!(a.read_bytes(dst, 16), b"0123456789abcdef".to_vec());
        lat
    });
    sim.run();
    let lat = h.try_result().unwrap().as_us();
    assert!((lat - 2.89).abs() < 0.02, "get latency {lat} != 2.89us");
}

#[test]
fn rdma_put_blocking_latency_matches_paper() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let src = a.alloc(16);
    let dst = b.alloc(16);
    let params = m.params().clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        let h = a.rdma_put(1, src, dst, 16).await;
        h.local.wait().await;
        s.sleep(params.o_put_local).await;
        s.now() - t0
    });
    sim.run();
    let lat = h.try_result().unwrap().as_us();
    assert!((lat - 2.70).abs() < 0.02, "put latency {lat} != 2.70us");
}

#[test]
fn put_snapshot_at_post_time() {
    // Buffer-reuse semantics: modifying the source after posting must not
    // affect the data in flight.
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let src = a.alloc(8);
    let dst = b.alloc(8);
    a.write_i64(src, 111);
    let a2 = a.clone();
    let b2 = b.clone();
    sim.spawn(async move {
        let h = a2.rdma_put(1, src, dst, 8).await;
        a2.write_i64(src, 999); // scribble immediately after post
        h.remote.wait().await;
        assert_eq!(b2.read_i64(dst), 111);
    });
    sim.run();
}

#[test]
fn sw_put_requires_target_progress() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let src = a.alloc(8);
    let dst = b.alloc(8);
    a.write_i64(src, 5);
    let applied = Rc::new(RefCell::new(Vec::<(f64, i64)>::new()));

    let s = sim.clone();
    let b2 = b.clone();
    let applied2 = Rc::clone(&applied);
    sim.spawn(async move {
        let h = a.sw_put(1, src, dst, 8).await;
        // Give the network plenty of time: without target progress the data
        // must still not be visible.
        s.sleep(SimDuration::from_us(50)).await;
        applied2
            .borrow_mut()
            .push((s.now().as_us(), b2.read_i64(dst)));
        h.remote.wait().await;
        applied2
            .borrow_mut()
            .push((s.now().as_us(), b2.read_i64(dst)));
    });
    // Target only advances at t = 100us.
    let s2 = sim.clone();
    let b3 = b.clone();
    sim.spawn(async move {
        s2.sleep(SimDuration::from_us(100)).await;
        b3.advance(0, usize::MAX).await;
    });
    sim.run();
    let log = applied.borrow();
    assert_eq!(log[0].1, 0, "data visible before target progress");
    assert_eq!(log[1].1, 5);
    assert!(log[1].0 >= 100.0, "completion only after target advanced");
}

#[test]
fn sw_get_round_trip_through_target_cpu() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let remote = b.alloc(32);
    b.write_bytes(remote, &[9u8; 32]);
    let local = a.alloc(32);
    // Async progress thread at the target services the request.
    let _at = b.start_progress_thread();
    let a2 = a.clone();
    let h = sim.spawn(async move {
        let done = a2.sw_get(1, local, remote, 32).await;
        done.wait().await;
        a2.read_bytes(local, 32)
    });
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
    assert_eq!(h.try_result().unwrap(), vec![9u8; 32]);
    sim.shutdown();
}

#[test]
fn fallback_get_slower_than_rdma_get() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let remote = b.alloc(1024);
    let local = a.alloc(1024);
    let _at = b.start_progress_thread();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        a.rdma_get(1, local, remote, 1024).await.wait().await;
        let rdma = s.now() - t0;
        let t1 = s.now();
        a.sw_get(1, local, remote, 1024).await.wait().await;
        let sw = s.now() - t1;
        (rdma, sw)
    });
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
    let (rdma, sw) = h.try_result().unwrap();
    assert!(sw > rdma, "fallback {sw} must exceed rdma {rdma}");
    sim.shutdown();
}

#[test]
fn rmw_fetch_add_hands_out_unique_values() {
    let (sim, m) = machine(8);
    let owner = m.rank(0);
    let counter = owner.alloc(8);
    let _at = owner.start_progress_thread();
    let got = Rc::new(RefCell::new(Vec::<i64>::new()));
    for r in 1..8 {
        let rk = m.rank(r);
        let got = Rc::clone(&got);
        sim.spawn(async move {
            for _ in 0..5 {
                let done = rk.rmw(0, counter, RmwOp::FetchAdd(1)).await;
                let v = done.wait().await;
                got.borrow_mut().push(v);
            }
        });
    }
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(100));
    let mut vals = got.borrow().clone();
    vals.sort_unstable();
    assert_eq!(vals, (0..35).collect::<Vec<i64>>());
    assert_eq!(owner.read_i64(counter), 35);
    sim.shutdown();
}

#[test]
fn rmw_swap_and_compare_swap() {
    let (sim, m) = machine(2);
    let owner = m.rank(0);
    let cell = owner.alloc(8);
    owner.write_i64(cell, 10);
    let _at = owner.start_progress_thread();
    let rk = m.rank(1);
    let h = sim.spawn(async move {
        let old = rk.rmw(0, cell, RmwOp::Swap(20)).await.wait().await;
        let cas_fail = rk
            .rmw(
                0,
                cell,
                RmwOp::CompareSwap {
                    compare: 999,
                    swap: 1,
                },
            )
            .await
            .wait()
            .await;
        let cas_ok = rk
            .rmw(
                0,
                cell,
                RmwOp::CompareSwap {
                    compare: 20,
                    swap: 30,
                },
            )
            .await
            .wait()
            .await;
        (old, cas_fail, cas_ok)
    });
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
    assert_eq!(h.try_result().unwrap(), (10, 20, 20));
    assert_eq!(owner.read_i64(cell), 30);
    sim.shutdown();
}

#[test]
fn progress_wait_services_remote_requests() {
    // Default (D) mode: rank 0 blocks on its own get while rank 1's rmw is
    // queued at rank 0 — progress_wait must service it.
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let counter = r0.alloc(8);
    let remote_buf = r1.alloc(4096);
    let local_buf = r0.alloc(4096);

    let r0b = r0.clone();
    sim.spawn(async move {
        // Blocking get via progress_wait: keeps the progress engine running.
        let done = r0b.rdma_get(1, local_buf, remote_buf, 4096).await;
        r0b.progress_wait(&done).await;
        // Then wait long enough that the rmw from rank 1 has arrived, again
        // inside progress_wait (simulating a blocking ARMCI call).
        let never: desim::Completion<()> = desim::Completion::new();
        let s = r0b.machine().sim().clone();
        let n2 = never.clone();
        s.schedule_in(SimDuration::from_us(200), move || n2.complete(()));
        r0b.progress_wait(&never).await;
    });
    let h = sim.spawn(async move {
        let done = r1.rmw(0, counter, RmwOp::FetchAdd(7)).await;
        done.wait().await
    });
    sim.run();
    assert_eq!(h.try_result(), Some(0));
    assert_eq!(r0.read_i64(counter), 7);
}

#[test]
fn rmw_queues_while_target_computes() {
    // Without an async thread, a computing target delays AMO service.
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let counter = r0.alloc(8);
    let compute = SimDuration::from_us(300);

    let r0b = r0.clone();
    let s = sim.clone();
    sim.spawn(async move {
        s.sleep(compute).await; // rank 0 computes; no progress
        r0b.advance(0, usize::MAX).await;
    });
    let s2 = sim.clone();
    let h = sim.spawn(async move {
        s2.sleep(SimDuration::from_us(1)).await;
        let t0 = s2.now();
        let done = r1.rmw(0, counter, RmwOp::FetchAdd(1)).await;
        done.wait().await;
        s2.now() - t0
    });
    sim.run();
    let lat = h.try_result().unwrap();
    assert!(
        lat >= SimDuration::from_us(295),
        "rmw should wait for compute to end, got {lat}"
    );
}

#[test]
fn async_thread_services_during_target_compute() {
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let counter = r0.alloc(8);
    let _at = r0.start_progress_thread();

    // Rank 0's main thread computes for 300us, but the AT services anyway.
    let s = sim.clone();
    sim.spawn(async move {
        s.sleep(SimDuration::from_us(300)).await;
    });
    let s2 = sim.clone();
    let h = sim.spawn(async move {
        s2.sleep(SimDuration::from_us(1)).await;
        let t0 = s2.now();
        let done = r1.rmw(0, counter, RmwOp::FetchAdd(1)).await;
        done.wait().await;
        s2.now() - t0
    });
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
    let lat = h.try_result().unwrap();
    assert!(
        lat < SimDuration::from_us(10),
        "AT should service promptly, got {lat}"
    );
    sim.shutdown();
}

#[test]
fn acc_f64_accumulates_associatively() {
    let (sim, m) = machine(3);
    let owner = m.rank(0);
    let dst = owner.alloc(4 * 8);
    owner.write_f64s(dst, &[1.0, 1.0, 1.0, 1.0]);
    let _at = owner.start_progress_thread();
    for r in 1..3 {
        let rk = m.rank(r);
        let src = rk.alloc(4 * 8);
        rk.write_f64s(src, &[r as f64; 4]);
        sim.spawn(async move {
            let h = rk.acc_f64(0, src, dst, 4, 2.0).await;
            h.remote.wait().await;
        });
    }
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
    let got = owner.read_f64s(dst, 4);
    // 1 + 2*1 + 2*2 = 7 per element, regardless of arrival order.
    assert_eq!(got, vec![7.0; 4]);
    sim.shutdown();
}

#[test]
fn am_dispatch_runs_registered_handler() {
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let seen = Rc::new(RefCell::new(None));
    let seen2 = Rc::clone(&seen);
    m.register_am(
        42,
        Rc::new(move |env, msg| {
            *seen2.borrow_mut() = Some((env.rank, msg.src, msg.header.clone(), msg.payload.len()));
        }),
    );
    let _at = r1.start_progress_thread();
    sim.spawn(async move {
        r0.send_control_am(1, 42, vec![1, 2], vec![0u8; 100]).await;
    });
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
    assert_eq!(
        *seen.borrow(),
        Some((1usize, 0usize, vec![1u8, 2], 100usize))
    );
    assert_eq!(m.stats().counter("pami.am"), 1);
    sim.shutdown();
}

#[test]
fn unhandled_am_counts() {
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let _at = r1.start_progress_thread();
    sim.spawn(async move {
        r0.send_am(1, 99, vec![], vec![]).await;
        r0.send_control_am(1, 99, vec![], vec![]).await;
    });
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
    assert_eq!(m.stats().counter("pami.am_unhandled"), 2);
    sim.shutdown();
}

/// One registration serves every rank and whichever context incoming
/// requests land on: context 0 with ρ = 1, the dedicated progress (AT)
/// context with ρ = 2 — on both the data and the control plane.
#[test]
fn one_registration_serves_context_zero_and_the_at_context() {
    for contexts in [1, 2] {
        let sim = Sim::new();
        let cfg = MachineConfig::new(3).procs_per_node(1).contexts(contexts);
        let m = Machine::new(sim.clone(), cfg);
        assert_eq!(m.target_ctx(), contexts - 1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        m.register_am(
            7,
            Rc::new(move |env, msg| seen2.borrow_mut().push((env.rank, msg.header[0]))),
        );
        for target in [1, 2] {
            m.rank(target).enable_async_progress();
        }
        let r0 = m.rank(0);
        sim.spawn(async move {
            r0.send_am(1, 7, vec![10], vec![]).await;
            r0.send_control_am(2, 7, vec![20], vec![]).await;
        });
        sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(10));
        m.stop_progress_threads();
        sim.shutdown();
        seen.borrow_mut().sort_unstable();
        assert_eq!(*seen.borrow(), vec![(1, 10), (2, 20)], "ρ = {contexts}");
        assert_eq!(m.stats().counter("pami.am_unhandled"), 0);
    }
}

#[test]
fn endpoint_creation_costs_beta_and_alpha_once() {
    let (sim, m) = machine(4);
    let r0 = m.rank(0);
    let params = m.params().clone();
    let s = sim.clone();
    let r0b = r0.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        assert!(r0b.ensure_endpoint(1, 0).await);
        assert!(!r0b.ensure_endpoint(1, 0).await); // cached
        assert!(r0b.ensure_endpoint(2, 0).await);
        s.now() - t0
    });
    sim.run();
    assert_eq!(h.try_result().unwrap(), params.endpoint_create * 2);
    // Space: M_e = zeta * alpha * rho (Eq. 3) with zeta=2, rho=1.
    assert_eq!(m.space(0).endpoints, 2 * params.endpoint_bytes);
}

/// Spawn `ensure_endpoint(target, ctx)` from rank 0 of a 4-rank, ρ = 2
/// machine and run it.
fn ensure_endpoint_on_rho2(target: usize, ctx: usize) {
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(4).contexts(2));
    let r0 = m.rank(0);
    sim.spawn(async move {
        r0.ensure_endpoint(target, ctx).await;
    });
    sim.run();
}

#[test]
#[should_panic(expected = "rank 4 out of range")]
fn endpoint_to_a_rank_past_the_machine_panics() {
    ensure_endpoint_on_rho2(4, 0);
}

#[test]
#[should_panic(expected = "context 7 out of range")]
fn endpoint_to_a_context_past_rho_panics() {
    // A key built from `ctx as u8` would have paid β and α for it.
    ensure_endpoint_on_rho2(1, 7);
}

#[test]
fn region_registration_costs_and_limit() {
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(2).memregion_limit(Some(2)));
    let r0 = m.rank(0);
    let params = m.params().clone();
    let r0b = r0.clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        let a = r0b.register_region(0, 4096).await;
        let b = r0b.register_region(8192, 4096).await;
        let c = r0b.register_region(16384, 4096).await;
        ((a.is_ok(), b.is_ok(), c.is_err()), s.now() - t0)
    });
    sim.run();
    let ((a, b, c), elapsed) = h.try_result().unwrap();
    assert!(a && b && c);
    // Two successful registrations cost 2 * delta.
    assert_eq!(elapsed, params.memregion_create * 2);
    // Space: M_r contribution = 2 * gamma (Eq. 5).
    assert_eq!(m.space(0).regions, 2 * params.memregion_bytes);
    // Deregistering frees a slot.
    r0.deregister_region(r0.find_region(0, 16).unwrap());
    assert_eq!(m.space(0).regions, params.memregion_bytes);
}

#[test]
fn find_region_respects_bounds() {
    let (sim, m) = machine(1);
    let r0 = m.rank(0);
    let r0b = r0.clone();
    sim.spawn(async move {
        r0b.register_region(100, 50).await.unwrap();
    });
    sim.run();
    assert!(r0.find_region(100, 50).is_some());
    assert!(r0.find_region(120, 10).is_some());
    assert!(r0.find_region(90, 10).is_none());
    assert!(r0.find_region(140, 20).is_none()); // crosses the end
}

#[test]
fn context_creation_cost_matches_table2() {
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(1).contexts(2));
    let r0 = m.rank(0);
    let params = m.params().clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        r0.create_contexts().await;
        s.now() - t0
    });
    sim.run();
    // M_c = eps * rho (Eq. 1), T_c = rho * context_create (Eq. 2).
    assert_eq!(h.try_result().unwrap(), params.context_create * 2);
    assert_eq!(m.space(0).contexts, 2 * params.context_bytes);
}

#[test]
fn ordered_traffic_fifo_unordered_amo_overtakes() {
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let big_src = r0.alloc(1 << 20);
    let big_dst = r1.alloc(1 << 20);
    let small_src = r0.alloc(16);
    let small_dst = r1.alloc(16);
    let counter = r1.alloc(8);
    let _at = r1.start_progress_thread();
    let events = Rc::new(RefCell::new(Vec::<&'static str>::new()));
    let ev = Rc::clone(&events);
    sim.spawn(async move {
        let big = r0.rdma_put(1, big_src, big_dst, 1 << 20).await;
        let small = r0.rdma_put(1, small_src, small_dst, 16).await;
        let amo = r0.rmw(1, counter, RmwOp::FetchAdd(1)).await;
        let e1 = ev.clone();
        let s1 = big.remote.clone();
        r0.machine().sim().spawn(async move {
            s1.wait().await;
            e1.borrow_mut().push("big");
        });
        let e2 = ev.clone();
        let s2 = small.remote.clone();
        r0.machine().sim().spawn(async move {
            s2.wait().await;
            e2.borrow_mut().push("small");
        });
        let e3 = ev.clone();
        r0.machine().sim().spawn(async move {
            amo.wait().await;
            e3.borrow_mut().push("amo");
        });
    });
    sim.run_until(desim::SimTime::ZERO + SimDuration::from_ms(100));
    let order = events.borrow().clone();
    // AMO (unordered) finishes before the puts; small put must NOT beat big.
    assert_eq!(order.first(), Some(&"amo"), "order = {order:?}");
    let big_pos = order.iter().position(|&e| e == "big").unwrap();
    let small_pos = order.iter().position(|&e| e == "small").unwrap();
    assert!(big_pos < small_pos, "FIFO violated: {order:?}");
    sim.shutdown();
}

#[test]
fn advance_lock_serializes_threads() {
    // Two tasks advancing the same context serialize on the lock while a
    // slow item is serviced.
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let dst = r0.alloc(1 << 16);
    let src = r1.alloc(1 << 16);
    // Enqueue two software puts at rank 0.
    sim.spawn(async move {
        r1.sw_put(0, src, dst, 1 << 16).await;
        r1.sw_put(0, src, dst, 1 << 16).await;
    });
    let s = sim.clone();
    let r0a = r0.clone();
    let h1 = sim.spawn(async move {
        s.sleep(SimDuration::from_us(100)).await;
        let t0 = s.now();
        r0a.advance(0, usize::MAX).await;
        (t0, s.now())
    });
    let s2 = sim.clone();
    let r0b = r0.clone();
    let h2 = sim.spawn(async move {
        s2.sleep(SimDuration::from_us(100)).await;
        let t0 = s2.now();
        r0b.advance(0, usize::MAX).await;
        (t0, s2.now())
    });
    sim.run();
    let (a0, a1) = h1.try_result().unwrap();
    let (b0, b1) = h2.try_result().unwrap();
    assert_eq!(a0, b0);
    // The second advance returns only after the first releases the lock.
    assert!(b1 >= a1);
}

#[test]
fn stats_track_operations() {
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let src = r0.alloc(64);
    let dst = m.rank(1).alloc(64);
    sim.spawn(async move {
        r0.rdma_put(1, src, dst, 64).await.remote.wait().await;
        r0.rdma_get(1, src, dst, 64).await.wait().await;
    });
    sim.run();
    assert_eq!(m.stats().counter("pami.rdma_put"), 1);
    assert_eq!(m.stats().counter("pami.rdma_get"), 1);
    assert!(m.net_messages() >= 3);
    assert!(m.net_bytes() >= 128);
}
