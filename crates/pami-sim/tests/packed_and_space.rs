//! Tests of the packed (typed-datatype) strided paths, strided accumulate,
//! and validation of the paper's space/time models (Eqs. 1–6) against the
//! implementation's accounting.

use desim::{Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};

fn machine(nprocs: usize) -> (Sim, Machine) {
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(nprocs).procs_per_node(1));
    (sim, m)
}

fn run(sim: &Sim) {
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    sim.shutdown();
}

#[test]
fn packed_get_gathers_and_scatters() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    // Remote layout: 4 chunks of 16 bytes at stride 100.
    let rbase = b.alloc(400);
    for i in 0..4 {
        b.write_bytes(rbase + i * 100, &[(i + 1) as u8; 16]);
    }
    let lbase = a.alloc(64);
    let _at = b.start_progress_thread();
    let a2 = a.clone();
    sim.spawn(async move {
        let chunks: Vec<(usize, usize)> = (0..4).map(|i| (rbase + i * 100, 16)).collect();
        let locals: Vec<(usize, usize)> = (0..4).map(|i| (lbase + i * 16, 16)).collect();
        let done = a2.packed_get(1, chunks, locals).await;
        done.wait().await;
    });
    run(&sim);
    for i in 0..4 {
        assert_eq!(a.read_bytes(lbase + i * 16, 16), vec![(i + 1) as u8; 16]);
    }
}

#[test]
fn packed_get_mismatched_chunk_boundaries() {
    // Gather 3 remote chunks into 2 local chunks (same total).
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let rbase = b.alloc(300);
    b.write_bytes(rbase, &[1; 10]);
    b.write_bytes(rbase + 100, &[2; 10]);
    b.write_bytes(rbase + 200, &[3; 10]);
    let lbase = a.alloc(30);
    let _at = b.start_progress_thread();
    let a2 = a.clone();
    sim.spawn(async move {
        let done = a2
            .packed_get(
                1,
                vec![(rbase, 10), (rbase + 100, 10), (rbase + 200, 10)],
                vec![(lbase, 15), (lbase + 15, 15)],
            )
            .await;
        done.wait().await;
    });
    run(&sim);
    let got = a.read_bytes(lbase, 30);
    let mut expect = vec![1u8; 10];
    expect.extend(vec![2u8; 10]);
    expect.extend(vec![3u8; 10]);
    assert_eq!(got, expect);
}

#[test]
fn packed_put_scatters_at_target() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let lbase = a.alloc(48);
    a.write_bytes(lbase, &[9u8; 48]);
    let rbase = b.alloc(500);
    let _at = b.start_progress_thread();
    let a2 = a.clone();
    sim.spawn(async move {
        let h = a2
            .packed_put(
                1,
                vec![(lbase, 48)],
                vec![(rbase, 16), (rbase + 200, 16), (rbase + 400, 16)],
            )
            .await;
        h.remote.wait().await;
    });
    run(&sim);
    for off in [rbase, rbase + 200, rbase + 400] {
        assert_eq!(b.read_bytes(off, 16), vec![9u8; 16]);
    }
    // Gaps untouched.
    assert_eq!(b.read_bytes(rbase + 16, 4), vec![0u8; 4]);
}

#[test]
fn acc_strided_scatter_accumulates() {
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let lbase = a.alloc(4 * 8 * 2);
    a.write_f64s(lbase, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let rbase = b.alloc(1000);
    b.write_f64s(rbase, &[10.0; 4]);
    b.write_f64s(rbase + 500, &[20.0; 4]);
    let _at = b.start_progress_thread();
    let a2 = a.clone();
    sim.spawn(async move {
        let h = a2
            .acc_strided_f64(
                1,
                vec![(lbase, 32), (lbase + 32, 32)],
                vec![(rbase, 32), (rbase + 500, 32)],
                2.0,
            )
            .await;
        h.remote.wait().await;
    });
    run(&sim);
    assert_eq!(b.read_f64s(rbase, 4), vec![12.0, 14.0, 16.0, 18.0]);
    assert_eq!(b.read_f64s(rbase + 500, 4), vec![30.0, 32.0, 34.0, 36.0]);
}

#[test]
#[should_panic(expected = "accumulate chunks must hold whole f64s")]
fn acc_strided_rejects_a_chunk_of_partial_f64s() {
    // Two 12-byte chunks: the target adds whole f64s only, so the first
    // chunk's last 4 bytes would be dropped and the second chunk's f64 read
    // across the element boundary.
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let lbase = a.alloc(24);
    let rbase = b.alloc(1000);
    let _at = b.start_progress_thread();
    sim.spawn(async move {
        let remote = vec![(rbase, 12), (rbase + 500, 12)];
        a.acc_strided_f64(1, vec![(lbase, 24)], remote, 1.0)
            .await
            .remote
            .wait()
            .await;
    });
    run(&sim);
}

#[test]
fn packed_transfer_charges_pack_cost() {
    // The packed path costs pack + unpack CPU copies; a zero-copy transfer
    // of the same bytes is strictly faster end-to-end.
    let (sim, m) = machine(2);
    let a = m.rank(0);
    let b = m.rank(1);
    let total = 256 * 1024;
    let rbase = b.alloc(total);
    let lbase = a.alloc(total);
    let _at = b.start_progress_thread();
    let s = sim.clone();
    let a2 = a.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        a2.rdma_get(1, lbase, rbase, total).await.wait().await;
        let zc = s.now() - t0;
        let t1 = s.now();
        a2.packed_get(1, vec![(rbase, total)], vec![(lbase, total)])
            .await
            .wait()
            .await;
        let packed = s.now() - t1;
        (zc, packed)
    });
    run(&sim);
    let (zc, packed) = h.try_result().unwrap();
    assert!(packed > zc, "packed {packed} must exceed zero-copy {zc}");
    // The gap covers at least the pack+unpack copies at the modelled rate.
    let copies = SimDuration::from_ps(2 * total as u64 * m.params().pack_byte_time_ps);
    assert!(
        packed - zc >= copies - SimDuration::from_us(5),
        "gap {} < copy cost {copies}",
        packed - zc
    );
}

#[test]
fn space_model_equations_match_accounting() {
    // Walk a rank through creating rho contexts, zeta endpoints, tau local
    // buffers and sigma structures; Eqs. 1-6 must predict the accounting.
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(8).contexts(2));
    let r0 = m.rank(0);
    let params = m.params().clone();
    let (rho, zeta, tau, sigma) = (2usize, 5usize, 3usize, 2usize);
    let r0b = r0.clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let t0 = s.now();
        r0b.create_contexts().await;
        let t_contexts = s.now() - t0;
        let t0 = s.now();
        for target in 1..=zeta {
            for ctx in 0..rho {
                r0b.ensure_endpoint(target, ctx).await;
            }
        }
        let t_endpoints = s.now() - t0;
        let t0 = s.now();
        for i in 0..(tau + sigma) {
            let off = r0b.alloc(4096);
            let _ = i;
            r0b.register_region(off, 4096).await.expect("register");
        }
        let t_regions = s.now() - t0;
        (t_contexts, t_endpoints, t_regions)
    });
    sim.run();
    let (t_contexts, t_endpoints, t_regions) = h.try_result().unwrap();
    let snap = m.space(0);
    // Eq. 1 / Eq. 2.
    assert_eq!(snap.contexts, params.context_bytes * rho);
    assert_eq!(t_contexts, params.context_create * rho as u64);
    // Eq. 3 / Eq. 4.
    assert_eq!(snap.endpoints, zeta * params.endpoint_bytes * rho);
    assert_eq!(t_endpoints, params.endpoint_create * (zeta * rho) as u64);
    // Eq. 5 / Eq. 6 (region metadata part).
    assert_eq!(snap.regions, (tau + sigma) * params.memregion_bytes);
    assert_eq!(t_regions, params.memregion_create * (tau + sigma) as u64);
}

#[test]
fn context_lock_forces_alternation_between_two_advancers() {
    // Two tasks repeatedly advancing one context never run service code
    // concurrently: total serviced equals the queue length exactly once.
    let (sim, m) = machine(2);
    let r0 = m.rank(0);
    let r1 = m.rank(1);
    let dst = r0.alloc(1 << 16);
    let src = r1.alloc(1 << 16);
    sim.spawn(async move {
        for _ in 0..8 {
            r1.sw_put(0, src, dst, 8192).await;
        }
    });
    let mut handles = Vec::new();
    for _ in 0..2 {
        let rk = m.rank(0);
        let s = sim.clone();
        handles.push(sim.spawn(async move {
            s.sleep(SimDuration::from_us(50)).await;
            rk.advance(0, usize::MAX).await
        }));
    }
    run(&sim);
    let a = handles[0].try_result().unwrap();
    let b = handles[1].try_result().unwrap();
    assert_eq!(a + b, 8, "every item serviced exactly once ({a}+{b})");
}
