//! Cross-validation: the closed-form LogGP models of `torus5d::cost`
//! (the paper's Eqs. 7–9) against the event-level simulation. The two are
//! independent implementations of the same cost structure; agreement here
//! means the figures produced by the simulator are the figures the models
//! predict. Eq. 7 (get and put) is exact to the picosecond at 8 B–1 MiB over
//! 0–5 hops; the software get differs from Eq. 8 by two named terms, exactly.

use desim::{Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};
use std::cell::Cell;
use std::rc::Rc;

fn machine(nprocs: usize) -> (Sim, Machine) {
    machine_ppn(nprocs, 1)
}

fn machine_ppn(nprocs: usize, ppn: usize) -> (Sim, Machine) {
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(nprocs).procs_per_node(ppn));
    (sim, m)
}

/// The blocking operations the closed forms price.
#[derive(Clone, Copy, Debug)]
enum Blocking {
    RdmaGet,
    RdmaPut,
    /// `sw_get` against a target serviced by an asynchronous progress thread.
    SwGet,
}

/// Payload sizes of the sweep: 8 B to 1 MiB, both sides of the alignment
/// threshold.
const SIZES: [usize; 7] = [8, 16, 255, 256, 4096, 65536, 1 << 20];

/// One machine and one target per distance: hops 1–5 across nodes with one
/// process per node, and hops 0 with two processes on a node.
fn distances() -> Vec<(u32, usize, usize)> {
    let (_, m) = machine(512);
    let mut out = vec![(0, 2, 1)];
    for h in 1..=5 {
        let r = (1..512)
            .find(|&r| m.topology().hops(0, r) == h)
            .expect("a rank at this distance");
        out.push((h, 1, r));
    }
    out
}

/// Simulated latency of one isolated blocking `op` of `bytes` from rank 0 to
/// `target`, as the caller observes it (the final `o_recv` / `o_put_local`
/// included), on a machine of 512 ranks, `ppn` per node.
fn latency(op: Blocking, ppn: usize, target: usize, bytes: usize) -> (SimDuration, u32) {
    let (sim, m) = machine_ppn(512, ppn);
    let hops = m.topology().hops(0, target);
    let a = m.rank(0);
    let b = m.rank(target);
    let remote = b.alloc(bytes);
    let local = a.alloc(bytes);
    let _at = matches!(op, Blocking::SwGet).then(|| b.start_progress_thread());
    let p = m.params().clone();
    let s = sim.clone();
    let out = Rc::new(Cell::new(SimDuration::ZERO));
    let out2 = Rc::clone(&out);
    sim.spawn(async move {
        let t0 = s.now();
        match op {
            Blocking::RdmaGet => {
                a.rdma_get(target, local, remote, bytes).await.wait().await;
                s.sleep(p.o_recv).await;
            }
            Blocking::RdmaPut => {
                a.rdma_put(target, local, remote, bytes)
                    .await
                    .local
                    .wait()
                    .await;
                s.sleep(p.o_put_local).await;
            }
            Blocking::SwGet => {
                a.sw_get(target, local, remote, bytes).await.wait().await;
                s.sleep(p.o_recv).await;
            }
        }
        out2.set(s.now() - t0);
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    sim.shutdown();
    (out.get(), hops)
}

#[test]
fn eq7_rdma_get_model_matches_simulation() {
    for (hops, ppn, target) in distances() {
        for bytes in SIZES {
            let (get, h) = latency(Blocking::RdmaGet, ppn, target, bytes);
            assert_eq!(h, hops);
            let (put, _) = latency(Blocking::RdmaPut, ppn, target, bytes);
            let (_, m) = machine(2);
            let p = m.params();
            assert_eq!(
                get,
                p.model_rdma_get(hops, bytes),
                "get {bytes} B, {hops} hops"
            );
            assert_eq!(
                put,
                p.model_rdma_put(hops, bytes),
                "put {bytes} B, {hops} hops"
            );
        }
    }
}

#[test]
fn eq8_fallback_model_matches_simulation_with_prompt_target() {
    // Eq. 8 assumes a target that services at once and a header-only
    // request. The simulated target's progress thread wakes `at_wakeup`
    // after the request lands, and the request carries the AM header, so
    // the simulation is later by exactly those two terms: the header's wire
    // time across nodes, its shared-memory copy within one (hops = 0).
    for (hops, ppn, target) in distances() {
        for bytes in SIZES {
            let (sim, _) = latency(Blocking::SwGet, ppn, target, bytes);
            let (_, m) = machine(2);
            let p = m.params();
            let header = p.oneway(hops, p.am_header_bytes) - p.oneway_header(hops);
            let extra = p.at_wakeup + header;
            if hops > 0 {
                assert_eq!(header, p.wire_time(p.am_header_bytes));
                assert_eq!(extra.as_ps(), 218_016);
            }
            assert_eq!(
                sim,
                p.model_fallback_get(hops, bytes) + extra,
                "{bytes} B, {hops} hops"
            );
        }
    }
}

#[test]
fn eq9_strided_model_matches_chunked_rdma_gets() {
    // Post n chunk gets back-to-back and wait for all: the paper's Eq. 9
    // o·(m/l0) + L + m·G structure (plus the per-chunk NIC engine time and
    // completion processing the model folds into o).
    let total = 1 << 18;
    for l0 in [4096usize, 16384, 65536] {
        let chunks = total / l0;
        let (sim, m) = machine(2);
        let a = m.rank(0);
        let b = m.rank(1);
        let remote = b.alloc(total * 2);
        let local = a.alloc(total);
        let p = m.params().clone();
        let s = sim.clone();
        let out = Rc::new(Cell::new(0.0));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            let t0 = s.now();
            let mut dones = Vec::new();
            for i in 0..chunks {
                dones.push(a.rdma_get(1, local + i * l0, remote + i * l0 * 2, l0).await);
            }
            for d in dones {
                d.wait().await;
            }
            s.sleep(p.o_recv).await;
            out2.set((s.now() - t0).as_us());
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        sim.shutdown();
        let hops = m.topology().hops(0, 1);
        let p = m.params();
        // Eq. 9 adds the posting overheads and the wire time (no overlap);
        // the event simulation pipelines them. The measured time must land
        // between the overlapped lower bound max(o·chunks, m·G) and Eq. 9's
        // upper bound, both plus the fixed round-trip terms.
        let fixed = (p.o_send + p.rdma_engine).as_us() // first post before overlap
            + 2.0 * p.oneway_header(hops).as_us()
            + p.o_recv.as_us()
            + 1.0;
        let posting = (p.o_send + p.rdma_engine).as_us() * chunks as f64;
        let wire = p.wire_time(total).as_us();
        let lower = posting.max(wire);
        let upper = p.model_strided(hops, l0, chunks).as_us()
            + p.oneway_header(hops).as_us()
            + p.o_recv.as_us()
            + 1.0;
        assert!(
            out.get() >= lower && out.get() <= upper + fixed,
            "l0={l0}: sim {} outside [{lower}, {}]",
            out.get(),
            upper + fixed
        );
    }
}

#[test]
fn hop_latency_in_simulation_equals_parameter() {
    // Measure two distances through the full sim and recover 35 ns/hop.
    let (sim, m) = machine(64);
    let far = (1..64)
        .max_by_key(|&r| m.topology().hops(0, r))
        .expect("ranks");
    let near = (1..64)
        .find(|&r| m.topology().hops(0, r) == 1)
        .expect("adjacent");
    let h_far = m.topology().hops(0, far);
    let lat = |target: usize| {
        let (sim, m) = machine(64);
        let a = m.rank(0);
        let b = m.rank(target);
        let remote = b.alloc(16);
        let local = a.alloc(16);
        let s = sim.clone();
        let out = Rc::new(Cell::new(0.0));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            let t0 = s.now();
            a.rdma_get(target, local, remote, 16).await.wait().await;
            out2.set((s.now() - t0).as_ns());
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        sim.shutdown();
        out.get()
    };
    let per_hop = (lat(far) - lat(near)) / ((h_far - 1) as f64 * 2.0);
    assert!(
        (per_hop - 35.0).abs() < 0.5,
        "per-hop {per_hop} ns != 35 ns"
    );
    let _ = sim;
}
