//! Ablation — process→torus mapping: `ABCDET` (paper default, node-filling)
//! vs `TABCDE` (node-spreading).
//!
//! The mapping shapes Fig 7's latency-vs-rank curve: with ABCDET, the first
//! `c` ranks are intra-node and distance grows slowly; with TABCDE,
//! consecutive ranks land on different nodes immediately. It also changes
//! how much nearest-neighbour traffic stays on-node.

use crate::Figure;
use armci::{ArmciConfig, ProgressMode};
use bgq_bench::cli::JOBS;
use bgq_bench::{sweep, Args, Fixture};
use pami_sim::MachineConfig;
use std::cell::RefCell;
use std::rc::Rc;
use torus5d::Mapping;

fn rank_latencies(p: usize, c: usize, mapping: Mapping) -> Vec<f64> {
    let mut mcfg = MachineConfig::new(p).procs_per_node(c).contexts(2);
    mcfg.mapping = mapping;
    let f = Fixture::with_machine(
        mcfg,
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let r0 = f.rank(0);
    let lat: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; p]));
    let lat2 = Rc::clone(&lat);
    let s = f.sim.clone();
    let armci = f.armci.clone();
    f.sim.spawn(async move {
        let local = r0.malloc(64).await;
        for t in 1..p {
            let pr = armci.machine().rank(t);
            let off = pr.alloc(64);
            let _ = pr.register_region_untimed(off, 64);
            r0.get(t, local, off, 16).await; // warm
            let t0 = s.now();
            r0.get(t, local, off, 16).await;
            lat2.borrow_mut()[t] = (s.now() - t0).as_us();
        }
    });
    f.finish();
    Rc::try_unwrap(lat)
        .map(RefCell::into_inner)
        .unwrap_or_default()
}

fn neighbour_exchange_time(p: usize, c: usize, mapping: Mapping) -> f64 {
    // All ranks put 64KB to rank+1 simultaneously (halo-style traffic).
    let mut mcfg = MachineConfig::new(p).procs_per_node(c).contexts(2);
    mcfg.mapping = mapping;
    let f = Fixture::with_machine(
        mcfg,
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let out = Rc::new(RefCell::new(0.0f64));
    let bytes = 64 * 1024;
    let mut remotes = Vec::new();
    for r in 0..p {
        let pr = f.armci.machine().rank(r);
        let off = pr.alloc(bytes);
        let _ = pr.register_region_untimed(off, bytes);
        remotes.push(off);
    }
    for r in 0..p {
        let rk = f.rank(r);
        let s = f.sim.clone();
        let out = Rc::clone(&out);
        let target = (r + 1) % p;
        let dst = remotes[target];
        f.sim.spawn(async move {
            let src = rk.malloc(bytes).await;
            rk.put(target, src, dst, 64).await; // warm
            rk.barrier().await;
            let t0 = s.now();
            rk.put(target, src, dst, bytes).await;
            rk.fence(target).await;
            if rk.id() == 0 {
                *out.borrow_mut() = (s.now() - t0).as_us();
            }
            rk.barrier().await;
        });
    }
    f.finish();
    let v = *out.borrow();
    v
}

pub const FIGURE: Figure = Figure {
    name: "abl_mapping",
    about: "ablation — ABCDET vs TABCDE process-to-torus mapping",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let (p, c) = (256, 16);
    let jobs = args.jobs();
    println!("== Ablation: ABCDET vs TABCDE mapping (p={p}, c={c}) ==");
    let mappings = [("ABCDET", Mapping::abcdet()), ("TABCDE", Mapping::tabcde())];
    let rows = sweep::run_parallel(mappings.len(), jobs, |i| {
        let mapping = &mappings[i].1;
        (
            rank_latencies(p, c, mapping.clone()),
            neighbour_exchange_time(p, c, mapping.clone()),
        )
    });
    for ((label, _), (lat, halo)) in mappings.iter().zip(&rows) {
        let inter: Vec<f64> = lat[1..].iter().copied().filter(|&l| l > 0.0).collect();
        let min = inter.iter().copied().fold(f64::MAX, f64::min);
        let max = inter.iter().copied().fold(0.0f64, f64::max);
        // How many of the first c-1 peers are intra-node (cheap)?
        // Intra-node gets are ~2.15 us vs >=2.89 us inter-node.
        let near = lat[1..c.min(p)].iter().filter(|&&l| l < 2.5).count();
        println!(
            "  {label}: rank-latency min {min:.3} / max {max:.3} us; \
             {near}/{} nearest peers on-node; halo put+fence {halo:.1} us",
            c.min(p) - 1
        );
    }
    println!("ABCDET keeps consecutive ranks on one node (fast nearest-neighbour traffic);");
    println!("TABCDE spreads them, trading neighbour locality for distribution");
}
