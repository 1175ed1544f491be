//! Ablation — analytic LogGP network vs per-link contention modelling.
//!
//! Shift-permutation traffic on a 1D ring (shape p×1×1×1×1): every rank
//! simultaneously puts a large message to `(rank + p/2) % p`, so each
//! directed A-link carries ~p/2 concurrent payloads. The contention model
//! queues them; the analytic model only serializes per-NIC and predicts no
//! slowdown. This quantifies what the simpler model misses.

use crate::Figure;
use armci::{ArmciConfig, ProgressMode};
use bgq_bench::cli::JOBS;
use bgq_bench::{sweep, Args, Fixture};
use pami_sim::MachineConfig;
use std::cell::RefCell;
use std::rc::Rc;

fn measure(p: usize, contention: bool, bytes: usize) -> (f64, f64) {
    let f = Fixture::with_machine(
        MachineConfig::new(p)
            .procs_per_node(1)
            .contexts(2)
            .shape([p as u16, 1, 1, 1, 1])
            .contention(contention),
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let s = f.sim.clone();
    let lat: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    // Symmetric buffers.
    let mut remotes = Vec::new();
    for r in 0..p {
        let pr = f.armci.machine().rank(r);
        let off = pr.alloc(bytes);
        let _ = pr.register_region_untimed(off, bytes);
        remotes.push(off);
    }
    for r in 0..p {
        let rk = f.rank(r);
        let s2 = s.clone();
        let lat2 = Rc::clone(&lat);
        let target = (r + p / 2) % p;
        let dst = remotes[target];
        f.sim.spawn(async move {
            let local = rk.malloc(bytes).await;
            rk.put(target, local, dst, 64).await; // warm endpoint/region
            rk.barrier().await;
            let t0 = s2.now();
            rk.put(target, local, dst, bytes).await;
            rk.fence(target).await;
            lat2.borrow_mut().push((s2.now() - t0).as_us());
            rk.barrier().await;
        });
    }
    f.finish();
    let lat = lat.borrow();
    let mean = lat.iter().sum::<f64>() / lat.len() as f64;
    let max = lat.iter().copied().fold(0.0, f64::max);
    (mean, max)
}

pub const FIGURE: Figure = Figure {
    name: "abl_contention",
    about: "ablation — analytic LogGP network vs per-link contention modelling",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let bytes = 1 << 18;
    let jobs = args.jobs();
    println!("== Ablation: shift-permutation put+fence, analytic vs link contention ==");
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "p", "analytic mean", "analytic max", "contended mean", "contended max", "slowdown"
    );
    let procs = [4usize, 8, 16, 32, 64, 128];
    let rows = sweep::run_parallel(procs.len(), jobs, |i| {
        (
            measure(procs[i], false, bytes),
            measure(procs[i], true, bytes),
        )
    });
    for (p, ((am, ax), (cm, cx))) in procs.iter().zip(&rows) {
        println!(
            "{p:>6} {am:>14.1} {ax:>14.1} {cm:>14.1} {cx:>14.1} {:>7.2}x",
            cm / am
        );
    }
    println!("dimension-ordered shift traffic shares wrap-around links;");
    println!("the analytic model undercounts that queueing");
}
