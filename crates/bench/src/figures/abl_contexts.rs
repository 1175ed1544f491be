//! Ablation — one shared PAMI context (ρ=1) vs two (ρ=2) for the
//! asynchronous-thread design (§III-D).
//!
//! With ρ=1 the main thread's blocking waits and the progress thread share
//! one progress-engine lock; servicing a stream of incoming accumulates
//! while the main thread waits on its own gets exposes the contention. With
//! ρ=2 each context progresses independently.

use crate::Figure;
use armci::{ArmciConfig, ProgressMode};
use bgq_bench::cli::JOBS;
use bgq_bench::{sweep, Args, Fixture};
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

/// Rank 0 runs a get-heavy loop while ranks 1..p bombard it with large
/// accumulates (long lock-holding service batches); returns rank 0's loop
/// completion time (us).
fn measure(contexts: usize, p: usize, rounds: usize) -> f64 {
    let mcfg = MachineConfig::new(p).procs_per_node(1).contexts(contexts);
    let f = Fixture::with_machine(
        mcfg,
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let out = Rc::new(Cell::new(0.0));
    let out2 = Rc::clone(&out);
    let s = f.sim.clone();
    let r0 = f.rank(0);
    let armci = f.armci.clone();
    // Victim buffer at rank 0 that everyone accumulates into. Large accs
    // make each service hold the context lock for ~8 us.
    let elems = 32 * 1024;
    let victim = f.armci.machine().rank(0).alloc(elems * 8);
    f.sim.spawn(async move {
        let remote = armci.rank(1).pami().alloc(1 << 16);
        let _ = armci
            .machine()
            .rank(1)
            .register_region_untimed(remote, 1 << 16);
        let local = r0.malloc(1 << 16).await;
        let t0 = s.now();
        for _ in 0..rounds {
            r0.get(1, local, remote, 8192).await;
        }
        out2.set((s.now() - t0).as_us());
        r0.barrier().await;
    });
    for r in 1..p {
        let rk = f.rank(r);
        let done = out.clone();
        f.sim.spawn(async move {
            let src = rk.malloc(elems * 8).await;
            // Keep the stream flowing until rank 0 finishes its loop.
            while done.get() == 0.0 {
                let h = rk.nbacc(0, src, victim, elems, 1.0).await;
                rk.wait(&h).await;
                rk.fence(0).await;
            }
            rk.barrier().await;
        });
    }
    f.finish();
    out.get()
}

pub const FIGURE: Figure = Figure {
    name: "abl_contexts",
    about: "ablation — 1 vs 2 PAMI contexts under the async-thread design",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let rounds = 200; // of rank 0's get loop
    let jobs = args.jobs();
    println!("== Ablation: rho=1 vs rho=2 contexts under AT (rank-0 get loop, us) ==");
    println!(
        "{:>4} {:>14} {:>14} {:>10}",
        "p", "rho=1", "rho=2", "speedup"
    );
    let procs = [2usize, 4, 8, 16];
    let rows = sweep::run_parallel(procs.len(), jobs, |i| {
        (measure(1, procs[i], rounds), measure(2, procs[i], rounds))
    });
    for (p, (one, two)) in procs.iter().zip(&rows) {
        println!("{:>4} {:>14.1} {:>14.1} {:>9.2}x", p, one, two, one / two);
    }
    println!("paper: multiple contexts improve the progress schedule of each thread");
}
