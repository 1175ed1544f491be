//! Ablation — naive per-target conflict tracking (`cs_tgt`) vs the paper's
//! per-memory-region tracking (`cs_mr`, §III-E).
//!
//! The dgemm-style workload: non-blocking gets from structures A and B
//! overlapped with accumulates into structure C, all hosted by the same
//! targets. The naive scheme fences every get behind the outstanding
//! accumulates; `cs_mr` recognizes the structures as disjoint.

use crate::Figure;
use armci::{ArmciConfig, ConsistencyMode, ProgressMode, RegionTable, RemoteRegion};
use bgq_bench::cli::JOBS;
use bgq_bench::{sweep, Args, Fixture};
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

fn measure(mode: ConsistencyMode, p: usize, rounds: usize) -> (f64, u64) {
    let f = Fixture::with_machine(
        MachineConfig::new(p).procs_per_node(1).contexts(2),
        ArmciConfig::default()
            .progress(ProgressMode::AsyncThread)
            .consistency(mode),
    );
    let s = f.sim.clone();
    let out = Rc::new(Cell::new(0.0));
    // Structures A, B (read-only) and C (accumulate-only) on every rank.
    let elems = 2048usize;
    let mut a_bases = Vec::new();
    let mut c_bases = Vec::new();
    for r in 0..p {
        let pr = f.armci.machine().rank(r);
        let a = pr.alloc(elems * 8);
        let _ = pr.register_region_untimed(a, elems * 8);
        let c = pr.alloc(elems * 8);
        let _ = pr.register_region_untimed(c, elems * 8);
        a_bases.push(a);
        c_bases.push(c);
    }
    for bases in [&a_bases, &c_bases] {
        let table: RegionTable = bases
            .iter()
            .map(|&off| {
                Some(RemoteRegion {
                    off,
                    len: elems * 8,
                })
            })
            .collect();
        f.armci.seed_collective(&table);
    }
    for r in 0..p {
        let rk = f.rank(r);
        let s2 = s.clone();
        let out2 = Rc::clone(&out);
        let a_bases = a_bases.clone();
        let c_bases = c_bases.clone();
        f.sim.spawn(async move {
            let buf = rk.malloc(elems * 8).await;
            let contrib = rk.malloc(elems * 8).await;
            let t0 = s2.now();
            for i in 0..rounds {
                let target = (r + 1 + i % (p - 1)) % p;
                // Accumulate into C, then immediately get from A (the
                // dgemm overlap pattern).
                rk.nbacc(target, contrib, c_bases[target], elems, 1.0).await;
                rk.get(target, buf, a_bases[target], elems * 8).await;
            }
            rk.fence_all().await;
            if r == 0 {
                out2.set((s2.now() - t0).as_us());
            }
            rk.barrier().await;
        });
    }
    f.finish();
    (out.get(), f.armci.induced_fences())
}

pub const FIGURE: Figure = Figure {
    name: "abl_consistency",
    about: "ablation — per-target vs per-memory-region consistency tracking",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let rounds = 100; // conflict rounds
    let p = 8;
    let jobs = args.jobs();
    println!("== Ablation: location-consistency tracking granularity (p={p}) ==");
    println!(
        "{:>10} {:>16} {:>16}",
        "mode", "rank0 time (us)", "induced fences"
    );
    let modes = [ConsistencyMode::PerTarget, ConsistencyMode::PerRegion];
    let rows = sweep::run_parallel(modes.len(), jobs, |i| measure(modes[i], p, rounds));
    let (t_naive, f_naive) = rows[0];
    println!("{:>10} {:>16.1} {:>16}", "cs_tgt", t_naive, f_naive);
    let (t_mr, f_mr) = rows[1];
    println!("{:>10} {:>16.1} {:>16}", "cs_mr", t_mr, f_mr);
    println!(
        "cs_mr removes {} false-positive fences ({:.1}% faster) at Theta(sigma*zeta) space",
        f_naive - f_mr,
        100.0 * (t_naive - t_mr) / t_naive
    );
}
