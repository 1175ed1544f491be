//! Ablation — remote memory-region cache capacity and LFU replacement
//! (§III-B: full caching costs σ·ζ·γ; a bounded cache trades memory for
//! query round trips to the owner).

use crate::Figure;
use armci::{ArmciConfig, ProgressMode};
use bgq_bench::cli::JOBS;
use bgq_bench::{sweep, Args, Fixture};
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

/// Rank 0 gets from `targets` ranks round-robin with a skewed (Zipf-ish)
/// popularity; returns (total time us, hits, misses, queries).
fn measure(capacity: usize, p: usize, rounds: usize) -> (f64, u64, u64, u64) {
    let f = Fixture::with_machine(
        MachineConfig::new(p).procs_per_node(1).contexts(2),
        ArmciConfig::default()
            .progress(ProgressMode::AsyncThread)
            .region_cache_capacity(capacity),
    );
    let s = f.sim.clone();
    let out = Rc::new(Cell::new(0.0));
    let out2 = Rc::clone(&out);
    let r0 = f.rank(0);
    let mut remotes = Vec::new();
    for r in 1..p {
        let pr = f.armci.machine().rank(r);
        let off = pr.alloc(4096);
        let _ = pr.register_region_untimed(off, 4096);
        remotes.push(off);
    }
    f.sim.spawn(async move {
        let local = r0.malloc(4096).await;
        let mut rng = desim::SimRng::new(42);
        let t0 = s.now();
        for _ in 0..rounds {
            // Skewed popularity: half the traffic to a quarter of the peers.
            let t = if rng.next_f64() < 0.5 {
                1 + (rng.next_below(((p - 1) / 4).max(1) as u64) as usize)
            } else {
                1 + (rng.next_below((p - 1) as u64) as usize)
            };
            r0.get(t, local, remotes[t - 1], 1024).await;
        }
        out2.set((s.now() - t0).as_us());
    });
    f.finish();
    let (hits, misses, evictions) = f.armci.region_cache_totals();
    let queries = f.armci.machine().stats().counter("armci.region_query");
    let _ = evictions;
    (out.get(), hits, misses, queries)
}

pub const FIGURE: Figure = Figure {
    name: "abl_region_cache",
    about: "ablation — remote memory-region cache capacity / replacement",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let p = 64;
    let rounds = 1000;
    let jobs = args.jobs();
    println!("== Ablation: remote region cache capacity (p={p}, {rounds} gets, LFU) ==");
    println!(
        "{:>9} {:>14} {:>8} {:>8} {:>9} {:>10}",
        "capacity", "time (us)", "hits", "misses", "queries", "us/get"
    );
    let caps = [0usize, 4, 8, 16, 32, 64, 1 << 16];
    let rows = sweep::run_parallel(caps.len(), jobs, |i| measure(caps[i], p, rounds));
    for (cap, (t, h, m, q)) in caps.iter().zip(&rows) {
        println!(
            "{:>9} {:>14.1} {:>8} {:>8} {:>9} {:>10.2}",
            cap,
            t,
            h,
            m,
            q,
            t / rounds as f64
        );
    }
    println!("full caching = sigma*zeta*gamma bytes; misses pay an AM round trip to the owner");
}
