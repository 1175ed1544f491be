//! Ablation — RDMA protocol (Eq. 7) vs active-message fall-back (Eq. 8).
//!
//! Forces the fall-back by disallowing memory-region registration
//! (`memregion_limit = 0`) and compares blocking-get latency, with the
//! target (a) driving progress promptly (AT) and (b) computing in 300 µs
//! chunks — exposing the fall-back's dependence on remote progress.

use crate::Figure;
use armci::{ArmciConfig, ProgressMode};
use bgq_bench::cli::JOBS;
use bgq_bench::{fmt_size, sweep, Args, Fixture};
use desim::SimDuration;
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

fn measure(bytes: usize, rdma: bool, target_computes: bool, reps: usize) -> f64 {
    // Busy-target case runs in Default progress mode (one context, no AT):
    // remote requests are only serviced between rank 1's compute chunks.
    let (contexts, progress) = if target_computes {
        (1, ProgressMode::Default)
    } else {
        (2, ProgressMode::AsyncThread)
    };
    let mcfg = MachineConfig::new(2)
        .procs_per_node(1)
        .contexts(contexts)
        .memregion_limit(if rdma { None } else { Some(0) });
    let f = Fixture::with_machine(mcfg, ArmciConfig::default().progress(progress));
    let r0 = f.rank(0);
    let r1 = f.rank(1);
    let s = f.sim.clone();
    let out = Rc::new(Cell::new(0.0));
    let out2 = Rc::clone(&out);
    if target_computes {
        let s2 = f.sim.clone();
        let r1b = f.armci.machine().rank(1);
        f.sim.spawn(async move {
            for _ in 0..10_000 {
                s2.sleep(SimDuration::from_us(300)).await;
                r1b.advance(0, usize::MAX).await;
                if s2.pending_tasks() <= 1 {
                    break;
                }
            }
        });
    }
    f.sim.spawn(async move {
        let remote = r1.malloc(bytes.max(64)).await;
        let local = r0.malloc(bytes.max(64)).await;
        r0.get(1, local, remote, bytes).await; // warm
        let t0 = s.now();
        for _ in 0..reps {
            r0.get(1, local, remote, bytes).await;
        }
        out2.set((s.now() - t0).as_us() / reps as f64);
    });
    f.finish();
    out.get()
}

pub const FIGURE: Figure = Figure {
    name: "abl_fallback",
    about: "ablation — RDMA protocol vs active-message fall-back latency",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let reps = 20; // per size
    let jobs = args.jobs();
    println!("== Ablation: RDMA (Eq.7) vs AM fall-back (Eq.8) blocking get latency (us) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>22}",
        "size", "RDMA", "fallback", "fallback+busy-target"
    );
    let sizes = [16usize, 256, 1024, 8192, 65536];
    let rows = sweep::run_parallel(sizes.len(), jobs, |i| {
        let m = sizes[i];
        (
            measure(m, true, false, reps),
            measure(m, false, false, reps),
            measure(m, false, true, 3),
        )
    });
    for (m, (rdma, fb, fb_busy)) in sizes.iter().zip(&rows) {
        println!(
            "{:>8} {:>10.2} {:>12.2} {:>22.2}",
            fmt_size(*m),
            rdma,
            fb,
            fb_busy
        );
    }
    println!("Eq.8 adds one dispatch 'o'; a busy target adds its compute grain (~300us)");
}
