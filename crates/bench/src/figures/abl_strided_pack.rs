//! Ablation — strided protocol crossover: zero-copy chunk-list RDMA
//! (Eq. 9) vs the packed typed-datatype path, as a function of the
//! contiguous chunk size l₀ (§III-C2, "tall-skinny" transfers).

use crate::Figure;
use armci::{ArmciConfig, ProgressMode, Strided};
use bgq_bench::cli::JOBS;
use bgq_bench::{fmt_size, sweep, Args, Fixture};
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

fn measure(total: usize, l0: usize, force_packed: bool, reps: usize) -> f64 {
    // pack_threshold selects the protocol: 0 forces zero-copy for every l0;
    // usize::MAX forces packed.
    let threshold = if force_packed { usize::MAX } else { 0 };
    let f = Fixture::with_machine(
        MachineConfig::new(2).procs_per_node(1).contexts(2),
        ArmciConfig::default()
            .progress(ProgressMode::AsyncThread)
            .pack_threshold(threshold),
    );
    let r0 = f.rank(0);
    let r1 = f.rank(1);
    let s = f.sim.clone();
    let out = Rc::new(Cell::new(0.0));
    let out2 = Rc::clone(&out);
    let rows = total / l0;
    f.sim.spawn(async move {
        let remote_base = r1.malloc(rows * l0 * 2).await;
        let local_base = r0.malloc(total).await;
        let remote = Strided::patch2d(remote_base, l0, rows, l0 * 2);
        let local = Strided::patch2d(local_base, l0, rows, l0);
        r0.get(1, local_base, remote_base, 64.min(l0)).await; // warm
        let t0 = s.now();
        for _ in 0..reps {
            r0.get_strided(1, &local, &remote).await;
        }
        out2.set((s.now() - t0).as_us() / reps as f64);
    });
    f.finish();
    out.get()
}

pub const FIGURE: Figure = Figure {
    name: "abl_strided_pack",
    about: "ablation — chunk-list RDMA vs packed strided protocol crossover",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let total = 1 << 18;
    let reps = 4;
    let jobs = args.jobs();
    println!(
        "== Ablation: strided get, zero-copy vs packed (total {}) ==",
        fmt_size(total)
    );
    println!(
        "{:>8} {:>8} {:>16} {:>16} {:>8}",
        "l0", "chunks", "zero-copy (us)", "packed (us)", "winner"
    );
    let mut chunk_sizes = Vec::new();
    let mut l0 = 16usize;
    while l0 <= total {
        chunk_sizes.push(l0);
        l0 *= 4;
    }
    let rows = sweep::run_parallel(chunk_sizes.len(), jobs, |i| {
        (
            measure(total, chunk_sizes[i], false, reps),
            measure(total, chunk_sizes[i], true, reps),
        )
    });
    for (l0, (zc, pk)) in chunk_sizes.iter().zip(&rows) {
        println!(
            "{:>8} {:>8} {:>16.1} {:>16.1} {:>8}",
            fmt_size(*l0),
            total / l0,
            zc,
            pk,
            if zc <= pk { "zc" } else { "packed" }
        );
    }
    println!("tall-skinny (small l0): per-chunk 'o' dominates Eq.9 -> packed path wins;");
    println!("large l0: zero-copy avoids the pack/unpack copies and target CPU");
}
