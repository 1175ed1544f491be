//! Fig 8 — strided get/put bandwidth vs contiguous chunk size (l₀),
//! 1 MB total transfer.
//!
//! Paper: the curve tracks Fig 4 as l₀ grows — per-chunk overhead `o·m/l₀`
//! (Eq. 9) dominates for small chunks, the wire for large ones.

use crate::Figure;
use armci::{ArmciConfig, Strided};
use bgq_bench::cli::JOBS;
use bgq_bench::{fmt_size, sweep, Args, Fixture};
use std::cell::Cell;
use std::rc::Rc;

fn measure(total: usize, l0: usize, is_get: bool, reps: usize) -> f64 {
    let f = Fixture::new(2, 1, ArmciConfig::default());
    let r0 = f.rank(0);
    let r1 = f.rank(1);
    let s = f.sim.clone();
    let out = Rc::new(Cell::new(0.0));
    let out2 = Rc::clone(&out);
    let rows = total / l0;
    f.sim.spawn(async move {
        // Remote side: rows of l0 bytes with a 2*l0 leading dimension
        // (genuinely strided); local side dense.
        let remote_base = r1.malloc(rows * l0 * 2).await;
        let local_base = r0.malloc(total).await;
        let remote = Strided::patch2d(remote_base, l0, rows, l0 * 2);
        let local = Strided::patch2d(local_base, l0, rows, l0);
        // Warm caches.
        r0.get(1, local_base, remote_base, 64.min(l0)).await;
        let t0 = s.now();
        for _ in 0..reps {
            if is_get {
                r0.get_strided(1, &local, &remote).await;
            } else {
                r0.put_strided(1, &local, &remote).await;
            }
        }
        let elapsed = s.now() - t0;
        // The bytes moved: `total` rounded down to whole l0 rows.
        out2.set((rows * l0 * reps) as f64 / elapsed.as_secs() / 1.0e6);
    });
    f.finish();
    out.get()
}

pub const FIGURE: Figure = Figure {
    name: "fig8_strided",
    about: "Fig 8 — strided get/put bandwidth vs contiguous chunk size",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let total = 1 << 20;
    let reps = 4;
    let jobs = args.jobs();
    println!(
        "== Fig 8: strided bandwidth vs l0 (total {} transfer) ==",
        fmt_size(total)
    );
    println!(
        "{:>8} {:>8} {:>14} {:>14}",
        "l0", "chunks", "get (MB/s)", "put (MB/s)"
    );
    let mut chunk_sizes = Vec::new();
    let mut l0 = 128usize;
    while l0 <= total {
        chunk_sizes.push(l0);
        l0 *= 4;
    }
    let rows = sweep::run_parallel(chunk_sizes.len(), jobs, |i| {
        let l0 = chunk_sizes[i];
        (
            measure(total, l0, true, reps),
            measure(total, l0, false, reps),
        )
    });
    for (l0, (g, p)) in chunk_sizes.iter().zip(&rows) {
        println!(
            "{:>8} {:>8} {:>14.1} {:>14.1}",
            fmt_size(*l0),
            total / l0,
            g,
            p
        );
    }
    println!("paper: approaches the Fig 4 contiguous curve as l0 grows");
}
