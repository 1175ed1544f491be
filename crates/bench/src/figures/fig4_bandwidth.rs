//! Fig 4 — contiguous get/put bandwidth vs message size (≤ 1 MB).
//!
//! Paper: peak ≈ 1775 MB/s of the 1.8 GB/s available; the get curve trails
//! the put curve until ≈ 8 KB because of the request round trip.

use crate::Figure;
use bgq_bench::cli::JOBS;
use bgq_bench::{bandwidth, fmt_size, size_sweep, sweep, Args};

pub const FIGURE: Figure = Figure {
    name: "fig4_bandwidth",
    about: "Fig 4 — contiguous get/put bandwidth vs message size",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let window = 2; // outstanding operations
    let reps = 32; // messages per size
    let jobs = args.jobs();
    let sizes = size_sweep(16, 1 << 20);
    println!("== Fig 4: get/put bandwidth, 2 procs, window = {window} ==");
    println!("{:>8} {:>14} {:>14}", "size", "get (MB/s)", "put (MB/s)");
    let rows = sweep::run_parallel(sizes.len(), jobs, |i| {
        let m = sizes[i];
        (
            bandwidth(2, m, window, reps, true),
            bandwidth(2, m, window, reps, false),
        )
    });
    for (m, (g, p)) in sizes.iter().zip(&rows) {
        println!("{:>8} {:>14.1} {:>14.1}", fmt_size(*m), g, p);
    }
    println!("paper: peak 1775 MB/s; get round-trip overhead visible till 8K");
}
