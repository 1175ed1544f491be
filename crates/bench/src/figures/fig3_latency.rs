//! Fig 3 — inter-node contiguous get/put latency vs message size.
//!
//! Paper headline numbers: 2.89 µs get @ 16 B, 2.70 µs put @ 16 B, and a
//! latency drop at the 256 B cache-alignment boundary.

use crate::Figure;
use bgq_bench::cli::JOBS;
use bgq_bench::{fmt_size, get_latency, put_latency, size_sweep, sweep, Args};

pub const FIGURE: Figure = Figure {
    name: "fig3_latency",
    about: "Fig 3 — contiguous get/put latency vs message size",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let reps = 50; // per size
    let jobs = args.jobs();
    println!("== Fig 3: contiguous get/put latency (2 procs, adjacent nodes) ==");
    println!("{:>8} {:>12} {:>12}", "size", "get (us)", "put (us)");
    let sizes = size_sweep(16, 8192);
    let rows = sweep::run_parallel(sizes.len(), jobs, |i| {
        let m = sizes[i];
        (get_latency(2, 1, 1, m, reps), put_latency(2, 1, 1, m, reps))
    });
    for (m, (g, p)) in sizes.iter().zip(&rows) {
        println!("{:>8} {:>12.3} {:>12.3}", fmt_size(*m), g, p);
    }
    // Extra resolution around the 256 B alignment boundary.
    println!("-- alignment boundary detail --");
    let detail = [192usize, 224, 240, 256, 288, 320];
    let rows = sweep::run_parallel(detail.len(), jobs, |i| {
        get_latency(2, 1, 1, detail[i], reps)
    });
    for (m, g) in detail.iter().zip(&rows) {
        println!("{:>8} {:>12.3}", fmt_size(*m), g);
    }
    println!("paper: get(16B) = 2.89 us, put(16B) = 2.7 us, drop at 256 B");
}
