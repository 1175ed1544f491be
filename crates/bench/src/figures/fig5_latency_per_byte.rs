//! Fig 5 — effective latency per byte vs message size.
//!
//! Used to find the message-aggregation inflection point: beyond 4 KB the
//! latency/byte settles to ≈ 1 ns.

use crate::Figure;
use bgq_bench::cli::JOBS;
use bgq_bench::{fmt_size, get_latency, size_sweep, sweep, Args};

pub const FIGURE: Figure = Figure {
    name: "fig5_latency_per_byte",
    about: "Fig 5 — effective get latency per byte vs message size",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let reps = 50; // per size
    let jobs = args.jobs();
    println!("== Fig 5: effective get latency per byte (2 procs) ==");
    println!(
        "{:>8} {:>12} {:>16}",
        "size", "get (us)", "latency/byte (ns)"
    );
    let sizes = size_sweep(16, 1 << 20);
    let rows = sweep::run_parallel(sizes.len(), jobs, |i| get_latency(2, 1, 1, sizes[i], reps));
    for (m, g) in sizes.iter().zip(&rows) {
        println!(
            "{:>8} {:>12.3} {:>16.3}",
            fmt_size(*m),
            g,
            g * 1000.0 / *m as f64
        );
    }
    println!("paper: latency/byte ~ 1 ns beyond 4 KB");
}
