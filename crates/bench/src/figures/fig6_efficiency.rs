//! Fig 6 — bandwidth efficiency (ratio to the 1.8 GB/s available) and N½.
//!
//! Paper: N½ ≈ 2 KB, efficiency ≥ 90 % beyond 16 KB.

use crate::Figure;
use bgq_bench::cli::JOBS;
use bgq_bench::{bandwidth, fmt_size, size_sweep, sweep, Args};

pub const FIGURE: Figure = Figure {
    name: "fig6_efficiency",
    about: "Fig 6 — bandwidth efficiency and N-half",
    flags: &[JOBS],
    run,
};

fn run(args: &Args) {
    let window = 2; // outstanding operations
    let reps = 32; // messages per size
    let jobs = args.jobs();
    let peak = torus5d::BgqParams::default().available_bw_mbs;
    println!("== Fig 6: bandwidth efficiency (put, window = {window}) ==");
    println!("{:>8} {:>14} {:>12}", "size", "bw (MB/s)", "efficiency");
    let sizes = size_sweep(16, 1 << 20);
    let rows = sweep::run_parallel(sizes.len(), jobs, |i| {
        bandwidth(2, sizes[i], window, reps, false)
    });
    let mut n_half: Option<usize> = None;
    let mut eff90: Option<usize> = None;
    for (m, bw) in sizes.iter().zip(&rows) {
        let eff = bw / peak;
        if n_half.is_none() && eff >= 0.5 {
            n_half = Some(*m);
        }
        if eff90.is_none() && eff >= 0.9 {
            eff90 = Some(*m);
        }
        println!("{:>8} {:>14.1} {:>11.1}%", fmt_size(*m), bw, eff * 100.0);
    }
    println!(
        "measured: N1/2 = {} ; >=90% efficiency from {}",
        n_half.map(fmt_size).unwrap_or_else(|| "-".into()),
        eff90.map(fmt_size).unwrap_or_else(|| "-".into()),
    );
    println!("paper: N1/2 = 2K ; >=90% efficiency beyond 16K");
}
