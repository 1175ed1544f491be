//! fig_fault — bandwidth and p99 latency under deterministic fault injection.
//!
//! Sweeps fault rate × message size over a blocking RDMA-put streaming
//! workload (every rank → the rank 16 away, always cross-node) with the
//! `desim::fault` scheduler injecting link corruption plus one mid-run
//! link-down window. Shows goodput and tail latency degrading gracefully as
//! the PAMI timeout/backoff/retry layer rides out the faults. With
//! `--fault-rate 0` no plan is installed at all, so that column is
//! byte-identical to a fault-free build (the zero-cost contract).
//!
//! `--json <path>` writes the fixed-schema `fault-v1` document; every field
//! in it is deterministic (virtual time, counters, percentiles derived from
//! virtual time), so `bgq-bench gate` diffs it against
//! `results/BENCH_fig_fault.json` with zero tolerance.

use crate::Figure;
use bgq_bench::cli::{JOBS, TIMELINE};
use bgq_bench::fault_bench::{run_cell, sweep_json};
use bgq_bench::Kind::{List, ListIn, Multiple, Num, Path};
use bgq_bench::{fmt_size, sweep, with_peak_rss, Args, Flag, Observations};
use desim::Observe;

pub const FIGURE: Figure = Figure {
    name: "fig_fault",
    about: "bandwidth and p99 latency under deterministic fault injection",
    flags: &[
        // Puts go to the rank 16 away on the next node: whole nodes of 16
        // ranks, at least two of them.
        Flag(
            "--procs",
            Multiple(32, 32, 16),
            "process count, a multiple of 16",
        ),
        // The p99 is read off the measured puts: at least one per rank.
        Flag("--msgs", Num(8, 1), "puts per rank"),
        Flag(
            "--sizes",
            List(&[4096, 65536], 0),
            "comma-separated payload sizes (bytes)",
        ),
        // A probability: at most one million parts per million.
        Flag(
            "--fault-rate",
            ListIn(&[0, 1000, 10000], 0, 1_000_000, 1),
            "comma-separated corruption rates, parts per million",
        ),
        Flag("--json", Path, "write the fault-v1 sweep JSON"),
        TIMELINE,
        JOBS,
    ],
    run,
};

fn run(args: &Args) {
    if let Err(e) = args.check_procs(16) {
        FIGURE.fail_usage(&e);
    }
    let procs = args.num("--procs");
    let msgs = args.num("--msgs");
    let sizes = args.list("--sizes");
    let rates = args.list("--fault-rate");
    let seed = 42; // of the fault plan
    let jobs = args.jobs();

    println!("== fig_fault: {procs} ranks, {msgs} puts/rank, seed {seed} ==");
    println!(
        "{:>10} {:>8} {:>12} {:>10} {:>9} {:>9} {:>8} {:>12}",
        "rate(ppm)", "size", "MB/s", "p99(us)", "retries", "timeouts", "gave_up", "sim_time(ms)"
    );
    // Timeline (when requested) records the stormiest designated cell:
    // largest corruption rate at the first payload size.
    let tl_ri = rates
        .iter()
        .enumerate()
        .max_by_key(|&(_, &r)| r)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let observe = args.observe();
    // One independent simulation per (rate, size) cell; collected by input
    // index so output order never depends on worker count.
    let outs = sweep::run_parallel(rates.len() * sizes.len(), jobs, |idx| {
        let (ri, si) = (idx / sizes.len(), idx % sizes.len());
        let observe = if ri == tl_ri && si == 0 {
            observe
        } else {
            Observe::default()
        };
        run_cell(procs, sizes[si], msgs, rates[ri] as u64, seed, observe)
    });
    let mut seen = Observations::new(FIGURE.name, procs);
    let mut cells = Vec::with_capacity(outs.len());
    for (c, observed) in outs {
        println!(
            "{:>10} {:>8} {:>12.1} {:>10.2} {:>9} {:>9} {:>8} {:>12.3}",
            c.rate_ppm,
            fmt_size(c.size),
            c.mb_s,
            c.p99_us,
            c.retries,
            c.timeouts,
            c.gave_up,
            c.sim_time_ps as f64 / 1e9,
        );
        seen.add(&format!("rate{}_size{}", c.rate_ppm, c.size), observed);
        cells.push(c);
    }
    println!("expected: MB/s falls and p99 rises smoothly with rate; rate 0 == fault-free");
    args.write("--json", || {
        with_peak_rss(&sweep_json(procs, msgs, seed, &cells))
    });
    seen.report(args);
}
