//! fig_am — small-message active-message throughput with and without
//! per-destination aggregation.
//!
//! Sweeps payload size × flush window × destination fan-out over an AM
//! accumulate storm (`acc_am` + `am_fence`). Window 0 configures no batcher
//! at all — the untouched unbatched hot path — so that column doubles as
//! the zero-cost baseline; nonzero windows coalesce queued AMs into one
//! wire message per destination and the small-size columns show the
//! aggregation win (wire messages collapse, AM rate multiplies).
//!
//! `--json <path>` writes the fixed-schema `am-v1` document, including the
//! lifecycle attribution (six critical-path categories plus the
//! summed `pami.am_aggr` buffer wait) for the designated batched and
//! unbatched cells. Every field is deterministic, so `bgq-bench gate` diffs
//! it against `results/BENCH_fig_am.json` with zero tolerance.

use crate::Figure;
use bgq_bench::am_bench::{best_speedup, run_cell, sweep_json};
use bgq_bench::cli::{JOBS, TIMELINE};
use bgq_bench::Kind::{List, ListIn, Num, Path};
use bgq_bench::{fmt_size, sweep, with_peak_rss, Args, Flag, Observations};
use desim::Observe;

pub const FIGURE: Figure = Figure {
    name: "fig_am",
    about: "active-message throughput with and without aggregation",
    flags: &[
        // Destinations sit a stride of 16 ranks away.
        Flag("--procs", Num(64, 17), "process count, > 16"),
        Flag("--msgs", Num(128, 1), "AM accumulates per rank"),
        // An accumulate carries whole f64s.
        Flag(
            "--sizes",
            ListIn(&[8, 64, 512], 0, usize::MAX, 8),
            "comma-separated payload sizes (bytes)",
        ),
        Flag(
            "--windows",
            List(&[0, 1, 4], 0),
            "comma-separated flush windows (us); 0 = unbatched",
        ),
        Flag(
            "--fanout",
            List(&[1, 4], 1),
            "comma-separated destination fan-outs",
        ),
        Flag("--json", Path, "write the am-v1 sweep JSON"),
        TIMELINE,
        JOBS,
    ],
    run,
};

fn run(args: &Args) {
    if let Err(e) = args.check_procs(1) {
        FIGURE.fail_usage(&e);
    }
    let procs = args.num("--procs");
    let msgs = args.num("--msgs");
    let sizes = args.list("--sizes");
    let windows = args.list("--windows");
    let fanouts = args.list("--fanout");
    let jobs = args.jobs();

    println!("== fig_am: {procs} ranks, {msgs} AMs/rank ==");
    println!(
        "{:>8} {:>10} {:>7} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "size", "window(us)", "fanout", "AMs/s", "MB/s", "wire_msgs", "avg_batch", "time(us)"
    );
    // Lifecycle attribution runs on the two designated cells: smallest size,
    // fanout 1, unbatched and largest window. Timeline (when requested)
    // records the batched one.
    let smallest_si = sizes
        .iter()
        .enumerate()
        .min_by_key(|&(_, &s)| s)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let biggest_wi = windows
        .iter()
        .enumerate()
        .max_by_key(|&(_, &w)| w)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let timeline = args.observe().timeline;
    let n_cells = sizes.len() * windows.len() * fanouts.len();
    // One independent simulation per cell; collected by input index so
    // output order never depends on the job count.
    let outs = sweep::run_parallel(n_cells, jobs, |idx| {
        let si = idx / (windows.len() * fanouts.len());
        let wi = (idx / fanouts.len()) % windows.len();
        let fi = idx % fanouts.len();
        let designated = si == smallest_si && fi == 0 && (windows[wi] == 0 || wi == biggest_wi);
        let observe = Observe {
            crit: designated,
            timeline: timeline.filter(|_| si == smallest_si && wi == biggest_wi && fi == 0),
            ..Observe::default()
        };
        run_cell(
            procs,
            sizes[si],
            msgs,
            windows[wi] as u64,
            fanouts[fi],
            observe,
        )
    });
    let mut seen = Observations::new(FIGURE.name, procs);
    let mut cells = Vec::with_capacity(outs.len());
    let mut crits = Vec::new();
    for (c, crit, observed) in outs {
        println!(
            "{:>8} {:>10} {:>7} {:>14.0} {:>10.2} {:>10} {:>10.2} {:>10.3}",
            fmt_size(c.size),
            c.window_us,
            c.fanout,
            c.am_per_s,
            c.mb_s,
            c.wire_msgs,
            c.avg_batch,
            c.sim_time_ps as f64 / 1e6,
        );
        if let Some(crit) = crit {
            let key = if c.window_us == 0 {
                "unbatched"
            } else {
                "batched"
            };
            crits.push((key.to_string(), crit));
        }
        seen.add(&format!("size{}_win{}us", c.size, c.window_us), observed);
        cells.push(c);
    }
    let smallest = fmt_size(cells.iter().map(|c| c.size).min().unwrap_or(0));
    if let Some((w, f, ratio)) = best_speedup(&cells) {
        println!("best aggregation speedup at {smallest}: {ratio:.2}x (window {w} us, fanout {f})");
    }
    println!("expected: small sizes batch hard (avg_batch >> 1) and the AM rate multiplies;");
    println!("large payloads amortize the post cost on their own, so the win shrinks");
    for (key, c) in &crits {
        println!("\n== critical path, {key} (size {smallest}, fanout 1) ==");
        println!("am_aggr wait: {:.3} us total", c.aggr_wait_ps as f64 / 1e6);
        print!("{}", c.crit.report());
    }
    args.write("--json", || {
        with_peak_rss(&sweep_json(procs, msgs, &cells, &crits))
    });
    seen.report(args);
}
