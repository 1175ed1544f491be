//! Fig 9 — read-modify-write (fetch-and-add) latency vs process count.
//!
//! Ranks 1..p repeatedly fetch-and-add a load-balance counter hosted at
//! rank 0, in four configurations: {Default, AsyncThread} × {rank 0 idle,
//! rank 0 computing ≈300 µs chunks}. Paper findings: with compute, the
//! default design's latency is dominated by rank 0's compute grain; the
//! asynchronous thread removes that dependence but latency still grows
//! linearly with p (software AMO serialization — no NIC support).
//!
//! Observability: `--json <path>` writes a merged [`desim::MetricsSnapshot`]
//! (protocol-path counters, wait-time histograms) over the whole sweep;
//! `--trace <path>` writes a Chrome trace-event file (one process per
//! configuration, traced at the smallest process count) loadable in
//! Perfetto / `chrome://tracing`; `--breakdown <path>` enables the
//! message-lifecycle accumulator at the smallest process count, prints
//! the critical-path decomposition of each configuration (compute /
//! queueing / wire / contention / progress-starvation, tiling the whole
//! run), and writes the machine-readable form as JSON.

use crate::Figure;
use armci::ProgressMode;
use bgq_bench::cli::{BREAKDOWN, JOBS, TIMELINE, TRACE};
use bgq_bench::Kind::{List, Num, Path};
use bgq_bench::{fig9, sweep, with_peak_rss, Args, Flag, Observations};
use desim::{Observe, Stats};

pub const FIGURE: Figure = Figure {
    name: "fig9_rmw",
    about: "Fig 9 — fetch-and-add latency vs process count (D/AT × idle/compute)",
    flags: &[
        // Ranks 1..p are the requesters: p = 1 has none to average over.
        Flag(
            "--procs",
            List(&[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096], 2),
            "comma-separated process counts",
        ),
        Flag("--ops", Num(10, 1), "fetch-and-adds per requester"),
        Flag("--json", Path, "write the merged metrics snapshot JSON"),
        TRACE,
        BREAKDOWN,
        TIMELINE,
        JOBS,
    ],
    run,
};

fn run(args: &Args) {
    if let Err(e) = args.check_procs(16) {
        FIGURE.fail_usage(&e);
    }
    let procs = args.list("--procs");
    let k = args.num("--ops");
    let jobs = args.jobs();
    // Merge vehicle for the sweep-wide metrics snapshot.
    let merged = Stats::new();

    println!("== Fig 9: fetch-and-add latency on a counter at rank 0 (us/op) ==");
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "p", "D", "AT", "D+compute", "AT+compute"
    );
    const CONFIGS: [(ProgressMode, bool, &str); 4] = [
        (ProgressMode::Default, false, "fig9 D"),
        (ProgressMode::AsyncThread, false, "fig9 AT"),
        (ProgressMode::Default, true, "fig9 D+compute"),
        (ProgressMode::AsyncThread, true, "fig9 AT+compute"),
    ];
    // One sweep point per (process count, configuration) pair; results are
    // collected by input index, so the merge below runs in the same order as
    // the old serial loop regardless of worker count.
    let observe = args.observe();
    let traced = args.given(TRACE.0);
    let outs = sweep::run_parallel(procs.len() * CONFIGS.len(), jobs, |idx| {
        let (pi, ci) = (idx / CONFIGS.len(), idx % CONFIGS.len());
        let (mode, compute, name) = CONFIGS[ci];
        // Observe only the smallest process count: one pid per config.
        let observe = if pi == 0 {
            Observe {
                trace: traced.then_some((ci as u64 + 1, name)),
                ..observe
            }
        } else {
            Observe::default()
        };
        fig9::run(procs[pi], mode, compute, k, None, observe)
    });
    let p0 = procs.first().copied().unwrap_or(0);
    let mut seen = Observations::new(FIGURE.name, p0);
    let mut lat = [0.0f64; 4];
    for (idx, out) in outs.into_iter().enumerate() {
        let (pi, ci) = (idx / CONFIGS.len(), idx % CONFIGS.len());
        lat[ci] = out.latency_us;
        merged.absorb(&out.snapshot);
        seen.add(CONFIGS[ci].2.trim_start_matches("fig9 "), out.observed);
        if ci == CONFIGS.len() - 1 {
            println!(
                "{:>6} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
                procs[pi], lat[0], lat[1], lat[2], lat[3]
            );
        }
    }
    println!("paper: D+compute >> others (grain ~300us); AT immune to rank-0 compute;");
    println!("       AT latency grows ~linearly with p (software AMOs, no NIC support)");
    seen.report(args);
    args.write("--json", || with_peak_rss(&merged.snapshot().to_json()));
    seen.write_trace(args);
}
