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
//! message-lifecycle flight recorder at the smallest process count, prints
//! the critical-path decomposition of each configuration (compute /
//! queueing / wire / contention / progress-starvation, tiling the whole
//! run), and writes the machine-readable form as JSON.

use crate::Figure;
use armci::ProgressMode;
use bgq_bench::cli::{JOBS, TIMELINE};
use bgq_bench::Kind::{List, Num, Path};
use bgq_bench::{
    breakdown_json, fig9, print_crit_reports, sweep, timeline_json, with_peak_rss, Args,
    CritReports, Flag, TIMELINE_WINDOW_PS,
};
use desim::{ChromeTrace, Stats};

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
        Flag("--ops", Num(10, 0), "fetch-and-adds per requester"),
        Flag("--json", Path, "write the merged metrics snapshot JSON"),
        Flag(
            "--trace",
            Path,
            "write a Chrome trace of the smallest-p runs",
        ),
        Flag(
            "--breakdown",
            Path,
            "write critical-path breakdown JSON (smallest p)",
        ),
        TIMELINE,
        JOBS,
    ],
    run,
};

fn run(args: &Args) {
    let procs = args.list("--procs");
    let k = args.num("--ops");
    let jobs = args.jobs();
    let mut chrome = args.given("--trace").then(ChromeTrace::new);
    // Merge vehicle for the sweep-wide metrics snapshot.
    let merged = Stats::new();
    // From the flight-recorded runs at the smallest process count.
    let mut crits = CritReports::new();

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
    let wants_trace = chrome.is_some();
    let wants_breakdown = args.given("--breakdown");
    let wants_timeline = args.given("--timeline");
    let outs = sweep::run_parallel(procs.len() * CONFIGS.len(), jobs, |idx| {
        let (pi, ci) = (idx / CONFIGS.len(), idx % CONFIGS.len());
        let (mode, compute, name) = CONFIGS[ci];
        // Trace/record only the smallest process count: one pid per config.
        let trace = (wants_trace && pi == 0).then_some((ci as u64 + 1, name));
        let breakdown = wants_breakdown && pi == 0;
        let tl = (wants_timeline && pi == 0).then_some(TIMELINE_WINDOW_PS);
        fig9::run(procs[pi], mode, compute, k, trace, breakdown, None, tl)
    });
    // Timeline doc: one run per configuration, recorded at the smallest p.
    let mut timelines: Vec<(String, desim::TimelineSnapshot)> = Vec::new();
    for (pi, &p) in procs.iter().enumerate() {
        let mut lat = [0.0f64; 4];
        for (ci, &(_, _, name)) in CONFIGS.iter().enumerate() {
            let out = &outs[pi * CONFIGS.len() + ci];
            lat[ci] = out.latency_us;
            merged.absorb(&out.snapshot);
            if let Some(cp) = &out.crit {
                let key = name.trim_start_matches("fig9 ");
                crits.push((key, cp.report(), cp.to_json()));
            }
            if let Some(tl) = &out.timeline {
                let key = name.trim_start_matches("fig9 ");
                timelines.push((key.to_string(), tl.clone()));
            }
        }
        println!(
            "{p:>6} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            lat[0], lat[1], lat[2], lat[3]
        );
    }
    if let Some(ct) = &mut chrome {
        for out in outs {
            if let Some(fragment) = out.chrome {
                ct.absorb(fragment);
            }
        }
    }
    println!("paper: D+compute >> others (grain ~300us); AT immune to rank-0 compute;");
    println!("       AT latency grows ~linearly with p (software AMOs, no NIC support)");
    let p0 = procs.first().copied().unwrap_or(0);
    print_crit_reports(p0, &crits);
    args.write("--breakdown", || breakdown_json(FIGURE.name, p0, &crits));
    args.write("--timeline", || timeline_json(FIGURE.name, timelines));
    args.write("--json", || with_peak_rss(&merged.snapshot().to_json()));
    if let Some(ct) = chrome {
        args.write("--trace", || ct.finish());
    }
}
