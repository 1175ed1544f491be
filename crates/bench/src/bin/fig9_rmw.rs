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

use armci::ProgressMode;
use bgq_bench::fig9::run;
use bgq_bench::{
    append_json_field, arg_jobs, arg_procs_list, arg_str, arg_usize, check_args, peak_rss_kb,
    sweep, write_text, JOBS_FLAG, TIMELINE_FLAG, TIMELINE_WINDOW_PS,
};
use desim::{ChromeTrace, Stats, TimelineDoc};

fn main() {
    check_args(
        "fig9_rmw",
        "Fig 9 — fetch-and-add latency vs process count (D/AT × idle/compute)",
        &[
            ("--procs", true, "comma-separated process counts"),
            ("--ops", true, "fetch-and-adds per requester (default 10)"),
            ("--json", true, "write the merged metrics snapshot JSON"),
            (
                "--trace",
                true,
                "write a Chrome trace of the smallest-p runs",
            ),
            (
                "--breakdown",
                true,
                "write critical-path breakdown JSON (smallest p)",
            ),
            TIMELINE_FLAG,
            JOBS_FLAG,
        ],
    );
    // Ranks 1..p are the requesters: p = 1 has none to average over.
    let procs = arg_procs_list(&[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096], 2);
    let k = arg_usize("--ops", 10);
    let jobs = arg_jobs();
    let json_path = arg_str("--json");
    let trace_path = arg_str("--trace");
    let breakdown_path = arg_str("--breakdown");
    let timeline_path = arg_str("--timeline");
    let mut chrome = trace_path.as_ref().map(|_| ChromeTrace::new());
    // Merge vehicle for the sweep-wide metrics snapshot.
    let merged = Stats::new();
    // (config key, critical-path report, critical-path JSON) triples from
    // the flight-recorded runs at the smallest process count.
    let mut crits: Vec<(&str, String, String)> = Vec::new();

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
    let wants_breakdown = breakdown_path.is_some();
    let wants_timeline = timeline_path.is_some();
    let outs = sweep::run_parallel(procs.len() * CONFIGS.len(), jobs, |idx| {
        let (pi, ci) = (idx / CONFIGS.len(), idx % CONFIGS.len());
        let (mode, compute, name) = CONFIGS[ci];
        // Trace/record only the smallest process count: one pid per config.
        let trace = (wants_trace && pi == 0).then_some((ci as u64 + 1, name));
        let breakdown = wants_breakdown && pi == 0;
        let tl = (wants_timeline && pi == 0).then_some(TIMELINE_WINDOW_PS);
        run(procs[pi], mode, compute, k, trace, breakdown, None, tl)
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
    if !crits.is_empty() {
        let p0 = procs.first().copied().unwrap_or(0);
        println!("\n== message-lifecycle critical path at p={p0} ==");
        for (key, report, _) in &crits {
            println!("[{key}]");
            print!("{report}");
        }
    }
    if let Some(path) = breakdown_path {
        let p0 = procs.first().copied().unwrap_or(0);
        let mut body = format!("{{\"bench\":\"fig9_rmw\",\"p\":{p0},\"configs\":{{");
        for (i, (key, _, json)) in crits.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"{key}\":{json}"));
        }
        body.push_str("}}\n");
        write_text(&path, &body);
    }
    if let Some(path) = timeline_path {
        let doc = TimelineDoc {
            bench: "fig9_rmw".to_string(),
            runs: timelines,
        };
        write_text(&path, &doc.to_json());
    }
    if let Some(path) = json_path {
        // peak_rss_kb is host context, not a gated metric: candidate-only
        // leaves never fail perfdiff, so the committed golden stays as-is.
        let doc = append_json_field(&merged.snapshot().to_json(), "peak_rss_kb", peak_rss_kb());
        write_text(&path, &doc);
    }
    if let (Some(path), Some(ct)) = (trace_path, chrome) {
        write_text(&path, &ct.finish());
    }
}
