//! Fig 11 — NWChem SCF (6 H₂O, 644 basis functions), Default vs
//! Asynchronous-Thread runtime, on 1024/2048/4096 processes.
//!
//! Paper: AT reduces total execution time by up to 30 %; the time spent in
//! the load-balance counter collapses under AT.
//!
//! `--breakdown <path>` enables the message-lifecycle flight recorder at the
//! smallest process count, prints the critical-path decomposition of the D
//! and AT runs, and writes the machine-readable form as JSON.

use crate::Figure;
use armci::ProgressMode;
use bgq_bench::cli::{JOBS, TIMELINE};
use bgq_bench::Kind::{List, Num, Path, Switch};
use bgq_bench::{
    breakdown_json, print_crit_reports, sweep, timeline_json, with_peak_rss, Args, CritReports,
    Flag, TIMELINE_WINDOW_PS,
};
use nwchem_scf::{run_scf_timeline, ScfConfig};

pub const FIGURE: Figure = Figure {
    name: "fig11_nwchem_scf",
    about: "Fig 11 — NWChem SCF mini-app, Default vs AsyncThread progress",
    flags: &[
        Flag(
            "--quick",
            Switch,
            "small CI-sized workload: --procs 64,128 --iters 2 unless given",
        ),
        Flag(
            "--procs",
            List(&[1024, 2048, 4096], 1),
            "comma-separated process counts",
        ),
        Flag("--iters", Num(3, 0), "SCF iterations"),
        Flag("--json", Path, "write per-run report rows as JSON"),
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
    let quick = args.given("--quick");
    let procs = if quick && !args.given("--procs") {
        vec![64, 128]
    } else {
        args.list("--procs")
    };
    let iters = if quick && !args.given("--iters") {
        2
    } else {
        args.num("--iters")
    };
    let jobs = args.jobs();
    let wants_breakdown = args.given("--breakdown");
    let wants_timeline = args.given("--timeline");

    println!("== Fig 11: NWChem SCF, 6 waters / 644 basis functions ==");
    const MODES: [ProgressMode; 2] = [ProgressMode::Default, ProgressMode::AsyncThread];
    // One sweep point per (process count, progress mode); results collected
    // by input index so reporting below matches the old serial loop exactly.
    let outs = sweep::run_parallel(procs.len() * MODES.len(), jobs, |idx| {
        let (pi, mi) = (idx / MODES.len(), idx % MODES.len());
        let mode = MODES[mi];
        let mut cfg = ScfConfig::paper(mode);
        cfg.iterations = iters;
        if quick {
            cfg.repeat_factor = 8; // ~1.6k tasks/iter
        }
        // Flight-record / sample timelines only at the smallest p.
        if wants_timeline && pi == 0 {
            cfg.timeline_window_ps = Some(TIMELINE_WINDOW_PS);
        }
        let cap = if wants_breakdown && pi == 0 {
            1 << 22
        } else {
            0
        };
        run_scf_timeline(procs[pi], &cfg, cap)
    });
    let mut rows = Vec::new();
    let mut crits = CritReports::new();
    let mut timelines: Vec<(String, desim::TimelineSnapshot)> = Vec::new();
    for (pi, &p) in procs.iter().enumerate() {
        for (mi, &mode) in MODES.iter().enumerate() {
            let (report, crit, tl) = &outs[pi * MODES.len() + mi];
            let key = if mode == ProgressMode::Default {
                "D"
            } else {
                "AT"
            };
            if let Some(cp) = crit {
                crits.push((key, cp.report(), cp.to_json()));
            }
            if let Some(tl) = tl {
                timelines.push((key.to_string(), tl.clone()));
            }
            println!("{}", report.row());
            rows.push(report);
        }
        // Per-pair improvement.
        let d = &rows[rows.len() - 2];
        let at = &rows[rows.len() - 1];
        let gain = 100.0 * (d.total_us - at.total_us) / d.total_us;
        println!(
            "   p={p}: AT reduces execution time by {gain:.1}% (counter time {:.0}us -> {:.0}us)",
            d.counter_wait_mean_us, at.counter_wait_mean_us
        );
    }
    println!("paper: AT reduces execution time by up to 30%;");
    println!("       load-balance-counter time drops sharply with AT");
    let p0 = procs.first().copied().unwrap_or(0);
    print_crit_reports(p0, &crits);
    args.write("--breakdown", || breakdown_json(FIGURE.name, p0, &crits));
    args.write("--timeline", || timeline_json(FIGURE.name, timelines));
    args.write("--json", || {
        let body = rows
            .iter()
            .map(|r| format!("  {}", r.to_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        // The document is a golden-locked array, so the ungated host-context
        // field rides in the final row (candidate-only leaves never gate).
        with_peak_rss(&format!("[\n{body}\n]\n"))
    });
}
