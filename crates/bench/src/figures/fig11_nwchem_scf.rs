//! Fig 11 — NWChem SCF (6 H₂O, 644 basis functions), Default vs
//! Asynchronous-Thread runtime, on 1024/2048/4096 processes.
//!
//! Paper: AT reduces total execution time by up to 30 %; the time spent in
//! the load-balance counter collapses under AT.
//!
//! `--breakdown <path>` enables the message-lifecycle accumulator at the
//! smallest process count, prints the critical-path decomposition of the D
//! and AT runs, and writes the machine-readable form as JSON.

use crate::Figure;
use armci::ProgressMode;
use bgq_bench::cli::{BREAKDOWN, JOBS, TIMELINE};
use bgq_bench::Kind::{List, Num, Path, Switch};
use bgq_bench::{sweep, with_peak_rss, Args, Flag, Observations};
use desim::Observe;
use nwchem_scf::{run_scf_observed, ScfConfig};

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
        Flag("--iters", Num(3, 1), "SCF iterations"),
        Flag("--json", Path, "write per-run report rows as JSON"),
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
    let observe = args.observe();

    println!("== Fig 11: NWChem SCF, 6 waters / 644 basis functions ==");
    const MODES: [(ProgressMode, &str); 2] = [
        (ProgressMode::Default, "D"),
        (ProgressMode::AsyncThread, "AT"),
    ];
    // One sweep point per (process count, progress mode); results collected
    // by input index so reporting below matches the old serial loop exactly.
    let outs = sweep::run_parallel(procs.len() * MODES.len(), jobs, |idx| {
        let (pi, mi) = (idx / MODES.len(), idx % MODES.len());
        let mut cfg = ScfConfig::paper(MODES[mi].0);
        cfg.iterations = iters;
        if quick {
            cfg.repeat_factor = 8; // ~1.6k tasks/iter
        }
        // Attribute lifecycles / sample timelines only at the smallest p.
        let observe = if pi == 0 { observe } else { Observe::default() };
        run_scf_observed(procs[pi], &cfg, observe)
    });
    let p0 = procs.first().copied().unwrap_or(0);
    let mut seen = Observations::new(FIGURE.name, p0);
    let mut rows = Vec::new();
    for (idx, (report, observed)) in outs.into_iter().enumerate() {
        let (pi, mi) = (idx / MODES.len(), idx % MODES.len());
        seen.add(MODES[mi].1, observed);
        println!("{}", report.row());
        rows.push(report);
        if mi == MODES.len() - 1 {
            // Per-pair improvement.
            let d = &rows[rows.len() - 2];
            let at = &rows[rows.len() - 1];
            let gain = 100.0 * (d.total_us - at.total_us) / d.total_us;
            println!(
                "   p={}: AT reduces execution time by {gain:.1}% (counter time {:.0}us -> {:.0}us)",
                procs[pi], d.counter_wait_mean_us, at.counter_wait_mean_us
            );
        }
    }
    println!("paper: AT reduces execution time by up to 30%;");
    println!("       load-balance-counter time drops sharply with AT");
    seen.report(args);
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
