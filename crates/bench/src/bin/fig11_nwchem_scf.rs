//! Fig 11 — NWChem SCF (6 H₂O, 644 basis functions), Default vs
//! Asynchronous-Thread runtime, on 1024/2048/4096 processes.
//!
//! Paper: AT reduces total execution time by up to 30 %; the time spent in
//! the load-balance counter collapses under AT.
//!
//! `--breakdown <path>` enables the message-lifecycle flight recorder at the
//! smallest process count, prints the critical-path decomposition of the D
//! and AT runs, and writes the machine-readable form as JSON.

use armci::ProgressMode;
use bgq_bench::{
    append_json_field, arg_flag, arg_jobs, arg_procs_list, arg_str, arg_usize, check_args,
    peak_rss_kb, sweep, write_text, JOBS_FLAG, TIMELINE_FLAG, TIMELINE_WINDOW_PS,
};
use nwchem_scf::{run_scf_timeline, ScfConfig};

fn main() {
    check_args(
        "fig11_nwchem_scf",
        "Fig 11 — NWChem SCF mini-app, Default vs AsyncThread progress",
        &[
            ("--quick", false, "small CI-sized workload"),
            ("--procs", true, "comma-separated process counts"),
            ("--iters", true, "SCF iterations (default 3, quick 2)"),
            ("--json", true, "write per-run report rows as JSON"),
            (
                "--breakdown",
                true,
                "write critical-path breakdown JSON (smallest p)",
            ),
            TIMELINE_FLAG,
            JOBS_FLAG,
        ],
    );
    let quick = arg_flag("--quick");
    let procs = arg_procs_list(
        if quick {
            &[64, 128]
        } else {
            &[1024, 2048, 4096]
        },
        1,
    );
    let iters = arg_usize("--iters", if quick { 2 } else { 3 });
    let jobs = arg_jobs();
    let breakdown_path = arg_str("--breakdown");
    let wants_breakdown = breakdown_path.is_some();
    let timeline_path = arg_str("--timeline");
    let wants_timeline = timeline_path.is_some();

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
    let mut crits: Vec<(&str, String, String)> = Vec::new();
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
        let mut body = format!("{{\"bench\":\"fig11_nwchem_scf\",\"p\":{p0},\"configs\":{{");
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
        let doc = desim::TimelineDoc {
            bench: "fig11_nwchem_scf".to_string(),
            runs: timelines,
        };
        write_text(&path, &doc.to_json());
    }
    if let Some(path) = arg_str("--json") {
        let body = rows
            .iter()
            .map(|r| format!("  {}", r.to_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        // The document is a golden-locked array, so the ungated host-context
        // field rides in the final row (candidate-only leaves never gate).
        let doc = append_json_field(&format!("[\n{body}\n]\n"), "peak_rss_kb", peak_rss_kb());
        write_text(&path, &doc);
    }
}
