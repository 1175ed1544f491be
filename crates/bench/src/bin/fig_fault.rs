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
//! virtual time), so CI diffs it against `results/BENCH_fig_fault.json`
//! with zero tolerance.

use bgq_bench::fault_bench::{run_cell_timeline, sweep_json, FaultCell};
use bgq_bench::{
    append_json_field, arg_jobs, arg_list, arg_procs, arg_str, arg_usize, check_args, fmt_size,
    peak_rss_kb, sweep, write_text, JOBS_FLAG, TIMELINE_FLAG, TIMELINE_WINDOW_PS,
};

fn main() {
    check_args(
        "fig_fault",
        "bandwidth and p99 latency under deterministic fault injection",
        &[
            (
                "--procs",
                true,
                "process count, multiple of 16 (default 32)",
            ),
            ("--msgs", true, "puts per rank (default 8)"),
            ("--sizes", true, "comma-separated payload sizes (bytes)"),
            (
                "--fault-rate",
                true,
                "comma-separated corruption rates, parts per million",
            ),
            ("--seed", true, "fault-plan seed (default 42)"),
            ("--json", true, "write the fault-v1 sweep JSON"),
            TIMELINE_FLAG,
            JOBS_FLAG,
        ],
    );
    let procs = arg_procs(32, 32); // puts go to the next node: two nodes of 16
    let msgs = arg_usize("--msgs", 8);
    let sizes = arg_list("--sizes", &[4096, 65536]);
    let rates = arg_list("--fault-rate", &[0, 1000, 10000]);
    let seed = arg_usize("--seed", 42) as u64;
    let jobs = arg_jobs();
    let json_path = arg_str("--json");
    let timeline_path = arg_str("--timeline");

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
    let wants_timeline = timeline_path.is_some();
    // One independent simulation per (rate, size) cell; collected by input
    // index so output order never depends on worker count.
    let outs = sweep::run_parallel(rates.len() * sizes.len(), jobs, |idx| {
        let (ri, si) = (idx / sizes.len(), idx % sizes.len());
        let tl = (wants_timeline && ri == tl_ri && si == 0).then_some(TIMELINE_WINDOW_PS);
        run_cell_timeline(procs, sizes[si], msgs, rates[ri] as u64, seed, tl)
    });
    let cells: Vec<FaultCell> = outs.iter().map(|(c, _)| c.clone()).collect();
    for c in &cells {
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
    }
    println!("expected: MB/s falls and p99 rises smoothly with rate; rate 0 == fault-free");
    if let Some(path) = json_path {
        // Host context, never gated: the fault-v1 golden diffs at tol 0 but
        // candidate-only leaves are ignored by perfdiff.
        let doc = append_json_field(
            &sweep_json(procs, msgs, seed, &cells),
            "peak_rss_kb",
            peak_rss_kb(),
        );
        write_text(&path, &doc);
    }
    if let Some(path) = timeline_path {
        let runs = outs
            .into_iter()
            .filter_map(|(c, tl)| tl.map(|tl| (format!("rate{}_size{}", c.rate_ppm, c.size), tl)))
            .collect();
        let doc = desim::TimelineDoc {
            bench: "fig_fault".to_string(),
            runs,
        };
        write_text(&path, &doc.to_json());
    }
}
