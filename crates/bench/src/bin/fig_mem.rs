//! fig_mem — communication-subsystem memory scaling vs partition size.
//!
//! The companion question to every time-scaling figure in the paper: on
//! Blue Gene/Q's 16 GB nodes, what does the PGAS communication subsystem
//! *cost in memory* as the partition grows? This binary installs the
//! tagged allocation profiler ([`desim::memprof`]) as its global allocator,
//! sweeps the Fig 9 fetch-and-add workload and the raw `net_churn` delivery
//! storm over a list of process counts, and reports per-subsystem peak
//! bytes, bytes-per-rank and a fitted growth class (constant / sublinear /
//! linear / superlinear / quadratic) per allocation tag.
//!
//! `--json <path>` writes the `memscale-v1` document consumed by `memstat`
//! and gated (schema + growth classes exactly, byte counts loosely) by CI
//! against `results/BENCH_memscale.json`; `--timeline <path>` additionally
//! records windowed telemetry at the smallest p with `mem.live_bytes.<tag>`
//! gauge tracks for `simstat`.

use bgq_bench::memscale::{self, DEFAULT_MSGS_PER_RANK, DEFAULT_OPS, DEFAULT_PROCS};
use bgq_bench::{
    arg_flag, arg_jobs, arg_procs_list, arg_str, arg_usize, check_args, write_text, JOBS_FLAG,
    TIMELINE_FLAG,
};
use desim::memprof;
use desim::TimelineDoc;

#[global_allocator]
static ALLOC: memprof::MemProf = memprof::MemProf;

fn main() {
    check_args(
        "fig_mem",
        "memory scaling of the communication subsystem vs process count",
        &[
            ("--procs", true, "comma-separated process counts"),
            ("--ops", true, "fetch-and-adds per requester (default 4)"),
            (
                "--msgs-per-rank",
                true,
                "net_churn messages per rank (default 64)",
            ),
            ("--json", true, "write the memscale-v1 JSON document"),
            (
                "--no-timing",
                false,
                "omit ungated wall_ms/events_per_sec point fields (golden regen)",
            ),
            TIMELINE_FLAG,
            JOBS_FLAG,
        ],
    );
    let mut procs = arg_procs_list(&DEFAULT_PROCS, 1);
    procs.sort_unstable();
    procs.dedup();
    let ops = arg_usize("--ops", DEFAULT_OPS);
    let msgs = arg_usize("--msgs-per-rank", DEFAULT_MSGS_PER_RANK);
    let jobs = arg_jobs();
    let json_path = arg_str("--json");
    let timeline_path = arg_str("--timeline");

    memprof::enable();
    let out = memscale::run_sweep(&procs, ops, msgs, jobs, timeline_path.is_some());
    let doc = memscale::scale_json(&out.fig9, &out.churn, ops, msgs, !arg_flag("--no-timing"));
    print!(
        "{}",
        memscale::memstat_report(&doc).expect("fresh document renders")
    );
    if let Some(path) = timeline_path {
        let tdoc = TimelineDoc {
            bench: "fig_mem".to_string(),
            runs: out.timelines,
        };
        write_text(&path, &tdoc.to_json());
    }
    if let Some(path) = json_path {
        write_text(&path, &doc);
    }
}
