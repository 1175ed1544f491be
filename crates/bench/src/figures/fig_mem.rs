//! fig_mem — communication-subsystem memory scaling vs partition size.
//!
//! The companion question to every time-scaling figure in the paper: on
//! Blue Gene/Q's 16 GB nodes, what does the PGAS communication subsystem
//! *cost in memory* as the partition grows? This figure enables the
//! tagged allocation profiler ([`desim::memprof`], `bgq-bench`'s global
//! allocator), sweeps the Fig 9 fetch-and-add workload and the raw
//! `net_churn` delivery storm of the [`bgq_bench::scale`] harness over a
//! list of process counts (workload-major, across `--jobs` workers), and
//! reports per-subsystem peak bytes, bytes-per-rank and a fitted growth
//! class (constant / sublinear / linear / superlinear / quadratic) per
//! allocation tag.
//!
//! `--json <path>` writes the `memscale-v1` document consumed by `memstat`
//! and gated (schema + growth classes exactly, byte counts loosely) by
//! `bgq-bench gate` against `results/BENCH_memscale.json`; `--timeline
//! <path>` additionally records windowed telemetry at the smallest p with
//! `mem.live_bytes.<tag>` gauge tracks for `simstat`.

use crate::Figure;
use bgq_bench::cli::{JOBS, TIMELINE};
use bgq_bench::memscale::{self, DEFAULT_PROCS};
use bgq_bench::Kind::{List, Path};
use bgq_bench::{Args, Flag};
use desim::memprof;

pub const FIGURE: Figure = Figure {
    name: "fig_mem",
    about: "memory scaling of the communication subsystem vs process count",
    flags: &[
        Flag(
            "--procs",
            List(&DEFAULT_PROCS, 1),
            "comma-separated process counts",
        ),
        Flag("--json", Path, "write the memscale-v1 JSON document"),
        TIMELINE,
        JOBS,
    ],
    run,
};

fn run(args: &Args) {
    if let Err(e) = args.check_procs(16) {
        FIGURE.fail_usage(&e);
    }
    let mut procs = args.list("--procs");
    procs.sort_unstable();
    procs.dedup();
    let ops = 4; // fetch-and-adds per requester
    let msgs = 64; // net_churn messages per rank

    memprof::enable();
    let (fig9, churn, seen) = memscale::run_sweep(&procs, ops, msgs, args.jobs(), args.observe());
    let doc = memscale::scale_json(&fig9, &churn, ops, msgs);
    print!(
        "{}",
        memscale::memstat_report(&doc).expect("fresh document renders")
    );
    seen.report(args);
    args.write("--json", || doc);
}
