//! fig_scale — million-rank scaling of the event-driven rank runtime.
//!
//! Sweeps the Fig 9 fetch-and-add storm (all ranks active) and a synthetic
//! all-to-all over a fixed active set (everyone else idle) up to
//! p = 1,000,000 ranks in a single process, measuring what scaling to a
//! full Blue Gene/Q partition costs in host memory: tagged peak bytes and
//! bytes/rank (via the [`desim::memprof`] allocator), peak RSS, wall time
//! and kernel events/s, plus the deterministic run signature (virtual end
//! time, event count, materialized ranks, task-table high-water mark).
//!
//! Points run **serially in ascending p** — the 1M-rank point needs the
//! whole address space to itself and serial order makes the running
//! peak-RSS column meaningful.
//!
//! A `netstorm` workload additionally drives a fixed seeded delivery
//! schedule straight through `torus5d::NetState` at each p, reporting the
//! network layer's wall time and deliveries/s. All three are the
//! [`bgq_bench::scale`] harness's runners, shared with `fig_mem`.
//!
//! `--json` writes the full `scale-v3` document (committed as
//! `results/BENCH_scale.json`, curves ungated); `--gate-json` writes the
//! deterministic-leaves-only `scale-gate-v2` subset that
//! `bgq-bench gate` compares at zero tolerance, at small p, against
//! `results/BENCH_scale_gate.json`.

use crate::Figure;
use bgq_bench::scale::{self, Point, DEFAULT_PROCS};
use bgq_bench::Kind::{List, Path};
use bgq_bench::{Args, Flag};
use desim::{memprof, Observe};

pub const FIGURE: Figure = Figure {
    name: "fig_scale",
    about: "memory and throughput scaling of lazily materialized rank state to p=1M",
    flags: &[
        Flag(
            "--procs",
            List(&DEFAULT_PROCS, 1),
            "comma-separated process counts",
        ),
        Flag("--json", Path, "write the full scale-v3 JSON document"),
        Flag(
            "--gate-json",
            Path,
            "write the deterministic scale-gate-v2 JSON document",
        ),
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
    let ops = 1; // fetch-and-adds per requester / all-to-all rounds
    let active = 256; // alltoall active set, capped at p
    let storm_msgs = 100_000; // netstorm schedule length

    memprof::enable();
    println!(
        "fig_scale: p = {procs:?}, ops = {ops}, active = {active} (serial sweep)\n\
         {:<9} {:>9} {:>12} {:>12} {:>11} {:>10} {:>11} {:>12}",
        "workload", "p", "sim_ms", "events", "materialized", "tasks", "rss_mb", "events/s"
    );
    let row = |name: &str, pt: Point| {
        println!(
            "{:<9} {:>9} {:>12.3} {:>12} {:>11} {:>10} {:>11.1} {:>12.0}",
            name,
            pt.procs,
            pt.sim_time_ps as f64 / 1e9,
            pt.events,
            pt.materialized,
            pt.task_slots,
            pt.peak_rss_kb as f64 / 1024.0,
            pt.events_per_sec()
        );
        pt
    };
    let (mut rmw, mut a2a) = (Vec::new(), Vec::new());
    for &p in &procs {
        rmw.push(row(
            "fig9_rmw",
            scale::fig9_rmw(p, ops, Observe::default()).0,
        ));
        a2a.push(row("alltoall", scale::alltoall(p, active, ops)));
    }
    // netstorm: points run serially after the memory sweep.
    println!(
        "netstorm: msgs = {storm_msgs}\n\
         {:<9} {:>9} {:>12} {:>12} {:>11} {:>12}",
        "workload", "p", "sim_ms", "events", "wall_ms", "events/s"
    );
    let storm: Vec<Point> = procs
        .iter()
        .map(|&p| {
            let (pt, _) = scale::net_churn(p, storm_msgs, None, Observe::default());
            println!(
                "{:<9} {:>9} {:>12.3} {:>12} {:>11.1} {:>12.0}",
                "netstorm",
                pt.procs,
                pt.sim_time_ps as f64 / 1e9,
                pt.events,
                pt.wall_ms,
                pt.events_per_sec()
            );
            pt
        })
        .collect();
    let doc = |gate| scale::scale_json(&rmw, &a2a, &storm, ops, active, storm_msgs, gate);
    args.write("--json", || doc(false));
    args.write("--gate-json", || doc(true));
}
