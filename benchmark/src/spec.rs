//! The benchmark's names: workloads and metrics, with units and
//! directions. `BENCHMARK.json` at the repository root lists the same names
//! (checked by `tests/contract.rs`) and owns the bounds.

use std::path::PathBuf;

use desim::json::{self, JsonValue};

/// The six workloads, in the order a full run cycles through them.
pub const WORKLOADS: [&str; 6] = [
    "kernel_churn",
    "net_storm",
    "rmw_dense",
    "rmw_sparse",
    "rma_mix",
    "scf_fock",
];

/// A metric's name, unit and whether higher values are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

/// End-to-end metrics, one value per workload, tracing off. `fail_share` is
/// always 0 on a correct run, so the driver's contract (no metric that reads
/// 0) sees it as `failed`/`attempted` and `BENCHMARK.json` lists the other
/// four.
pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "ops_per_s",
        unit: "op/s",
        higher_is_better: true,
    },
    lower("wall_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("fail_share", "ratio"),
];

/// Ladder metrics: host time per call into one layer, the same numbers
/// whichever workload the traced run is for.
pub const LADDER: [Metric; 37] = [
    lower("desim.sleep_ns", "ns"),
    lower("desim.chan_rtt_ns", "ns"),
    lower("desim.schedule_ns", "ns"),
    lower("desim.spawn_ns", "ns"),
    lower("torus5d.deliver_ns.hot", "ns"),
    lower("torus5d.deliver_ns.wide", "ns"),
    lower("torus5d.deliver_ns.uncontended", "ns"),
    lower("torus5d.netstate_new_us", "us"),
    lower("pami.rmw_ns", "ns"),
    lower("pami.get_ns", "ns"),
    lower("pami.put_ns", "ns"),
    lower("pami.acc_ns", "ns"),
    lower("pami.am_ns", "ns"),
    lower("pami.am_batched_ns", "ns"),
    lower("pami.materialize_ns", "ns"),
    lower("pami.machine_new_us", "us"),
    lower("armci.rmw_ns", "ns"),
    lower("armci.get_ns", "ns"),
    lower("armci.put_ns", "ns"),
    lower("armci.acc_ns", "ns"),
    lower("armci.get_strided_ns", "ns"),
    lower("armci.put_strided_ns", "ns"),
    lower("armci.get_miss_ns", "ns"),
    lower("armci.fence_ns", "ns"),
    lower("armci.new_us", "us"),
    lower("armci.self_ns.rmw", "ns"),
    lower("armci.self_ns.get", "ns"),
    lower("armci.self_ns.put", "ns"),
    lower("armci.self_ns.acc", "ns"),
    lower("ga.get_patch_ns", "ns"),
    lower("ga.acc_patch_ns", "ns"),
    lower("ga.counter_next_ns", "ns"),
    lower("ga.create_us", "us"),
    lower("ga.self_ns.get_patch", "ns"),
    lower("ga.self_ns.counter_next", "ns"),
    lower("scf.task_us", "us"),
    lower("scf.empty_iter_ms", "ms"),
];

/// Per-workload metrics of the traced run: exact counts and phase spans of
/// the workload the run is for. A full run prints each as `<name>.<workload>`
/// for the workloads where the layer runs at all.
pub const PER_WORKLOAD: [Metric; 14] = [
    lower("model.sim_time_ps", "ps"),
    lower("alloc.count_per_op", "1/op"),
    lower("alloc.bytes_per_op", "B/op"),
    lower("host.teardown_s", "s"),
    lower("host.retained_mb", "MB"),
    lower("desim.events_per_op", "1/op"),
    lower("torus5d.msgs_per_op", "1/op"),
    lower("pami.materialized", "count"),
    lower("pami.machine_new_s", "s"),
    lower("armci.new_s", "s"),
    lower("desim.spawn_s", "s"),
    Metric {
        name: "armci.region_hit_ratio",
        unit: "ratio",
        higher_is_better: true,
    },
    lower("armci.induced_fences_per_op", "1/op"),
    lower("trace.overhead_pct", "%"),
];

/// Per-workload metrics that are counts made by the program, with the
/// relative difference two runs of one commit may show. Simulated time,
/// messages, materialized ranks and induced fences repeat to the last digit.
/// Kernel events and allocations almost do: `armci` keeps outstanding writes
/// in a `std` `HashMap`, whose per-process random seed changes the order a
/// fence waits for them in, and with it a handful of polls and allocations in
/// millions (`rma_mix`, `scf_fock`). A change that really costs or saves an
/// event or an allocation per op moves these by far more than the tolerance.
pub const COUNTS: [(&str, f64); 7] = [
    ("model.sim_time_ps", 0.0),
    ("alloc.count_per_op", 1e-4),
    ("alloc.bytes_per_op", 1e-4),
    ("desim.events_per_op", 1e-4),
    ("torus5d.msgs_per_op", 0.0),
    ("pami.materialized", 0.0),
    ("armci.induced_fences_per_op", 0.0),
];

/// Whether two readings of a count agree within `tolerance` (relative).
pub fn counts_agree(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance * a.abs().max(b.abs())
}

/// The workloads on which a per-workload metric is reported by a full run
/// (`None` = all six): a layer a workload bypasses has no row there.
pub fn reported_on(metric: &str) -> Option<&'static [&'static str]> {
    match metric {
        "desim.events_per_op" => Some(&["kernel_churn", "rmw_dense", "rmw_sparse", "rma_mix"]),
        "torus5d.msgs_per_op" => Some(&["rmw_dense", "rmw_sparse", "rma_mix"]),
        "pami.materialized" => Some(&["rmw_dense", "rmw_sparse", "rma_mix"]),
        "pami.machine_new_s" | "armci.new_s" | "desim.spawn_s" => Some(&["rmw_dense"]),
        "armci.region_hit_ratio" | "armci.induced_fences_per_op" => Some(&["rma_mix"]),
        _ => None,
    }
}

/// Directory of the benchmark package in the checkout this binary was built
/// in (the binary is always run from that checkout).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(JsonValue::Arr(list)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{}: end_to_end entry without name/bound", path.display()))
        })
        .collect()
}
