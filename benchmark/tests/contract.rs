//! The benchmark against its own contract, at `--quick` sizes: the names in
//! `BENCHMARK.json` are the names the binary emits, every workload repeats
//! exactly, and a full run writes what `compare` reads.

use std::path::PathBuf;
use std::process::Command;

use bgq_perf::spec::{
    counts_agree, reported_on, COUNTS, END_TO_END, LADDER, PER_WORKLOAD, WORKLOADS,
};
use desim::json::{self, JsonValue};

fn bgq_perf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bgq-perf"))
        .args(args)
        .output()
        .expect("bgq-perf runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn last_line_json(stdout: &str) -> JsonValue {
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn keys(v: &JsonValue) -> Vec<String> {
    match v {
        JsonValue::Obj(kv) => kv.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Arr(v)) => v,
        other => panic!("'{key}' is not a list: {other:?}"),
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {v:?}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn benchmark_json() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_lists_the_names_the_code_uses() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    // fail_share is always 0, which the driver's contract does not take as a
    // metric: it travels as failed/attempted and only a full run prints it.
    let listed: Vec<(&str, &str, &str)> = list(&doc, "end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let direction = |higher| if higher { "higher" } else { "lower" };
    let ours: Vec<(&str, &str, &str)> = END_TO_END[..4]
        .iter()
        .map(|m| (m.name, m.unit, direction(m.higher_is_better)))
        .collect();
    assert_eq!(listed, ours);
    assert_eq!(END_TO_END[4].name, "fail_share");
    for m in list(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let listed: Vec<(&str, &str, &str)> = list(&doc, "per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let ours: Vec<(&str, &str, &str)> = LADDER
        .iter()
        .chain(&PER_WORKLOAD)
        .map(|m| (m.name, m.unit, direction(m.higher_is_better)))
        .collect();
    assert_eq!(listed, ours);
    assert_eq!(ours.len(), 51);
    assert!(ours.iter().all(|(n, _, _)| well_formed(n)));
    assert!(workloads.iter().all(|n| well_formed(n)));
    for (count, _) in COUNTS {
        assert!(PER_WORKLOAD.iter().any(|m| m.name == count), "{count}");
    }
}

#[test]
fn driver_form_emits_exactly_the_listed_metrics() {
    let (ok, stdout) = bgq_perf(&[
        "--workload",
        "rma_mix",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--quick",
    ]);
    assert!(ok, "{stdout}");
    let result = last_line_json(&stdout);
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    let metrics = result.get("metrics").expect("metrics");
    let names: Vec<&str> = END_TO_END[..4].iter().map(|m| m.name).collect();
    assert_eq!(keys(metrics), names);
    for m in &END_TO_END[..4] {
        let v = metrics.get(m.name).expect("listed");
        assert_eq!(field(v, "unit"), m.unit);
        assert!(
            v.get("value")
                .and_then(JsonValue::as_f64)
                .expect("a number")
                > 0.0
        );
    }

    let (ok, stdout) = bgq_perf(&[
        "--workload",
        "rma_mix",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--quick",
    ]);
    assert!(ok, "{stdout}");
    let result = last_line_json(&stdout);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    let metrics = result.get("metrics").expect("metrics");
    let names: Vec<&str> = LADDER.iter().chain(&PER_WORKLOAD).map(|m| m.name).collect();
    assert_eq!(keys(metrics), names);
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{name} has no value"))
    };
    assert_eq!(value("pami.materialized"), 16.0);
    assert!(value("desim.events_per_op") > 1.0);
    assert!(value("torus5d.msgs_per_op") > 1.0);
    assert!(value("armci.rmw_ns") > 0.0);

    // Bad input is an error, not a panic and not a result.
    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "rma_mix", "--seconds", "1"],
        &["--workload", "rma_mix", "--seed", "x", "--seconds", "1"],
        &["frobnicate"],
    ] {
        let (ok, stdout) = bgq_perf(bad);
        assert!(!ok && stdout.is_empty(), "{bad:?}: {stdout}");
    }
}

#[test]
fn every_workload_repeats_exactly_and_bypasses_what_it_says() {
    // Everything a child reports except host time and memory.
    const FIELDS: [&str; 11] = [
        "ops",
        "ops_failed",
        "checks",
        "checks_failed",
        "sim_time_ps",
        "allocs",
        "alloc_bytes",
        "events",
        "net_msgs",
        "materialized",
        "induced_fences",
    ];
    for w in WORKLOADS {
        let run = |seed: &str| {
            let (ok, stdout) = bgq_perf(&["child", w, "--seed", seed, "--trace", "--quick"]);
            assert!(ok, "{w}: {stdout}");
            let doc = last_line_json(&stdout);
            FIELDS.map(|k| doc.get(k).and_then(JsonValue::as_f64).expect("a count"))
        };
        let (a, b, other_seed) = (run("5"), run("5"), run("6"));
        for (i, field) in FIELDS.iter().enumerate() {
            // Allocations and kernel events may move by a few in a million
            // (see `spec::COUNTS`); everything else repeats exactly.
            let tolerance = match *field {
                "allocs" | "alloc_bytes" | "events" => 1e-4,
                _ => 0.0,
            };
            assert!(
                counts_agree(a[i], b[i], tolerance),
                "{w}: {field} {} then {}",
                a[i],
                b[i]
            );
        }
        let [ops, ops_failed, checks, checks_failed, _, allocs, _, events, net_msgs, ..] = a;
        assert!(ops > 0.0 && checks > 0.0 && allocs > 0.0, "{w}: {a:?}");
        assert_eq!((ops_failed, checks_failed), (0.0, 0.0), "{w}");
        assert_eq!(other_seed[1] + other_seed[3], 0.0, "{w} with another seed");
        // A bypassed layer does nothing at all.
        let on = |metric: &str| reported_on(metric).is_some_and(|ws| ws.contains(&w));
        assert_eq!(
            events > 0.0,
            on("desim.events_per_op"),
            "{w}: events {events}"
        );
        assert_eq!(
            net_msgs > 0.0,
            on("torus5d.msgs_per_op") || w == "net_storm",
            "{w}: messages {net_msgs}"
        );
    }
}

#[test]
fn full_run_prints_every_metric_and_compare_reads_it() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = |name: &str| tmp.join(name).to_str().expect("utf-8 path").to_string();
    let (a, b, trace) = (path("a.json"), path("b.json"), path("trace.json"));
    for out in [&a, &b] {
        let (ok, stdout) = bgq_perf(&[
            "run", "--quick", "--reps", "1", "--seed", "1", "--out", out, "--trace", &trace,
        ]);
        assert!(ok, "{stdout}");
        assert!(stdout.contains("0 failed"), "{stdout}");
    }
    let doc = json::parse(&std::fs::read_to_string(&a).expect("run.json written")).expect("JSON");
    for key in ["commit", "rustc", "nproc", "cpu", "loadavg_at_start"] {
        assert!(
            doc.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }
    let names = |section: &str| -> Vec<String> {
        list(&doc, section)
            .iter()
            .map(|r| field(r, "name").to_string())
            .collect()
    };
    let (e2e, layers) = (names("end_to_end"), names("per_layer"));
    assert_eq!(e2e.len(), 5 * 6);
    assert_eq!(layers.len(), 83);
    assert!(e2e.iter().chain(&layers).all(|n| well_formed(n)));
    for m in &END_TO_END {
        for w in WORKLOADS {
            assert!(e2e.contains(&format!("{}.{w}", m.name)));
        }
    }
    let value = |name: &str| {
        list(&doc, "per_layer")
            .iter()
            .find(|r| field(r, "name") == name)
            .and_then(|r| r.get("median"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("no row {name}"))
    };
    assert_eq!(value("pami.materialized.rmw_sparse"), 32.0);
    assert_eq!(value("pami.materialized.rmw_dense"), 2048.0);
    assert!(!layers.contains(&"desim.events_per_op.net_storm".to_string()));
    let chrome = std::fs::read_to_string(&trace).expect("trace written");
    let chrome = json::parse(&chrome).expect("Chrome trace is JSON");
    assert!(list(&chrome, "traceEvents").len() > 100);

    // Two runs of one commit agree on every count. (Whether their timings
    // agree is the host's business at these sizes; the verdict rules have
    // their own test in compare.rs.)
    let (_, table) = bgq_perf(&["compare", &a, &b]);
    assert!(table.contains("same count"), "{table}");
    assert!(!table.contains("COUNT DIFFERS"), "{table}");
    assert!(!table.contains("missing from B"), "{table}");
    assert!(
        table.ends_with("PASS\n") || table.ends_with("FAIL\n"),
        "{table}"
    );
    let (ok, table) = bgq_perf(&["compare", &a, &a]);
    assert!(table.contains("ops_per_s.kernel_churn"), "{table}");
    // A run compared with itself can only fail by being too noisy to tell.
    assert!(ok || table.contains("unresolved"), "{table}");
}
