//! End-to-end determinism gate for the parallel sweep harness.
//!
//! Every figure must produce byte-identical stdout and JSON artifacts
//! regardless of `--jobs`: the harness parallelizes across *whole*
//! simulations and reassembles results by input index, so worker count can
//! never leak into the output. These tests run the real `bgq-bench`
//! executable (quick configurations) at `--jobs 1` and `--jobs 4` and diff
//! everything.

use std::path::PathBuf;
use std::process::Command;

/// Run figure `bin` with `args` plus `--jobs <jobs>`, capturing stdout. Each
/// flag in `docs` (e.g. `--json`) is appended with a temp path, and the
/// documents written there are returned alongside stdout, in `docs` order.
fn run(bin: &str, args: &[&str], jobs: usize, tag: &str, docs: &[&str]) -> (String, Vec<String>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgq-bench"));
    cmd.arg(bin).args(args);
    cmd.arg("--jobs").arg(jobs.to_string());
    let paths: Vec<PathBuf> = docs
        .iter()
        .map(|flag| {
            let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
            p.push(format!("det_{tag}{}_j{jobs}.json", flag.replace('-', "_")));
            cmd.arg(flag).arg(&p);
            p
        })
        .collect();
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let bodies = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display())))
        .collect();
    (stdout, bodies)
}

/// Strip lines that legitimately differ between invocations (the `wrote
/// <path>` echo names the per-jobs temp file).
fn stable_stdout(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("wrote "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Drop the `peak_rss_kb` splice from a JSON artifact. The field is host
/// context by design — ungated in perfdiff (candidate-only leaf) and
/// excluded from the byte-identity contract here, because the OS high-water
/// mark legitimately varies with worker count and allocator timing.
fn stable_json(s: &str) -> String {
    match s.find(",\"peak_rss_kb\":") {
        Some(i) => {
            let tail = &s[i + ",\"peak_rss_kb\":".len()..];
            let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
            format!("{}{}", &s[..i], &tail[digits..])
        }
        None => s.to_string(),
    }
}

/// Run `bin args` at `--jobs 1` and `--jobs 4`: stdout and every document
/// `docs` names (`peak_rss_kb` excepted) must be byte-identical. Returns the
/// `--jobs 1` documents, in `docs` order, for schema checks.
fn assert_jobs_invariant(bin: &str, args: &[&str], tag: &str, docs: &[&str]) -> Vec<String> {
    let (out1, docs1) = run(bin, args, 1, tag, docs);
    let (out4, docs4) = run(bin, args, 4, tag, docs);
    assert_eq!(
        stable_stdout(&out1),
        stable_stdout(&out4),
        "{tag} stdout must not depend on --jobs"
    );
    for ((flag, a), b) in docs.iter().zip(&docs1).zip(&docs4) {
        assert_eq!(
            stable_json(a),
            stable_json(b),
            "{tag} {flag} must not depend on --jobs (peak_rss_kb excepted)"
        );
    }
    docs1
}

#[test]
fn fig4_bandwidth_is_jobs_invariant() {
    assert_jobs_invariant("fig4_bandwidth", &[], "fig4", &[]);
}

#[test]
fn fig9_rmw_is_jobs_invariant() {
    let bin = "fig9_rmw";
    let docs = ["--json", "--breakdown", "--trace"];
    let out = assert_jobs_invariant(bin, &["--procs", "2,8", "--ops", "3"], "fig9", &docs);
    assert!(
        out[0].contains("\"peak_rss_kb\":"),
        "host-context RSS field missing from fig9 JSON"
    );
    assert!(out[1].contains("\"configs\":"), "breakdown configs missing");
    assert!(out[2].contains("\"traceEvents\":"), "trace events missing");
}

#[test]
fn fig11_nwchem_scf_is_jobs_invariant() {
    let bin = "fig11_nwchem_scf";
    let docs = ["--json", "--breakdown", "--timeline"];
    let out = assert_jobs_invariant(bin, &["--quick", "--procs", "32,64"], "fig11", &docs);
    assert!(out[2].contains("\"schema\":\"timeline-v1\""));
}

#[test]
fn fig_fault_is_jobs_invariant() {
    // The golden configuration: rate-0 and faulted cells side by side.
    let bin = "fig_fault";
    let args = [
        "--procs",
        "32",
        "--msgs",
        "8",
        "--sizes",
        "4096,65536",
        "--fault-rate",
        "0,5000",
    ];
    let out = assert_jobs_invariant(bin, &args, "fig_fault", &["--json", "--timeline"]);
    assert!(out[0].contains("\"schema\":\"fault-v1\""));
    assert!(out[1].contains("\"schema\":\"timeline-v1\""));
}

#[test]
fn fig9_rmw_timeline_is_jobs_invariant_and_repeatable() {
    // The timeline-v1 artifact must be byte-identical across worker counts
    // and across repeated invocations — it feeds a zero-tolerance perfdiff
    // gate in CI.
    let bin = "fig9_rmw";
    let run_tl = |jobs: &str, tag: &str| -> String {
        let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        p.push(format!("det_fig9_tl_{tag}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_bgq-bench"))
            .arg(bin)
            .args(["--procs", "2,8", "--ops", "3", "--jobs", jobs, "--timeline"])
            .arg(&p)
            .output()
            .expect("spawn fig9_rmw");
        assert!(
            out.status.success(),
            "fig9_rmw --timeline failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    let j1 = run_tl("1", "j1");
    let j4 = run_tl("4", "j4");
    let j4_again = run_tl("4", "j4_again");
    assert_eq!(j1, j4, "timeline JSON must not depend on --jobs");
    assert_eq!(j4, j4_again, "timeline JSON must be repeatable");
    assert!(j1.contains("\"schema\":\"timeline-v1\""));
    // All four configurations recorded at the smallest p.
    for run_name in ["\"D\"", "\"AT\"", "\"D+compute\"", "\"AT+compute\""] {
        assert!(j1.contains(run_name), "missing run {run_name}");
    }
    assert!(j1.contains("\"pami.queue_depth\""), "gauge series missing");
    assert!(j1.contains("\"net.msgs\""), "counter series missing");
}

#[test]
fn fig_am_is_jobs_invariant() {
    // Every am-v1 field — AM rates, wire counts, lifecycle attribution — must
    // be byte-identical whether the sweep runs serially or on 4 harness
    // workers.
    let bin = "fig_am";
    let args = ["--procs", "32", "--msgs", "16", "--sizes", "8,64"];
    let out = assert_jobs_invariant(bin, &args, "fig_am", &["--json", "--timeline"]);
    let json = &out[0];
    assert!(json.contains("\"schema\":\"am-v1\""));
    assert!(json.contains("\"best_speedup\""));
    assert!(
        json.contains("\"am_aggr_wait_ps\""),
        "lifecycle attribution missing from am-v1 JSON"
    );
    assert!(out[1].contains("\"schema\":\"timeline-v1\""));
}
