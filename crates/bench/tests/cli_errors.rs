//! Bad command lines are usage errors, never silent defaults or panics.
//!
//! `bgq-bench` parses every figure's options through its `Flag` table into
//! `bgq_bench::Args` before the figure runs; a missing, unparsable or
//! out-of-range value must print one `<figure>: ...` line plus the usage text
//! on stderr, exit 2, and leave no artifact behind — the same path an unknown
//! option takes.

use std::path::Path;
use std::process::Command;

/// Run `bgq-bench <bin> --json <tmp> args` and require the usage-error exit:
/// status 2, `<bin>: <message>` as the first stderr line, usage after it,
/// empty stdout, no JSON written.
fn assert_rejected(bin: &str, args: &[&str], message: &str) {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "cli_{bin}_{}.json",
        args.join("_").replace(',', "-")
    ));
    let _ = std::fs::remove_file(&json);
    let out = Command::new(env!("CARGO_BIN_EXE_bgq-bench"))
        .arg(bin)
        .arg("--json")
        .arg(&json)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}:\n{stderr}");
    let mut lines = stderr.lines();
    assert_eq!(lines.next(), Some(format!("{bin}: {message}").as_str()));
    assert!(
        lines.any(|l| l.starts_with(&format!("usage: bgq-bench {bin}"))),
        "{bin} {args:?}: usage text missing:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{bin} {args:?}:\n{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?}: ran before rejecting"
    );
    assert!(!json.exists(), "{bin} {args:?}: wrote a JSON artifact");
}

#[test]
fn fig9_rmw_rejects_malformed_values() {
    let cases: [(&[&str], &str); 10] = [
        (&["--procs", "abc"], "invalid value 'abc' for --procs"),
        (&["--procs", "2,,8"], "invalid value '' for --procs"),
        (&["--procs", "2,x"], "invalid value 'x' for --procs"),
        (&["--ops", "1o"], "invalid value '1o' for --ops"),
        (&["--procs", "0"], "invalid value '0' for --procs"),
        (&["--procs", "1"], "invalid value '1' for --procs"),
        (&["--procs"], "missing value for --procs"),
        (&["--workers", "2"], "unknown option '--workers'"),
        // A flag is never swallowed as the value of the one before it:
        // `--breakdown --trace x` used to write a file named `--trace`.
        (
            &["--breakdown", "--trace", "x"],
            "missing value for --breakdown",
        ),
        (&["--timeline", "--help"], "missing value for --timeline"),
    ];
    for (args, message) in cases {
        assert_rejected("fig9_rmw", args, message);
    }
    assert!(!Path::new("--trace").exists());
}

#[test]
fn process_count_floors_are_per_experiment() {
    // `--procs 0` used to reach `Machine::new`'s assertion; small counts hit
    // each benchmark's own (fan-out stride, two nodes of 16 ranks).
    assert_rejected(
        "fig_fault",
        &["--procs", "16"],
        "invalid value '16' for --procs",
    );
    // Whole nodes only: 40 ranks used to reach the library's assertion.
    assert_rejected(
        "fig_fault",
        &["--procs", "40"],
        "invalid value '40' for --procs",
    );
    assert_rejected(
        "fig_am",
        &["--procs", "16"],
        "invalid value '16' for --procs",
    );
    assert_rejected(
        "fig11_nwchem_scf",
        &["--quick", "--procs", "32,0"],
        "invalid value '0' for --procs",
    );
}

#[test]
fn values_a_workload_cannot_run_are_rejected() {
    // Each used to reach a panic inside the run: a corruption probability
    // above one, a p99 over no puts, a payload that is not whole f64s, and
    // a round-robin over no destinations.
    let cases: [(&str, &[&str], &str); 4] = [
        (
            "fig_fault",
            &["--fault-rate", "0,2000000"],
            "invalid value '2000000' for --fault-rate",
        ),
        (
            "fig_fault",
            &["--msgs", "0"],
            "invalid value '0' for --msgs",
        ),
        (
            "fig_am",
            &["--sizes", "8,12"],
            "invalid value '12' for --sizes",
        ),
        (
            "fig_am",
            &["--fanout", "0"],
            "invalid value '0' for --fanout",
        ),
    ];
    for (bin, args, message) in cases {
        assert_rejected(bin, args, message);
    }
}
