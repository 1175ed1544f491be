//! Bad command lines are usage errors, never silent defaults or panics.
//!
//! `bgq-bench` parses every figure's options through its `Flag` table into
//! `bgq_bench::Args` before the figure runs; a missing, unparsable or
//! out-of-range value must print one `<figure>: ...` line plus the usage text
//! on stderr, exit 2, and leave no artifact behind — the same path an unknown
//! option takes.

use std::path::Path;
use std::process::Command;

/// Run `bgq-bench <bin> --json <tmp> args` and require the usage-error exit
/// of [`assert_rejected_plain`] with no JSON written.
fn assert_rejected(bin: &str, args: &[&str], message: &str) {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "cli_{bin}_{}.json",
        args.join("_").replace(',', "-")
    ));
    let _ = std::fs::remove_file(&json);
    let json_arg = json.to_str().expect("utf-8 temp path");
    assert_rejected_plain(bin, &[&["--json", json_arg], args].concat(), message);
    assert!(!json.exists(), "{bin} {args:?}: wrote a JSON artifact");
}

/// Run `bgq-bench <bin> args` (for figures with no `--json` flag) and
/// require the usage-error exit: status 2, `<bin>: <message>` as the first
/// stderr line, usage after it, empty stdout.
fn assert_rejected_plain(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_bgq-bench"))
        .arg(bin)
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
fn process_counts_no_torus_holds_are_rejected() {
    // 1048592 ranks at 16 per node are 65537 nodes, a prime no 16-bit torus
    // dimension holds: the shape used to truncate it to one node and panic
    // at the first delivery. 99999999999 ranks overflow 32-bit rank ids and
    // used to panic in the rank map.
    assert_rejected(
        "fig_scale",
        &["--procs", "1048592"],
        "invalid value '1048592' for --procs: no 5D torus holds 1048592 ranks at 16 per node",
    );
    assert_rejected(
        "fig9_rmw",
        &["--procs", "99999999999", "--ops", "1"],
        "invalid value '99999999999' for --procs: no 5D torus holds 99999999999 ranks at 16 per node",
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

    // A zero count used to print NaN or empty tables.
    let zero = |flag: &str| format!("invalid value '0' for {flag}");
    for (bin, flag) in [
        ("fig9_rmw", "--ops"),
        ("fig_am", "--msgs"),
        ("fig11_nwchem_scf", "--iters"),
    ] {
        assert_rejected(bin, &[flag, "0"], &zero(flag));
    }
    // Used to be clamped to 1 without a word.
    assert_rejected_plain("simstat", &["--width", "0"], &zero("--width"));
}

#[test]
fn a_figure_configuration_is_not_an_option() {
    // Figures 3-8 and the ablations run the paper's configuration only.
    assert_rejected_plain(
        "fig4_bandwidth",
        &["--reps", "1"],
        "unknown option '--reps'",
    );
}

#[test]
fn perfdiff_rejects_negative_tolerances() {
    // A negative slack used to report drift between identical documents.
    let doc = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_fig_am.json"
    );
    for (flag, v) in [("--tol", "-0.001"), ("--abs", "-1")] {
        assert_rejected_plain(
            "perfdiff",
            &[flag, v, doc, doc],
            &format!("invalid value '{v}' for {flag}"),
        );
    }
}
