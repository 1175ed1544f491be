//! Bad command lines are usage errors, never silent defaults or panics.
//!
//! Every bench binary parses its options through `bgq_bench::check_args` and
//! the `arg_*` helpers; a missing, unparsable or too-small value must print
//! one `<bin>: ...` line plus the usage text on stderr, exit 2, and leave no
//! artifact behind — the same path an unknown option takes.

use std::path::Path;
use std::process::Command;

/// Run `<bin> --json <tmp> args` and require the usage-error exit: status
/// 2, `<bin>: <message>` as the first stderr line, usage after it, empty
/// stdout, no JSON written.
fn assert_rejected(bin_path: &str, args: &[&str], message: &str) {
    let bin = Path::new(bin_path)
        .file_name()
        .and_then(|n| n.to_str())
        .expect("binary path has a UTF-8 file name");
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "cli_{bin}_{}.json",
        args.join("_").replace(',', "-")
    ));
    let _ = std::fs::remove_file(&json);
    let out = Command::new(bin_path)
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
        lines.any(|l| l.starts_with(&format!("usage: {bin}"))),
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
    let bin = env!("CARGO_BIN_EXE_fig9_rmw");
    let cases: [(&[&str], &str); 8] = [
        (&["--procs", "abc"], "invalid value 'abc' for --procs"),
        (&["--procs", "2,,8"], "invalid value '' for --procs"),
        (&["--procs", "2,x"], "invalid value 'x' for --procs"),
        (&["--ops", "1o"], "invalid value '1o' for --ops"),
        (&["--procs", "0"], "invalid value '0' for --procs"),
        (&["--procs", "1"], "invalid value '1' for --procs"),
        (&["--procs"], "missing value for --procs"),
        (&["--workers", "2"], "unknown option '--workers'"),
    ];
    for (args, message) in cases {
        assert_rejected(bin, args, message);
    }
}

#[test]
fn process_count_floors_are_per_experiment() {
    // `--procs 0` used to reach `Machine::new`'s assertion; small counts hit
    // each benchmark's own (fan-out stride, two nodes of 16 ranks).
    assert_rejected(
        env!("CARGO_BIN_EXE_fig_fault"),
        &["--procs", "16"],
        "invalid value '16' for --procs",
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_fig_am"),
        &["--procs", "16"],
        "invalid value '16' for --procs",
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_fig11_nwchem_scf"),
        &["--quick", "--procs", "32,0"],
        "invalid value '0' for --procs",
    );
}
