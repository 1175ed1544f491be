//! The regression gate runs under tier-1: `bgq-bench gate` reruns every
//! quick configuration of its table and diffs the documents against the
//! committed `results/BENCH_*` goldens, and every figure's stdout that has
//! a committed `results/*.txt` against that text. A change that moves a
//! virtual-time leaf or a printed figure fails here, not only in CI.

use std::path::Path;
use std::process::Command;

#[test]
fn gate_passes_from_the_workspace_root() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_bgq-bench"))
        .arg("gate")
        .current_dir(&root)
        .output()
        .expect("spawn bgq-bench gate");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("ok ")).count(), 31);
    assert!(stdout.contains("gate passed: 31 rows"), "{stdout}");
}
