//! Fig 11's critical path at p = 256, complete.
//!
//! One SCF iteration at p = 256 attributes about 14 M lifecycle segments
//! per progress mode, more than a capped log of 1<<22 records keeps. The
//! breakdown below is the analyzer's answer over every interval; a recorder
//! that drops the tail of the run reports a far smaller D-mode starvation
//! share. The run takes about 20 s in release, so it is `#[ignore]`d here
//! and run in CI: `cargo test --release -p bgq-bench --test
//! breakdown_reference -- --ignored`.

use std::path::PathBuf;
use std::process::Command;

/// The `--breakdown` document of `fig11_nwchem_scf --procs 256 --iters 1`.
const REFERENCE: &str = concat!(
    r#"{"bench":"fig11_nwchem_scf","p":256,"configs":{"#,
    r#""D":{"total_ps":55651205809,"terminal_rank":166,"ops_on_path":1275,"#,
    r#""breakdown_ps":{"compute":28116777287,"queueing":1134761827,"#,
    r#""wire":6410876258,"contention":0,"starvation":19988790437,"retry":0},"#,
    r#""links":[]},"#,
    r#""AT":{"total_ps":38814765087,"terminal_rank":141,"ops_on_path":1349,"#,
    r#""breakdown_ps":{"compute":29104137147,"queueing":1107571985,"#,
    r#""wire":8496521922,"contention":0,"starvation":106534033,"retry":0},"#,
    r#""links":[]}}}"#,
    "\n"
);

#[test]
#[ignore = "full size: run with --release -- --ignored"]
fn fig11_breakdown_at_p256_covers_the_whole_run() {
    let mut path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    path.push("fig11_p256.breakdown.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bgq-bench"))
        .args([
            "fig11_nwchem_scf",
            "--procs",
            "256",
            "--iters",
            "1",
            "--jobs",
            "1",
        ])
        .arg("--breakdown")
        .arg(&path)
        .output()
        .expect("spawn bgq-bench");
    assert!(
        out.status.success(),
        "fig11_nwchem_scf failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&path).expect("breakdown written");
    assert_eq!(got, REFERENCE);
}
