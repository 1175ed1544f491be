//! `bgq-bench gate` — the regression gate, as data.
//!
//! [`GATE`] is the one list of what is gated: which figure, at which quick
//! configuration, writes which document, compared against which committed
//! golden under `results/` at which tolerance. The verb runs each
//! configuration as a child of this executable (a fresh process per figure,
//! as a user would run it), leaves the candidates under `target/gate/` and
//! diffs them in-process. Run it from the workspace root. No golden is ever
//! written here: a row that fails on purpose is landed by regenerating its
//! golden with the row's own command line.

use crate::Figure;
use bgq_bench::perfdiff::{diff, Drift, Tolerance};
use std::process::Command;

/// One gated document.
#[derive(Clone, Copy)]
struct Row {
    figure: &'static str,
    /// The quick configuration the golden was generated with.
    args: &'static str,
    /// The option that makes the figure write the gated JSON document;
    /// [`STDOUT`] gates its stdout, byte for byte, against committed text.
    flag: &'static str,
    /// File name of the golden under `results/`.
    golden: &'static str,
    tol: Tolerance,
}

const STDOUT: &str = "";

/// Virtual-time documents are deterministic to the last digit: the slack
/// only absorbs the decimal round trip of non-integer leaves.
const EXACT: Tolerance = Tolerance {
    rel: 0.0,
    abs: 1e-9,
};

/// Allocation byte counts drift with the compiler and std version, so they
/// get a loose band; the schema, tag set and growth classes of the document
/// are keys and strings, which compare exactly at any tolerance.
const HOST_BYTES: Tolerance = Tolerance {
    rel: 0.35,
    abs: 8192.0,
};

const FIG9: &str = "--procs 2,8,32 --ops 5";
const FIG11: &str = "--quick --procs 32";
const FAULT: &str = "--procs 32 --msgs 8 --sizes 4096,65536 --fault-rate 0,5000";
// The golden carries the smallest-p `desim.timeline` allocation tag, so the
// run must record a timeline too (it lands beside the candidates).
const MEM: &str = "--timeline target/gate/fig_mem.timeline.json";

// One row per line, whatever its width: this is the table people read.
#[rustfmt::skip]
const GATE: &[Row] = &[
    Row { figure: "fig9_rmw", args: FIG9, flag: "--json", golden: "BENCH_fig9_rmw.json", tol: EXACT },
    Row { figure: "fig9_rmw", args: FIG9, flag: "--breakdown", golden: "BENCH_fig9_rmw.breakdown.json", tol: EXACT },
    Row { figure: "fig9_rmw", args: FIG9, flag: "--timeline", golden: "BENCH_fig9_rmw.timeline.json", tol: EXACT },
    Row { figure: "fig9_rmw", args: FIG9, flag: "--trace", golden: "BENCH_fig9_rmw.trace.json", tol: EXACT },
    Row { figure: "fig9_rmw", args: FIG9, flag: STDOUT, golden: "BENCH_fig9_rmw.txt", tol: EXACT },
    Row { figure: "fig11_nwchem_scf", args: FIG11, flag: "--json", golden: "BENCH_fig11_nwchem_scf.json", tol: EXACT },
    Row { figure: "fig11_nwchem_scf", args: FIG11, flag: "--breakdown", golden: "BENCH_fig11_nwchem_scf.breakdown.json", tol: EXACT },
    Row { figure: "fig11_nwchem_scf", args: FIG11, flag: "--timeline", golden: "BENCH_fig11_nwchem_scf.timeline.json", tol: EXACT },
    Row { figure: "fig11_nwchem_scf", args: FIG11, flag: STDOUT, golden: "BENCH_fig11_nwchem_scf.txt", tol: EXACT },
    Row { figure: "fig_fault", args: FAULT, flag: "--json", golden: "BENCH_fig_fault.json", tol: EXACT },
    Row { figure: "fig_fault", args: FAULT, flag: "--timeline", golden: "BENCH_fig_fault.timeline.json", tol: EXACT },
    Row { figure: "fig_fault", args: FAULT, flag: STDOUT, golden: "BENCH_fig_fault.txt", tol: EXACT },
    Row { figure: "fig_am", args: "", flag: "--json", golden: "BENCH_fig_am.json", tol: EXACT },
    Row { figure: "fig_am", args: "", flag: "--timeline", golden: "BENCH_fig_am.timeline.json", tol: EXACT },
    Row { figure: "fig_am", args: "", flag: STDOUT, golden: "BENCH_fig_am.txt", tol: EXACT },
    Row { figure: "fig_scale", args: "--procs 32,1024,32768", flag: "--gate-json", golden: "BENCH_scale_gate.json", tol: EXACT },
    Row { figure: "fig_mem", args: MEM, flag: "--json", golden: "BENCH_memscale.json", tol: HOST_BYTES },
    // abl_mapping is the only run above unit level on a non-default mapping
    // (TABCDE); fig7 resolves every rank of its partition.
    Row { figure: "abl_mapping", args: "", flag: STDOUT, golden: "abl_mapping.txt", tol: EXACT },
    Row { figure: "fig7_rank_latency", args: "", flag: STDOUT, golden: "fig7_rank_latency.txt", tol: EXACT },
    // The software path: sw_get against an idle and a busy target, the packed
    // get against the chunk train, and nbacc's AccF64 service.
    Row { figure: "abl_fallback", args: "", flag: STDOUT, golden: "abl_fallback.txt", tol: EXACT },
    Row { figure: "abl_strided_pack", args: "", flag: STDOUT, golden: "abl_strided_pack.txt", tol: EXACT },
    Row { figure: "abl_consistency", args: "", flag: STDOUT, golden: "abl_consistency.txt", tol: EXACT },
    // Every other figure with a committed text golden, at its defaults.
    Row { figure: "table2_attributes", args: "", flag: STDOUT, golden: "table2_attributes.txt", tol: EXACT },
    Row { figure: "fig3_latency", args: "", flag: STDOUT, golden: "fig3_latency.txt", tol: EXACT },
    Row { figure: "fig4_bandwidth", args: "", flag: STDOUT, golden: "fig4_bandwidth.txt", tol: EXACT },
    Row { figure: "fig5_latency_per_byte", args: "", flag: STDOUT, golden: "fig5_latency_per_byte.txt", tol: EXACT },
    Row { figure: "fig6_efficiency", args: "", flag: STDOUT, golden: "fig6_efficiency.txt", tol: EXACT },
    Row { figure: "fig8_strided", args: "", flag: STDOUT, golden: "fig8_strided.txt", tol: EXACT },
    Row { figure: "abl_contexts", args: "", flag: STDOUT, golden: "abl_contexts.txt", tol: EXACT },
    Row { figure: "abl_region_cache", args: "", flag: STDOUT, golden: "abl_region_cache.txt", tol: EXACT },
    Row { figure: "abl_contention", args: "", flag: STDOUT, golden: "abl_contention.txt", tol: EXACT },
];

impl Row {
    /// `target/gate/<golden name without its BENCH_ prefix>`.
    fn candidate_path(&self) -> String {
        format!("target/gate/{}", self.golden.trim_start_matches("BENCH_"))
    }

    /// Compare a candidate against the golden: the number of leaves (or text
    /// lines) compared and the leaf that drifted furthest, or a message
    /// naming the row and every violation.
    fn check(&self, golden: &str, candidate: &str) -> Result<(usize, Option<Drift>), String> {
        let name = self.golden;
        let violations = if self.flag == STDOUT {
            if golden == candidate {
                return Ok((golden.lines().count(), None));
            }
            let kept = self.candidate_path();
            vec![format!(
                "stdout is not the committed text; diff it with {kept}"
            )]
        } else {
            let parse = |what: &str, src: &str| {
                desim::json::parse(src).map_err(|e| format!("{name}: {what}: invalid JSON: {e}"))
            };
            let (golden, candidate) = (parse("golden", golden)?, parse("candidate", candidate)?);
            let res = diff(&golden, &candidate, self.tol);
            if res.ok() {
                return Ok((res.checked, res.max_drift));
            }
            res.violations
        };
        Err(format!(
            "FAIL results/{name} (bgq-bench {} {}): {} violation(s)\n  DRIFT {}",
            self.figure,
            self.args,
            violations.len(),
            violations.join("\n  DRIFT ")
        ))
    }

    /// The line a passing row prints. A row with a tolerance also names its
    /// largest relative drift, so a golden going stale inside its band
    /// shows in every run.
    fn ok_line(&self, compared: usize, drift: Option<&Drift>) -> String {
        let golden = format!("results/{}", self.golden);
        let mut line = format!(
            "ok   {golden:<48} {compared:>5} compared (tol {})",
            self.tol.rel
        );
        if self.tol.rel > 0.0 {
            match drift {
                Some(d) => line.push_str(&format!(" max drift {d}")),
                None => line.push_str(" max drift none"),
            }
        }
        line
    }
}

pub const GATE_VERB: Figure = Figure {
    name: "gate",
    about: "rerun the quick configurations and diff them against results/BENCH_* goldens\n\n\
     Run from the workspace root. Candidates are left under target/gate/.\n\
     exit status: 0 every row within tolerance, 1 a row drifted or its figure\n\
     failed, 2 a golden or candidate could not be read",
    flags: &[],
    run: |_| run(),
};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read {path}: {e} (run from the workspace root)");
        std::process::exit(2);
    })
}

fn run() {
    let exe = std::env::current_exe().expect("own executable path");
    std::fs::create_dir_all("target/gate").expect("create target/gate");
    let mut failures = 0;
    // Rows that share a configuration share one run of the figure.
    for group in GATE.chunk_by(|a, b| (a.figure, a.args) == (b.figure, b.args)) {
        let Row { figure, args, .. } = group[0];
        let mut cmd = Command::new(&exe);
        cmd.arg(figure).args(args.split_whitespace());
        for row in group.iter().filter(|row| row.flag != STDOUT) {
            cmd.arg(row.flag).arg(row.candidate_path());
        }
        let out = cmd.output().expect("spawn own executable");
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            eprintln!("FAIL bgq-bench {figure} {args}: {}\n{stderr}", out.status);
            failures += group.len();
            continue;
        }
        for row in group {
            if row.flag == STDOUT {
                std::fs::write(row.candidate_path(), &out.stdout).expect("write candidate");
            }
            let golden = format!("results/{}", row.golden);
            match row.check(&read(&golden), &read(&row.candidate_path())) {
                Ok((n, drift)) => println!("{}", row.ok_line(n, drift.as_ref())),
                Err(message) => {
                    eprintln!("{message}");
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("gate: {failures} of {} rows failed", GATE.len());
        std::process::exit(1);
    }
    println!(
        "gate passed: {} rows; candidates in target/gate/",
        GATE.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(golden: &str) -> &'static Row {
        GATE.iter()
            .find(|r| r.golden == golden)
            .expect("row exists")
    }

    #[test]
    fn doctored_leaf_fails_and_names_its_row() {
        let golden = r#"{"schema":"fault-v1","cells":[{"sim_time_ps":1000,"retries":3}]}"#;
        let exact = row("BENCH_fig_fault.json");
        assert_eq!(exact.check(golden, golden), Ok((4, None)));
        // A candidate-only leaf (peak_rss_kb) never gates.
        let extra = golden.replace("}]}", "}],\"peak_rss_kb\":7}");
        assert_eq!(exact.check(golden, &extra), Ok((4, None)));
        let doctored = golden.replace("1000", "1001");
        let err = exact.check(golden, &doctored).unwrap_err();
        assert!(err.contains("results/BENCH_fig_fault.json"), "{err}");
        assert!(err.contains("bgq-bench fig_fault --procs 32"), "{err}");
        assert!(err.contains("cells[0].sim_time_ps"), "{err}");
        // The memory row tolerates byte drift but not a changed class.
        let mem = row("BENCH_memscale.json");
        let golden = r#"{"tag":{"peak_bytes":100000,"class":"linear"}}"#;
        let doctored = |from: &str, to: &str| mem.check(golden, &golden.replace(from, to));
        assert_eq!(doctored("100000", "130000").map(|(n, _)| n), Ok(2));
        assert!(doctored("100000", "150000").is_err());
        assert!(doctored("linear", "quadratic").is_err());
        // Text rows are byte for byte.
        let text = row("abl_mapping.txt");
        assert_eq!(text.check("a\nb\n", "a\nb\n"), Ok((2, None)));
        let err = text.check("a\nb\n", "a\nc\n").unwrap_err();
        assert!(err.contains("results/abl_mapping.txt"), "{err}");
    }

    #[test]
    fn a_tolerance_row_names_its_largest_drift() {
        let mem = row("BENCH_memscale.json");
        let golden = r#"{"a":{"peak_bytes":64816,"allocs":5},"b":{"peak_bytes":190800}}"#;
        let stale = r#"{"a":{"peak_bytes":38000,"allocs":5},"b":{"peak_bytes":150888}}"#;
        let (n, drift) = mem.check(golden, stale).expect("inside the band");
        assert_eq!(n, 3);
        let line = mem.ok_line(n, drift.as_ref());
        assert!(line.ends_with("max drift -41.4 % a.peak_bytes"), "{line}");
        let (n, drift) = mem.check(golden, golden).unwrap();
        assert!(mem.ok_line(n, drift.as_ref()).ends_with("max drift none"));
        // An exact row prints no drift: any would have failed it.
        let exact = row("BENCH_fig_fault.json");
        assert!(!exact.ok_line(4, None).contains("drift"));
    }

    /// The figures whose stdout no row gates, each for a reason.
    const UNGATED_STDOUT: [&str; 2] = [
        // Prints allocator bytes, which its JSON row gates at HOST_BYTES.
        "fig_mem",
        // Prints wall time and RSS.
        "fig_scale",
    ];

    #[test]
    fn every_figure_stdout_is_gated_or_exempt_by_name() {
        for fig in crate::figures::FIGURES {
            let gated = GATE
                .iter()
                .any(|r| (r.figure, r.flag) == (fig.name, STDOUT));
            // Neither is an ungated figure; both, a stale exemption.
            let exempt = UNGATED_STDOUT.contains(&fig.name);
            assert_ne!(gated, exempt, "{}", fig.name);
        }
    }

    #[test]
    fn candidate_names_are_distinct() {
        // Or one row would read the file another wrote.
        let mut names: Vec<String> = GATE.iter().map(Row::candidate_path).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), GATE.len());
    }
}
