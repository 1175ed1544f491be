//! The tool verbs of `bgq-bench`: `list`, `gate`, and the three report/diff
//! tools over the JSON documents the figures write.
//!
//! Exit status of every verb: 0 = done (for `perfdiff` and `gate`: within
//! tolerance), 1 = drift (`perfdiff`, `gate` only), 2 = usage or I/O error.

use crate::{figures::FIGURES, gate, Figure};
use bgq_bench::memscale::memstat_report;
use bgq_bench::perfdiff::{diff, Tolerance};
use bgq_bench::simstat::{diff_report, report};
use bgq_bench::Kind::{Num, Operands, Real, Switch};
use bgq_bench::{Args, Flag};
use desim::json::JsonValue;
use desim::TimelineDoc;

/// Every verb, in the order the top-level help prints them.
pub static VERBS: &[Figure] = &[LIST, gate::GATE_VERB, PERFDIFF, SIMSTAT, MEMSTAT];

const LIST: Figure = Figure {
    name: "list",
    about: "print the figure names, one per line",
    flags: &[],
    run: |_| FIGURES.iter().for_each(|f| println!("{}", f.name)),
};

const PERFDIFF: Figure = Figure {
    name: "perfdiff",
    about: "compare two metrics JSON documents within tolerances\n\n\
     Every leaf of the baseline must be in the candidate, of the same type, and\n\
     numeric leaves within |new - old| <= abs + tol * |old|. Candidate-only\n\
     leaves are reported as notes and never fail, so goldens stay\n\
     forward-compatible when new counters appear.\n\n\
     exit status:\n  \
     0  every baseline leaf present in the candidate and within tolerance\n  \
     1  regression: drift beyond tolerance, missing leaf, or type change\n  \
     2  usage or I/O error (bad flags, unreadable file, invalid JSON)",
    flags: &[
        Flag("--tol", Real(0.05), "relative tolerance, fraction"),
        Flag("--abs", Real(1e-9), "absolute slack per comparison"),
        Flag("--check", Switch, "quiet gate mode: print violations only"),
        Flag(
            "<baseline.json> <candidate.json>",
            Operands,
            "the two documents",
        ),
    ],
    run: perfdiff,
};

const SIMSTAT: Figure = Figure {
    name: "simstat",
    about: "report + health-check timeline-v1 telemetry (A/B diff with two files)",
    flags: &[
        Flag("--width", Num(64, 1), "max sparkline width in chars"),
        Flag(
            "<a.json> [b.json]",
            Operands,
            "one --timeline document, or two to diff",
        ),
    ],
    run: simstat,
};

const MEMSTAT_DEFAULT: &str = "results/BENCH_memscale.json";

const MEMSTAT: Figure = Figure {
    name: "memstat",
    about: "report per-subsystem memory scaling from fig_mem --json output",
    flags: &[Flag(
        "[memscale.json]",
        Operands,
        "a memscale-v1 document (default results/BENCH_memscale.json)",
    )],
    run: memstat,
};

/// Read `path` for `verb`; an unreadable file is exit status 2.
fn read(verb: &str, path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{verb}: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// Load a JSON document; an unreadable, empty or malformed file is exit
/// status 2, never a comparison result.
fn load_json(verb: &str, path: &str) -> JsonValue {
    let src = read(verb, path);
    if src.trim().is_empty() {
        eprintln!("{verb}: {path} is empty");
        std::process::exit(2);
    }
    desim::json::parse(&src).unwrap_or_else(|e| {
        eprintln!("{verb}: {path}: invalid JSON: {e}");
        std::process::exit(2);
    })
}

fn perfdiff(args: &Args) {
    let [baseline, candidate] = args.operands.as_slice() else {
        PERFDIFF.fail_usage("expected exactly two JSON files");
    };
    let (tol, abs) = (args.real("--tol"), args.real("--abs"));
    for (flag, v) in [("--tol", tol), ("--abs", abs)] {
        if v < 0.0 {
            PERFDIFF.fail_usage(&format!("invalid value '{v}' for {flag}"));
        }
    }
    let check = args.given("--check");
    let res = diff(
        &load_json("perfdiff", baseline),
        &load_json("perfdiff", candidate),
        Tolerance { rel: tol, abs },
    );
    if !check {
        println!(
            "perfdiff: {baseline} vs {candidate}: {} leaves compared (tol {tol}, abs {abs})",
            res.checked
        );
        for k in &res.extra {
            println!("  note: candidate-only leaf {k}");
        }
    }
    for v in &res.violations {
        eprintln!("  DRIFT {v}");
    }
    if res.ok() {
        if !check {
            println!("OK: {candidate} within tolerance of {baseline}");
        }
    } else {
        eprintln!(
            "perfdiff: {candidate} drifted from {baseline}: {} violation(s)",
            res.violations.len()
        );
        std::process::exit(1);
    }
}

fn simstat(args: &Args) {
    let files = &args.operands;
    if files.is_empty() || files.len() > 2 {
        SIMSTAT.fail_usage("expected one or two timeline-v1 JSON files");
    }
    let width = args.num("--width");
    let load = |path: &str| {
        TimelineDoc::parse(&read("simstat", path)).unwrap_or_else(|e| {
            eprintln!("simstat: {path}: {e}");
            std::process::exit(2);
        })
    };
    let a = load(&files[0]);
    print!("{}", report(&files[0], &a, width));
    if let Some(bp) = files.get(1) {
        let b = load(bp);
        print!("\n{}", report(bp, &b, width));
        print!("{}", diff_report(&a, &b, width));
    }
}

fn memstat(args: &Args) {
    if args.operands.len() > 1 {
        MEMSTAT.fail_usage("expected at most one memscale-v1 JSON file");
    }
    let path = args
        .operands
        .first()
        .map_or(MEMSTAT_DEFAULT, |p| p.as_str());
    match memstat_report(&read("memstat", path)) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("memstat: {path}: {e}");
            std::process::exit(2);
        }
    }
}
