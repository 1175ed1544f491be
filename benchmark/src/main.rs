//! `bgq-perf` command line. See `README.md`.

use std::process::ExitCode;

use bgq_perf::workloads::Size;
use bgq_perf::{child, compare, spec, suite};

const USAGE: &str = "\
usage:
  bgq-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
      measure one workload (the form BENCHMARK.json's command runs); prints
      one JSON result line. --trace 1 is the traced run: every per-layer
      metric, spans to benchmark/out/trace.<name>.json
  bgq-perf run [--seed <n>] [--reps <n>] [--out <file>] [--trace <file>]
      all six workloads, <reps> fresh-process repeats each (default 7),
      every metric by name; --trace adds the traced run and writes its
      spans as Chrome-trace JSON
  bgq-perf compare <A.json> <B.json>
      is run B no worse than run A, by the bounds in BENCHMARK.json?
  bgq-perf child <workload|ladder> [--seed <n>] [--trace]
      one repeat in this process; prints its report line
  every form takes --quick (test sizes)";

/// `--key value` options and bare words of a command line.
struct Args {
    words: Vec<String>,
    options: Vec<(String, String)>,
    quick: bool,
    child_trace: bool,
}

fn parse(args: &[String], child: bool) -> Result<Args, String> {
    let mut out = Args {
        words: Vec::new(),
        options: Vec::new(),
        quick: false,
        child_trace: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => out.quick = true,
            "--trace" if child => out.child_trace = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--reps" | "--out" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.options.push((a.clone(), v.clone()));
            }
            _ if a.starts_with("--") => return Err(format!("unknown option {a}")),
            _ => out.words.push(a.clone()),
        }
    }
    Ok(out)
}

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} {v}: not a whole number")),
            None => default.ok_or_else(|| format!("{key} is required")),
        }
    }

    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }
}

fn main_inner(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("child") => {
            let args = parse(&argv[1..], true)?;
            let [workload] = args.words.as_slice() else {
                return Err("child takes one workload".to_string());
            };
            let seed = args.number("--seed", Some(1))?;
            let line = child::run(workload, seed, args.size(), args.child_trace)
                .ok_or_else(|| format!("unknown workload '{workload}'"))?;
            println!("{line}");
            Ok(true)
        }
        Some("run") => {
            let args = parse(&argv[1..], false)?;
            let out = args.get("--out").unwrap_or("benchmark/out/run.json");
            suite::full_run(
                args.number("--seed", Some(1))?,
                args.number("--reps", Some(7))?.max(1) as usize,
                args.size(),
                out,
                args.get("--trace"),
            )
        }
        Some("compare") => {
            let args = parse(&argv[1..], false)?;
            let [a, b] = args.words.as_slice() else {
                return Err("compare takes two files".to_string());
            };
            compare::compare(a, b, &spec::bounds()?)
        }
        Some(first) if first.starts_with("--") => {
            let args = parse(argv, false)?;
            let workload = args.get("--workload").ok_or("--workload is required")?;
            let traced = match args.get("--trace") {
                Some("0") | None => false,
                Some("1") => true,
                Some(v) => return Err(format!("--trace {v}: 0 or 1")),
            };
            let line = suite::drive(
                workload,
                args.number("--seed", None)?,
                args.number("--seconds", None)?,
                traced,
                args.size(),
            )?;
            // The result is the last line of standard output either way: a
            // run whose checks failed still says so in `correct`.
            println!("{line}");
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bgq-perf: {e}");
            ExitCode::from(2)
        }
    }
}
