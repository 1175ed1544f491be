//! # bgq-bench — benchmark harness regenerating the paper's tables & figures
//!
//! One binary per table/figure (see `src/bin/`), each printing the same
//! rows/series the paper reports, plus ablation binaries for the design
//! choices of §III. Shared measurement helpers live here.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2_attributes` | Table II — empirical time/space attribute values |
//! | `fig3_latency` | Fig 3 — contiguous get/put latency vs message size |
//! | `fig4_bandwidth` | Fig 4 — get/put bandwidth vs message size |
//! | `fig5_latency_per_byte` | Fig 5 — effective latency/byte |
//! | `fig6_efficiency` | Fig 6 — bandwidth efficiency, N½ |
//! | `fig7_rank_latency` | Fig 7 — get latency vs process rank (ABCDET) |
//! | `fig8_strided` | Fig 8 — strided bandwidth vs contiguous chunk size |
//! | `fig9_rmw` | Fig 9 — fetch-and-add latency vs process count |
//! | `fig11_nwchem_scf` | Fig 11 — NWChem SCF, D vs AT |
//! | `fig_scale` | Million-rank scaling of lazily materialized rank state |
//! | `abl_*` | §III design-choice ablations |

use armci::{Armci, ArmciConfig, ArmciRank};
use desim::{Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};

pub mod am_bench;
pub mod fault_bench;
pub mod fig9;
pub mod memscale;
pub mod perfdiff;
pub mod scale;
pub mod simbench;
pub mod simstat;
pub mod sweep;

/// The `--jobs` CLI option shared by every bench binary: parallel sweep
/// workers. Sweep points are whole independent simulations, so worker count
/// never changes results (see [`sweep::run_parallel`]).
pub const JOBS_FLAG: FlagSpec = (
    "--jobs",
    true,
    "parallel sweep workers (default: available cores)",
);

/// Sample width for `--timeline` windowed telemetry: 100 µs windows keep
/// even the large sweeps under the series cap without coarsening.
pub const TIMELINE_WINDOW_PS: u64 = 100_000_000;

/// The `--timeline` CLI option shared by the timeline-capable binaries.
pub const TIMELINE_FLAG: FlagSpec = (
    "--timeline",
    true,
    "write windowed-telemetry JSON (timeline-v1)",
);

/// Parse the `--jobs` option (default: available parallelism).
pub fn arg_jobs() -> usize {
    arg_usize("--jobs", sweep::default_jobs()).max(1)
}

/// One CLI option specification: `(name, takes_value, help)`.
pub type FlagSpec = (&'static str, bool, &'static str);

/// Render the `--help` text for a benchmark binary.
pub fn usage_text(bin: &str, about: &str, flags: &[FlagSpec]) -> String {
    let mut s = format!("{bin} — {about}\n\nusage: {bin}");
    for (name, takes, _) in flags {
        s.push_str(&format!(" [{name}{}]", if *takes { " <v>" } else { "" }));
    }
    s.push_str("\n\noptions:\n");
    for (name, takes, help) in flags {
        let lhs = format!("{name}{}", if *takes { " <v>" } else { "" });
        s.push_str(&format!("  {lhs:<18} {help}\n"));
    }
    s.push_str("  -h, --help         print this help\n");
    s
}

/// Scan an argument slice (program name excluded) against a flag table:
/// `Ok(true)` when help was requested, `Err(message)` on the first unknown
/// option or on a value-taking flag that ends the line. Value tokens
/// following a value-taking flag are skipped, so negative numbers and file
/// paths never trip the check (testable core).
pub fn scan_args(args: &[String], flags: &[FlagSpec]) -> Result<bool, String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--help" || a == "-h" {
            return Ok(true);
        }
        match flags.iter().find(|(n, _, _)| n == a) {
            Some((_, true, _)) if i + 1 == args.len() => {
                return Err(format!("missing value for {a}"));
            }
            Some((_, true, _)) => i += 1, // skip the flag's value token
            Some(_) => {}
            None if a.starts_with('-') => return Err(format!("unknown option '{a}'")),
            None => {}
        }
        i += 1;
    }
    Ok(false)
}

/// `(bin, usage text)` of the running binary, recorded by [`check_args`] so
/// that a value rejected later ([`arg_usize`], [`arg_list`], ...) leaves the
/// same way an unknown option does.
static USAGE: std::sync::OnceLock<(String, String)> = std::sync::OnceLock::new();

/// Reject the command line: `<bin>: <message>` plus the usage text on
/// stderr, exit status 2.
fn exit_usage(message: &str) -> ! {
    match USAGE.get() {
        Some((bin, usage)) => eprint!("{bin}: {message}\n{usage}"),
        None => eprintln!("{message}"),
    }
    std::process::exit(2);
}

/// Enforce the CLI contract shared by every bench binary: `--help`/`-h`
/// prints the usage text and exits 0; an unknown option, or a value-taking
/// flag without a value, prints an error plus the usage text to stderr and
/// exits 2.
pub fn check_args(bin: &str, about: &str, flags: &[FlagSpec]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, usage) = USAGE.get_or_init(|| (bin.to_string(), usage_text(bin, about, flags)));
    match scan_args(&args, flags) {
        Ok(false) => {}
        Ok(true) => {
            print!("{usage}");
            std::process::exit(0);
        }
        Err(message) => exit_usage(&message),
    }
}

/// A microbenchmark fixture: a simulated machine with an ARMCI runtime.
pub struct Fixture {
    /// The simulation.
    pub sim: Sim,
    /// The ARMCI runtime.
    pub armci: Armci,
}

impl Fixture {
    /// Build a fixture with `nprocs` ranks, `c` per node.
    pub fn new(nprocs: usize, c: usize, acfg: ArmciConfig) -> Fixture {
        Self::with_machine(MachineConfig::new(nprocs).procs_per_node(c), acfg)
    }

    /// Build a fixture from an explicit machine configuration.
    pub fn with_machine(mcfg: MachineConfig, acfg: ArmciConfig) -> Fixture {
        let sim = Sim::new();
        let machine = Machine::new(sim.clone(), mcfg);
        let armci = Armci::new(machine, acfg);
        Fixture { sim, armci }
    }

    /// Rank handle.
    pub fn rank(&self, r: usize) -> ArmciRank {
        self.armci.rank(r)
    }

    /// Run the simulation to completion (bounded) and tear down daemons.
    pub fn finish(&self) {
        self.sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(600));
        self.armci.finalize();
        self.sim.shutdown();
    }
}

/// Measure mean blocking **get** latency from rank 0 to rank `target` for
/// `bytes`, over `reps` repetitions (caches warmed first).
pub fn get_latency(nprocs: usize, c: usize, target: usize, bytes: usize, reps: usize) -> f64 {
    let f = Fixture::new(nprocs, c, ArmciConfig::default());
    let r0 = f.rank(0);
    let rt = f.rank(target);
    let s = f.sim.clone();
    let out = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
    let out2 = out.clone();
    f.sim.spawn(async move {
        let remote = rt.malloc(bytes.max(64)).await;
        let local = r0.malloc(bytes.max(64)).await;
        r0.get(target, local, remote, bytes).await; // warm caches
        let t0 = s.now();
        for _ in 0..reps {
            r0.get(target, local, remote, bytes).await;
        }
        out2.set((s.now() - t0).as_us() / reps as f64);
    });
    f.finish();
    out.get()
}

/// Measure mean blocking **put** latency (local completion) rank 0→`target`.
pub fn put_latency(nprocs: usize, c: usize, target: usize, bytes: usize, reps: usize) -> f64 {
    let f = Fixture::new(nprocs, c, ArmciConfig::default());
    let r0 = f.rank(0);
    let rt = f.rank(target);
    let s = f.sim.clone();
    let out = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
    let out2 = out.clone();
    f.sim.spawn(async move {
        let remote = rt.malloc(bytes.max(64)).await;
        let local = r0.malloc(bytes.max(64)).await;
        r0.put(target, local, remote, bytes).await;
        let t0 = s.now();
        for _ in 0..reps {
            r0.put(target, local, remote, bytes).await;
        }
        out2.set((s.now() - t0).as_us() / reps as f64);
    });
    f.finish();
    out.get()
}

/// Windowed bandwidth (MB/s) with `window` outstanding operations of
/// `bytes` each, `reps` messages total. `is_get` selects get vs put.
pub fn bandwidth(nprocs: usize, bytes: usize, window: usize, reps: usize, is_get: bool) -> f64 {
    let f = Fixture::new(nprocs, 1, ArmciConfig::default());
    let r0 = f.rank(0);
    let r1 = f.rank(1);
    let s = f.sim.clone();
    let out = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
    let out2 = out.clone();
    f.sim.spawn(async move {
        let remote = r1.malloc(bytes * window).await;
        let local = r0.malloc(bytes * window).await;
        // Warm endpoint + region caches.
        r0.get(1, local, remote, bytes.min(64)).await;
        let t0 = s.now();
        let mut inflight = std::collections::VecDeque::new();
        for i in 0..reps {
            if inflight.len() == window {
                let h: armci::NbHandle = inflight.pop_front().unwrap();
                r0.wait(&h).await;
            }
            let slot = (i % window) * bytes;
            let h = if is_get {
                r0.nbget(1, local + slot, remote + slot, bytes).await
            } else {
                r0.nbput(1, local + slot, remote + slot, bytes).await
            };
            inflight.push_back(h);
        }
        while let Some(h) = inflight.pop_front() {
            r0.wait(&h).await;
        }
        let elapsed = s.now() - t0;
        out2.set((bytes * reps) as f64 / elapsed.as_secs() / 1.0e6);
    });
    f.finish();
    out.get()
}

/// Standard message-size sweep used by Figs 3–6 (powers of two).
pub fn size_sweep(lo: usize, hi: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut m = lo;
    while m <= hi {
        sizes.push(m);
        m *= 2;
    }
    sizes
}

/// The token following `name` when the flag is present; a flag that ends
/// the line has the empty value.
fn value_of<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    Some(args.get(i + 1).map_or("", |v| v.as_str()))
}

/// One number of `name`'s value: a `usize` no smaller than `min`.
fn parse_one(name: &str, token: &str, min: usize) -> Result<usize, String> {
    match token.trim().parse() {
        Ok(v) if v >= min => Ok(v),
        _ => Err(format!("invalid value '{token}' for {name}")),
    }
}

/// Parse `--key value` from an argument slice (testable core): `default`
/// when the flag is absent, `Err(message)` when its value is missing, not a
/// number, or below `min`.
pub fn parse_usize(
    args: &[String],
    name: &str,
    default: usize,
    min: usize,
) -> Result<usize, String> {
    value_of(args, name).map_or(Ok(default), |v| parse_one(name, v, min))
}

/// Parse `--key a,b,c` from an argument slice (testable core): `default`
/// when the flag is absent, `Err(message)` naming the first element that is
/// empty, not a number, or below `min`.
pub fn parse_list(
    args: &[String],
    name: &str,
    default: &[usize],
    min: usize,
) -> Result<Vec<usize>, String> {
    value_of(args, name).map_or(Ok(default.to_vec()), |v| {
        v.split(',').map(|x| parse_one(name, x, min)).collect()
    })
}

/// Parse `--key value` style CLI options with a default; a malformed value
/// is a usage error (exit 2).
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_usize(&args, name, default, 0).unwrap_or_else(|e| exit_usage(&e))
}

/// Parse a `--key a,b,c` list option with a default; a malformed element is
/// a usage error (exit 2).
pub fn arg_list(name: &str, default: &[usize]) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    parse_list(&args, name, default, 0).unwrap_or_else(|e| exit_usage(&e))
}

/// Parse `--procs <n>`: a process count below `min` (the fewest ranks the
/// calling experiment is defined for) is a usage error like any other
/// malformed value.
pub fn arg_procs(default: usize, min: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_usize(&args, "--procs", default, min).unwrap_or_else(|e| exit_usage(&e))
}

/// Parse `--procs a,b,c`, every element held to `min` as in [`arg_procs`].
pub fn arg_procs_list(default: &[usize], min: usize) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    parse_list(&args, "--procs", default, min).unwrap_or_else(|e| exit_usage(&e))
}

/// Parse `--key value` for a string-valued option (testable core).
pub fn parse_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a `--key value` string option (e.g. `--json out.json`).
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    parse_str(&args, name)
}

/// True when `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Write a text artifact (JSON snapshot, Chrome trace) to `path`, creating
/// parent directories as needed, and report it on stdout.
pub fn write_text(path: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, contents) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Peak resident-set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); 0 when the platform does not expose it. Reported
/// by the bench binaries as an *ungated* context field — it varies by host
/// and allocator, so CI never compares it.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Splice an extra numeric field into the top level of a JSON document:
/// `,"key":value` is inserted immediately before the document's final `}`
/// (trailing whitespace preserved). Used to attach ungated context fields
/// like `peak_rss_kb` to snapshots whose schema is otherwise fixed —
/// `perfdiff` ignores candidate-only leaves, so goldens stay untouched.
pub fn append_json_field(doc: &str, key: &str, value: u64) -> String {
    match doc.rfind('}') {
        Some(i) => format!("{},\"{}\":{}{}", &doc[..i], key, value, &doc[i..]),
        None => doc.to_string(),
    }
}

/// Human-friendly byte-size label.
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_latency_16b_adjacent_matches_fig3() {
        // 2 procs, 1/node -> adjacent nodes; 16 bytes -> 2.89 us.
        let lat = get_latency(2, 1, 1, 16, 10);
        assert!((lat - 2.89).abs() < 0.05, "{lat}");
    }

    #[test]
    fn put_latency_16b_adjacent_matches_fig3() {
        let lat = put_latency(2, 1, 1, 16, 10);
        assert!((lat - 2.70).abs() < 0.05, "{lat}");
    }

    #[test]
    fn bandwidth_reaches_peak_at_1mb() {
        let bw = bandwidth(2, 1 << 20, 2, 8, false);
        assert!(bw > 1700.0, "peak put bandwidth {bw}");
        let bw = bandwidth(2, 1 << 20, 2, 8, true);
        assert!(bw > 1700.0, "peak get bandwidth {bw}");
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parsing() {
        let args = argv(&["prog", "--procs", "64", "--list", "1,2,3", "--bad", "x"]);
        assert_eq!(parse_usize(&args, "--procs", 8, 0), Ok(64));
        assert_eq!(parse_usize(&args, "--missing", 8, 0), Ok(8));
        assert_eq!(parse_list(&args, "--list", &[9], 0), Ok(vec![1, 2, 3]));
        assert_eq!(parse_list(&args, "--missing", &[9], 0), Ok(vec![9]));
        assert_eq!(parse_str(&args, "--bad").as_deref(), Some("x"));
        assert_eq!(parse_str(&args, "--missing"), None);
    }

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        let bad = |flag: &str, v: &str| format!("invalid value '{v}' for {flag}");
        // Unparsable scalar: never the default.
        let args = argv(&["prog", "--procs", "abc", "--ops", "1o"]);
        assert_eq!(
            parse_usize(&args, "--procs", 8, 0),
            Err(bad("--procs", "abc"))
        );
        assert_eq!(parse_usize(&args, "--ops", 10, 0), Err(bad("--ops", "1o")));
        assert_eq!(
            parse_list(&args, "--procs", &[9], 0),
            Err(bad("--procs", "abc"))
        );
        // A list keeps every element or none: no silent drops.
        let args = argv(&["prog", "--procs", "2,,8"]);
        assert_eq!(
            parse_list(&args, "--procs", &[9], 0),
            Err(bad("--procs", ""))
        );
        let args = argv(&["prog", "--procs", "2,x"]);
        assert_eq!(
            parse_list(&args, "--procs", &[9], 0),
            Err(bad("--procs", "x"))
        );
        // Value missing after the flag: not "flag absent".
        let tail = argv(&["prog", "--procs"]);
        assert_eq!(parse_usize(&tail, "--procs", 7, 0), Err(bad("--procs", "")));
        assert_eq!(
            parse_list(&tail, "--procs", &[7], 0),
            Err(bad("--procs", ""))
        );
        // Process counts below the experiment's floor.
        let args = argv(&["prog", "--procs", "0"]);
        assert_eq!(
            parse_usize(&args, "--procs", 8, 1),
            Err(bad("--procs", "0"))
        );
        let args = argv(&["prog", "--procs", "1"]);
        assert_eq!(
            parse_usize(&args, "--procs", 8, 2),
            Err(bad("--procs", "1"))
        );
        assert_eq!(parse_usize(&args, "--procs", 8, 1), Ok(1));
        let args = argv(&["prog", "--procs", "2,1,8"]);
        assert_eq!(
            parse_list(&args, "--procs", &[9], 2),
            Err(bad("--procs", "1"))
        );
        assert_eq!(parse_list(&args, "--procs", &[9], 1), Ok(vec![2, 1, 8]));
    }

    #[test]
    fn arg_scanning_accepts_known_rejects_unknown() {
        let flags: &[FlagSpec] = &[("--procs", true, "process counts"), ("--quick", false, "")];
        let ok: Vec<String> = ["--procs", "2,8", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(scan_args(&ok, flags), Ok(false));
        // A value token that looks like a flag is skipped, not rejected.
        let neg: Vec<String> = ["--procs", "-3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(scan_args(&neg, flags), Ok(false));
        let help: Vec<String> = ["--quick", "-h"].iter().map(|s| s.to_string()).collect();
        assert_eq!(scan_args(&help, flags), Ok(true));
        let bad: Vec<String> = ["--procz", "2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            scan_args(&bad, flags),
            Err("unknown option '--procz'".to_string())
        );
        // A value-taking flag that ends the line has no value to skip.
        let tail: Vec<String> = ["--quick", "--procs"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            scan_args(&tail, flags),
            Err("missing value for --procs".to_string())
        );
        let usage = usage_text("demo", "a demo", flags);
        assert!(usage.contains("usage: demo [--procs <v>] [--quick]"));
        assert!(usage.contains("--help"));
    }

    #[test]
    fn sweep_and_fmt() {
        assert_eq!(size_sweep(16, 128), vec![16, 32, 64, 128]);
        assert_eq!(fmt_size(16), "16");
        assert_eq!(fmt_size(2048), "2K");
        assert_eq!(fmt_size(1 << 20), "1M");
    }

    #[test]
    fn append_json_field_splices_before_final_brace() {
        assert_eq!(
            append_json_field("{\"a\":1}\n", "rss", 42),
            "{\"a\":1,\"rss\":42}\n"
        );
        // Nested closing braces: only the *last* one is the document end.
        assert_eq!(
            append_json_field("{\"a\":{\"b\":2}\n}\n", "rss", 7),
            "{\"a\":{\"b\":2}\n,\"rss\":7}\n"
        );
        // No brace at all: document returned unchanged.
        assert_eq!(append_json_field("[]", "rss", 1), "[]");
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
