#![forbid(unsafe_code)]
//! # bgq-bench — benchmark harness regenerating the paper's tables & figures
//!
//! One executable, `bgq-bench <name> [options]` (`src/main.rs`), dispatches
//! over a registry of figures (`src/figures/`), each printing the same
//! rows/series the paper reports, plus ablations for the design choices of
//! §III. `bgq-bench list` prints the registry; `bgq-bench gate` reruns the
//! quick configurations against the committed `results/BENCH_*` goldens.
//! Shared measurement helpers, the command-line grammar ([`cli`]) and the
//! report/diff tools live in this library.
//!
//! | Figure | Reproduces |
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
//! | `fig_fault`, `fig_am`, `fig_mem`, `fig_scale` | fault injection, AM aggregation, memory and million-rank scaling |
//! | `abl_*` | §III design-choice ablations |
//!
//! | Verb | Does |
//! |---|---|
//! | `list` | print the figure names, one per line |
//! | `gate` | rerun the quick configs and diff them against the goldens |
//! | `perfdiff` | diff two metrics JSONs within a tolerance |
//! | `simstat` / `memstat` | report over `timeline-v1` / `memscale-v1` documents |

use armci::{Armci, ArmciConfig, ArmciRank};
use desim::{ChromeTrace, CritPath, Observed, Sim, SimDuration, SimTime, TimelineDoc};
use pami_sim::{Machine, MachineConfig};

pub mod am_bench;
pub mod cli;
pub mod fault_bench;
pub mod fig9;
pub mod memscale;
pub mod perfdiff;
pub mod scale;
pub mod simstat;
pub mod sweep;

pub use cli::{Args, Flag, Kind};

/// Sample width for `--timeline` windowed telemetry: 100 µs windows keep
/// even the large sweeps under the series cap without coarsening.
pub const TIMELINE_WINDOW_PS: u64 = 100_000_000;

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
/// by the figures as an *ungated* context field — it varies by host
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

/// A metrics document with the process's `peak_rss_kb` spliced in. The field
/// is host context, not a gated metric: candidate-only leaves never fail
/// `perfdiff`, so the committed goldens stay as they are.
pub fn with_peak_rss(doc: &str) -> String {
    append_json_field(doc, "peak_rss_kb", peak_rss_kb())
}

/// What a figure's observed runs recorded, filed by run key in sweep order:
/// the one place that prints their critical paths and writes the
/// `--breakdown`, `--timeline` and `--trace` documents.
pub struct Observations {
    /// Process count of the observed runs.
    p: usize,
    crits: Vec<(String, CritPath)>,
    timelines: TimelineDoc,
    chrome: Option<ChromeTrace>,
}

impl Observations {
    /// Nothing filed yet for figure `bench`, whose observed runs have `p`
    /// ranks.
    pub fn new(bench: &str, p: usize) -> Observations {
        Observations {
            p,
            crits: Vec::new(),
            timelines: TimelineDoc {
                bench: bench.to_string(),
                runs: Vec::new(),
            },
            chrome: None,
        }
    }

    /// File what one run recorded under `key`.
    pub fn add(&mut self, key: &str, seen: Observed) {
        if let Some(crit) = seen.crit {
            self.crits.push((key.to_string(), crit));
        }
        if let Some(tl) = seen.timeline {
            self.timelines.runs.push((key.to_string(), tl));
        }
        if let Some(fragment) = seen.chrome {
            self.chrome
                .get_or_insert_with(ChromeTrace::new)
                .absorb(fragment);
        }
    }

    /// Print the critical path of each observed run and write the
    /// `--breakdown` and `--timeline` documents the command line asks for.
    pub fn report(&self, args: &Args) {
        if !self.crits.is_empty() {
            println!("\n== message-lifecycle critical path at p={} ==", self.p);
            for (key, crit) in &self.crits {
                println!("[{key}]");
                print!("{}", crit.report());
            }
            args.write(cli::BREAKDOWN.0, || {
                let configs: Vec<String> = self
                    .crits
                    .iter()
                    .map(|(key, crit)| format!("\"{key}\":{}", crit.to_json()))
                    .collect();
                format!(
                    "{{\"bench\":\"{}\",\"p\":{},\"configs\":{{{}}}}}\n",
                    self.timelines.bench,
                    self.p,
                    configs.join(",")
                )
            });
        }
        args.write(cli::TIMELINE.0, || self.timelines.to_json());
    }

    /// Write the `--trace` document: the runs' Chrome fragments, merged in
    /// the order they were filed.
    pub fn write_trace(self, args: &Args) {
        if let Some(ct) = self.chrome {
            args.write(cli::TRACE.0, || ct.finish());
        }
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

    const DEMO: &[Flag] = &[
        Flag("--procs", Kind::List(&[9], 2), "process counts"),
        Flag("--ops", Kind::Num(10, 0), "operations"),
        Flag(
            "--nodes",
            Kind::Multiple(32, 32, 16),
            "ranks in whole nodes",
        ),
        Flag("--tol", Kind::Real(0.05), "tolerance"),
        Flag("--json", Kind::Path, "write JSON"),
        Flag("--quick", Kind::Switch, "small run"),
        cli::JOBS,
    ];
    const WITH_OPERANDS: &[Flag] = &[DEMO[1], Flag("<a.json>", Kind::Operands, "a document")];

    fn parse(tokens: &[&str]) -> Result<Option<Args>, String> {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(DEMO, &argv)
    }

    fn parsed(tokens: &[&str]) -> Args {
        parse(tokens)
            .expect("accepted")
            .expect("not a help request")
    }

    #[test]
    fn cli_parsing() {
        let args = parsed(&["--procs", "2,8", "--json", "x.json", "--quick"]);
        assert_eq!(args.list("--procs"), vec![2, 8]);
        assert_eq!(args.path("--json"), Some("x.json"));
        assert!(args.given("--quick") && args.given("--procs"));
        // Absent flags read as their declared defaults.
        assert_eq!(args.num("--ops"), 10);
        assert_eq!(args.real("--tol"), 0.05);
        assert!(!args.given("--ops"));
        assert!(args.jobs() >= 1);
        let none = parsed(&[]);
        assert_eq!(none.list("--procs"), vec![9]);
        assert_eq!(none.path("--json"), None);
        assert!(!none.given("--quick"));
        assert_eq!(parsed(&["--jobs", "3", "--tol", "-1e-3"]).jobs(), 3);
        assert_eq!(parsed(&["--tol", "-1e-3"]).real("--tol"), -1e-3);
    }

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        let rejected = |tokens: &[&str], flag: &str, v: &str| {
            let want = format!("invalid value '{v}' for {flag}");
            assert_eq!(parse(tokens).err(), Some(want), "{tokens:?}");
        };
        // Unparsable scalar: never the default.
        rejected(&["--procs", "abc"], "--procs", "abc");
        rejected(&["--ops", "1o"], "--ops", "1o");
        rejected(&["--ops", "-3"], "--ops", "-3");
        rejected(&["--tol", "x"], "--tol", "x");
        // A list keeps every element or none: no silent drops.
        rejected(&["--procs", "2,,8"], "--procs", "");
        rejected(&["--procs", "2,x"], "--procs", "x");
        // Below the declared floor, or off the declared stride.
        rejected(&["--procs", "2,1,8"], "--procs", "1");
        rejected(&["--nodes", "16"], "--nodes", "16");
        rejected(&["--nodes", "40"], "--nodes", "40");
        assert_eq!(parsed(&["--nodes", "48"]).num("--nodes"), 48);
        // A later bad value is caught even when an earlier flag was fine.
        rejected(&["--ops", "1", "--procs", "0"], "--procs", "0");
    }

    #[test]
    fn arg_scanning_accepts_known_rejects_unknown() {
        assert!(parse(&["--procs", "2,8", "--quick"]).is_ok());
        assert_eq!(parse(&["--quick", "-h"]).map(|a| a.is_none()), Ok(true));
        assert_eq!(
            parse(&["--procz", "2"]).err(),
            Some("unknown option '--procz'".to_string())
        );
        assert_eq!(
            parse(&["stray"]).err(),
            Some("unexpected argument 'stray'".to_string())
        );
        // A value-taking flag that ends the line, or is followed by another
        // option, has no value: the next flag is never swallowed as one.
        for tokens in [
            &["--quick", "--procs"][..],
            &["--procs", "--quick"],
            &["--procs", "--help"],
            &["--procs", "-h"],
        ] {
            assert_eq!(
                parse(tokens).err(),
                Some("missing value for --procs".to_string()),
                "{tokens:?}"
            );
        }
        assert_eq!(
            parse(&["--json", "--ops", "x"]).err(),
            Some("missing value for --json".to_string())
        );
        // Paths that merely start with a dash are values.
        assert_eq!(
            parsed(&["--json", "-out.json"]).path("--json"),
            Some("-out.json")
        );
        let argv = vec!["a.json".to_string(), "b.json".to_string()];
        let with_operands = Args::parse(WITH_OPERANDS, &argv).unwrap().unwrap();
        assert_eq!(with_operands.operands, argv);
        let usage = cli::usage_text("demo", "a demo", WITH_OPERANDS);
        assert!(usage.contains("usage: bgq-bench demo [--ops <n>] <a.json>\n"));
        let usage = cli::usage_text("demo", "a demo", DEMO);
        assert!(usage.contains("usage: bgq-bench demo [--procs <n,n,..>] [--ops <n>]"));
        assert!(usage.contains("[--quick] [--jobs <n>]\n"));
        assert!(usage.contains("operations (default 10)\n"));
        assert!(usage.contains("process counts (default 9)\n"));
        assert!(usage.contains("tolerance (default 0.05)\n"));
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
