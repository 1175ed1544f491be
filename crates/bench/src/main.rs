#![forbid(unsafe_code)]
//! `bgq-bench` — the one executable of the benchmark harness.
//!
//! `bgq-bench <name> [options]` dispatches its first argument over the
//! figure registry ([`figures::FIGURES`]) and the tool verbs
//! ([`verbs::VERBS`]); every entry declares its options once as a
//! [`Flag`] table, parsed in full before the entry runs. `bgq-bench list`
//! prints the figure names, `bgq-bench gate` reruns the quick configurations
//! against the committed goldens.

use bgq_bench::{cli, Args, Flag};
use desim::memprof::MemProf;

mod figures;
mod gate;
mod verbs;

/// The tagged allocation profiler, installed for every entry and disabled
/// (one relaxed atomic load per allocation) unless a figure calls
/// `memprof::enable()` — `fig_mem` and `fig_scale` do.
#[global_allocator]
static ALLOC: MemProf = MemProf;

/// One registry entry — a figure, ablation or tool verb.
pub struct Figure {
    /// The first command-line argument that selects it; also the stem of
    /// its `results/<name>.txt` and goldens.
    pub name: &'static str,
    /// What it reproduces or does. The first line is its one-line summary;
    /// any further lines appear only in its own `--help`.
    pub about: &'static str,
    /// Everything its command line may contain.
    pub flags: &'static [Flag],
    /// The entry point, called with the checked command line.
    pub run: fn(&Args),
}

impl Figure {
    fn usage(&self) -> String {
        cli::usage_text(self.name, self.about, self.flags)
    }

    /// Reject the command line: `<name>: <message>` plus the usage text on
    /// stderr, exit status 2.
    pub fn fail_usage(&self, message: &str) -> ! {
        eprint!("{}: {message}\n{}", self.name, self.usage());
        std::process::exit(2);
    }
}

/// The top-level help: every figure and verb with its one-line summary.
fn overview() -> String {
    let mut s = String::from(
        "bgq-bench — regenerate the paper's tables, figures and ablations\n\n\
         usage: bgq-bench <figure|verb> [options]    (bgq-bench <name> --help lists them)\n",
    );
    for (title, entries) in [("figures", figures::FIGURES), ("verbs", verbs::VERBS)] {
        s.push_str(&format!("\n{title}:\n"));
        for f in entries {
            let summary = f.about.lines().next().unwrap_or("");
            s.push_str(&format!("  {:<22} {summary}\n", f.name));
        }
    }
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprint!("{}", overview());
        std::process::exit(2);
    };
    if name == "-h" || name == "--help" {
        print!("{}", overview());
        return;
    }
    let mut entries = figures::FIGURES.iter().chain(verbs::VERBS);
    let Some(entry) = entries.find(|f| f.name == name) else {
        eprint!("bgq-bench: unknown figure or verb '{name}'\n{}", overview());
        std::process::exit(2);
    };
    match Args::parse(entry.flags, rest) {
        Ok(Some(args)) => (entry.run)(&args),
        Ok(None) => print!("{}", entry.usage()),
        Err(message) => entry.fail_usage(&message),
    }
}
