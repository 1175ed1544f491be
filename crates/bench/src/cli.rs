//! The one command-line grammar of `bgq-bench`.
//!
//! Everything a figure or verb accepts is declared once as a [`Flag`] —
//! name, [`Kind`] (with default and limits), help — and a command line is
//! parsed once, in full, into [`Args`] before anything runs: a rejected line
//! has produced no output and written no file. `--help` renders the defaults
//! from the same table the parser reads.

use desim::Observe;

/// What a flag takes and how its value is checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// One unsigned number: `(default, floor)`.
    Num(usize, usize),
    /// As [`Kind::Num`], and a multiple of the third field:
    /// `(default, floor, multiple of)`.
    Multiple(usize, usize, usize),
    /// Comma-separated unsigned numbers: `(default, floor of each element)`.
    List(&'static [usize], usize),
    /// As [`Kind::List`], each element also at most the third field and a
    /// multiple of the fourth: `(default, floor, ceiling, multiple of)`.
    ListIn(&'static [usize], usize, usize, usize),
    /// One finite floating-point number: `(default)`.
    Real(f64),
    /// A file path: any token that is not itself an option.
    Path,
    /// Not an option: the entry takes positional arguments, and the flag's
    /// name is how the usage line shows them (`<a.json> [b.json]`).
    Operands,
}

/// One declared option: `Flag(name, kind, help)`. The help text never
/// states the default; `--help` appends it from the kind.
#[derive(Debug, Clone, Copy)]
pub struct Flag(pub &'static str, pub Kind, pub &'static str);

/// The `--jobs` option shared by the sweep figures: sweep points are whole
/// independent simulations, so the worker count never changes a result
/// (see [`crate::sweep::run_parallel`]). Read it with [`Args::jobs`].
pub const JOBS: Flag = Flag(
    "--jobs",
    Kind::Num(0, 0),
    "parallel sweep workers; 0 = available cores",
);

/// The `--timeline` option shared by the timeline-capable figures.
pub const TIMELINE: Flag = Flag(
    "--timeline",
    Kind::Path,
    "write windowed-telemetry JSON (timeline-v1)",
);

/// The `--trace` option of the traced figures.
pub const TRACE: Flag = Flag(
    "--trace",
    Kind::Path,
    "write a Chrome trace of the smallest-p runs",
);

/// The `--breakdown` option of the figures that analyze a critical path.
pub const BREAKDOWN: Flag = Flag(
    "--breakdown",
    Kind::Path,
    "write critical-path breakdown JSON (smallest p)",
);

impl Flag {
    /// `--flag <placeholder>` as shown in the usage text, and the declared
    /// default as `--help` appends it.
    fn synopsis(&self) -> (String, Option<String>) {
        let join = |list: &[usize]| list.iter().map(usize::to_string).collect::<Vec<_>>();
        let (placeholder, default) = match self.1 {
            Kind::Switch | Kind::Operands => return (self.0.to_string(), None),
            Kind::Num(d, _) | Kind::Multiple(d, _, _) => ("n", Some(d.to_string())),
            Kind::List(d, _) | Kind::ListIn(d, ..) => ("n,n,..", Some(join(d).join(","))),
            Kind::Real(d) => ("x", Some(d.to_string())),
            Kind::Path => ("path", None),
        };
        (format!("{} <{placeholder}>", self.0), default)
    }

    /// Check one value token against the declaration.
    fn value(&self, token: &str) -> Result<Value, String> {
        let invalid = |t: &str| format!("invalid value '{t}' for {}", self.0);
        let number = |t: &str, min: usize, max: usize, of: usize| match t.trim().parse::<usize>() {
            Ok(v) if (min..=max).contains(&v) && v % of == 0 => Ok(v),
            _ => Err(invalid(t)),
        };
        let list = |min: usize, max: usize, of: usize| {
            let items = token.split(',').map(|t| number(t, min, max, of));
            items.collect::<Result<_, _>>().map(Value::List)
        };
        match self.1 {
            Kind::Switch | Kind::Operands => unreachable!("{} takes no value", self.0),
            Kind::Num(_, min) => number(token, min, usize::MAX, 1).map(Value::Num),
            Kind::Multiple(_, min, of) => number(token, min, usize::MAX, of).map(Value::Num),
            Kind::List(_, min) => list(min, usize::MAX, 1),
            Kind::ListIn(_, min, max, of) => list(min, max, of),
            Kind::Real(_) => match token.trim().parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Value::Real(v)),
                _ => Err(invalid(token)),
            },
            Kind::Path => Ok(Value::Path(token.to_string())),
        }
    }
}

/// Render the `--help` text of `bgq-bench <name>`.
pub fn usage_text(name: &str, about: &str, flags: &[Flag]) -> String {
    let mut s = format!("{name} — {about}\n\nusage: bgq-bench {name}");
    for f in flags {
        match f.1 {
            Kind::Operands => s.push_str(&format!(" {}", f.0)),
            _ => s.push_str(&format!(" [{}]", f.synopsis().0)),
        }
    }
    s.push_str("\n\noptions:\n");
    for f in flags {
        let (synopsis, default) = f.synopsis();
        let default = default.map_or(String::new(), |d| format!(" (default {d})"));
        s.push_str(&format!("  {synopsis:<18} {}{default}\n", f.2));
    }
    s.push_str("  -h, --help         print this help\n");
    s
}

#[derive(Debug, Clone)]
enum Value {
    Switch,
    Num(usize),
    List(Vec<usize>),
    Real(f64),
    Path(String),
}

/// A parsed command line: the flags that were given, checked against their
/// declarations, plus the positional operands.
#[derive(Debug, Clone)]
pub struct Args {
    flags: &'static [Flag],
    given: Vec<(&'static str, Value)>,
    /// Positional arguments, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// Parse `argv` (command and figure name excluded) against `flags`.
    /// `Ok(None)` when help was requested; `Err(message)` on the first
    /// unknown option, missing or malformed value, or — unless the table
    /// has a [`Kind::Operands`] entry — positional argument. A value token
    /// that is itself a declared option (or `-h`/`--help`) is a missing
    /// value, so `--json --trace x` never writes a file named `--trace`;
    /// negative numbers and paths pass to the value check.
    pub fn parse(flags: &'static [Flag], argv: &[String]) -> Result<Option<Args>, String> {
        let is_help = |t: &str| t == "-h" || t == "--help";
        let option = |t: &str| flags.iter().find(|f| f.0 == t && f.1 != Kind::Operands);
        let takes_operands = flags.iter().any(|f| f.1 == Kind::Operands);
        let mut args = Args {
            flags,
            given: Vec::new(),
            operands: Vec::new(),
        };
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            if is_help(token) {
                return Ok(None);
            }
            match option(token) {
                Some(flag) if flag.1 == Kind::Switch => args.given.push((flag.0, Value::Switch)),
                Some(flag) => match tokens.next() {
                    Some(v) if !is_help(v) && option(v).is_none() => {
                        args.given.push((flag.0, flag.value(v)?));
                    }
                    _ => return Err(format!("missing value for {token}")),
                },
                None if token.starts_with('-') => return Err(format!("unknown option '{token}'")),
                None if takes_operands => args.operands.push(token.clone()),
                None => return Err(format!("unexpected argument '{token}'")),
            }
        }
        Ok(Some(args))
    }

    /// The first given value of `name` and its declared kind. Asking for a
    /// flag the figure never declared is a bug in the figure.
    fn lookup(&self, name: &str) -> (Option<&Value>, Kind) {
        let decl = self.flags.iter().find(|f| f.0 == name);
        let value = self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v);
        (
            value,
            decl.unwrap_or_else(|| panic!("{name} is not declared")).1,
        )
    }

    /// True when `name` appeared on the command line (any kind).
    pub fn given(&self, name: &str) -> bool {
        self.lookup(name).0.is_some()
    }

    /// A [`Kind::Num`] or [`Kind::Multiple`] flag: the given value or the
    /// declared default.
    pub fn num(&self, name: &str) -> usize {
        match self.lookup(name) {
            (Some(Value::Num(v)), _) => *v,
            (None, Kind::Num(default, _) | Kind::Multiple(default, _, _)) => default,
            _ => panic!("{name} is not a number flag"),
        }
    }

    /// A [`Kind::List`] or [`Kind::ListIn`] flag: the given elements or the
    /// declared default.
    pub fn list(&self, name: &str) -> Vec<usize> {
        match self.lookup(name) {
            (Some(Value::List(v)), _) => v.clone(),
            (None, Kind::List(default, _) | Kind::ListIn(default, ..)) => default.to_vec(),
            _ => panic!("{name} is not a list flag"),
        }
    }

    /// A [`Kind::Real`] flag: the given value or the declared default.
    pub fn real(&self, name: &str) -> f64 {
        match self.lookup(name) {
            (Some(Value::Real(v)), _) => *v,
            (None, Kind::Real(default)) => default,
            _ => panic!("{name} is not a real-number flag"),
        }
    }

    /// A [`Kind::Path`] flag, when given.
    pub fn path(&self, name: &str) -> Option<&str> {
        match self.lookup(name) {
            (Some(Value::Path(p)), _) => Some(p),
            (None, Kind::Path) => None,
            _ => panic!("{name} is not a path flag"),
        }
    }

    /// The [`JOBS`] flag: sweep worker count, the host's available
    /// parallelism unless given.
    pub fn jobs(&self) -> usize {
        match self.num(JOBS.0) {
            0 => crate::sweep::default_jobs(),
            n => n,
        }
    }

    /// Check the given `--procs` value(s) against the partitions a 5D torus
    /// can hold at `ppn` ranks per node
    /// ([`torus5d::Topology::try_for_procs`]); `Err` names the first value
    /// none holds, for the figure to reject as a usage error.
    pub fn check_procs(&self, ppn: usize) -> Result<(), String> {
        let procs = match self.lookup("--procs").0 {
            Some(Value::Num(p)) => std::slice::from_ref(p),
            Some(Value::List(list)) => list,
            _ => &[],
        };
        match procs
            .iter()
            .find(|&&p| torus5d::Topology::try_for_procs(p, ppn).is_none())
        {
            Some(p) => Err(format!(
                "invalid value '{p}' for --procs: no 5D torus holds {p} ranks at {ppn} per node"
            )),
            None => Ok(()),
        }
    }

    /// The sinks this command line asks an observed run to turn on: the
    /// lifecycle accumulator for [`BREAKDOWN`] and the timeline for
    /// [`TIMELINE`], where the entry declares them. A [`TRACE`] also needs the run's
    /// Chrome process, so the traced figure adds it.
    pub fn observe(&self) -> Observe {
        let wants = |flag: Flag| self.flags.iter().any(|f| f.0 == flag.0) && self.given(flag.0);
        Observe {
            crit: wants(BREAKDOWN),
            timeline: wants(TIMELINE).then_some(crate::TIMELINE_WINDOW_PS),
            ..Observe::default()
        }
    }

    /// Write `contents()` to the path given for `flag` — creating parent
    /// directories, reporting `wrote <path>` on stdout — or do nothing when
    /// the flag is absent.
    pub fn write(&self, flag: &str, contents: impl FnOnce() -> String) {
        if let Some(path) = self.path(flag) {
            crate::write_text(path, &contents());
        }
    }
}
