//! What the benchmark reads from the host: process memory, the wall
//! clock shared by parent and child, and the fingerprint recorded with a
//! run.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// A `Vm*` field of `/proc/self/status` in kB (`VmHWM` = peak RSS,
/// `VmRSS` = current RSS); 0 where `/proc` has no such field.
pub fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds since the Unix epoch. The only clock a parent and its child
/// can both read, used for the exec latency inside `setup_s`.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// One-minute load average (0 when unreadable).
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Warn on stderr when the host is busier than it has cores: a timing taken
/// then measures the scheduler.
pub fn warn_if_loaded() {
    let (load, n) = (loadavg(), nproc());
    if load > n as f64 {
        eprintln!("bgq-perf: WARNING load average {load:.2} > nproc {n}; timings will be noisy");
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host fingerprint as a JSON object: commit, compiler, cores, CPU model and
/// the load average when the run started.
pub fn fingerprint_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut o = String::from("{\"commit\":");
    desim::json::push_str(&mut o, &first_line("git", &["rev-parse", "HEAD"]));
    o.push_str(",\"rustc\":");
    desim::json::push_str(&mut o, &first_line("rustc", &["-V"]));
    o.push_str(&format!(",\"nproc\":{},\"cpu\":", nproc()));
    desim::json::push_str(&mut o, &cpu);
    o.push_str(&format!(",\"loadavg_at_start\":{}}}", loadavg()));
    o
}
