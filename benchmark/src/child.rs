//! One end-to-end repeat is one fresh process: the simulator keeps memory
//! after `drop` (≈240 MB after a dense p = 262144 run), so a second run in
//! the same process measures the first one's leftovers. The child runs one
//! workload (or the ladder) once and prints one JSON line; the parent reads
//! it back here.

use std::process::{Command, Stdio};

use desim::json::{self, JsonValue};

use crate::probe::{Probe, Span};
use crate::workloads::{self, Outcome, Size};
use crate::{host, ladder};

/// What a child reports: the workload's outcome plus what only the process
/// as a whole can say.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// What the workload measured and checked.
    pub outcome: Outcome,
    /// Wall clock when the child's `main` began, ns since the Unix epoch.
    pub started_unix_ns: u64,
    /// Peak RSS (`VmHWM`) when the child was done, kB.
    pub peak_rss_kb: u64,
    /// RSS after teardown minus RSS before set-up, kB (traced runs only).
    pub retained_kb: i64,
    /// Ladder metrics, for a ladder child.
    pub ladder: Vec<(String, f64)>,
    /// Spans of a traced child.
    pub spans: Vec<Span>,
}

/// Child side: run `workload` (`"ladder"` for the per-layer ladder) once and
/// return the line to print. `None` for an unknown workload.
pub fn run(workload: &str, seed: u64, size: Size, tracing: bool) -> Option<String> {
    let started_unix_ns = host::unix_ns();
    let mut pr = Probe::new(tracing);
    let rss_before = if tracing { host::status_kb("VmRSS") } else { 0 };
    let mut report = Report {
        started_unix_ns,
        ..Report::default()
    };
    if workload == "ladder" {
        report.ladder = ladder::run(size, &mut pr);
    } else {
        report.outcome = workloads::run(workload, seed, size, &mut pr)?;
        if tracing {
            report.retained_kb = host::status_kb("VmRSS") as i64 - rss_before as i64;
        }
    }
    report.peak_rss_kb = host::status_kb("VmHWM");
    report.spans = pr.into_spans();
    Some(to_json(&report))
}

fn to_json(r: &Report) -> String {
    let o = &r.outcome;
    let mut s = format!(
        "{{\"ops\":{},\"ops_failed\":{},\"checks\":{},\"checks_failed\":{},\
         \"setup_s\":{},\"run_s\":{},\"teardown_s\":{},\"sim_time_ps\":{},\
         \"allocs\":{},\"alloc_bytes\":{},\"events\":{},\"net_msgs\":{},\"materialized\":{},\
         \"machine_new_s\":{},\"armci_new_s\":{},\"spawn_s\":{},\"region_hit_ratio\":{},\
         \"induced_fences\":{},\"started_unix_ns\":{},\"peak_rss_kb\":{},\"retained_kb\":{},\
         \"ladder\":{{",
        o.ops,
        o.ops_failed,
        o.checks,
        o.checks_failed,
        o.setup_s,
        o.run_s,
        o.teardown_s,
        o.sim_time_ps,
        o.allocs,
        o.alloc_bytes,
        o.events,
        o.net_msgs,
        o.materialized,
        o.machine_new_s,
        o.armci_new_s,
        o.spawn_s,
        o.region_hit_ratio,
        o.induced_fences,
        // As a string: a nanosecond epoch does not fit f64's 53 bits.
        format_args!("\"{}\"", r.started_unix_ns),
        r.peak_rss_kb,
        r.retained_kb,
    );
    for (i, (name, value)) in r.ladder.iter().enumerate() {
        s.push_str(&format!(
            "{}\"{name}\":{value}",
            if i > 0 { "," } else { "" }
        ));
    }
    s.push_str("},\"spans\":[");
    for (i, sp) in r.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        json::push_str(&mut s, &sp.name);
        s.push_str(&format!(
            ",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
            sp.parent.map_or(-1, |p| p as i64),
            sp.start_ns,
            sp.end_ns
        ));
        for (j, (k, v)) in sp.counts.iter().enumerate() {
            s.push_str(&format!("{}\"{k}\":{v}", if j > 0 { "," } else { "" }));
        }
        s.push_str("}}");
    }
    s.push_str("]}");
    s
}

fn from_json(line: &str) -> Result<Report, String> {
    let doc = json::parse(line)?;
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("child line has no number '{key}'"))
    };
    let int = |key: &str| num(key).map(|v| v as u64);
    let outcome = Outcome {
        ops: int("ops")?,
        ops_failed: int("ops_failed")?,
        checks: int("checks")?,
        checks_failed: int("checks_failed")?,
        setup_s: num("setup_s")?,
        run_s: num("run_s")?,
        teardown_s: num("teardown_s")?,
        sim_time_ps: int("sim_time_ps")?,
        allocs: int("allocs")?,
        alloc_bytes: int("alloc_bytes")?,
        events: int("events")?,
        net_msgs: int("net_msgs")?,
        materialized: int("materialized")?,
        machine_new_s: num("machine_new_s")?,
        armci_new_s: num("armci_new_s")?,
        spawn_s: num("spawn_s")?,
        region_hit_ratio: num("region_hit_ratio")?,
        induced_fences: int("induced_fences")?,
    };
    let started_unix_ns = doc
        .get("started_unix_ns")
        .and_then(JsonValue::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or("child line has no 'started_unix_ns'")?;
    let pairs = |v: Option<&JsonValue>| -> Vec<(String, f64)> {
        match v {
            Some(JsonValue::Obj(kv)) => kv
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut spans = Vec::new();
    if let Some(JsonValue::Arr(list)) = doc.get("spans") {
        for sp in list {
            let field = |k: &str| sp.get(k).and_then(JsonValue::as_f64);
            let (Some(name), Some(parent), Some(start), Some(end)) = (
                sp.get("name").and_then(JsonValue::as_str),
                field("parent"),
                field("start_ns"),
                field("end_ns"),
            ) else {
                return Err("child line has a malformed span".to_string());
            };
            spans.push(Span {
                name: name.to_string(),
                parent: (parent >= 0.0).then_some(parent as usize),
                start_ns: start as u64,
                end_ns: end as u64,
                counts: pairs(sp.get("counts"))
                    .into_iter()
                    .map(|(k, v)| (k, v as u64))
                    .collect(),
            });
        }
    }
    Ok(Report {
        outcome,
        started_unix_ns,
        peak_rss_kb: int("peak_rss_kb")?,
        retained_kb: num("retained_kb")? as i64,
        ladder: pairs(doc.get("ladder")),
        spans,
    })
}

/// Parent side: run one child to completion and read its report. The
/// returned report's `setup_s` includes the exec latency — parent's clock
/// before the spawn to the child's clock at `main` — so set-up is what a user
/// waits before the first operation starts.
pub fn spawn(workload: &str, seed: u64, size: Size, tracing: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", workload, "--seed", &seed.to_string()]);
    if tracing {
        cmd.arg("--trace");
    }
    if size == Size::Quick {
        cmd.arg("--quick");
    }
    let before = host::unix_ns();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {workload} failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child {workload} printed nothing"))?;
    let mut report = from_json(line)?;
    let exec_s = report.started_unix_ns.saturating_sub(before) as f64 / 1e9;
    report.outcome.setup_s += exec_s;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_pipe() {
        let r = Report {
            outcome: Outcome {
                ops: 24_576_000,
                checks: 3,
                setup_s: 0.00123,
                run_s: 2.5,
                sim_time_ps: 60_000_123_456_789,
                region_hit_ratio: 0.999,
                ..Outcome::default()
            },
            started_unix_ns: 1_790_000_000_123_456_789,
            peak_rss_kb: 1_260_000,
            retained_kb: -12,
            ladder: vec![("desim.sleep_ns".to_string(), 41.5)],
            spans: vec![Span {
                name: "pami.Machine::new".to_string(),
                parent: None,
                start_ns: 5,
                end_ns: 90,
                counts: vec![("desim.events".to_string(), 7)],
            }],
        };
        assert_eq!(from_json(&to_json(&r)), Ok(r));
    }
}
