//! The parent process: spawns one fresh child per repeat, never two at
//! once (the host has two cores and a second busy process would measure the
//! scheduler), and turns their reports into metrics. Two front ends share
//! it: the driver's `--workload W --seed N --seconds S --trace 0|1` and the
//! full `run` that cycles through all six workloads.

use std::time::Instant;

use desim::json;

use crate::child::{self, Report};
use crate::probe::{self, Span};
use crate::spec::{self, Metric, END_TO_END, LADDER, PER_WORKLOAD, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::workloads::Size;

/// Fewest repeats a timed run reports a median of.
const MIN_REPS: usize = 3;
/// Traced repeats per workload in a full run: enough for a median, so that
/// `trace.overhead_pct` is not one repeat's luck.
const TRACED_REPS: usize = 3;

/// The value of each end-to-end metric (in [`END_TO_END`] order) for one
/// repeat.
fn end_to_end(r: &Report) -> [f64; 5] {
    let o = &r.outcome;
    [
        o.ops as f64 / o.run_s,
        o.setup_s + o.run_s + o.teardown_s,
        o.setup_s,
        r.peak_rss_kb as f64 / 1024.0,
        (o.ops_failed + o.checks_failed) as f64 / (o.ops + o.checks) as f64,
    ]
}

/// `(attempted, failed)` over the repeats of one workload and seed:
/// operations and invariant checks, plus one comparison of each later
/// repeat's simulated end time with the first's.
fn tally<'a>(reports: impl IntoIterator<Item = &'a Report>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let mut signature = None;
    for r in reports {
        attempted += r.outcome.ops + r.outcome.checks;
        failed += r.outcome.ops_failed + r.outcome.checks_failed;
        if r.outcome.ops_failed + r.outcome.checks_failed > 0 {
            eprintln!(
                "bgq-perf: FAILED {} ops, {} checks",
                r.outcome.ops_failed, r.outcome.checks_failed
            );
        }
        if let Some(first) = signature {
            attempted += 1;
            if r.outcome.sim_time_ps != first {
                failed += 1;
                eprintln!(
                    "bgq-perf: FAILED simulated end time {} ps, an earlier repeat had {first}",
                    r.outcome.sim_time_ps
                );
            }
        }
        signature.get_or_insert(r.outcome.sim_time_ps);
    }
    (attempted, failed)
}

/// Per-workload metrics of a traced run, in [`PER_WORKLOAD`] order up to
/// `trace.overhead_pct` (the last one, which also needs untraced repeats):
/// timings are medians over the traced repeats, counts come from the first
/// ([`count_mismatches`] checks the others agree).
fn per_workload(traced: &[Report]) -> Vec<f64> {
    let first = &traced[0].outcome;
    let per_op = |v: u64| v as f64 / first.ops as f64;
    let med = |f: &dyn Fn(&Report) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    vec![
        first.sim_time_ps as f64,
        per_op(first.allocs),
        per_op(first.alloc_bytes),
        med(&|r| r.outcome.teardown_s),
        med(&|r| r.retained_kb as f64 / 1024.0),
        per_op(first.events),
        per_op(first.net_msgs),
        first.materialized as f64,
        med(&|r| r.outcome.machine_new_s),
        med(&|r| r.outcome.armci_new_s),
        med(&|r| r.outcome.spawn_s),
        first.region_hit_ratio,
        per_op(first.induced_fences),
    ]
}

/// How many traced repeats disagree with the first on a count (the raw
/// counts behind [`spec::COUNTS`], in that order, under its tolerances).
fn count_mismatches(traced: &[Report]) -> u64 {
    let counts = |r: &Report| {
        let o = &r.outcome;
        [
            o.sim_time_ps,
            o.allocs,
            o.alloc_bytes,
            o.events,
            o.net_msgs,
            o.materialized,
            o.induced_fences,
        ]
    };
    let first = counts(&traced[0]);
    traced[1..]
        .iter()
        .filter(|r| {
            let agree = |((a, b), (_, tolerance)): ((&u64, u64), &(&str, f64))| {
                spec::counts_agree(*a as f64, b as f64, *tolerance)
            };
            let same = first.iter().zip(counts(r)).zip(&spec::COUNTS).all(agree);
            if !same {
                eprintln!(
                    "bgq-perf: FAILED counts {:?}, first repeat had {first:?}",
                    counts(r)
                );
            }
            !same
        })
        .count() as u64
}

/// Median `wall_s` of some repeats.
fn wall(reports: &[Report]) -> f64 {
    median(&reports.iter().map(|r| end_to_end(r)[1]).collect::<Vec<_>>())
}

/// Simulated end time recorded for seed 1 in `expected.json`, if any.
fn expected_sim_time_ps(workload: &str) -> Option<u64> {
    let doc = std::fs::read_to_string(spec::bench_dir().join("expected.json")).ok()?;
    let doc = json::parse(&doc).ok()?;
    let v = doc.get("model.sim_time_ps")?.get(workload)?.as_f64()?;
    Some(v as u64)
}

/// Say (never gate) whether seed 1's simulated time is the recorded one: a
/// change meant to touch host time only must leave it alone.
fn report_expected(workload: &str, seed: u64, got: u64) {
    if seed != 1 {
        return;
    }
    match expected_sim_time_ps(workload) {
        Some(want) if want == got => {}
        Some(want) => eprintln!(
            "bgq-perf: NOTE model.sim_time_ps.{workload} = {got}, expected.json has {want}: \
             simulated time moved"
        ),
        None => eprintln!("bgq-perf: NOTE expected.json has no model.sim_time_ps.{workload}"),
    }
}

fn write_trace(file: &str, traces: &[(String, Vec<Span>)]) -> Result<(), String> {
    let dir = spec::bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, probe::chrome_trace(traces))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The line the driver reads: verdict, counts and `(metric, value)` pairs.
fn result_line(metrics: &[(Metric, f64)], attempted: u64, failed: u64) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, (m, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{{\"value\":", m.name));
        json::push_f64(&mut s, *v);
        s.push_str(&format!(",\"unit\":\"{}\"}}", m.unit));
    }
    s.push_str("}}");
    s
}

/// The ladder child's value for every [`LADDER`] metric, in that order.
fn ladder_values(ladder: &Report) -> Result<Vec<f64>, String> {
    LADDER
        .iter()
        .map(|m| {
            let v = ladder.ladder.iter().find(|(n, _)| n == m.name);
            v.map(|&(_, v)| v)
                .ok_or_else(|| format!("ladder child did not report {}", m.name))
        })
        .collect()
}

/// The driver's entry: measure one workload for about `seconds` and return
/// the result line. Untraced, that is fresh-process repeats until the time is
/// up (at least [`MIN_REPS`]) and the medians of the end-to-end metrics.
/// Traced, it is the ladder, then alternating untraced and traced repeats,
/// and every per-layer metric; the spans go to `out/trace.<workload>.json`.
pub fn drive(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    size: Size,
) -> Result<String, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    crate::host::warn_if_loaded();
    if traced {
        return drive_traced(workload, seed, seconds, size);
    }
    let t0 = Instant::now();
    let mut reports = Vec::new();
    while reports.len() < MIN_REPS || t0.elapsed().as_secs() < seconds {
        reports.push(child::spawn(workload, seed, size, false)?);
    }
    report_expected(workload, seed, reports[0].outcome.sim_time_ps);
    let (attempted, failed) = tally(&reports);
    let metrics: Vec<(Metric, f64)> = END_TO_END[..4]
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let values: Vec<f64> = reports.iter().map(|r| end_to_end(r)[i]).collect();
            (m, median(&values))
        })
        .collect();
    Ok(result_line(&metrics, attempted, failed))
}

fn drive_traced(workload: &str, seed: u64, seconds: u64, size: Size) -> Result<String, String> {
    let t0 = Instant::now();
    let ladder = child::spawn("ladder", seed, size, true)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || t0.elapsed().as_secs() < seconds {
        // Alternate which side goes first.
        for tracing in [traced.len() % 2 == 1, traced.len() % 2 == 0] {
            let r = child::spawn(workload, seed, size, tracing)?;
            if tracing { &mut traced } else { &mut plain }.push(r);
        }
    }
    let (attempted, failed) = tally(plain.iter().chain(&traced));
    let (attempted, failed) = (
        attempted + traced.len() as u64 - 1,
        failed + count_mismatches(&traced),
    );
    let overhead_pct = (wall(&traced) / wall(&plain) - 1.0) * 100.0;
    let values = ladder_values(&ladder)?
        .into_iter()
        .chain(per_workload(&traced))
        .chain([overhead_pct]);
    let metrics: Vec<(Metric, f64)> = LADDER
        .iter()
        .chain(&PER_WORKLOAD)
        .copied()
        .zip(values)
        .collect();
    let mut traces = vec![("ladder".to_string(), ladder.spans)];
    for (i, r) in traced.into_iter().enumerate() {
        traces.push((format!("{workload} rep {i}"), r.spans));
    }
    write_trace(&format!("trace.{workload}.json"), &traces)?;
    Ok(result_line(&metrics, attempted, failed))
}

/// One row of a full run's output.
struct Row {
    name: String,
    unit: &'static str,
    values: Vec<f64>,
}

impl Row {
    fn json(&self) -> String {
        let q = quartiles(&self.values);
        let mut s = String::from("{\"name\":");
        json::push_str(&mut s, &self.name);
        s.push_str(&format!(
            ",\"unit\":\"{}\",\"n\":{}",
            self.unit,
            self.values.len()
        ));
        for (k, v) in [("median", q.median), ("q1", q.q1), ("q3", q.q3)] {
            s.push_str(&format!(",\"{k}\":"));
            json::push_f64(&mut s, v);
        }
        s.push_str(",\"values\":[");
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_f64(&mut s, *v);
        }
        s.push_str("]}");
        s
    }

    fn print(&self) {
        let q = quartiles(&self.values);
        if self.values.len() > 1 {
            println!(
                "{:<42} {:>16.6} {:<6} median of {} (q1 {:.6}, q3 {:.6})",
                self.name,
                q.median,
                self.unit,
                self.values.len(),
                q.q1,
                q.q3
            );
        } else {
            println!("{:<42} {:>16.6} {}", self.name, q.median, self.unit);
        }
    }
}

/// The per-layer half of a full run: runs the ladder and turns it and the
/// `traced` repeats of each workload into rows. Returns the rows and
/// `(attempted, failed)` of its own checks; writes the spans to `trace_out`.
fn traced_rows(
    seed: u64,
    size: Size,
    plain: &[Vec<Report>],
    traced: Vec<Vec<Report>>,
    trace_out: &str,
) -> Result<(Vec<Row>, u64, u64), String> {
    eprintln!("bgq-perf: traced run: ladder");
    let ladder = child::spawn("ladder", seed, size, true)?;
    let mut rows: Vec<Row> = LADDER
        .iter()
        .zip(ladder_values(&ladder)?)
        .map(|(m, v)| Row {
            name: m.name.to_string(),
            unit: m.unit,
            values: vec![v],
        })
        .collect();
    // Traced repeats must tell the same story as the untraced ones, and as
    // each other.
    let (mut attempted, mut failed) = (0, 0);
    for (traced, plain) in traced.iter().zip(plain) {
        attempted += traced.len() as u64;
        failed += count_mismatches(traced)
            + u64::from(traced[0].outcome.sim_time_ps != plain[0].outcome.sim_time_ps);
    }
    let per: Vec<Vec<f64>> = traced.iter().map(|t| per_workload(t)).collect();
    for (i, m) in PER_WORKLOAD[..PER_WORKLOAD.len() - 1].iter().enumerate() {
        for (w, name) in WORKLOADS.iter().enumerate() {
            if spec::reported_on(m.name).is_none_or(|on| on.contains(name)) {
                rows.push(Row {
                    name: format!("{}.{name}", m.name),
                    unit: m.unit,
                    values: vec![per[w][i]],
                });
            }
        }
    }
    // One overhead figure for the whole run: all traced wall over all
    // untraced wall.
    let total = |sets: &[Vec<Report>]| sets.iter().map(|s| wall(s)).sum::<f64>();
    let overhead = PER_WORKLOAD[PER_WORKLOAD.len() - 1];
    rows.push(Row {
        name: overhead.name.to_string(),
        unit: overhead.unit,
        values: vec![(total(&traced) / total(plain) - 1.0) * 100.0],
    });
    let mut traces = vec![("ladder".to_string(), ladder.spans)];
    for (name, reports) in WORKLOADS.iter().zip(traced) {
        for (i, r) in reports.into_iter().enumerate() {
            traces.push((format!("{name} rep {i}"), r.spans));
        }
    }
    std::fs::write(trace_out, probe::chrome_trace(&traces))
        .map_err(|e| format!("{trace_out}: {e}"))?;
    Ok((rows, attempted, failed))
}

/// The full run behind `run.sh`: `reps` fresh-process repeats of each
/// workload, cycling w1…w6 and again so that slow drift of the host spreads
/// over all of them. With `trace_out`, the separate traced run for the
/// per-layer numbers as well: a traced cycle after each of the first
/// [`TRACED_REPS`] untraced ones (so the same drift reaches both sides of
/// `trace.overhead_pct`), and the ladder at the end. Prints every metric by name with its unit,
/// writes `out` (what `compare` reads) and returns whether every check
/// passed.
pub fn full_run(
    seed: u64,
    reps: usize,
    size: Size,
    out: &str,
    trace_out: Option<&str>,
) -> Result<bool, String> {
    crate::host::warn_if_loaded();
    let host = crate::host::fingerprint_json();
    let mut reports: Vec<Vec<Report>> = vec![Vec::new(); WORKLOADS.len()];
    let mut traced = reports.clone();
    for rep in 0..reps {
        for tracing in [false, true] {
            if tracing && (trace_out.is_none() || rep >= TRACED_REPS) {
                continue;
            }
            for (w, name) in WORKLOADS.iter().enumerate() {
                let kind = if tracing { " (traced)" } else { "" };
                eprintln!("bgq-perf: {name} repeat {}/{reps}{kind}", rep + 1);
                let set = if tracing { &mut traced } else { &mut reports };
                set[w].push(child::spawn(name, seed, size, tracing)?);
            }
        }
    }
    let mut rows = Vec::new();
    for (i, m) in END_TO_END.iter().enumerate() {
        for (w, name) in WORKLOADS.iter().enumerate() {
            rows.push(Row {
                name: format!("{}.{name}", m.name),
                unit: m.unit,
                values: reports[w].iter().map(|r| end_to_end(r)[i]).collect(),
            });
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    for (w, name) in WORKLOADS.iter().enumerate() {
        let (a, f) = tally(&reports[w]);
        attempted += a;
        failed += f;
        report_expected(name, seed, reports[w][0].outcome.sim_time_ps);
    }
    let mut layer_rows = Vec::new();
    if let Some(trace_out) = trace_out {
        let (rows, a, f) = traced_rows(seed, size, &reports, traced, trace_out)?;
        layer_rows = rows;
        attempted += a;
        failed += f;
    }
    println!("# end to end: fresh-process repeats, tracing off");
    rows.iter().for_each(Row::print);
    if !layer_rows.is_empty() {
        println!("# per layer: the traced run");
        layer_rows.iter().for_each(Row::print);
    }
    println!("# checks: {attempted} attempted, {failed} failed");
    let list = |rows: &[Row]| rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n  ");
    let doc = format!(
        "{{\"schema\":\"bgq-perf-run-v1\",\"seed\":{seed},\"reps\":{reps},\"host\":{host},\n \
         \"attempted\":{attempted},\"failed\":{failed},\n \"end_to_end\":[\n  {}],\n \
         \"per_layer\":[\n  {}]}}\n",
        list(&rows),
        list(&layer_rows)
    );
    std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
    println!("# wrote {out}");
    Ok(failed == 0)
}
