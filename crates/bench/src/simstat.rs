//! Core of the `bgq-bench simstat` verb: human reports over `timeline-v1` JSON
//! artifacts — text sparklines per series, health findings per run, and a
//! window-aligned A/B diff when two documents are given.
//!
//! Everything here is a pure function of the parsed documents, so the
//! report is deterministic: same input bytes, same output bytes.

use desim::health::analyze;
use desim::timeline::{SeriesKind, SeriesSnapshot, TimelineDoc};

use crate::memscale::fmt_bytes;

/// Memory-profiler series (`mem.live_bytes.<tag>` gauges emitted by
/// `desim::memprof`) get humanized byte units and their own diff section.
fn is_mem_series(name: &str) -> bool {
    name.starts_with("mem.")
}

/// Sparkline glyphs, lowest to highest.
const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Dense headline values of a series over windows `0..=last recorded`,
/// zero-filled at the gaps (a missing window means nothing happened in it).
fn dense(s: &SeriesSnapshot) -> Vec<f64> {
    let span = s.windows.last().map_or(0, |w| w.idx + 1) as usize;
    let mut vals = vec![0.0; span];
    for w in &s.windows {
        vals[w.idx as usize] = s.headline(w);
    }
    vals
}

/// Render values as a text sparkline at most `width` chars wide, merging
/// adjacent windows when necessary (counters sum, gauges take the max —
/// the same folds the timeline's own coarsening uses). Zero renders as `.`
/// so quiet stretches stay visually distinct from low activity.
pub fn sparkline(vals: &[f64], kind: SeriesKind, width: usize) -> String {
    if vals.is_empty() {
        return String::new();
    }
    let bucket = vals.len().div_ceil(width.max(1));
    let merged: Vec<f64> = vals
        .chunks(bucket)
        .map(|c| match kind {
            SeriesKind::Counter => c.iter().sum(),
            SeriesKind::Gauge => c.iter().copied().fold(f64::MIN, f64::max),
        })
        .collect();
    let peak = merged.iter().copied().fold(0.0f64, f64::max);
    merged
        .iter()
        .map(|&v| {
            if v <= 0.0 || peak <= 0.0 {
                '.'
            } else {
                let lvl = ((v / peak) * 8.0).ceil() as usize;
                BARS[lvl.clamp(1, 8) - 1]
            }
        })
        .collect()
}

/// One-line numeric summary of a series: total+peak for counters,
/// min/max/final for gauges.
fn series_stats(s: &SeriesSnapshot) -> String {
    match s.kind {
        SeriesKind::Counter => {
            let total: u64 = s.windows.iter().map(|w| w.sum).sum();
            let peak = s.windows.iter().map(|w| w.sum).max().unwrap_or(0);
            format!("counter, total {total}, peak {peak}/win")
        }
        SeriesKind::Gauge => {
            let lo = s.windows.iter().map(|w| w.min).min().unwrap_or(0);
            let hi = s.windows.iter().map(|w| w.max).max().unwrap_or(0);
            let last = s.windows.last().map_or(0, |w| w.last);
            if is_mem_series(&s.name) {
                format!(
                    "gauge, min {}, max {}, final {}",
                    fmt_bytes(lo),
                    fmt_bytes(hi),
                    fmt_bytes(last)
                )
            } else {
                format!("gauge, min {lo}, max {hi}, final {last}")
            }
        }
    }
}

/// Comparable scalar for the A/B diff: counter total or gauge overall max.
fn series_total(s: &SeriesSnapshot) -> f64 {
    match s.kind {
        SeriesKind::Counter => s.windows.iter().map(|w| w.sum).sum::<u64>() as f64,
        SeriesKind::Gauge => s.windows.iter().map(|w| w.max).max().unwrap_or(0) as f64,
    }
}

fn fmt_window(ps: u64) -> String {
    if ps.is_multiple_of(1_000_000) {
        format!("{}us", ps / 1_000_000)
    } else if ps.is_multiple_of(1_000) {
        format!("{}ns", ps / 1_000)
    } else {
        format!("{ps}ps")
    }
}

/// Render the single-document report: per-run sparklines and health
/// findings. `label` names the document in the header (usually its path).
pub fn report(label: &str, doc: &TimelineDoc, width: usize) -> String {
    let mut out = format!(
        "== {label} — bench {}, {} run(s) ==\n",
        doc.bench,
        doc.runs.len()
    );
    for (name, snap) in &doc.runs {
        out.push_str(&format!(
            "\n-- run {name:?} (window {}, {} series) --\n",
            fmt_window(snap.window_ps),
            snap.series.len()
        ));
        let name_w = snap
            .series
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0)
            .max(8);
        for s in &snap.series {
            out.push_str(&format!(
                "  {:<name_w$}  {}  ({})\n",
                s.name,
                sparkline(&dense(s), s.kind, width),
                series_stats(s),
            ));
        }
        let findings = analyze(snap);
        if findings.is_empty() {
            out.push_str("  health: no findings\n");
        } else {
            out.push_str(&format!("  health: {} finding(s)\n", findings.len()));
            for f in &findings {
                out.push_str(&format!(
                    "    [{:<8}] w{:<5} {:<18} {}\n",
                    f.severity.as_str(),
                    f.window,
                    f.rule,
                    f.evidence
                ));
            }
        }
    }
    out
}

/// One diff line for a series pair: totals, percentage change, and (when
/// window-aligned) a differing-window count with a |B-A| delta sparkline.
/// `humanize` formats the totals as byte sizes (memory gauges).
fn diff_series_line(
    s: &SeriesSnapshot,
    t: &SeriesSnapshot,
    name_w: usize,
    aligned: bool,
    width: usize,
    humanize: bool,
) -> String {
    let (ta, tb) = (series_total(s), series_total(t));
    let pct = if ta != 0.0 {
        format!("{:+.1}%", 100.0 * (tb - ta) / ta)
    } else if tb == 0.0 {
        "+0.0%".to_string()
    } else {
        "new".to_string()
    };
    let mut line = if humanize {
        format!(
            "  {:<name_w$}  {} -> {} ({pct})",
            s.name,
            fmt_bytes(ta as i64),
            fmt_bytes(tb as i64)
        )
    } else {
        format!("  {:<name_w$}  {ta} -> {tb} ({pct})", s.name)
    };
    if aligned {
        let (da, db) = (dense(s), dense(t));
        let span = da.len().max(db.len());
        let differing = (0..span)
            .filter(|&i| da.get(i).copied().unwrap_or(0.0) != db.get(i).copied().unwrap_or(0.0))
            .count();
        line.push_str(&format!("  {differing}/{span} windows differ"));
        if differing > 0 {
            let delta: Vec<f64> = (0..span)
                .map(|i| {
                    (db.get(i).copied().unwrap_or(0.0) - da.get(i).copied().unwrap_or(0.0)).abs()
                })
                .collect();
            line.push_str(&format!(
                "\n  {:<name_w$}  {}  (|B-A| per window)",
                "",
                sparkline(&delta, SeriesKind::Gauge, width)
            ));
        }
    }
    line.push('\n');
    line
}

/// Render the window-aligned A/B diff of two documents: for each run name
/// present in both, compare every series by total (counter sum / gauge max)
/// and count the windows whose headline values differ. Series present on
/// one side only are listed as such. Memory-profiler series (`mem.*`) get
/// their own section per run, with totals in humanized byte units.
pub fn diff_report(a: &TimelineDoc, b: &TimelineDoc, width: usize) -> String {
    let mut out = String::from("\n== A/B diff (window-aligned) ==\n");
    if a.bench != b.bench {
        out.push_str(&format!(
            "  note: different benches (A {:?}, B {:?})\n",
            a.bench, b.bench
        ));
    }
    for (name, sa) in &a.runs {
        let Some((_, sb)) = b.runs.iter().find(|(n, _)| n == name) else {
            out.push_str(&format!("\n-- run {name:?}: only in A --\n"));
            continue;
        };
        out.push_str(&format!("\n-- run {name:?} --\n"));
        let aligned = sa.window_ps == sb.window_ps;
        if !aligned {
            out.push_str(&format!(
                "  note: window widths differ (A {}, B {}): totals only\n",
                fmt_window(sa.window_ps),
                fmt_window(sb.window_ps)
            ));
        }
        let name_w = sa
            .series
            .iter()
            .chain(sb.series.iter())
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0)
            .max(8);
        // Two passes over the same machinery: ordinary series first, then
        // the memory section (peak live bytes per tag, humanized).
        for mem_pass in [false, true] {
            if mem_pass {
                let any_mem = sa
                    .series
                    .iter()
                    .chain(sb.series.iter())
                    .any(|s| is_mem_series(&s.name));
                if !any_mem {
                    break;
                }
                out.push_str("  -- memory (peak live bytes per window) --\n");
            }
            for s in sa
                .series
                .iter()
                .filter(|s| is_mem_series(&s.name) == mem_pass)
            {
                match sb.series(&s.name) {
                    Some(t) => {
                        out.push_str(&diff_series_line(s, t, name_w, aligned, width, mem_pass))
                    }
                    None => out.push_str(&format!("  {:<name_w$}  only in A\n", s.name)),
                }
            }
            for t in sb
                .series
                .iter()
                .filter(|t| is_mem_series(&t.name) == mem_pass)
            {
                if sa.series(&t.name).is_none() {
                    out.push_str(&format!("  {:<name_w$}  only in B\n", t.name));
                }
            }
        }
    }
    for (name, _) in &b.runs {
        if !a.runs.iter().any(|(n, _)| n == name) {
            out.push_str(&format!("\n-- run {name:?}: only in B --\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::timeline::{SeriesSnapshot, TimelineSnapshot, WindowSample};

    fn cwin(idx: u64, sum: u64) -> WindowSample {
        WindowSample {
            idx,
            sum,
            min: 0,
            max: 0,
            last: 0,
        }
    }

    fn counter(name: &str, wins: &[(u64, u64)]) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            kind: SeriesKind::Counter,
            windows: wins.iter().map(|&(i, s)| cwin(i, s)).collect(),
        }
    }

    fn doc(runs: Vec<(&str, TimelineSnapshot)>) -> TimelineDoc {
        TimelineDoc {
            bench: "demo".to_string(),
            runs: runs.into_iter().map(|(n, s)| (n.to_string(), s)).collect(),
        }
    }

    #[test]
    fn sparkline_normalizes_and_marks_zeros() {
        let line = sparkline(&[0.0, 1.0, 4.0, 8.0], SeriesKind::Counter, 16);
        assert_eq!(line, ".▁▄█");
        // Merging: 8 values into 4 buckets, counters sum pairwise.
        let line = sparkline(
            &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 4.0, 4.0],
            SeriesKind::Counter,
            4,
        );
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('█'));
        assert_eq!(line.chars().nth(1), Some('.'));
    }

    #[test]
    fn report_and_diff_are_deterministic_and_complete() {
        let snap_a = TimelineSnapshot {
            window_ps: 1_000_000,
            series: vec![counter("net.msgs", &[(0, 10), (2, 5)])],
        };
        let snap_b = TimelineSnapshot {
            window_ps: 1_000_000,
            series: vec![
                counter("net.msgs", &[(0, 10), (2, 9)]),
                counter("net.bytes", &[(1, 64)]),
            ],
        };
        let a = doc(vec![("run", snap_a)]);
        let b = doc(vec![("run", snap_b)]);
        let r = report("a.json", &a, 64);
        assert_eq!(r, report("a.json", &a, 64));
        assert!(r.contains("bench demo"));
        assert!(r.contains("net.msgs"));
        assert!(r.contains("total 15, peak 10/win"));
        assert!(r.contains("health: no findings"));
        let d = diff_report(&a, &b, 64);
        assert_eq!(d, diff_report(&a, &b, 64));
        assert!(d.contains("15 -> 19"));
        assert!(d.contains("1/3 windows differ"));
        assert!(d.contains("only in B"));
    }

    fn mem_gauge(name: &str, wins: &[(u64, i64)]) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            kind: SeriesKind::Gauge,
            windows: wins
                .iter()
                .map(|&(idx, v)| WindowSample {
                    idx,
                    sum: 0,
                    min: v,
                    max: v,
                    last: v,
                })
                .collect(),
        }
    }

    #[test]
    fn mem_series_are_humanized_and_get_their_own_diff_section() {
        let snap_a = TimelineSnapshot {
            window_ps: 1_000_000,
            series: vec![
                counter("net.msgs", &[(0, 10)]),
                mem_gauge("mem.live_bytes.pami.queues", &[(0, 4096), (1, 6144)]),
            ],
        };
        let snap_b = TimelineSnapshot {
            window_ps: 1_000_000,
            series: vec![
                counter("net.msgs", &[(0, 10)]),
                mem_gauge("mem.live_bytes.pami.queues", &[(0, 4096), (1, 8192)]),
            ],
        };
        let a = doc(vec![("run", snap_a)]);
        let b = doc(vec![("run", snap_b)]);
        let r = report("a.json", &a, 64);
        // Gauge headline uses byte units for mem.* series only.
        assert!(r.contains("min 4.0KiB, max 6.0KiB, final 6.0KiB"));
        assert!(r.contains("total 10"));
        let d = diff_report(&a, &b, 64);
        assert!(d.contains("-- memory (peak live bytes per window) --"));
        assert!(d.contains("6.0KiB -> 8.0KiB"));
        // The ordinary section still lists the non-memory series first.
        let net = d.find("net.msgs").unwrap();
        let mem = d.find("-- memory").unwrap();
        assert!(net < mem);
    }
}
