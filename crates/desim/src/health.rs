//! Deterministic health rules over recorded timelines.
//!
//! [`analyze`] walks a [`TimelineSnapshot`] and flags anomalies as
//! [`Finding`]s — `(window, rule, severity, evidence)` tuples. Every rule is
//! a pure function of the snapshot and the thresholds below, so findings are
//! byte-identical across runs and identical whether computed on a live
//! timeline or on a parsed `timeline-v1` file.
//!
//! Rules shipped:
//! - **congestion-onset** — aggregate link wait time (`net.link_wait_ps`)
//!   stays above a fraction of the window width for N consecutive recorded
//!   windows; reported once at the first window of each such run.
//! - **retry-storm** — `pami.retries` in a single window reaches the
//!   threshold; reported at the first window of each burst.
//! - **queue-runaway** — the per-window max of the `pami.queue_depth` gauge
//!   grows strictly monotonically for N consecutive windows, ending at or
//!   above a floor depth.
//! - **starvation** — context lock wait (`pami.ctx.lock_wait_ps`) consumes
//!   more than a fraction of a window.

use crate::time::SimTime;
use crate::timeline::{SeriesKind, TimelineSnapshot};
use crate::trace::{TraceValue, Tracer};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look.
    Info,
    /// Sustained degradation.
    Warning,
    /// Run-dominating pathology.
    Critical,
}

impl Severity {
    /// Stable lowercase name, used in reports and trace args.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Window index where the anomaly begins.
    pub window: u64,
    /// Rule name (stable identifier, e.g. `congestion-onset`).
    pub rule: &'static str,
    /// How bad.
    pub severity: Severity,
    /// Human-readable, deterministic evidence string.
    pub evidence: String,
}

// Detector thresholds, tuned for the bench workloads in this repo; see
// DESIGN.md §13 for the reasoning.

/// congestion-onset: aggregate link wait must exceed this fraction of the
/// window width...
const CONGESTION_WAIT_FRAC: f64 = 0.5;
/// ...for at least this many consecutive recorded windows.
const CONGESTION_WINDOWS: usize = 3;
/// congestion severity escalates to Critical at this multiple of the wait
/// threshold.
const CONGESTION_CRITICAL_MULT: f64 = 8.0;
/// retry-storm: retries in one window at or above this count.
const RETRY_STORM_PER_WINDOW: u64 = 3;
/// queue-runaway: strictly increasing per-window max depth for this many
/// consecutive windows...
const QUEUE_RUNAWAY_WINDOWS: usize = 4;
/// ...ending at or above this depth.
const QUEUE_RUNAWAY_MIN_DEPTH: i64 = 8;
/// starvation: lock wait above this fraction of a window.
const STARVATION_WAIT_FRAC: f64 = 0.5;

/// Run every detector over a snapshot. Findings come back sorted by
/// `(window, rule)` so output order is deterministic regardless of which
/// rule fired first.
pub fn analyze(snap: &TimelineSnapshot) -> Vec<Finding> {
    let mut out = Vec::new();
    congestion_onset(snap, &mut out);
    retry_storm(snap, &mut out);
    queue_runaway(snap, &mut out);
    starvation(snap, &mut out);
    out.sort_by(|a, b| (a.window, a.rule).cmp(&(b.window, b.rule)));
    out
}

fn congestion_onset(snap: &TimelineSnapshot, out: &mut Vec<Finding>) {
    let Some(s) = snap.series("net.link_wait_ps") else {
        return;
    };
    if s.kind != SeriesKind::Counter {
        return;
    }
    let threshold = CONGESTION_WAIT_FRAC * snap.window_ps as f64;
    let mut run_start: Option<(u64, f64)> = None; // (first window, peak wait)
    let mut run_len = 0usize;
    let flush = |start: Option<(u64, f64)>, len: usize, out: &mut Vec<Finding>| {
        if let Some((w0, peak)) = start {
            if len >= CONGESTION_WINDOWS {
                let severity = if peak >= threshold * CONGESTION_CRITICAL_MULT {
                    Severity::Critical
                } else {
                    Severity::Warning
                };
                out.push(Finding {
                    window: w0,
                    rule: "congestion-onset",
                    severity,
                    evidence: format!(
                        "link wait >= {:.0} ps/window for {len} windows (peak {:.0} ps, {:.2}x window)",
                        threshold,
                        peak,
                        peak / snap.window_ps as f64
                    ),
                });
            }
        }
    };
    let mut prev_idx: Option<u64> = None;
    for w in &s.windows {
        let contiguous = prev_idx.is_none_or(|p| w.idx == p + 1);
        let hot = w.sum as f64 >= threshold;
        if hot && contiguous && run_start.is_some() {
            run_len += 1;
            if let Some(r) = run_start.as_mut() {
                r.1 = r.1.max(w.sum as f64);
            }
        } else {
            flush(run_start.take(), run_len, out);
            run_len = 0;
            if hot {
                run_start = Some((w.idx, w.sum as f64));
                run_len = 1;
            }
        }
        prev_idx = Some(w.idx);
    }
    flush(run_start.take(), run_len, out);
}

fn retry_storm(snap: &TimelineSnapshot, out: &mut Vec<Finding>) {
    let Some(s) = snap.series("pami.retries") else {
        return;
    };
    if s.kind != SeriesKind::Counter {
        return;
    }
    let mut in_storm = false;
    let mut prev_idx: Option<u64> = None;
    for w in &s.windows {
        // A gap in the recorded windows means zero retries there: any
        // ongoing storm ended.
        if prev_idx.is_none_or(|p| w.idx != p + 1) {
            in_storm = false;
        }
        prev_idx = Some(w.idx);
        let stormy = w.sum >= RETRY_STORM_PER_WINDOW;
        if stormy && !in_storm {
            out.push(Finding {
                window: w.idx,
                rule: "retry-storm",
                severity: if w.sum >= RETRY_STORM_PER_WINDOW * 4 {
                    Severity::Critical
                } else {
                    Severity::Warning
                },
                evidence: format!(
                    "{} retries in one window (threshold {})",
                    w.sum, RETRY_STORM_PER_WINDOW
                ),
            });
        }
        in_storm = stormy;
    }
}

fn queue_runaway(snap: &TimelineSnapshot, out: &mut Vec<Finding>) {
    let Some(s) = snap.series("pami.queue_depth") else {
        return;
    };
    if s.kind != SeriesKind::Gauge {
        return;
    }
    let w = &s.windows;
    let mut i = 0;
    while i < w.len() {
        // Longest strictly-increasing contiguous run of per-window maxima
        // starting at i.
        let mut j = i;
        while j + 1 < w.len() && w[j + 1].idx == w[j].idx + 1 && w[j + 1].max > w[j].max {
            j += 1;
        }
        let len = j - i + 1;
        if len >= QUEUE_RUNAWAY_WINDOWS && w[j].max >= QUEUE_RUNAWAY_MIN_DEPTH {
            out.push(Finding {
                window: w[i].idx,
                rule: "queue-runaway",
                severity: Severity::Warning,
                evidence: format!(
                    "queue depth max grew {} -> {} over {len} windows",
                    w[i].max, w[j].max
                ),
            });
        }
        i = j + 1;
    }
}

fn starvation(snap: &TimelineSnapshot, out: &mut Vec<Finding>) {
    let Some(s) = snap.series("pami.ctx.lock_wait_ps") else {
        return;
    };
    if s.kind != SeriesKind::Counter {
        return;
    }
    let threshold = STARVATION_WAIT_FRAC * snap.window_ps as f64;
    let mut starved = false;
    let mut prev_idx: Option<u64> = None;
    for w in &s.windows {
        if prev_idx.is_none_or(|p| w.idx != p + 1) {
            starved = false;
        }
        prev_idx = Some(w.idx);
        let hot = w.sum as f64 >= threshold;
        if hot && !starved {
            out.push(Finding {
                window: w.idx,
                rule: "starvation",
                severity: Severity::Info,
                evidence: format!(
                    "context lock wait {:.0} ps in one window ({:.2}x window width)",
                    w.sum as f64,
                    w.sum as f64 / snap.window_ps as f64
                ),
            });
        }
        starved = hot;
    }
}

/// Mirror findings into a tracer as instants on a `health` track, so they
/// land time-aligned next to spans and counter tracks in the Chrome trace.
/// No-op when the tracer is disabled.
pub fn emit_instants(tracer: &Tracer, findings: &[Finding], window_ps: u64) {
    if !tracer.on() || findings.is_empty() {
        return;
    }
    let track = tracer.track("health");
    for f in findings {
        tracer.instant(
            track,
            f.rule,
            SimTime(f.window * window_ps),
            &[
                ("severity", TraceValue::Str(f.severity.as_str())),
                ("window", TraceValue::U64(f.window)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{SeriesKind, Timeline};

    fn t(us: u64) -> SimTime {
        SimTime(us * 1_000_000)
    }

    fn base() -> Timeline {
        let tl = Timeline::new();
        tl.enable(1_000_000, 4096); // 1 µs windows
        tl
    }

    #[test]
    fn congestion_onset_fires_on_sustained_wait() {
        let tl = base();
        let id = tl.series("net.link_wait_ps", SeriesKind::Counter);
        // Windows 2..=5 each carry 0.6 µs of wait (threshold 0.5 µs).
        for w in 2..=5u64 {
            tl.add(id, t(w), 600_000);
        }
        tl.add(id, t(9), 600_000); // isolated hot window: no finding
        let f = analyze(&tl.snapshot());
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].window, f[0].rule), (2, "congestion-onset"));
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn congestion_escalates_to_critical() {
        let tl = base();
        let id = tl.series("net.link_wait_ps", SeriesKind::Counter);
        for w in 0..3u64 {
            tl.add(id, t(w), 5_000_000); // 10x threshold
        }
        let f = analyze(&tl.snapshot());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Critical);
    }

    #[test]
    fn retry_storm_reports_burst_onsets() {
        let tl = base();
        let id = tl.series("pami.retries", SeriesKind::Counter);
        tl.add(id, t(1), 1); // below threshold
        tl.add(id, t(3), 5); // storm 1
        tl.add(id, t(4), 4);
        tl.add(id, t(7), 13); // storm 2, critical
        let f = analyze(&tl.snapshot());
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].window, f[0].severity), (3, Severity::Warning));
        assert_eq!((f[1].window, f[1].severity), (7, Severity::Critical));
    }

    #[test]
    fn queue_runaway_needs_monotone_growth() {
        let tl = base();
        let id = tl.series("pami.queue_depth", SeriesKind::Gauge);
        for (w, d) in [(0, 1), (1, 3), (2, 5), (3, 9)] {
            tl.gauge(id, t(w), d);
        }
        let f = analyze(&tl.snapshot());
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].window, f[0].rule), (0, "queue-runaway"));

        // Flat depth: no finding.
        let tl2 = base();
        let id2 = tl2.series("pami.queue_depth", SeriesKind::Gauge);
        for w in 0..8u64 {
            tl2.gauge(id2, t(w), 9);
        }
        assert!(analyze(&tl2.snapshot()).is_empty());
    }

    #[test]
    fn starvation_flags_dominated_windows() {
        let tl = base();
        let id = tl.series("pami.ctx.lock_wait_ps", SeriesKind::Counter);
        tl.add(id, t(4), 800_000);
        let f = analyze(&tl.snapshot());
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].window, f[0].rule), (4, "starvation"));
    }

    #[test]
    fn findings_sort_by_window_then_rule() {
        let tl = base();
        let r = tl.series("pami.retries", SeriesKind::Counter);
        let w = tl.series("net.link_wait_ps", SeriesKind::Counter);
        tl.add(r, t(2), 9);
        for i in 2..=4u64 {
            tl.add(w, t(i), 900_000);
        }
        let f = analyze(&tl.snapshot());
        assert_eq!(
            f.iter().map(|x| (x.window, x.rule)).collect::<Vec<_>>(),
            vec![(2, "congestion-onset"), (2, "retry-storm")]
        );
    }

    #[test]
    fn analysis_is_identical_on_parsed_snapshots() {
        let tl = base();
        let id = tl.series("net.link_wait_ps", SeriesKind::Counter);
        for w in 0..4u64 {
            tl.add(id, t(w), 700_000);
        }
        let snap = tl.snapshot();
        let doc = crate::timeline::TimelineDoc {
            bench: "unit".into(),
            runs: vec![("r".into(), snap.clone())],
        };
        let back = crate::timeline::TimelineDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(analyze(&snap), analyze(&back.runs[0].1));
    }
}
