//! Windowed time-series telemetry: deterministic counter/gauge timelines.
//!
//! A [`Timeline`] buckets samples into fixed-width windows of virtual time
//! (`window_ps` picoseconds). Counters accumulate per-window deltas; gauges
//! keep per-window min/max/last. Producers write only through
//! [`crate::Probe`] rows: a row's series is interned by name on its first
//! record while enabled, and its slot maps to the series from then on, so
//! the hot path never compares strings.
//!
//! Like [`crate::Tracer`], a timeline is **disabled by default** and free
//! when disabled: every record call is a single flag check.
//!
//! Series length is bounded: when any series would exceed `max_windows`,
//! the whole timeline **coarsens** — `window_ps` doubles and adjacent window
//! pairs merge (counter sums add; gauge min/max fold, `last` comes from the
//! later half). Merging is exact: the coarsened timeline is byte-identical
//! to re-sampling the same stream at the doubled width, so downsampling
//! never invents or loses data relative to a coarser recording.
//!
//! Export is the fixed-schema `timeline-v1` JSON (see [`TimelineDoc`]),
//! written with [`crate::json`] so output is deterministic, and parsed back
//! with the same module so tools ([`crate::health`], `simstat`) operate
//! identically on live snapshots and loaded files.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::json::{self, JsonValue};
use crate::memprof::{self, MemTag};
use crate::probe::Probe;
use crate::time::SimTime;

/// Series storage and window vectors (memory-profiler attribution).
static TIMELINE_TAG: MemTag = MemTag::new("desim.timeline");

/// What a series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone event/quantity accumulation; each window holds the delta sum.
    Counter,
    /// Sampled live state; each window holds min/max/last of the samples.
    Gauge,
}

impl SeriesKind {
    /// Schema string used in `timeline-v1` JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One gauge window: min/max/last of the samples that landed in it.
/// `last_at` orders samples within the window so out-of-order recording
/// (arrival times computed ahead of `now`) still yields the true last value.
#[derive(Debug, Clone, Copy)]
struct GaugeWin {
    idx: u64,
    min: i64,
    max: i64,
    last: i64,
    last_at: u64,
}

/// Per-series window storage, kept sorted by window index.
#[derive(Debug)]
enum Windows {
    Counter(Vec<(u64, u64)>),
    Gauge(Vec<GaugeWin>),
}

impl Windows {
    fn len(&self) -> usize {
        match self {
            Windows::Counter(v) => v.len(),
            Windows::Gauge(v) => v.len(),
        }
    }
}

#[derive(Debug)]
struct Series {
    name: String,
    windows: Windows,
    /// Running level of a gauge fed by deltas ([`Timeline::level`]).
    level: i64,
}

#[derive(Debug)]
struct TimelineInner {
    enabled: Cell<bool>,
    window_ps: Cell<u64>,
    max_windows: Cell<usize>,
    series: RefCell<Vec<Series>>,
    /// Row slot → its series, from the row's first record.
    rows: RefCell<Vec<Option<usize>>>,
}

/// Shared handle to a windowed telemetry recorder. Clones share state.
#[derive(Clone, Debug)]
pub struct Timeline {
    inner: Rc<TimelineInner>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// New disabled timeline. Recording is free until [`Timeline::enable`].
    pub fn new() -> Timeline {
        Timeline {
            inner: Rc::new(TimelineInner {
                enabled: Cell::new(false),
                window_ps: Cell::new(1),
                max_windows: Cell::new(usize::MAX),
                series: RefCell::new(Vec::new()),
                rows: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Enable recording with `window_ps`-wide windows and at most
    /// `max_windows` windows per series (coarsening doubles the width when
    /// the cap would be exceeded). Clears any previously recorded data.
    pub fn enable(&self, window_ps: u64, max_windows: usize) {
        assert!(window_ps > 0, "window_ps must be positive");
        assert!(max_windows >= 2, "max_windows must be at least 2");
        self.inner.enabled.set(true);
        self.inner.window_ps.set(window_ps);
        self.inner.max_windows.set(max_windows);
        self.inner.series.borrow_mut().clear();
        self.inner.rows.borrow_mut().clear();
    }

    /// Is the timeline currently recording?
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Current window width in picoseconds (grows if coarsening kicked in).
    pub fn window_ps(&self) -> u64 {
        self.inner.window_ps.get()
    }

    /// Intern a series by name (while enabled): its index until the next
    /// enable. Interning a name again must give the same kind.
    pub(crate) fn series(&self, name: &str, kind: SeriesKind) -> usize {
        let _mem = memprof::scope(&TIMELINE_TAG);
        let mut series = self.inner.series.borrow_mut();
        if let Some(i) = series.iter().position(|s| s.name == name) {
            let have = match series[i].windows {
                Windows::Counter(_) => SeriesKind::Counter,
                Windows::Gauge(_) => SeriesKind::Gauge,
            };
            assert!(
                have == kind,
                "series {name:?} re-interned with a different kind"
            );
            return i;
        }
        series.push(Series {
            name: name.to_string(),
            windows: match kind {
                SeriesKind::Counter => Windows::Counter(Vec::new()),
                SeriesKind::Gauge => Windows::Gauge(Vec::new()),
            },
            level: 0,
        });
        series.len() - 1
    }

    /// The series `row` feeds, interned on the row's first record; `None`
    /// while disabled or when the row feeds no series.
    #[inline]
    pub(crate) fn row(&self, row: &Probe) -> Option<usize> {
        let (name, kind) = row.series_of().filter(|_| self.on())?;
        let slot = row.slot();
        if let Some(&Some(id)) = self.inner.rows.borrow().get(slot) {
            return Some(id);
        }
        let id = self.series(name, kind);
        let _mem = memprof::scope(&TIMELINE_TAG);
        let mut rows = self.inner.rows.borrow_mut();
        if rows.len() <= slot {
            rows.resize(slot + 1, None);
        }
        rows[slot] = Some(id);
        Some(id)
    }

    /// Add `delta` (if not 0) to a counter series in the window of `at`.
    pub(crate) fn add(&self, id: usize, at: SimTime, delta: u64) {
        if delta == 0 {
            return;
        }
        let _mem = memprof::scope(&TIMELINE_TAG);
        let w = self.inner.window_ps.get();
        let idx = at.as_ps() / w;
        {
            let mut series = self.inner.series.borrow_mut();
            let Windows::Counter(v) = &mut series[id].windows else {
                panic!("Timeline::add on a gauge series");
            };
            match v.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(p) => v[p].1 += delta,
                Err(p) => v.insert(p, (idx, delta)),
            }
        }
        self.coarsen_if_needed();
    }

    /// Spread a busy span `[start, end)` over the windows it overlaps,
    /// adding the overlapped picoseconds to a counter series per window.
    /// This is how occupancy fractions are recorded exactly.
    pub(crate) fn add_range(&self, id: usize, start: SimTime, end: SimTime) {
        let (s, e) = (start.as_ps(), end.as_ps());
        let mut cur = s;
        while cur < e {
            // Re-read the width each step: add may coarsen mid-range.
            // Splitting finer than the (new, wider) windows stays exact —
            // the sub-spans land in the same window and their sums add.
            let w = self.inner.window_ps.get();
            let stop = ((cur / w + 1) * w).min(e);
            self.add(id, SimTime(cur), stop - cur);
            cur = stop;
        }
    }

    /// Move a gauge's running level by `delta` and sample the new level.
    pub(crate) fn level(&self, id: usize, at: SimTime, delta: i64) {
        let value = {
            let s = &mut self.inner.series.borrow_mut()[id];
            s.level += delta;
            s.level
        };
        self.gauge(id, at, value);
    }

    /// Record a gauge sample `value` at time `at`.
    pub(crate) fn gauge(&self, id: usize, at: SimTime, value: i64) {
        let _mem = memprof::scope(&TIMELINE_TAG);
        let w = self.inner.window_ps.get();
        let t = at.as_ps();
        let idx = t / w;
        {
            let mut series = self.inner.series.borrow_mut();
            let Windows::Gauge(v) = &mut series[id].windows else {
                panic!("Timeline::gauge on a counter series");
            };
            match v.binary_search_by_key(&idx, |g| g.idx) {
                Ok(p) => {
                    let g = &mut v[p];
                    g.min = g.min.min(value);
                    g.max = g.max.max(value);
                    // Later-recorded wins on equal timestamps, matching the
                    // "most recent state" reading of a gauge.
                    if t >= g.last_at {
                        g.last = value;
                        g.last_at = t;
                    }
                }
                Err(p) => v.insert(
                    p,
                    GaugeWin {
                        idx,
                        min: value,
                        max: value,
                        last: value,
                        last_at: t,
                    },
                ),
            }
        }
        self.coarsen_if_needed();
    }

    /// If any series outgrew the cap, double the window width (repeatedly if
    /// needed) and merge adjacent pairs in **every** series, keeping all
    /// series aligned on one shared width.
    fn coarsen_if_needed(&self) {
        loop {
            let cap = self.inner.max_windows.get();
            let over = {
                let series = self.inner.series.borrow();
                series.iter().any(|s| s.windows.len() > cap)
            };
            if !over {
                return;
            }
            self.inner.window_ps.set(self.inner.window_ps.get() * 2);
            let mut series = self.inner.series.borrow_mut();
            for s in series.iter_mut() {
                match &mut s.windows {
                    Windows::Counter(v) => {
                        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(v.len() / 2 + 1);
                        for &(idx, sum) in v.iter() {
                            let ni = idx / 2;
                            match merged.last_mut() {
                                Some(m) if m.0 == ni => m.1 += sum,
                                _ => merged.push((ni, sum)),
                            }
                        }
                        *v = merged;
                    }
                    Windows::Gauge(v) => {
                        let mut merged: Vec<GaugeWin> = Vec::with_capacity(v.len() / 2 + 1);
                        for g in v.iter() {
                            let ni = g.idx / 2;
                            match merged.last_mut() {
                                Some(m) if m.idx == ni => {
                                    m.min = m.min.min(g.min);
                                    m.max = m.max.max(g.max);
                                    if g.last_at >= m.last_at {
                                        m.last = g.last;
                                        m.last_at = g.last_at;
                                    }
                                }
                                _ => merged.push(GaugeWin { idx: ni, ..*g }),
                            }
                        }
                        *v = merged;
                    }
                }
            }
        }
    }

    /// Freeze the current contents into an immutable, name-sorted snapshot.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let series = self.inner.series.borrow();
        let mut out: Vec<SeriesSnapshot> = series
            .iter()
            .filter(|s| s.windows.len() > 0)
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                kind: match s.windows {
                    Windows::Counter(_) => SeriesKind::Counter,
                    Windows::Gauge(_) => SeriesKind::Gauge,
                },
                windows: match &s.windows {
                    Windows::Counter(v) => v
                        .iter()
                        .map(|&(idx, sum)| WindowSample {
                            idx,
                            sum,
                            min: 0,
                            max: 0,
                            last: 0,
                        })
                        .collect(),
                    Windows::Gauge(v) => v
                        .iter()
                        .map(|g| WindowSample {
                            idx: g.idx,
                            sum: 0,
                            min: g.min,
                            max: g.max,
                            last: g.last,
                        })
                        .collect(),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        TimelineSnapshot {
            window_ps: self.inner.window_ps.get(),
            series: out,
        }
    }
}

/// One window of one exported series. For counters only `sum` is meaningful;
/// for gauges `min`/`max`/`last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Window index: the window covers `[idx*window_ps, (idx+1)*window_ps)`.
    pub idx: u64,
    /// Counter delta accumulated in this window.
    pub sum: u64,
    /// Smallest gauge sample seen in this window.
    pub min: i64,
    /// Largest gauge sample seen in this window.
    pub max: i64,
    /// Gauge sample with the greatest timestamp in this window.
    pub last: i64,
}

/// Immutable exported form of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Series name (e.g. `net.link_wait_ps`).
    pub name: String,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// Non-empty windows, sorted by index.
    pub windows: Vec<WindowSample>,
}

impl SeriesSnapshot {
    /// The headline value of a window: counter delta, or gauge `max`
    /// (the worst live state seen inside the window).
    pub fn headline(&self, w: &WindowSample) -> f64 {
        match self.kind {
            SeriesKind::Counter => w.sum as f64,
            SeriesKind::Gauge => w.max as f64,
        }
    }
}

/// Immutable exported form of one run's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSnapshot {
    /// Window width in picoseconds (after any coarsening).
    pub window_ps: u64,
    /// All non-empty series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl TimelineSnapshot {
    /// Find a series by name.
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Append this snapshot as a `timeline-v1` run object.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"window_ps\":");
        json::push_u64(out, self.window_ps);
        out.push_str(",\"series\":{");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(out, &s.name);
            out.push_str(":{\"kind\":\"");
            out.push_str(s.kind.as_str());
            out.push_str("\",\"windows\":[");
            for (j, w) in s.windows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                json::push_u64(out, w.idx);
                match s.kind {
                    SeriesKind::Counter => {
                        out.push(',');
                        json::push_u64(out, w.sum);
                    }
                    SeriesKind::Gauge => {
                        for v in [w.min, w.max, w.last] {
                            out.push(',');
                            push_i64(out, v);
                        }
                    }
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }

    fn from_json(v: &JsonValue) -> Result<TimelineSnapshot, String> {
        let window_ps = num_field(v, "window_ps")? as u64;
        let JsonValue::Obj(series_obj) = v
            .get("series")
            .ok_or_else(|| "run missing \"series\"".to_string())?
        else {
            return Err("\"series\" is not an object".into());
        };
        let mut series = Vec::with_capacity(series_obj.len());
        for (name, sv) in series_obj {
            let kind = match sv.get("kind").and_then(JsonValue::as_str) {
                Some("counter") => SeriesKind::Counter,
                Some("gauge") => SeriesKind::Gauge,
                _ => return Err(format!("series {name:?}: bad or missing \"kind\"")),
            };
            let JsonValue::Arr(wins) = sv
                .get("windows")
                .ok_or_else(|| format!("series {name:?} missing \"windows\""))?
            else {
                return Err(format!("series {name:?}: \"windows\" is not an array"));
            };
            let mut windows = Vec::with_capacity(wins.len());
            for wv in wins {
                let JsonValue::Arr(cells) = wv else {
                    return Err(format!("series {name:?}: window is not an array"));
                };
                let n = |i: usize| -> Result<f64, String> {
                    cells
                        .get(i)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("series {name:?}: bad window cell {i}"))
                };
                windows.push(match kind {
                    SeriesKind::Counter => WindowSample {
                        idx: n(0)? as u64,
                        sum: n(1)? as u64,
                        min: 0,
                        max: 0,
                        last: 0,
                    },
                    SeriesKind::Gauge => WindowSample {
                        idx: n(0)? as u64,
                        sum: 0,
                        min: n(1)? as i64,
                        max: n(2)? as i64,
                        last: n(3)? as i64,
                    },
                });
            }
            series.push(SeriesSnapshot {
                name: name.clone(),
                kind,
                windows,
            });
        }
        Ok(TimelineSnapshot { window_ps, series })
    }
}

/// A `timeline-v1` document: one bench, one or more named runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineDoc {
    /// Producing benchmark (e.g. `fig9_rmw`).
    pub bench: String,
    /// `(run name, snapshot)` pairs in emission order.
    pub runs: Vec<(String, TimelineSnapshot)>,
}

impl TimelineDoc {
    /// Serialize to deterministic `timeline-v1` JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"timeline-v1\",\"bench\":");
        json::push_str(&mut out, &self.bench);
        out.push_str(",\"runs\":{");
        for (i, (name, snap)) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push(':');
            snap.push_json(&mut out);
        }
        out.push_str("}}\n");
        out
    }

    /// Parse a `timeline-v1` document produced by [`TimelineDoc::to_json`].
    pub fn parse(text: &str) -> Result<TimelineDoc, String> {
        let v = json::parse(text)?;
        match v.get("schema").and_then(JsonValue::as_str) {
            Some("timeline-v1") => {}
            other => return Err(format!("not a timeline-v1 document (schema={other:?})")),
        }
        let bench = v
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing \"bench\"".to_string())?
            .to_string();
        let JsonValue::Obj(runs_obj) = v
            .get("runs")
            .ok_or_else(|| "missing \"runs\"".to_string())?
        else {
            return Err("\"runs\" is not an object".into());
        };
        let mut runs = Vec::with_capacity(runs_obj.len());
        for (name, rv) in runs_obj {
            runs.push((name.clone(), TimelineSnapshot::from_json(rv)?));
        }
        Ok(TimelineDoc { bench, runs })
    }
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
        json::push_u64(out, v.unsigned_abs());
    } else {
        json::push_u64(out, v as u64);
    }
}

fn num_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn t(us: u64) -> SimTime {
        SimTime(us * 1_000_000)
    }

    #[test]
    fn disabled_timeline_is_inert() {
        static C: Probe = Probe::new().series("x");
        static G: Probe = Probe::new().gauge("g");
        static R: Probe = Probe::new().spread("r");
        let p = crate::Probes::default();
        assert!(!p.timeline.on());
        p.count(&C, t(1), 5);
        p.gauge(&G, t(1), 5);
        p.level(&G, t(1), 5);
        p.span(&R, None, t(0), t(10), 0);
        assert!(p.timeline.snapshot().series.is_empty());
    }

    #[test]
    fn counters_bucket_by_window() {
        let tl = Timeline::new();
        tl.enable(1_000_000, 1024); // 1 µs windows
        let id = tl.series("c", SeriesKind::Counter);
        tl.add(id, t(0), 1);
        tl.add(id, t(0), 2);
        tl.add(id, t(3), 10);
        tl.add(id, t(1), 4); // out-of-order window is fine
        let snap = tl.snapshot();
        let s = snap.series("c").unwrap();
        assert_eq!(
            s.windows.iter().map(|w| (w.idx, w.sum)).collect::<Vec<_>>(),
            vec![(0, 3), (1, 4), (3, 10)]
        );
    }

    #[test]
    fn gauges_track_min_max_last() {
        let tl = Timeline::new();
        tl.enable(1_000_000, 1024);
        let id = tl.series("g", SeriesKind::Gauge);
        tl.gauge(id, SimTime(100), 5);
        tl.gauge(id, SimTime(900), -2);
        tl.gauge(id, SimTime(500), 9); // out of order: not "last"
        let snap = tl.snapshot();
        let w = snap.series("g").unwrap().windows[0];
        assert_eq!((w.min, w.max, w.last), (-2, 9, -2));
    }

    #[test]
    fn add_range_splits_across_windows_exactly() {
        let tl = Timeline::new();
        tl.enable(1_000_000, 1024);
        let id = tl.series("busy", SeriesKind::Counter);
        // 0.5 µs .. 2.25 µs: 0.5 in w0, 1.0 in w1, 0.25 in w2.
        tl.add_range(id, SimTime(500_000), SimTime(2_250_000));
        let snap = tl.snapshot();
        let s = snap.series("busy").unwrap();
        assert_eq!(
            s.windows.iter().map(|w| (w.idx, w.sum)).collect::<Vec<_>>(),
            vec![(0, 500_000), (1, 1_000_000), (2, 250_000)]
        );
        let total: u64 = s.windows.iter().map(|w| w.sum).sum();
        assert_eq!(total, 1_750_000);
    }

    #[test]
    fn coarsening_matches_resampling_at_doubled_width() {
        // Satellite: downsampling-by-merging is exact. Record one random
        // stream into (a) a capped timeline that is forced to coarsen and
        // (b) an uncapped timeline already at the final width; snapshots
        // must be identical, JSON bytes included.
        let mut rng = SimRng::new(0x71AE_11FE);
        let mut samples = Vec::new();
        for _ in 0..4_000 {
            let at = SimTime(rng.next_below(64_000_000)); // 0..64 µs
            let kind = rng.next_below(3);
            let val = rng.next_below(100) as i64 - 50;
            samples.push((at, kind, val));
        }

        let record = |tl: &Timeline| {
            let c = tl.series("cnt", SeriesKind::Counter);
            let g = tl.series("gau", SeriesKind::Gauge);
            let r = tl.series("rng", SeriesKind::Counter);
            for &(at, kind, val) in &samples {
                match kind {
                    0 => tl.add(c, at, val.unsigned_abs()),
                    1 => tl.gauge(g, at, val),
                    _ => tl.add_range(r, at, SimTime(at.as_ps() + 3_500_000)),
                }
            }
        };
        let fine = Timeline::new();
        fine.enable(1_000_000, 16); // ~64 windows at 1 µs: must coarsen
        record(&fine);
        assert!(
            fine.window_ps() > 1_000_000,
            "fine timeline should have coarsened"
        );
        // Re-sample the same stream at the final width directly: must be
        // indistinguishable from the coarsened recording.
        let coarse = Timeline::new();
        coarse.enable(fine.window_ps(), usize::MAX >> 1);
        record(&coarse);
        let (a, b) = (fine.snapshot(), coarse.snapshot());
        assert_eq!(a, b);
        let (mut ja, mut jb) = (String::new(), String::new());
        a.push_json(&mut ja);
        b.push_json(&mut jb);
        assert_eq!(ja, jb);
    }

    #[test]
    fn json_roundtrip_preserves_doc() {
        let tl = Timeline::new();
        tl.enable(2_000_000, 64);
        let c = tl.series("b.cnt", SeriesKind::Counter);
        let g = tl.series("a.gauge", SeriesKind::Gauge);
        tl.add(c, t(1), 7);
        tl.add(c, t(5), 3);
        tl.gauge(g, t(2), -4);
        tl.gauge(g, t(2), 11);
        let doc = TimelineDoc {
            bench: "unit".to_string(),
            runs: vec![("r0".to_string(), tl.snapshot())],
        };
        let text = doc.to_json();
        assert!(text.starts_with("{\"schema\":\"timeline-v1\",\"bench\":\"unit\""));
        let back = TimelineDoc::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_json(), text);
        // Series are emitted sorted by name.
        let names: Vec<&str> = doc.runs[0]
            .1
            .series
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["a.gauge", "b.cnt"]);
    }

    #[test]
    fn enable_clears_previous_data() {
        let tl = Timeline::new();
        tl.enable(1_000_000, 64);
        let c = tl.series("c", SeriesKind::Counter);
        tl.add(c, t(1), 1);
        tl.enable(1_000_000, 64);
        assert!(tl.snapshot().series.is_empty());
    }
}
