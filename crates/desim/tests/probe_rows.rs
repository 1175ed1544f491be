//! Probe rows against a string-keyed oracle. A seeded stream of counter,
//! duration, histogram and gauge records — zeros, repeats, two rows per key
//! and out-of-order timestamps included — goes through `static` rows into a
//! simulation's sinks, and through the reference model below: the registry
//! as a `BTreeMap` per kind updated by name, and the timeline as series
//! interned by name into a `Vec`. The stats snapshot and the timeline
//! document must serialize to the same bytes. Then the sinks' own
//! behaviours: one name cannot be two kinds, levels, lanes and operations.

use std::collections::BTreeMap;

use desim::stats::{DurationStat, Histogram, MetricsSnapshot};
use desim::timeline::{SeriesSnapshot, WindowSample};
use desim::{
    Lane, Probe, Probes, SegCategory, SeriesKind, SimDuration, SimRng, SimTime, TimelineDoc,
    TimelineSnapshot,
};

static ONE: Probe = Probe::new().count("c.one").series("s.one");
/// Same counter as `ONE`, no series.
static ONE_AGAIN: Probe = Probe::new().count("c.one");
static TWO: Probe = Probe::new().count("c.two");
static BUSY: Probe = Probe::new()
    .time("t.busy")
    .count("t.events")
    .series("s.busy_ps");
static BATCH: Probe = Probe::new().time("t.batch").hist("h.batch");
static WAIT: Probe = Probe::new().time_hist("w.wait");
static SIZE: Probe = Probe::new().hist("h.size").series("s.size");
static SPREAD: Probe = Probe::new().spread("s.occupancy");
static DEPTH: Probe = Probe::new().gauge("g.depth");
static UP: Probe = Probe::new().gauge("g.level");
/// Same level as `UP`.
static DOWN: Probe = Probe::new().gauge("g.level");

const WINDOW_PS: u64 = 1_000_000;

/// `Stats` as it was written before rows: one map per kind, updated by name.
#[derive(Default)]
struct RefStats {
    counters: BTreeMap<String, u64>,
    durations: BTreeMap<String, DurationStat>,
    histograms: BTreeMap<String, Histogram>,
}

fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_string()).or_default()),
    }
}

impl RefStats {
    fn add(&mut self, key: &str, n: u64) {
        update(&mut self.counters, key, |c| *c += n);
    }

    fn record_time(&mut self, key: &str, d: SimDuration) {
        update(&mut self.durations, key, |s| {
            if s.count == 0 {
                (s.min, s.max) = (d, d);
            } else {
                (s.min, s.max) = (s.min.min(d), s.max.max(d));
            }
            s.count += 1;
            s.total += d;
        });
    }

    fn record_hist(&mut self, key: &str, v: u64) {
        update(&mut self.histograms, key, |h| h.record(v));
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone().into_iter().collect(),
            durations: self.durations.clone().into_iter().collect(),
            histograms: self.histograms.clone().into_iter().collect(),
        }
    }
}

/// One series as `Timeline` kept it: counter sums, or gauge min/max/last
/// with the timestamp that makes `last` the latest sample.
enum RefWindows {
    Counter(BTreeMap<u64, u64>),
    Gauge(BTreeMap<u64, (i64, i64, i64, u64)>),
}

/// `Timeline` as it was written before rows, without coarsening (the stream
/// stays under the window cap): series interned by name, in a `Vec`.
#[derive(Default)]
struct RefTimeline {
    series: Vec<(String, RefWindows, i64)>,
}

impl RefTimeline {
    fn series(&mut self, name: &str, kind: SeriesKind) -> usize {
        if let Some(i) = self.series.iter().position(|s| s.0 == name) {
            let have = match self.series[i].1 {
                RefWindows::Counter(_) => SeriesKind::Counter,
                RefWindows::Gauge(_) => SeriesKind::Gauge,
            };
            assert_eq!(
                have, kind,
                "series {name:?} re-interned with a different kind"
            );
            return i;
        }
        let windows = match kind {
            SeriesKind::Counter => RefWindows::Counter(BTreeMap::new()),
            SeriesKind::Gauge => RefWindows::Gauge(BTreeMap::new()),
        };
        self.series.push((name.to_string(), windows, 0));
        self.series.len() - 1
    }

    fn add(&mut self, name: &str, at: u64, delta: u64) {
        let i = self.series(name, SeriesKind::Counter);
        let RefWindows::Counter(w) = &mut self.series[i].1 else {
            unreachable!()
        };
        if delta > 0 {
            *w.entry(at / WINDOW_PS).or_insert(0) += delta;
        }
    }

    fn add_range(&mut self, name: &str, start: u64, end: u64) {
        self.series(name, SeriesKind::Counter);
        let mut cur = start;
        while cur < end {
            let stop = ((cur / WINDOW_PS + 1) * WINDOW_PS).min(end);
            self.add(name, cur, stop - cur);
            cur = stop;
        }
    }

    fn gauge(&mut self, name: &str, at: u64, v: i64) {
        let i = self.series(name, SeriesKind::Gauge);
        let RefWindows::Gauge(w) = &mut self.series[i].1 else {
            unreachable!()
        };
        let g = w.entry(at / WINDOW_PS).or_insert((v, v, v, at));
        (g.0, g.1) = (g.0.min(v), g.1.max(v));
        if at >= g.3 {
            (g.2, g.3) = (v, at);
        }
    }

    fn level(&mut self, name: &str, at: u64, delta: i64) {
        let i = self.series(name, SeriesKind::Gauge);
        self.series[i].2 += delta;
        let v = self.series[i].2;
        self.gauge(name, at, v);
    }

    fn doc(&self) -> TimelineDoc {
        let mut series: Vec<SeriesSnapshot> = self
            .series
            .iter()
            .filter_map(|(name, w, _)| {
                let (kind, windows): (SeriesKind, Vec<WindowSample>) = match w {
                    RefWindows::Counter(w) => (
                        SeriesKind::Counter,
                        w.iter()
                            .map(|(&idx, &sum)| WindowSample {
                                idx,
                                sum,
                                min: 0,
                                max: 0,
                                last: 0,
                            })
                            .collect(),
                    ),
                    RefWindows::Gauge(w) => (
                        SeriesKind::Gauge,
                        w.iter()
                            .map(|(&idx, &(min, max, last, _))| WindowSample {
                                idx,
                                sum: 0,
                                min,
                                max,
                                last,
                            })
                            .collect(),
                    ),
                };
                (!windows.is_empty()).then(|| SeriesSnapshot {
                    name: name.clone(),
                    kind,
                    windows,
                })
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        TimelineDoc {
            bench: "probe_rows".to_string(),
            runs: vec![(
                "oracle".to_string(),
                TimelineSnapshot {
                    window_ps: WINDOW_PS,
                    series,
                },
            )],
        }
    }
}

#[test]
fn rows_match_the_string_keyed_reference_bytewise() {
    for seed in 1..=24u64 {
        let mut rng = SimRng::new(seed);
        let probes = Probes::default();
        probes.timeline.enable(WINDOW_PS, usize::MAX >> 1);
        let (mut stats, mut tl) = (RefStats::default(), RefTimeline::default());
        for _ in 0..600 {
            // Timestamps anywhere in 0..64 windows, in no order; amounts
            // are zero one time in four.
            let at = rng.next_below(64 * WINDOW_PS);
            let bits = rng.next_below(40);
            let n = if rng.next_below(4) == 0 {
                0
            } else {
                rng.next_below(1 << bits)
            };
            let end = at + rng.next_below(3 * WINDOW_PS);
            let (t, e) = (SimTime(at), SimTime(end));
            let d = SimDuration(end - at);
            match rng.next_below(11) {
                0 => {
                    probes.count(&ONE, t, n);
                    stats.add("c.one", n);
                    tl.add("s.one", at, n);
                }
                1 => {
                    probes.count(&ONE_AGAIN, t, n);
                    stats.add("c.one", n);
                }
                2 => {
                    probes.count(&TWO, t, n);
                    stats.add("c.two", n);
                }
                3 => {
                    probes.span(&BUSY, None, t, e, 1);
                    stats.record_time("t.busy", d);
                    stats.add("t.events", 1);
                    tl.add("s.busy_ps", at, d.as_ps());
                }
                4 => {
                    probes.span(&BATCH, None, t, e, n);
                    stats.record_time("t.batch", d);
                    stats.record_hist("h.batch", n);
                }
                5 => {
                    probes.span(&WAIT, None, t, e, n);
                    stats.record_time("w.wait", d);
                    stats.record_hist("w.wait", d.as_ps() / 1000);
                }
                6 => {
                    probes.count(&SIZE, t, n);
                    stats.record_hist("h.size", n);
                    tl.add("s.size", at, n);
                }
                7 => {
                    probes.span(&SPREAD, None, t, e, n);
                    tl.add_range("s.occupancy", at, end);
                }
                8 => {
                    let v = n as i64 - (1 << 20);
                    probes.gauge(&DEPTH, t, v);
                    tl.gauge("g.depth", at, v);
                }
                9 => {
                    probes.level(&UP, t, 1);
                    tl.level("g.level", at, 1);
                }
                _ => {
                    probes.level(&DOWN, t, -1);
                    tl.level("g.level", at, -1);
                }
            }
        }
        let snap = probes.stats.snapshot();
        assert_eq!(
            snap.to_json(),
            stats.snapshot().to_json(),
            "seed {seed}: stats"
        );
        let doc = TimelineDoc {
            bench: "probe_rows".to_string(),
            runs: vec![("oracle".to_string(), probes.timeline.snapshot())],
        };
        assert_eq!(doc.to_json(), tl.doc().to_json(), "seed {seed}: timeline");
    }
}

#[test]
#[should_panic(expected = "bound as two kinds")]
fn a_stats_key_cannot_be_two_kinds() {
    static AS_TIME: Probe = Probe::new().time("c.one");
    let probes = Probes::default();
    probes.count(&ONE, SimTime::ZERO, 1);
    probes.span(&AS_TIME, None, SimTime::ZERO, SimTime(5), 1);
}

#[test]
#[should_panic(expected = "re-interned with a different kind")]
fn a_series_cannot_be_two_kinds() {
    static AS_GAUGE: Probe = Probe::new().gauge("s.one");
    let probes = Probes::default();
    probes.timeline.enable(WINDOW_PS, 64);
    probes.count(&ONE, SimTime::ZERO, 1);
    probes.gauge(&AS_GAUGE, SimTime::ZERO, 1);
}

#[test]
fn a_span_feeds_every_sink_its_row_names() {
    static LOCK_WAIT: Probe = Probe::new()
        .time("lock_wait")
        .count("lock_contended")
        .series("lock_wait_ps")
        .segment(SegCategory::Contention, "lock_wait");
    static OP: Probe = Probe::op("op.get").gauge("inflight");
    let p = Probes::default();
    p.timeline.enable(1000, 64);
    p.lifecycle.enable();
    let op = p.begin_op(&OP, SimTime(0), 3);
    assert!(op.is_some());
    p.span(&LOCK_WAIT, op, SimTime(100), SimTime(350), 1);
    p.span(&LOCK_WAIT, None, SimTime(1200), SimTime(1300), 1);
    assert_eq!(p.stats.counter("lock_contended"), 2);
    assert_eq!(p.stats.time("lock_wait").total.as_ps(), 350);
    assert_eq!(p.stats.counter("op.get"), 1);
    let snap = p.timeline.snapshot();
    let sums: Vec<u64> = snap
        .series("lock_wait_ps")
        .unwrap()
        .windows
        .iter()
        .map(|w| w.sum)
        .collect();
    assert_eq!(sums, [250, 100]);
    assert_eq!(
        p.lifecycle.attributed("lock_wait").as_ps(),
        250,
        "only the attributed interval"
    );
    p.end_op(&OP, op, SimTime(2000));
    assert_eq!(p.lifecycle.latest_end(), Some(SimTime(2000)));
    let crit = desim::analyze(&p.lifecycle, SimTime(2000));
    assert_eq!((crit.terminal_rank, crit.ops_on_path), (3, 1));
    assert_eq!(crit.breakdown.contention.as_ps(), 250);
    let inflight = snap.series("inflight").unwrap().windows[0];
    assert_eq!(inflight.last, 1);
}

#[test]
fn levels_restart_when_the_timeline_is_enabled() {
    let p = Probes::default();
    p.level(&UP, SimTime(0), 5); // off: nothing kept
    p.timeline.enable(1000, 64);
    for row in [&UP, &UP, &DOWN, &UP] {
        let d = if std::ptr::eq(row, &DOWN) { -1 } else { 1 };
        p.level(row, SimTime(10), d);
    }
    let w = p.timeline.snapshot().series("g.level").unwrap().windows[0];
    assert_eq!((w.min, w.max, w.last), (1, 2, 2));
    p.timeline.enable(1000, 64);
    p.level(&DOWN, SimTime(10), -1);
    let w = p.timeline.snapshot().series("g.level").unwrap().windows[0];
    assert_eq!(w.last, -1);
}

#[test]
fn lanes_are_named_on_first_use() {
    static SPAN: Probe = Probe::new().trace("work");
    let p = Probes::default();
    p.open(Lane::Rank(7)); // off: interns nothing
    p.tracer.enable(64);
    p.open(Lane::Progress(2));
    p.begin(&SPAN, Lane::Rank(0), SimTime(0), &[]);
    p.end(&SPAN, Lane::Rank(0), None, SimTime(0), SimTime(5), &[]);
    assert_eq!(p.tracer.track("rank 2 (at)").0, 0);
    assert_eq!(p.tracer.track("rank 0").0, 1);
    assert_eq!(p.tracer.len(), 2);
}
