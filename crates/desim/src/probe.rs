//! Probe rows: each measurement described once, recorded with one call.
//!
//! A [`Probe`] is a `static` row naming every sink one measurement feeds —
//! a stats counter, duration or histogram key, a timeline series, a
//! lifecycle segment category (or an operation), a trace span or instant
//! name — plus a slot assigned on first use, like [`crate::MemTag`]'s id.
//! Each registry maps the slot to its own entry once, so a warm record
//! compares no string.
//! [`Probes`] holds a simulation's four recorders: one call feeds every
//! sink its row names, and a sink that is off costs its flag check.
//!
//! Which sinks a run turns on is one [`Observe`] request, and what they
//! recorded comes back as one [`Observed`]: the tracer's capacity, the
//! timeline's window cap and the Chrome-fragment assembly are decided here
//! and nowhere else.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use crate::critpath::{analyze, CritPath, Lifecycle, OpId, SegCategory};
use crate::health;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::timeline::{SeriesKind, Timeline, TimelineSnapshot};
use crate::trace::{ChromeTrace, TraceValue, Tracer};

/// A statistic a row writes (see [`Probes::span`] for what each takes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stat {
    None,
    Count(&'static str),
    Time(&'static str),
    Hist(&'static str),
    /// A duration, plus a histogram of it in ns under the same key.
    TimeHist(&'static str),
}

impl Stat {
    pub(crate) fn key(self) -> Option<&'static str> {
        match self {
            Stat::None => None,
            Stat::Count(k) | Stat::Time(k) | Stat::Hist(k) | Stat::TimeHist(k) => Some(k),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Series {
    None,
    Counter(&'static str),
    /// A counter an interval is spread over, window by window.
    Spread(&'static str),
    Gauge(&'static str),
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Attribution {
    None,
    Segment(SegCategory, &'static str),
    /// An operation intervals are attributed to.
    Op,
}

/// One measurement and every sink it feeds: declare it as a `static` with
/// the `const` builders, record it through [`Probes`].
#[derive(Debug)]
pub struct Probe {
    pub(crate) stats: [Stat; 2],
    series: Series,
    pub(crate) attribution: Attribution,
    trace: &'static str,
    slot: AtomicU32,
}

/// Slots are process-wide, like the rows.
static NEXT_SLOT: AtomicU32 = AtomicU32::new(0);
const NO_SLOT: u32 = u32::MAX;

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    /// A row that feeds nothing yet.
    pub const fn new() -> Probe {
        Probe {
            stats: [Stat::None; 2],
            series: Series::None,
            attribution: Attribution::None,
            trace: "",
            slot: AtomicU32::new(NO_SLOT),
        }
    }

    /// An operation of `kind`: counted and traced as `kind`, and the owner
    /// of the lifecycle intervals attributed to it.
    pub const fn op(kind: &'static str) -> Probe {
        Probe {
            attribution: Attribution::Op,
            trace: kind,
            ..Probe::new().count(kind)
        }
    }

    const fn stat(mut self, s: Stat) -> Probe {
        let i = !matches!(self.stats[0], Stat::None) as usize;
        assert!(
            matches!(self.stats[i], Stat::None),
            "at most two stats keys"
        );
        self.stats[i] = s;
        self
    }

    /// Feed stats counter `key`.
    pub const fn count(self, key: &'static str) -> Probe {
        self.stat(Stat::Count(key))
    }

    /// Feed stats duration `key`.
    pub const fn time(self, key: &'static str) -> Probe {
        self.stat(Stat::Time(key))
    }

    /// Feed stats histogram `key`.
    pub const fn hist(self, key: &'static str) -> Probe {
        self.stat(Stat::Hist(key))
    }

    /// Feed stats duration `key` and a histogram of it in ns, same key.
    pub const fn time_hist(self, key: &'static str) -> Probe {
        self.stat(Stat::TimeHist(key))
    }

    /// Feed timeline counter series `name`.
    pub const fn series(mut self, name: &'static str) -> Probe {
        self.series = Series::Counter(name);
        self
    }

    /// Feed counter series `name`, spreading intervals over their windows.
    pub const fn spread(mut self, name: &'static str) -> Probe {
        self.series = Series::Spread(name);
        self
    }

    /// Feed timeline gauge series `name`.
    pub const fn gauge(mut self, name: &'static str) -> Probe {
        self.series = Series::Gauge(name);
        self
    }

    /// Attribute intervals to their operation as `cat`, labelled `label`.
    pub const fn segment(mut self, cat: SegCategory, label: &'static str) -> Probe {
        self.attribution = Attribution::Segment(cat, label);
        self
    }

    /// Name trace spans and instants `name`.
    pub const fn trace(mut self, name: &'static str) -> Probe {
        self.trace = name;
        self
    }

    /// The row's first stats key (`""` when it feeds no statistic).
    pub fn key(&self) -> &'static str {
        self.stats[0].key().unwrap_or("")
    }

    pub(crate) fn series_of(&self) -> Option<(&'static str, SeriesKind)> {
        match self.series {
            Series::None => None,
            Series::Counter(n) | Series::Spread(n) => Some((n, SeriesKind::Counter)),
            Series::Gauge(n) => Some((n, SeriesKind::Gauge)),
        }
    }

    /// This row's slot. Two threads may race to assign it; the loser adopts
    /// the winner's. A slot indexes each registry's own table and publishes
    /// nothing else, so `Relaxed` suffices.
    #[inline]
    pub(crate) fn slot(&self) -> usize {
        let s = self.slot.load(Relaxed);
        if s != NO_SLOT {
            return s as usize;
        }
        let fresh = NEXT_SLOT.fetch_add(1, Relaxed);
        match self.slot.compare_exchange(NO_SLOT, fresh, Relaxed, Relaxed) {
            Ok(_) => fresh as usize,
            Err(won) => won as usize,
        }
    }
}

/// A trace lane: the track work is drawn on, named on first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// `rank N`: the rank's own thread.
    Rank(usize),
    /// `rank N (at)`: the rank's asynchronous progress thread.
    Progress(usize),
    /// `net.faults`: fault-plan transitions.
    Faults,
}

impl Lane {
    fn name(self) -> String {
        match self {
            Lane::Rank(r) => format!("rank {r}"),
            Lane::Progress(r) => format!("rank {r} (at)"),
            Lane::Faults => "net.faults".to_string(),
        }
    }
}

/// A simulation's sinks behind one handle; clones share them. The stats
/// registry is always on; an [`Observe`] request turns the other three on
/// and reads them.
#[derive(Clone, Default)]
pub struct Probes {
    /// The stats registry.
    pub stats: Stats,
    /// The windowed timeline.
    pub timeline: Timeline,
    /// The lifecycle accumulator behind the critical path.
    pub lifecycle: Lifecycle,
    /// The tracer.
    pub tracer: Tracer,
}

/// A row, as every recording call takes it.
pub type Row = &'static Probe;
type Args<'a> = &'a [(&'static str, TraceValue)];

impl Probes {
    /// `n` of the row's quantity at `at`: a counter adds `n` (a zero still
    /// creates it), a histogram records `n`, a counter series adds `n`.
    #[inline]
    pub fn count(&self, row: Row, at: SimTime, n: u64) {
        self.stats.record(row, n, SimDuration::ZERO);
        if let (Some(id), Series::Counter(_)) = (self.timeline.row(row), row.series) {
            self.timeline.add(id, at, n);
        }
    }

    /// The interval `[start, end)`, carrying `n`: a counter adds `n`, a
    /// histogram records `n`, a duration the length; a counter series adds
    /// the length in ps at `start`, a spread series covers its windows; a
    /// lifecycle segment is attributed to `op`.
    #[inline]
    pub fn span(&self, row: Row, op: Option<OpId>, start: SimTime, end: SimTime, n: u64) {
        let len = end.since(start);
        self.stats.record(row, n, len);
        match (self.timeline.row(row), row.series) {
            (Some(id), Series::Counter(_)) => self.timeline.add(id, start, len.as_ps()),
            (Some(id), Series::Spread(_)) => self.timeline.add_range(id, start, end),
            _ => {}
        }
        if let Some(op) = op {
            self.lifecycle.segment(row, op, start, end);
        }
    }

    /// Sample the row's gauge.
    #[inline]
    pub fn gauge(&self, row: Row, at: SimTime, value: i64) {
        if let Some(id) = self.timeline.row(row) {
            self.timeline.gauge(id, at, value);
        }
    }

    /// Move the row's gauge level by `delta` and sample it. The level lives
    /// in the timeline, from zero at `enable`.
    #[inline]
    pub fn level(&self, row: Row, at: SimTime, delta: i64) {
        if let Some(id) = self.timeline.row(row) {
            self.timeline.level(id, at, delta);
        }
    }

    /// An operation of the row's kind begins on `rank`: count it, raise its
    /// level, and give it an [`OpId`] (`None` while the lifecycle
    /// accumulator is off).
    pub fn begin_op(&self, row: Row, at: SimTime, rank: usize) -> Option<OpId> {
        self.stats.record(row, 1, SimDuration::ZERO);
        self.level(row, at, 1);
        match row.attribution {
            Attribution::Op => self.lifecycle.begin_op(at, rank as u32),
            _ => None,
        }
    }

    /// The operation `op` begun by [`Probes::begin_op`] completes.
    pub fn end_op(&self, row: Row, op: Option<OpId>, at: SimTime) {
        self.level(row, at, -1);
        if let Some(op) = op {
            self.lifecycle.end_op(op, at);
        }
    }

    /// Name `lane`'s track now, so track ids follow first use.
    #[inline]
    pub fn open(&self, lane: Lane) {
        if self.tracer.on() {
            self.tracer.track(&lane.name());
        }
    }

    /// Open the row's trace span on `lane`.
    #[inline]
    pub fn begin(&self, row: Row, lane: Lane, at: SimTime, args: Args) {
        if self.tracer.on() {
            let track = self.tracer.track(&lane.name());
            self.tracer.span_begin(track, row.trace, at, args);
        }
    }

    /// Close the row's trace span on `lane`, and record the interval from
    /// `start` as [`Probes::span`] does, with amount 0.
    #[inline]
    pub fn end(
        &self,
        row: Row,
        lane: Lane,
        op: Option<OpId>,
        start: SimTime,
        at: SimTime,
        args: Args,
    ) {
        if self.tracer.on() {
            let track = self.tracer.track(&lane.name());
            self.tracer.span_end(track, row.trace, at, args);
        }
        self.span(row, op, start, at, 0);
    }

    /// Mark the row's trace instant on `lane`, and move its level by `delta`.
    pub fn instant(&self, row: Row, lane: Lane, at: SimTime, delta: i64, args: Args) {
        if self.tracer.on() {
            let track = self.tracer.track(&lane.name());
            self.tracer.instant(track, row.trace, at, args);
        }
        if delta != 0 {
            self.level(row, at, delta);
        }
    }
}

/// Events the tracer keeps per run; past it the oldest are dropped.
const TRACE_CAPACITY: usize = 1 << 20;
/// Windows per timeline series; past it the window width doubles.
const TIMELINE_WINDOWS: usize = 512;

/// The sinks one run turns on; the default turns on none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// The tracer, its Chrome fragment filed under this process id and name.
    pub trace: Option<(u64, &'static str)>,
    /// The lifecycle accumulator, read as the run's critical path.
    pub crit: bool,
    /// The timeline, sampled on windows this wide (ps).
    pub timeline: Option<u64>,
}

/// What the sinks of one [`Observe`] request recorded; a field is `None`
/// when its sink was off.
#[derive(Default)]
pub struct Observed {
    /// The tracer's Chrome fragment. With the timeline also on, it carries
    /// the series as counter tracks and the health findings as instants.
    pub chrome: Option<ChromeTrace>,
    /// The critical path of the run.
    pub crit: Option<CritPath>,
    /// The timeline.
    pub timeline: Option<TimelineSnapshot>,
}

impl Observe {
    /// Turn the requested sinks on.
    pub fn start(&self, probes: &Probes) {
        if self.trace.is_some() {
            probes.tracer.enable(TRACE_CAPACITY);
        }
        if self.crit {
            probes.lifecycle.enable();
        }
        if let Some(window_ps) = self.timeline {
            probes.timeline.enable(window_ps, TIMELINE_WINDOWS);
        }
    }

    /// Read the requested sinks of a run that ended at `end`, and turn the
    /// tracer off.
    pub fn finish(&self, probes: &Probes, end: SimTime) -> Observed {
        let timeline = self.timeline.map(|_| probes.timeline.snapshot());
        let chrome = self.trace.map(|(pid, name)| {
            if let Some(tl) = &timeline {
                let findings = health::analyze(tl);
                health::emit_instants(&probes.tracer, &findings, tl.window_ps);
            }
            let mut ct = ChromeTrace::new();
            ct.add_process(pid, name, &probes.tracer);
            if let Some(tl) = &timeline {
                ct.add_counters(pid, tl);
            }
            probes.tracer.disable();
            ct
        });
        Observed {
            chrome,
            crit: self.crit.then(|| analyze(&probes.lifecycle, end)),
            timeline,
        }
    }
}
