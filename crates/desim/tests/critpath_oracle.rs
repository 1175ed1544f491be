//! The lifecycle accumulator against the recorder it replaced: a capped log
//! of every operation, segment and link use, replayed by the analyzer.
//!
//! `Reference` and `reference_analyze` below are that recorder and its
//! analyzer, kept verbatim apart from the memory tag, and run with a budget
//! nothing reaches. Both are driven through the same seeded random stream of
//! operation begins and ends (some operations never end, many end at the
//! same instant), segments on every category (overlapping, touching, nested,
//! out of order, empty, past the analyzed end, on operations never begun,
//! and through rows that name no segment), link uses, and `pami.am_aggr`
//! segments. Times are a few picoseconds apart, so one-picosecond gaps and
//! exact touches are common. At several analyzed ends per seed the critical
//! path's JSON, the summed `pami.am_aggr` time and the latest completion
//! must agree byte for byte.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use desim::{
    analyze, Breakdown, CritPath, LinkStat, OpId, Probe, Probes, SegCategory, SimDuration, SimRng,
    SimTime,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    op: OpId,
    cat: SegCategory,
    label: &'static str,
    start: SimTime,
    end: SimTime,
}

#[allow(dead_code)] // `kind` is kept as the recorder had it
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpRecord {
    op: OpId,
    rank: u32,
    kind: &'static str,
    issue: SimTime,
    end: SimTime,
}

#[allow(dead_code)] // `op` is kept as the recorder had it
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkUse {
    link: u32,
    request: SimTime,
    grant: SimTime,
    release: SimTime,
    op: Option<OpId>,
}

#[derive(Default)]
struct FlightInner {
    enabled: Cell<bool>,
    capacity: Cell<usize>,
    next_op: Cell<u64>,
    ops: RefCell<Vec<OpRecord>>,
    segments: RefCell<Vec<Segment>>,
    link_uses: RefCell<Vec<LinkUse>>,
    links: RefCell<Vec<String>>,
    link_index: RefCell<Vec<u32>>,
    dropped: Cell<u64>,
}

/// The flight recorder as it was: three capped logs and a link-name index.
#[derive(Clone, Default)]
struct Reference {
    inner: Rc<FlightInner>,
}

impl Reference {
    fn on(&self) -> bool {
        self.inner.enabled.get()
    }

    fn enable(&self, capacity: usize) {
        self.inner.capacity.set(capacity.max(1));
        self.inner.enabled.set(true);
    }

    fn begin_op(&self, now: SimTime, rank: u32, kind: &'static str) -> Option<OpId> {
        if !self.on() {
            return None;
        }
        let mut ops = self.inner.ops.borrow_mut();
        if ops.len() >= self.inner.capacity.get() {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
            return None;
        }
        let id = OpId(self.inner.next_op.get());
        self.inner.next_op.set(id.0 + 1);
        ops.push(OpRecord {
            op: id,
            rank,
            kind,
            issue: now,
            end: now,
        });
        Some(id)
    }

    fn end_op(&self, op: OpId, now: SimTime) {
        if !self.on() {
            return;
        }
        let mut ops = self.inner.ops.borrow_mut();
        if let Some(rec) = ops.get_mut(op.0 as usize) {
            debug_assert_eq!(rec.op, op);
            rec.end = now;
        }
    }

    fn segment(
        &self,
        op: OpId,
        cat: SegCategory,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.on() || end <= start {
            return;
        }
        let mut segs = self.inner.segments.borrow_mut();
        if segs.len() >= self.inner.capacity.get() {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
            return;
        }
        segs.push(Segment {
            op,
            cat,
            label,
            start,
            end,
        });
    }

    fn link_id(&self, name: &str) -> u32 {
        if !self.on() {
            return 0;
        }
        let mut links = self.inner.links.borrow_mut();
        let mut index = self.inner.link_index.borrow_mut();
        match index.binary_search_by(|&id| links[id as usize].as_str().cmp(name)) {
            Ok(pos) => index[pos],
            Err(pos) => {
                let id = links.len() as u32;
                links.push(name.to_string());
                index.insert(pos, id);
                id
            }
        }
    }

    fn link_name(&self, id: u32) -> String {
        self.inner
            .links
            .borrow()
            .get(id as usize)
            .cloned()
            .unwrap_or_default()
    }

    fn link_use(
        &self,
        link: u32,
        request: SimTime,
        grant: SimTime,
        release: SimTime,
        op: Option<OpId>,
    ) {
        if !self.on() {
            return;
        }
        let mut uses = self.inner.link_uses.borrow_mut();
        if uses.len() >= self.inner.capacity.get() {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
            return;
        }
        uses.push(LinkUse {
            link,
            request,
            grant,
            release,
            op,
        });
    }

    fn ops(&self) -> Vec<OpRecord> {
        self.inner.ops.borrow().clone()
    }

    fn segments(&self) -> Vec<Segment> {
        self.inner.segments.borrow().clone()
    }

    fn link_uses(&self) -> Vec<LinkUse> {
        self.inner.link_uses.borrow().clone()
    }
}

const BLAME_ORDER: [SegCategory; 5] = [
    SegCategory::Retry,
    SegCategory::Starvation,
    SegCategory::Contention,
    SegCategory::Queueing,
    SegCategory::Wire,
];

fn add(b: &mut Breakdown, cat: SegCategory, d: SimDuration) {
    match cat {
        SegCategory::Compute => b.compute += d,
        SegCategory::Queueing => b.queueing += d,
        SegCategory::Wire => b.wire += d,
        SegCategory::Contention => b.contention += d,
        SegCategory::Starvation => b.starvation += d,
        SegCategory::Retry => b.retry += d,
    }
}

fn pick(active: &[i64; 6]) -> SegCategory {
    for cat in BLAME_ORDER {
        if active[cat.index()] > 0 {
            return cat;
        }
    }
    SegCategory::Compute
}

/// The analyzer as it was: a sweep over the logged segments.
fn reference_analyze(fr: &Reference, end: SimTime) -> CritPath {
    let ops = fr.ops();
    let total = end.since(SimTime::ZERO);

    let terminal_rank = ops
        .iter()
        .max_by_key(|o| (o.end, o.op))
        .map(|o| o.rank)
        .unwrap_or(0);
    let ops_on_path = ops.iter().filter(|o| o.rank == terminal_rank).count() as u64;

    let mut events: Vec<(u64, usize, i64)> = Vec::new();
    for seg in fr.segments() {
        let owner = ops.get(seg.op.0 as usize).map(|o| o.rank);
        if owner != Some(terminal_rank) {
            continue;
        }
        let s = seg.start.min(end);
        let e = seg.end.min(end);
        if e <= s {
            continue;
        }
        events.push((s.as_ps(), seg.cat.index(), 1));
        events.push((e.as_ps(), seg.cat.index(), -1));
    }
    events.sort_unstable();

    let mut breakdown = Breakdown::default();
    let mut active = [0i64; 6];
    let mut prev: u64 = 0;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        if t > prev {
            add(
                &mut breakdown,
                pick(&active),
                SimDuration::from_ps(t - prev),
            );
            prev = t;
        }
        while i < events.len() && events[i].0 == t {
            active[events[i].1] += events[i].2;
            i += 1;
        }
    }
    if end.as_ps() > prev {
        add(
            &mut breakdown,
            SegCategory::Compute,
            SimDuration::from_ps(end.as_ps() - prev),
        );
    }

    let mut by_link: Vec<(u32, LinkStat)> = Vec::new();
    for u in fr.link_uses() {
        let idx = match by_link.iter().position(|(id, _)| *id == u.link) {
            Some(i) => i,
            None => {
                by_link.push((
                    u.link,
                    LinkStat {
                        name: fr.link_name(u.link),
                        busy: SimDuration::ZERO,
                        wait: SimDuration::ZERO,
                        messages: 0,
                    },
                ));
                by_link.len() - 1
            }
        };
        let stat = &mut by_link[idx].1;
        stat.busy += u.release.since(u.grant);
        stat.wait += u.grant.since(u.request);
        stat.messages += 1;
    }
    let mut links: Vec<LinkStat> = by_link.into_iter().map(|(_, s)| s).collect();
    links.sort_by(|a, b| a.name.cmp(&b.name));

    CritPath {
        total,
        terminal_rank,
        ops_on_path,
        breakdown,
        links,
    }
}

const AGGR_LABEL: &str = "pami.am_aggr";
static OP: Probe = Probe::op("oracle.op");
static COMPUTE: Probe = Probe::new().segment(SegCategory::Compute, "oracle.compute");
static QUEUE: Probe = Probe::new().segment(SegCategory::Queueing, "oracle.queue");
static AGGR: Probe = Probe::new().segment(SegCategory::Queueing, AGGR_LABEL);
static WIRE: Probe = Probe::new().segment(SegCategory::Wire, "oracle.wire");
static HOP: Probe = Probe::new().segment(SegCategory::Wire, "oracle.hop");
static CONTENDED: Probe = Probe::new().segment(SegCategory::Contention, "oracle.wait");
static STARVED: Probe = Probe::new().segment(SegCategory::Starvation, "oracle.starved");
static RETRY: Probe = Probe::new().segment(SegCategory::Retry, "oracle.retry");
/// Feeds a statistic only: attributes nothing.
static PLAIN: Probe = Probe::new().time("oracle.plain");

/// Each row, with the segment the reference records for it.
const ROWS: [(&Probe, Option<(SegCategory, &str)>); 9] = [
    (&COMPUTE, Some((SegCategory::Compute, "oracle.compute"))),
    (&QUEUE, Some((SegCategory::Queueing, "oracle.queue"))),
    (&AGGR, Some((SegCategory::Queueing, AGGR_LABEL))),
    (&WIRE, Some((SegCategory::Wire, "oracle.wire"))),
    (&HOP, Some((SegCategory::Wire, "oracle.hop"))),
    (&CONTENDED, Some((SegCategory::Contention, "oracle.wait"))),
    (&STARVED, Some((SegCategory::Starvation, "oracle.starved"))),
    (&RETRY, Some((SegCategory::Retry, "oracle.retry"))),
    (&PLAIN, None),
];

fn link_name(id: u32) -> String {
    format!(
        "({},{},0,0,0)+{}",
        id % 5,
        id / 5,
        ["A", "B"][id as usize % 2]
    )
}

/// What one seed's stream covered, summed over seeds by the test.
#[derive(Default)]
struct Coverage {
    clipped: usize,
    never_ended: usize,
    ties: usize,
    aggr_ps: u64,
    links: usize,
}

/// Drive both recorders through `steps` random steps under `seed`, then
/// compare them at several analyzed ends.
fn drive(seed: u64, steps: usize, cov: &mut Coverage) {
    let mut rng = SimRng::new(seed);
    let probes = Probes::default();
    let lc = probes.lifecycle.clone();
    lc.enable();
    let reference = Reference::default();
    reference.enable(usize::MAX);

    let ranks = 1 + rng.next_below(6) as u32;
    let mut now = 0u64;
    let mut ops: Vec<(OpId, u32)> = Vec::new();
    // The last segment drawn per (rank, category), to aim the next one at.
    let mut last = vec![[(0u64, 0u64); 6]; ranks as usize];
    for step in 0..steps {
        let ctx = format!("seed {seed}, step {step}");
        now += rng.next_below(4);
        let roll = rng.next_below(100);
        if roll < 12 || ops.is_empty() {
            let rank = rng.next_below(u64::from(ranks)) as u32;
            let op = probes.begin_op(&OP, SimTime(now), rank as usize);
            assert_eq!(
                op,
                reference.begin_op(SimTime(now), rank, "oracle.op"),
                "{ctx}"
            );
            ops.push((op.expect("accumulating"), rank));
        } else if roll < 22 {
            let (op, _) = ops[rng.next_below(ops.len() as u64) as usize];
            probes.end_op(&OP, Some(op), SimTime(now));
            reference.end_op(op, SimTime(now));
        } else if roll < 32 {
            let id = rng.next_below(12) as u32 * 7;
            let request = now + rng.next_below(20);
            let grant = request + rng.next_below(3) * rng.next_below(8);
            let release = grant + rng.next_below(10);
            let (request, grant, release) = (SimTime(request), SimTime(grant), SimTime(release));
            let op = ops
                .last()
                .map(|&(op, _)| op)
                .filter(|_| rng.next_below(2) == 0);
            lc.link(id, || link_name(id), request, grant, release);
            let rid = reference.link_id(&link_name(id));
            reference.link_use(rid, request, grant, release, op);
        } else {
            let (row, seg) = ROWS[rng.next_below(ROWS.len() as u64) as usize];
            let (mut op, rank) = ops[rng.next_below(ops.len() as u64) as usize];
            if rng.next_below(40) == 0 {
                op = OpId(1_000_000 + rng.next_below(8)); // never begun
            }
            let ci = seg.map_or(0, |(cat, _)| cat.index());
            let (ls, le) = last[rank as usize][ci];
            let len = rng.next_below(12);
            let start = match rng.next_below(6) {
                0 => le,                                   // touches the last one
                1 => le + 1,                               // one past it
                2 => ls + rng.next_below(le - ls + 1),     // overlaps or nests
                3 => ls.saturating_sub(rng.next_below(6)), // from its left
                4 => rng.next_below(now + 1),              // anywhere so far
                _ => now + rng.next_below(16),             // ahead of now
            };
            let end = start + len;
            if seg.is_some() {
                last[rank as usize][ci] = (start, end);
            }
            probes.span(row, Some(op), SimTime(start), SimTime(end), 0);
            if let Some((cat, label)) = seg {
                reference.segment(op, cat, label, SimTime(start), SimTime(end));
            }
        }
    }

    let records = reference.ops();
    let latest = records.iter().map(|o| o.end).max();
    assert_eq!(lc.latest_end(), latest, "seed {seed}: latest completion");
    let want_aggr: u64 = reference
        .segments()
        .iter()
        .filter(|s| s.label == AGGR_LABEL)
        .map(|s| s.end.since(s.start).as_ps())
        .sum();
    assert_eq!(
        lc.attributed(AGGR_LABEL).as_ps(),
        want_aggr,
        "seed {seed}: am_aggr"
    );
    let latest = latest.map_or(0, |t| t.as_ps());
    let seg_end = reference
        .segments()
        .iter()
        .map(|s| s.end.as_ps())
        .max()
        .unwrap_or(0);
    for end in [latest, now, rng.next_below(latest + 1), seg_end + 3] {
        let end = SimTime(end);
        let want = reference_analyze(&reference, end);
        let got = analyze(&lc, end);
        assert_eq!(got.to_json(), want.to_json(), "seed {seed}, end {end:?}");
        assert_eq!(got.report(), want.report(), "seed {seed}, end {end:?}");
        cov.clipped += reference
            .segments()
            .iter()
            .filter(|s| {
                s.end > end
                    && records.get(s.op.0 as usize).map(|o| o.rank) == Some(got.terminal_rank)
            })
            .count();
    }
    cov.never_ended += records.iter().filter(|o| o.end == o.issue).count();
    let mut ends: Vec<(SimTime, OpId)> = records.iter().map(|o| (o.end, o.op)).collect();
    ends.sort_unstable();
    cov.ties += ends.windows(2).filter(|w| w[0].0 == w[1].0).count();
    cov.aggr_ps += want_aggr;
    cov.links += reference.link_uses().len();
    assert_eq!(
        reference.inner.dropped.get(),
        0,
        "the reference kept everything"
    );
}

#[test]
fn accumulator_matches_the_capped_recorder_it_replaced() {
    let mut cov = Coverage::default();
    for seed in 0..96 {
        drive(seed, 600, &mut cov);
    }
    // The streams reached every case the header names.
    assert!(
        cov.clipped > 500,
        "{} segments past an analyzed end",
        cov.clipped
    );
    assert!(
        cov.never_ended > 500,
        "{} operations never ended",
        cov.never_ended
    );
    assert!(cov.ties > 200, "{} equal-end ties", cov.ties);
    assert!(
        cov.aggr_ps > 0 && cov.links > 1000,
        "{} ps aggr, {} link uses",
        cov.aggr_ps,
        cov.links
    );
}
