//! The scaling harness behind `fig_mem` and `fig_scale`: one measured
//! [`Point`] per run, one `measure` bracket around every run, and one
//! runner per workload.
//!
//! The paper's headline is weak scaling to the full Blue Gene/Q partition
//! (§IV runs to 32k nodes / 512k ranks); the simulator must therefore hold
//! **p = 1,000,000 ranks in one address space**. That only works because
//! idle ranks cost (near-)zero bytes: rank state machines are event-driven
//! and materialize lazily on first touch (DESIGN.md §15). The workloads:
//!
//! * [`fig9_rmw`] — the Fig 9 fetch-and-add storm, **all ranks active**: the
//!   dense upper bound, exercising mass task spawn/retire and per-rank
//!   state for every rank;
//! * [`alltoall`] — a synthetic all-to-all among a fixed-size *active set*
//!   spread evenly across the rank space: the sparse case, where the other
//!   `p - active` ranks must never materialize and the footprint must stay
//!   (near-)constant as p grows;
//! * [`net_churn`] — a fixed seeded delivery schedule pushed straight
//!   through [`torus5d::NetState`], no kernel and no tasks: the network
//!   layer alone (`fig_scale`'s `netstorm` rows, `fig_mem`'s `net_churn`
//!   rows, and the workload the zero-cost tests hold byte-identical).
//!
//! A point records two kinds of fields. **Deterministic** (virtual end
//! time, kernel events, materialized-rank count, task-table high-water
//! mark, tagged allocation bytes): byte-stable for a given binary.
//! **Host context** (wall time, events/s, peak RSS): ungated. Growth
//! *classes* fitted from the tagged bytes
//! ([`slopes`](crate::memscale::slopes)) are the stable summary of a memory
//! curve (DESIGN.md §14). Host time itself is measured by `bgq-perf` under
//! `benchmark/` (`net_storm` is the churn storm's counterpart there), not
//! here.

use std::rc::Rc;
use std::time::Instant;

use armci::{ArmciConfig, ProgressMode};
use desim::memprof::{self, MemSnapshot};
use desim::{FaultPlan, Observe, Observed, Probes, SimDuration, SimRng, SimTime};
use torus5d::{BgqParams, Delivery, MsgClass, NetState, Topology};

use crate::memscale::{tags_json, workload_json};
use crate::{fig9, peak_rss_kb, Fixture};

/// Default process counts for `fig_scale` (ascending, to one million).
pub const DEFAULT_PROCS: [usize; 5] = [32, 1024, 32_768, 262_144, 1_000_000];

/// One measured run of a scaling workload at `procs` ranks.
#[derive(Debug, Default)]
pub struct Point {
    /// Process count of this run.
    pub procs: usize,
    /// Per-tag allocation deltas over the run's `measure` bracket.
    pub snap: MemSnapshot,
    /// Virtual end time (ps); for [`net_churn`], the latest arrival.
    pub sim_time_ps: u64,
    /// Kernel events processed (task polls + timer firings); for
    /// [`net_churn`], deliveries.
    pub events: u64,
    /// Ranks whose state materialized (`p` for `fig9_rmw`, the active-set
    /// size for `alltoall`, 0 for the kernel-less `net_churn`).
    pub materialized: usize,
    /// Kernel task-table high-water mark (0 for `net_churn`).
    pub task_slots: usize,
    /// Host wall time of the run in milliseconds; for [`net_churn`], of its
    /// delivery loop alone.
    pub wall_ms: f64,
    /// Process-wide peak RSS (kB) after the run: a running maximum over
    /// every run so far in this process.
    pub peak_rss_kb: u64,
}

impl Point {
    /// Events per host second (0 when the wall clock read zero).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Measure one run: mark the calling thread's allocation counters, call
/// `run` (which returns only the run's deterministic signature — its state
/// has dropped by then), take the tagged deltas, and read wall time and
/// peak RSS. Thread-local accounting makes the snapshot exact and identical
/// whichever sweep worker runs the point. Without [`memprof::enable`] (and
/// `bgq-bench`'s [`memprof::MemProf`] allocator) the snapshot is empty.
fn measure<T>(run: impl FnOnce() -> (Point, T)) -> (Point, T) {
    let m = memprof::mark();
    let t0 = Instant::now();
    let (pt, seen) = run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pt = Point {
        snap: memprof::since(&m),
        wall_ms,
        peak_rss_kb: peak_rss_kb(),
        ..pt
    };
    (pt, seen)
}

/// The dense workload: Fig 9's fetch-and-add storm with every rank active
/// (`ops` fetch-and-adds per requester, AsyncThread progress); `observe`
/// names the sinks the run turns on.
pub fn fig9_rmw(p: usize, ops: usize, observe: Observe) -> (Point, Observed) {
    measure(|| {
        let out = fig9::run(p, ProgressMode::AsyncThread, false, ops, None, observe);
        let pt = Point {
            procs: p,
            sim_time_ps: out.sim_time_ps,
            events: out.events,
            materialized: out.materialized,
            task_slots: out.task_slots,
            ..Point::default()
        };
        (pt, out.observed)
    })
}

/// The deterministically spread active set: `n` ranks at even stride over
/// `0..p` (all of them when `n >= p`), always including rank 0.
pub fn active_set(p: usize, n: usize) -> Vec<usize> {
    if n >= p {
        return (0..p).collect();
    }
    let stride = p / n;
    (0..n).map(|i| i * stride).collect()
}

/// Run the sparse workload to completion: `rounds` of all-to-all
/// fetch-and-adds among [`active_set`]`(p, active)`, leaving every other
/// rank untouched. No barrier and no collectives — those involve all p
/// ranks by definition and would materialize the idle ones. The counter
/// lives at offset 0 of each active rank (inside the runtime's unused
/// notification region) rather than at `alloc()`'s first free offset, which
/// sits past the `p * 8` notification cells and would drag a p-proportional
/// dense memory vector into every active rank. Returns the finished fixture
/// and the active set.
fn run_alltoall(p: usize, active: usize, rounds: usize) -> (Fixture, Rc<Vec<usize>>) {
    let f = Fixture::with_machine(
        pami_sim::MachineConfig::new(p)
            .procs_per_node(16)
            .contexts(2),
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let ids = Rc::new(active_set(p, active));
    for &r in ids.iter() {
        f.armci.machine().rank(r).write_i64(0, 0);
    }
    for &r in ids.iter() {
        let rk = f.rank(r);
        let ids = Rc::clone(&ids);
        f.sim.spawn(async move {
            for _ in 0..rounds {
                for &t in ids.iter() {
                    if t != r {
                        rk.rmw_fetch_add(t, 0, 1).await;
                    }
                }
            }
        });
    }
    f.finish();
    (f, ids)
}

/// The sparse workload: `rounds` of all-to-all fetch-and-adds among
/// `active` evenly spread ranks of `p`.
pub fn alltoall(p: usize, active: usize, rounds: usize) -> Point {
    measure(|| {
        let (f, _) = run_alltoall(p, active, rounds);
        let pt = Point {
            procs: p,
            sim_time_ps: f.sim.now().as_ps(),
            events: f.sim.events_processed(),
            materialized: f.armci.machine().materialized_count(),
            task_slots: f.sim.task_slots(),
            ..Point::default()
        };
        (pt, ())
    })
    .0
}

/// Network-churn workload: a contended all-to-all delivery storm driven
/// straight through [`NetState`] — no kernel, no tasks, just the network
/// hot path (route lookup, per-link reservation, pair ordering). `procs`
/// ranks (16/node) fire `msgs` seeded pseudo-random messages (mixed sizes
/// and ordering classes, slightly staggered injection times) at random
/// peers with contention modelling on. [`Point::events`] counts
/// *deliveries* and [`Point::sim_time_ps`] is the latest arrival — both
/// fully deterministic; [`Point::wall_ms`] times the delivery loop alone,
/// not the network's construction or the schedule's generation.
///
/// `plan` installs a [`FaultPlan`] on the network: messages it drops are
/// simply lost (no retry layer down here), and `events` still counts only
/// actual deliveries; with `None` **or an empty plan** the delivery stream
/// is byte-identical (`tests/fault_zero_cost.rs`). `observe` attaches
/// standalone [`Probes`] (no kernel needed) with its sinks on: the timeline
/// samples per-window message/byte counts, link busy/wait time and detours,
/// so `simstat` can spot the congestion onset as the staggered injection
/// schedule outruns link capacity.
pub fn net_churn(
    procs: usize,
    msgs: usize,
    plan: Option<FaultPlan>,
    observe: Observe,
) -> (Point, Observed) {
    let mut wall_ms = 0.0;
    let (pt, seen) = measure(|| {
        let topo = Topology::for_procs(procs, 16);
        let mut net = NetState::new(topo, BgqParams::default(), true);
        if let Some(plan) = plan {
            net.install_faults(plan);
        }
        let probes = Probes::default();
        observe.start(&probes);
        net.attach(probes.clone());
        // Pre-generate the schedule so the timed loop measures delivery alone.
        let sched = churn_schedule(procs, msgs);
        let t0 = Instant::now();
        let mut last = SimTime::ZERO;
        // With the allocation profiler on, sample per-tag live-bytes gauges
        // at most once per timeline window (there is no kernel here to do it).
        let tl = &probes.timeline;
        let sample_mem = memprof::enabled() && tl.on();
        let mem_window = tl.window_ps().max(1);
        let mut mem_next = 0u64;
        let mut mem_ids = Vec::new();
        for m in &sched {
            let (at, src, dst) = (m.inject, m.src as usize, m.dst as usize);
            match net.try_deliver_op(at, src, dst, m.payload as usize, m.class, None) {
                Delivery::Delivered(arrival) => last = last.max(arrival),
                Delivery::Dropped { .. } => {} // lost to the fault plan
            }
            if sample_mem && at.as_ps() >= mem_next {
                mem_next = (at.as_ps() / mem_window + 1) * mem_window;
                memprof::record_live_gauges(tl, at, &mut mem_ids);
            }
        }
        wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let pt = Point {
            procs,
            sim_time_ps: last.as_ps(),
            events: net.messages(),
            ..Point::default()
        };
        (pt, observe.finish(&probes, last))
    });
    (Point { wall_ms, ..pt }, seen)
}

/// One pre-scheduled message of the churn storm.
#[derive(Debug, Clone, Copy)]
struct ChurnMsg {
    inject: SimTime,
    src: u32,
    dst: u32,
    payload: u32,
    class: MsgClass,
}

/// The seeded pseudo-random all-to-all schedule every `net_churn` run
/// delivers, generated before the timed loop starts.
fn churn_schedule(procs: usize, msgs: usize) -> Vec<ChurnMsg> {
    let mut rng = SimRng::new(0x4E45_7443);
    let mut sched = Vec::with_capacity(msgs);
    let mut inject = SimTime::ZERO;
    for i in 0..msgs {
        let src = rng.next_below(procs as u64) as usize;
        let mut dst = rng.next_below(procs as u64) as usize;
        if dst == src {
            dst = (dst + 1) % procs;
        }
        let payload = 1usize << (4 + rng.next_below(12)); // 16 B .. 32 KB
        let class = match i % 8 {
            0 => MsgClass::Unordered,
            1 | 2 => MsgClass::Control,
            _ => MsgClass::Ordered,
        };
        inject += SimDuration::from_ns(rng.next_below(200));
        sched.push(ChurnMsg {
            inject,
            src: src as u32,
            dst: dst as u32,
            payload: payload as u32,
            class,
        });
    }
    sched
}

/// A point's host-context leaves: `,"wall_ms":..,"events_per_sec":..`.
fn wall_json(pt: &Point) -> String {
    format!(
        ",\"wall_ms\":{:.1},\"events_per_sec\":{:.0}",
        pt.wall_ms,
        pt.events_per_sec()
    )
}

/// One `fig9_rmw` / `alltoall` point: the deterministic signature, then —
/// unless `deterministic_only` — tagged bytes and host context.
fn point_json(pt: &Point, deterministic_only: bool) -> String {
    let mut o = format!(
        "{{\"procs\":{},\"sim_time_ps\":{},\"events\":{},\"materialized\":{},\
         \"task_slots\":{}",
        pt.procs, pt.sim_time_ps, pt.events, pt.materialized, pt.task_slots
    );
    if !deterministic_only {
        let (tags, rss) = (tags_json(pt, false), pt.peak_rss_kb);
        o.push_str(&format!(
            ",\"tags\":{tags},\"peak_rss_kb\":{rss}{}",
            wall_json(pt)
        ));
    }
    o.push('}');
    o
}

/// The `netstorm` workload: its schedule length, then per point the
/// delivery count and latest arrival, then — unless `deterministic_only` —
/// host context.
fn storm_json(storm: &[Point], msgs: usize, deterministic_only: bool) -> String {
    let points: Vec<String> = storm
        .iter()
        .map(|pt| {
            let host = if deterministic_only {
                String::new()
            } else {
                wall_json(pt)
            };
            format!(
                "\"p{}\":{{\"procs\":{},\"events\":{},\"sim_time_ps\":{}{host}}}",
                pt.procs, pt.procs, pt.events, pt.sim_time_ps
            )
        })
        .collect();
    format!("{{\"msgs\":{msgs},\"points\":{{{}}}}}", points.join(","))
}

/// Serialize `fig_scale`'s sweep: with `deterministic_only`, the
/// `scale-gate-v2` document — virtual times, event counts, materialization
/// counts and task-table sizes, never bytes or wall time, so `bgq-bench
/// gate` holds it to zero tolerance at small p; otherwise the full
/// `scale-v3` document, with tagged bytes, host context and per-tag growth
/// classes fitted across the sweep.
pub fn scale_json(
    rmw: &[Point],
    a2a: &[Point],
    storm: &[Point],
    ops: usize,
    active: usize,
    storm_msgs: usize,
    deterministic_only: bool,
) -> String {
    let schema = if deterministic_only {
        "scale-gate-v2"
    } else {
        "scale-v3"
    };
    let workload = |points| {
        workload_json(points, !deterministic_only, |pt| {
            point_json(pt, deterministic_only)
        })
    };
    format!(
        "{{\"schema\":\"{schema}\",\"bench\":\"fig_scale\",\"ops\":{ops},\
         \"active\":{active},\"workloads\":{{\"fig9_rmw\":{},\"alltoall\":{},\
         \"netstorm\":{}}}}}\n",
        workload(rmw),
        workload(a2a),
        storm_json(storm, storm_msgs, deterministic_only)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::json::{self, JsonValue};

    #[test]
    fn active_set_spreads_evenly() {
        assert_eq!(active_set(1024, 4), vec![0, 256, 512, 768]);
        assert_eq!(active_set(8, 8), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(active_set(4, 100), vec![0, 1, 2, 3]);
        assert_eq!(active_set(1_000_000, 2), vec![0, 500_000]);
    }

    #[test]
    fn alltoall_materializes_only_the_active_set() {
        let p = 4096;
        let active = 8;
        let pt = alltoall(p, active, 2);
        assert_eq!(pt.materialized, active, "idle ranks must never be touched");
        assert!(pt.sim_time_ps > 0 && pt.events > 0);
    }

    #[test]
    fn alltoall_counters_add_up() {
        // Check the workload's arithmetic end-to-end:
        // `rounds * active * (active - 1)` increments land across counters.
        let (p, active, rounds) = (256, 4, 3);
        let (f, ids) = run_alltoall(p, active, rounds);
        let total: i64 = ids
            .iter()
            .map(|&r| f.armci.machine().rank(r).read_i64(0))
            .sum();
        assert_eq!(total as usize, rounds * active * (active - 1));
        assert_eq!(f.armci.machine().materialized_count(), active);
    }

    #[test]
    fn rmw_point_matches_fig9_shape() {
        let (pt, _) = fig9_rmw(32, 1, Observe::default());
        assert_eq!(pt.procs, 32);
        assert_eq!(pt.materialized, 32, "fig9 touches every rank");
        assert!(pt.task_slots >= 32, "one task per rank plus daemons");
        assert!(pt.sim_time_ps > 0 && pt.events > 0);
    }

    #[test]
    fn net_churn_is_deterministic() {
        let (a, _) = net_churn(128, 2000, None, Observe::default());
        let (b, _) = net_churn(128, 2000, None, Observe::default());
        assert_eq!(a.procs, 128);
        assert_eq!(a.events, 2000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time_ps, b.sim_time_ps);
        assert!(a.sim_time_ps > 0, "messages must take time to arrive");
    }

    #[test]
    fn netstorm_point_equals_net_churn_signature() {
        // `fig_scale`'s netstorm row runs with no sinks; `fig_mem`'s
        // smallest-p net_churn row runs with the timeline on. Both are one
        // `net_churn` point and must carry the same signature.
        let (pt, _) = net_churn(64, 2000, None, Observe::default());
        let observe = Observe {
            timeline: Some(1_000_000),
            ..Observe::default()
        };
        let (churn, seen) = net_churn(64, 2000, None, observe);
        assert!(seen.timeline.is_some());
        assert_eq!(pt.procs, 64);
        assert_eq!(pt.events, 2000);
        assert_eq!(pt.events, churn.events);
        assert_eq!(pt.sim_time_ps, churn.sim_time_ps);
        assert!(pt.sim_time_ps > 0);
    }

    #[test]
    fn scale_and_gate_docs_parse() {
        let mk = |procs: usize, peak: i64, wall_ms: f64| Point {
            procs,
            snap: desim::memprof::MemSnapshot {
                tags: vec![desim::memprof::TagStats {
                    name: "pami.rankmem",
                    live_bytes: peak,
                    peak_bytes: peak,
                    allocs: 4,
                    frees: 0,
                    reallocs: 0,
                }],
            },
            sim_time_ps: 777,
            events: 2000,
            materialized: 8,
            task_slots: 11,
            wall_ms,
            peak_rss_kb: 12345,
        };
        let rmw = vec![mk(32, 3200, 5.0), mk(1024, 102_400, 5.0)];
        let a2a = vec![mk(32, 800, 5.0), mk(1024, 800, 5.0)];
        let storm = vec![mk(32, 0, 3.0), mk(1024, 0, 4.0)];
        let full = scale_json(&rmw, &a2a, &storm, 1, 8, 5000, false);
        let v = json::parse(&full).expect("scale-v3 parses");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some("scale-v3")
        );
        let w = v.get("workloads").unwrap();
        let p32 = w
            .get("fig9_rmw")
            .and_then(|x| x.get("points"))
            .and_then(|x| x.get("p32"))
            .expect("p32 point");
        assert_eq!(
            p32.get("sim_time_ps").and_then(JsonValue::as_f64),
            Some(777.0)
        );
        assert!(p32.get("wall_ms").is_some() && p32.get("tags").is_some());
        assert_eq!(
            p32.get("events_per_sec").and_then(JsonValue::as_f64),
            Some(400000.0)
        );
        // Growth classes: rmw rankmem is linear, alltoall constant.
        let class = |wl: &str| {
            w.get(wl)
                .and_then(|x| x.get("slopes"))
                .and_then(|x| x.get("pami.rankmem"))
                .and_then(|x| x.get("class"))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        assert_eq!(class("fig9_rmw").as_deref(), Some("linear"));
        assert_eq!(class("alltoall").as_deref(), Some("constant"));
        // netstorm: host timing present in the full doc.
        let storm_p32 = w
            .get("netstorm")
            .and_then(|x| x.get("points"))
            .and_then(|x| x.get("p32"))
            .expect("netstorm p32 point");
        assert_eq!(
            storm_p32.get("wall_ms").and_then(JsonValue::as_f64),
            Some(3.0)
        );

        let gate = scale_json(&rmw, &a2a, &storm, 1, 8, 5000, true);
        let g = json::parse(&gate).expect("scale-gate-v2 parses");
        assert_eq!(
            g.get("schema").and_then(JsonValue::as_str),
            Some("scale-gate-v2")
        );
        let gp = g
            .get("workloads")
            .and_then(|x| x.get("alltoall"))
            .and_then(|x| x.get("points"))
            .and_then(|x| x.get("p1024"))
            .expect("gate point");
        assert!(gp.get("events").is_some() && gp.get("materialized").is_some());
        let sp = g
            .get("workloads")
            .and_then(|x| x.get("netstorm"))
            .and_then(|x| x.get("points"))
            .and_then(|x| x.get("p32"))
            .expect("netstorm gate point");
        assert!(sp.get("events").is_some() && sp.get("sim_time_ps").is_some());
        assert!(
            !gate.contains("wall_ms") && !gate.contains("peak_bytes"),
            "gate doc holds deterministic leaves only"
        );
    }
}
