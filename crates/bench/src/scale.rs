//! Shared core of the `fig_scale` million-rank scaling benchmark (see
//! `src/bin/fig_scale.rs` for the CLI).
//!
//! The paper's headline is weak scaling to the full Blue Gene/Q partition
//! (§IV runs to 32k nodes / 512k ranks); the simulator must therefore hold
//! **p = 1,000,000 ranks in one address space**. That only works because
//! idle ranks cost (near-)zero bytes: rank state machines are event-driven
//! and materialize lazily on first touch (DESIGN.md §15). This module
//! measures exactly that contract with two workloads over a sweep of p:
//!
//! * `fig9_rmw` — the Fig 9 fetch-and-add storm, **all ranks active**: the
//!   dense upper bound, exercising mass task spawn/retire and per-rank
//!   state for every rank;
//! * `alltoall` — a synthetic all-to-all among a fixed-size *active set*
//!   spread evenly across the rank space: the sparse case, where the other
//!   `p - active` ranks must never materialize and the footprint must stay
//!   (near-)constant as p grows;
//! * `netstorm` — a fixed seeded delivery schedule pushed straight through
//!   [`torus5d::NetState`] ([`simbench::net_churn`]): the network layer's
//!   deliveries/s per p, with no kernel and no tasks.
//!
//! Each point records two kinds of fields. **Deterministic** (virtual end
//! time, kernel events, materialized-rank count, task-table high-water
//! mark): byte-stable for a given binary, gated at zero tolerance via
//! the `scale-gate-v2` document at small p. **Ungated context** (tagged
//! peak bytes, peak RSS, wall time, events/s): the scaling curves
//! themselves, committed for the record but host/compiler-dependent, so CI
//! never compares them exactly — growth *classes* fitted from the tagged
//! bytes are the stable summary, exactly as in `memscale` (§14).

use std::rc::Rc;

use armci::{ArmciConfig, ProgressMode};
use desim::{memprof, Observe};

use crate::memscale::{self, MemPoint};
use crate::simbench::{self, KernelLoad};
use crate::{fig9, peak_rss_kb, Fixture};

/// Default process counts for the scale sweep (ascending, to one million).
pub const DEFAULT_PROCS: [usize; 5] = [32, 1024, 32_768, 262_144, 1_000_000];

/// Default size of the `alltoall` active set.
pub const DEFAULT_ACTIVE: usize = 256;

/// Default fetch-and-adds per requester (`fig9_rmw`) / all-to-all rounds.
pub const DEFAULT_OPS: usize = 1;

/// Default messages in the `netstorm` delivery schedule.
pub const DEFAULT_STORM_MSGS: usize = 100_000;

/// One measured point of the scale sweep.
pub struct ScalePoint {
    /// Memory accounting plus wall time and event count (see [`MemPoint`]).
    pub mem: MemPoint,
    /// Virtual completion time of the workload (ps) — deterministic.
    pub sim_time_ps: u64,
    /// Ranks whose state materialized — deterministic (`p` for `fig9_rmw`,
    /// the active-set size for `alltoall`).
    pub materialized: usize,
    /// Kernel task-table high-water mark — deterministic.
    pub task_slots: usize,
    /// Process-wide peak RSS (kB) after the run. Points run serially in
    /// ascending p, so this is a running maximum dominated by the largest
    /// point so far; ungated.
    pub peak_rss_kb: u64,
}

/// One measured point of the `netstorm` workload: [`simbench::net_churn`]
/// at `procs` ranks. `load.events` (deliveries) and `load.sim_time_ps`
/// (latest arrival) gate at zero tolerance; `load.wall` is host context and
/// is never gated.
pub struct StormPoint {
    /// Process count.
    pub procs: usize,
    /// Deliveries, latest arrival and host wall-clock of the storm.
    pub load: KernelLoad,
}

/// Run the `netstorm` workload at `p`: the seeded `msgs`-message churn
/// schedule through a fresh [`torus5d::NetState`].
pub fn run_netstorm(p: usize, msgs: usize) -> StormPoint {
    StormPoint {
        procs: p,
        load: simbench::net_churn(p, msgs, None, Observe::default()).0,
    }
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

/// Run the dense workload: Fig 9's fetch-and-add storm with every rank
/// active (`ops` fetch-and-adds per requester, AsyncThread progress).
pub fn run_rmw(p: usize, ops: usize) -> ScalePoint {
    let m = memprof::mark();
    let t0 = std::time::Instant::now();
    let out = fig9::run(
        p,
        ProgressMode::AsyncThread,
        false,
        ops,
        None,
        Observe::default(),
    );
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ScalePoint {
        mem: MemPoint {
            procs: p,
            snap: memprof::since(&m),
            wall_ms,
            events: out.events,
        },
        sim_time_ps: out.sim_time_ps,
        materialized: out.materialized,
        task_slots: out.task_slots,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Run the sparse workload: `rounds` of all-to-all fetch-and-adds among
/// [`active_set`]`(p, active)`, leaving every other rank untouched. No
/// barrier and no collectives — those involve all p ranks by definition and
/// would materialize the idle ones. The counter lives at offset 0 of each
/// active rank (inside the runtime's unused notification region) rather
/// than at `alloc()`'s first free offset, which sits past the `p * 8`
/// notification cells and would drag a p-proportional dense memory vector
/// into every active rank.
pub fn run_alltoall(p: usize, active: usize, rounds: usize) -> ScalePoint {
    let m = memprof::mark();
    let t0 = std::time::Instant::now();
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
    let sim_time_ps = f.sim.now().as_ps();
    let events = f.sim.events_processed();
    let materialized = f.armci.machine().materialized_count();
    let task_slots = f.sim.task_slots();
    drop(f);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ScalePoint {
        mem: MemPoint {
            procs: p,
            snap: memprof::since(&m),
            wall_ms,
            events,
        },
        sim_time_ps,
        materialized,
        task_slots,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Run the full sweep **serially in ascending p** (so peak-RSS readings are
/// a running maximum and the largest point never competes for memory with a
/// concurrent sibling), calling `progress` after each finished point.
pub fn run_sweep(
    procs: &[usize],
    ops: usize,
    active: usize,
    mut progress: impl FnMut(&str, &ScalePoint),
) -> (Vec<ScalePoint>, Vec<ScalePoint>) {
    let mut rmw = Vec::with_capacity(procs.len());
    let mut a2a = Vec::with_capacity(procs.len());
    for &p in procs {
        let pt = run_rmw(p, ops);
        progress("fig9_rmw", &pt);
        rmw.push(pt);
        let pt = run_alltoall(p, active, ops);
        progress("alltoall", &pt);
        a2a.push(pt);
    }
    (rmw, a2a)
}

fn point_json(pt: &ScalePoint, deterministic_only: bool) -> String {
    let mut o = format!(
        "{{\"procs\":{},\"sim_time_ps\":{},\"events\":{},\"materialized\":{},\
         \"task_slots\":{}",
        pt.mem.procs, pt.sim_time_ps, pt.mem.events, pt.materialized, pt.task_slots
    );
    if !deterministic_only {
        o.push_str(",\"tags\":{");
        for (j, t) in pt.mem.snap.tags.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "\"{}\":{{\"peak_bytes\":{},\"allocs\":{},\"bytes_per_rank\":{:.1}}}",
                t.name,
                t.peak_bytes,
                t.allocs,
                t.peak_bytes as f64 / pt.mem.procs as f64
            ));
        }
        let eps = if pt.mem.wall_ms > 0.0 {
            pt.mem.events as f64 / (pt.mem.wall_ms / 1e3)
        } else {
            0.0
        };
        o.push_str(&format!(
            "}},\"peak_rss_kb\":{},\"wall_ms\":{:.1},\"events_per_sec\":{:.0}",
            pt.peak_rss_kb, pt.mem.wall_ms, eps
        ));
    }
    o.push('}');
    o
}

fn workload_json(points: &[ScalePoint], deterministic_only: bool) -> String {
    let mut o = String::from("{\"points\":{");
    for (i, pt) in points.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\"p{}\":{}",
            pt.mem.procs,
            point_json(pt, deterministic_only)
        ));
    }
    o.push_str("},\"slopes\":{");
    if !deterministic_only {
        let mem: Vec<MemPoint> = points
            .iter()
            .map(|pt| MemPoint {
                procs: pt.mem.procs,
                snap: pt.mem.snap.clone(),
                wall_ms: pt.mem.wall_ms,
                events: pt.mem.events,
            })
            .collect();
        for (i, (tag, exp, class)) in memscale::slopes(&mem).iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "\"{tag}\":{{\"class\":\"{class}\",\"exp\":{exp:.2}}}"
            ));
        }
    }
    o.push_str("}}");
    o
}

fn storm_json(storm: &[StormPoint], msgs: usize, deterministic_only: bool) -> String {
    let mut o = format!("{{\"msgs\":{msgs},\"points\":{{");
    for (i, pt) in storm.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\"p{}\":{{\"procs\":{},\"events\":{},\"sim_time_ps\":{}",
            pt.procs, pt.procs, pt.load.events, pt.load.sim_time_ps
        ));
        if !deterministic_only {
            o.push_str(&format!(
                ",\"wall_ms\":{:.1},\"events_per_sec\":{:.0}",
                pt.load.wall.as_secs_f64() * 1e3,
                pt.load.mevents_per_sec() * 1e6
            ));
        }
        o.push('}');
    }
    o.push_str("}}");
    o
}

/// Serialize the sweep as a `scale-v3` JSON document: all three workloads,
/// all fields, plus per-tag growth classes fitted across the sweep.
pub fn scale_json(
    rmw: &[ScalePoint],
    a2a: &[ScalePoint],
    storm: &[StormPoint],
    ops: usize,
    active: usize,
    storm_msgs: usize,
) -> String {
    format!(
        "{{\"schema\":\"scale-v3\",\"bench\":\"fig_scale\",\"ops\":{ops},\
         \"active\":{active},\"workloads\":{{\"fig9_rmw\":{},\"alltoall\":{},\
         \"netstorm\":{}}}}}\n",
        workload_json(rmw, false),
        workload_json(a2a, false),
        storm_json(storm, storm_msgs, false)
    )
}

/// Serialize only the deterministic per-point fields as a `scale-gate-v2`
/// document. Every leaf is byte-stable for a given source tree (virtual
/// times, event counts, materialization counts, task-table size — never
/// bytes or wall time), so `bgq-bench gate` holds it to zero tolerance at small p.
pub fn gate_json(
    rmw: &[ScalePoint],
    a2a: &[ScalePoint],
    storm: &[StormPoint],
    ops: usize,
    active: usize,
    storm_msgs: usize,
) -> String {
    format!(
        "{{\"schema\":\"scale-gate-v2\",\"bench\":\"fig_scale\",\"ops\":{ops},\
         \"active\":{active},\"workloads\":{{\"fig9_rmw\":{},\"alltoall\":{},\
         \"netstorm\":{}}}}}\n",
        workload_json(rmw, true),
        workload_json(a2a, true),
        storm_json(storm, storm_msgs, true)
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
        let pt = run_alltoall(p, active, 2);
        assert_eq!(pt.materialized, active, "idle ranks must never be touched");
        assert!(pt.sim_time_ps > 0 && pt.mem.events > 0);
    }

    #[test]
    fn alltoall_counters_add_up() {
        // Re-run the workload inline to check the arithmetic end-to-end:
        // `rounds * active * (active - 1)` increments land across counters.
        let (p, active, rounds) = (256, 4, 3);
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
        let total: i64 = ids
            .iter()
            .map(|&r| f.armci.machine().rank(r).read_i64(0))
            .sum();
        assert_eq!(total as usize, rounds * active * (active - 1));
        assert_eq!(f.armci.machine().materialized_count(), active);
    }

    #[test]
    fn rmw_point_matches_fig9_shape() {
        let pt = run_rmw(32, 1);
        assert_eq!(pt.mem.procs, 32);
        assert_eq!(pt.materialized, 32, "fig9 touches every rank");
        assert!(pt.task_slots >= 32, "one task per rank plus daemons");
        assert!(pt.sim_time_ps > 0 && pt.mem.events > 0);
    }

    #[test]
    fn scale_and_gate_docs_parse() {
        let mk = |p: usize, peak: i64| ScalePoint {
            mem: MemPoint {
                procs: p,
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
                wall_ms: 5.0,
                events: 2000,
            },
            sim_time_ps: 777,
            materialized: 8,
            task_slots: 11,
            peak_rss_kb: 12345,
        };
        let rmw = vec![mk(32, 3200), mk(1024, 102_400)];
        let a2a = vec![mk(32, 800), mk(1024, 800)];
        let mk_storm = |procs: usize, sim_time_ps: u64, wall_ms: u64| StormPoint {
            procs,
            load: KernelLoad {
                events: 5000,
                sim_time_ps,
                wall: std::time::Duration::from_millis(wall_ms),
            },
        };
        let storm = vec![mk_storm(32, 999, 3), mk_storm(1024, 1999, 4)];
        let full = scale_json(&rmw, &a2a, &storm, 1, 8, 5000);
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

        let gate = gate_json(&rmw, &a2a, &storm, 1, 8, 5000);
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

    #[test]
    fn netstorm_point_equals_net_churn_signature() {
        let pt = run_netstorm(64, 2000);
        let (churn, _) = simbench::net_churn(64, 2000, None, Observe::default());
        assert_eq!(pt.procs, 64);
        assert_eq!(pt.load.events, 2000);
        assert_eq!(pt.load.events, churn.events);
        assert_eq!(pt.load.sim_time_ps, churn.sim_time_ps);
        assert!(pt.load.sim_time_ps > 0);
    }
}
