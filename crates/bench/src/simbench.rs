//! Simulator self-benchmark workloads (the `simbench` binary).
//!
//! Synthetic kernel workloads that measure how fast the `desim` kernel
//! itself runs on the host — wall-clock events/second — independent of any
//! model fidelity question. Three workloads cover the kernel's hot paths:
//!
//! * [`timer_churn`] — many tasks sleeping pseudo-random durations: stresses
//!   the timer wheel (insert/fire) across near and far deadlines.
//! * [`ping_pong`] — channel ping-pong pairs with no sleeps: stresses the
//!   ready queue and waker path exclusively (everything at t = 0).
//! * [`net_churn`] — a contended all-to-all delivery storm pushed straight
//!   through `torus5d::NetState`: stresses the network hot path (route
//!   lookup, per-link reservation, pair ordering) and reports deliveries/sec.
//! * [`fig4_sweep`] — a real bandwidth sweep (Fig 4 shape) run serially and
//!   with the parallel harness: measures end-to-end sweep speedup.
//!
//! Event counts and simulated times are fully deterministic; only wall-clock
//! readings vary between hosts. The `simbench` binary reports both in a
//! fixed-schema JSON so CI can gate on schema/determinism strictly and on
//! timings loosely (see `scripts/reproduce.sh` and the CI workflow).

use std::time::{Duration, Instant};

use desim::{FaultPlan, Sim, SimDuration, SimRng, SimTime};
use torus5d::{BgqParams, Delivery, MsgClass, NetState, Topology};

use crate::sweep;

/// Outcome of one kernel workload: deterministic event/time totals plus the
/// host wall-clock spent running it.
pub struct KernelLoad {
    /// Kernel events processed (task polls + timer firings) — deterministic.
    pub events: u64,
    /// Final virtual time in picoseconds — deterministic.
    pub sim_time_ps: u64,
    /// Host wall-clock elapsed.
    pub wall: Duration,
}

impl KernelLoad {
    /// Millions of kernel events per wall-clock second.
    pub fn mevents_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9) / 1e6
    }
}

/// Timer-churn workload: `tasks` tasks each perform `steps` sleeps of
/// seeded pseudo-random length (1 ns – ~1 µs, with an occasional ~300 µs
/// far-future sleep mimicking compute grains), so deadlines land across
/// every level of the timer wheel.
pub fn timer_churn(tasks: usize, steps: usize) -> KernelLoad {
    let sim = Sim::new();
    let root = SimRng::new(0xB9C4_5EED);
    for t in 0..tasks {
        let s = sim.clone();
        let mut rng = root.derive(t as u64);
        sim.spawn(async move {
            for step in 0..steps {
                let d = if step % 64 == 63 {
                    SimDuration::from_us(300) // far-future: falls past the near wheel
                } else {
                    SimDuration::from_ns(1 + rng.next_below(1000))
                };
                s.sleep(d).await;
            }
        });
    }
    let t0 = Instant::now();
    let end = sim.run();
    let wall = t0.elapsed();
    KernelLoad {
        events: sim.events_processed(),
        sim_time_ps: end.as_ps(),
        wall,
    }
}

/// Channel ping-pong workload: `pairs` pairs of tasks bounce a token
/// `rounds` times with no sleeps, so the whole workload executes at t = 0
/// through the ready queue and waker path alone.
pub fn ping_pong(pairs: usize, rounds: usize) -> KernelLoad {
    let sim = Sim::new();
    for p in 0..pairs {
        let (to_b, from_a) = desim::channel::channel::<u64>();
        let (to_a, from_b) = desim::channel::channel::<u64>();
        sim.spawn(async move {
            let mut token = p as u64;
            for _ in 0..rounds {
                to_b.send(token);
                token = from_b.recv().await.expect("peer hung up");
            }
        });
        sim.spawn(async move {
            for _ in 0..rounds {
                let v = from_a.recv().await.expect("peer hung up");
                to_a.send(v.wrapping_add(1));
            }
        });
    }
    let t0 = Instant::now();
    let end = sim.run();
    let wall = t0.elapsed();
    KernelLoad {
        events: sim.events_processed(),
        sim_time_ps: end.as_ps(),
        wall,
    }
}

/// Network-churn workload: a contended all-to-all delivery storm driven
/// straight through [`NetState`] — no kernel, no tasks, just the network
/// hot path. `procs` ranks (16/node) fire `msgs` seeded pseudo-random
/// messages (mixed sizes and ordering classes, slightly staggered injection
/// times) at random peers with contention modelling on. For this workload
/// [`KernelLoad::events`] counts *deliveries* and
/// [`KernelLoad::sim_time_ps`] is the latest arrival time — both fully
/// deterministic; only the wall-clock varies by host.
pub fn net_churn(procs: usize, msgs: usize) -> KernelLoad {
    net_churn_with_faults(procs, msgs, None)
}

/// [`net_churn`] with an optional [`FaultPlan`] installed on the network.
/// Messages the plan drops are simply lost (no retry layer down here — this
/// benchmarks raw `NetState` throughput); `events` still counts only actual
/// deliveries. With `None` **or an empty plan** the delivery stream is
/// byte-identical to [`net_churn`] — asserted by
/// `tests/fault_zero_cost.rs`.
pub fn net_churn_with_faults(procs: usize, msgs: usize, plan: Option<FaultPlan>) -> KernelLoad {
    net_churn_timeline(procs, msgs, plan, None).0
}

/// [`net_churn_with_faults`] with optional windowed telemetry: a standalone
/// [`desim::Timeline`] (no kernel needed) attached straight to the
/// [`NetState`], sampling per-window message/byte counts, link busy/wait
/// time and detours so `simstat` can spot the congestion onset as the
/// staggered injection schedule outruns link capacity.
pub fn net_churn_timeline(
    procs: usize,
    msgs: usize,
    plan: Option<FaultPlan>,
    timeline_window_ps: Option<u64>,
) -> (KernelLoad, Option<desim::TimelineSnapshot>) {
    let topo = Topology::for_procs(procs, 16);
    let mut net = NetState::new(topo, BgqParams::default(), true);
    if let Some(plan) = plan {
        net.install_faults(plan);
    }
    let tl = desim::Timeline::new();
    if let Some(w) = timeline_window_ps {
        tl.enable(w, 512);
    }
    net.set_timeline(&tl);
    // Pre-generate the schedule so the timed loop measures delivery alone.
    let sched = churn_schedule(procs, msgs);
    let t0 = Instant::now();
    let mut last = SimTime::ZERO;
    // With the allocation profiler on, sample per-tag live-bytes gauges at
    // most once per timeline window (there is no kernel here to do it).
    let sample_mem = desim::memprof::enabled() && tl.on();
    let mem_window = tl.window_ps().max(1);
    let mut mem_next = 0u64;
    let mut mem_ids = Vec::new();
    for m in &sched {
        let (at, src, dst, len, class) = (
            m.inject,
            m.src as usize,
            m.dst as usize,
            m.payload as usize,
            m.class,
        );
        match net.try_deliver_op(at, src, dst, len, class, None) {
            Delivery::Delivered(arrival) => {
                if arrival > last {
                    last = arrival;
                }
            }
            Delivery::Dropped { .. } => {} // lost to the fault plan
        }
        if sample_mem && at.as_ps() >= mem_next {
            mem_next = (at.as_ps() / mem_window + 1) * mem_window;
            desim::memprof::record_live_gauges(&tl, at, &mut mem_ids);
        }
    }
    let wall = t0.elapsed();
    let snap = timeline_window_ps.map(|_| tl.snapshot());
    let load = KernelLoad {
        events: net.messages(),
        sim_time_ps: last.as_ps(),
        wall,
    };
    (load, snap)
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

/// The seeded pseudo-random all-to-all schedule every `net_churn` variant
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

/// Fig 4-style bandwidth sweep (get+put per size), run through the parallel
/// harness with `jobs` workers. Returns the per-size bandwidth sums (MB/s,
/// deterministic) and the wall-clock for the whole sweep.
pub fn fig4_sweep(
    sizes: &[usize],
    window: usize,
    reps: usize,
    jobs: usize,
) -> (Vec<f64>, Duration) {
    let t0 = Instant::now();
    let rows = sweep::run_parallel(sizes.len(), jobs, |i| {
        let m = sizes[i];
        crate::bandwidth(2, m, window, reps, true) + crate::bandwidth(2, m, window, reps, false)
    });
    (rows, t0.elapsed())
}

pub use crate::peak_rss_kb;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_churn_is_deterministic() {
        let a = timer_churn(16, 32);
        let b = timer_churn(16, 32);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time_ps, b.sim_time_ps);
        assert!(a.events > (16 * 32) as u64); // at least one event per sleep
    }

    #[test]
    fn ping_pong_is_deterministic_and_timeless() {
        let a = ping_pong(8, 50);
        let b = ping_pong(8, 50);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time_ps, 0, "no sleeps: everything happens at t=0");
        assert_eq!(b.sim_time_ps, 0);
    }

    #[test]
    fn net_churn_is_deterministic() {
        let a = net_churn(128, 2000);
        let b = net_churn(128, 2000);
        assert_eq!(a.events, 2000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time_ps, b.sim_time_ps);
        assert!(a.sim_time_ps > 0, "messages must take time to arrive");
    }

    #[test]
    fn fig4_sweep_matches_serial_across_jobs() {
        let sizes = [1024usize, 4096, 16384];
        let (serial, _) = fig4_sweep(&sizes, 2, 4, 1);
        let (parallel, _) = fig4_sweep(&sizes, 2, 4, 4);
        assert_eq!(serial, parallel);
    }
}
