//! The seeded `net_churn` delivery storm: host-speed workload of the
//! network layer alone.
//!
//! [`net_churn`] pushes a contended all-to-all message schedule straight
//! through `torus5d::NetState` — no kernel, no tasks — so it stresses the
//! network hot path (route lookup, per-link reservation, pair ordering) and
//! nothing else. `fig_scale`'s `netstorm` rows and `fig_mem`'s `net_churn`
//! rows run it, and the zero-cost tests (`fault_zero_cost`,
//! `timeline_zero_cost`, `memprof_zero_cost`, `health_detection`) use it as
//! the workload whose bytes must not move. Delivery counts and simulated
//! times are fully deterministic; only the wall-clock reading varies by
//! host. Host time itself is measured by `bgq-perf` under `benchmark/`
//! (`net_storm` is this storm's counterpart there), not here.

use std::time::{Duration, Instant};

use desim::{FaultPlan, Observe, Observed, Probes, SimDuration, SimRng, SimTime};
use torus5d::{BgqParams, Delivery, MsgClass, NetState, Topology};

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

/// Network-churn workload: a contended all-to-all delivery storm driven
/// straight through [`NetState`] — no kernel, no tasks, just the network
/// hot path. `procs` ranks (16/node) fire `msgs` seeded pseudo-random
/// messages (mixed sizes and ordering classes, slightly staggered injection
/// times) at random peers with contention modelling on. For this workload
/// [`KernelLoad::events`] counts *deliveries* and
/// [`KernelLoad::sim_time_ps`] is the latest arrival time — both fully
/// deterministic; only the wall-clock varies by host.
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
) -> (KernelLoad, Observed) {
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
    // With the allocation profiler on, sample per-tag live-bytes gauges at
    // most once per timeline window (there is no kernel here to do it).
    let tl = &probes.timeline;
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
            desim::memprof::record_live_gauges(tl, at, &mut mem_ids);
        }
    }
    let wall = t0.elapsed();
    let load = KernelLoad {
        events: net.messages(),
        sim_time_ps: last.as_ps(),
        wall,
    };
    (load, observe.finish(&probes, last))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_churn_is_deterministic() {
        let (a, _) = net_churn(128, 2000, None, Observe::default());
        let (b, _) = net_churn(128, 2000, None, Observe::default());
        assert_eq!(a.events, 2000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time_ps, b.sim_time_ps);
        assert!(a.sim_time_ps > 0, "messages must take time to arrive");
    }
}
