//! Core of the `fig_fault` benchmark: bandwidth and tail latency under
//! deterministic fault injection.
//!
//! Every rank streams `msgs_per_rank` blocking RDMA puts of `size` bytes to
//! the rank 16 positions away (with 16 ranks/node that is always a
//! cross-node pair), while a [`FaultPlan`] corrupts each link traversal
//! with probability `rate_ppm / 1e6` and takes one mid-run link down. Drops
//! surface as timeouts; the PAMI retry layer backs off and retransmits
//! (best-effort, so pathological rates degrade instead of aborting).
//! Everything except host wall-clock is deterministic: same seed + same
//! rate ⇒ identical `sim_time_ps`, retry counts and latency percentiles.
//! `rate_ppm == 0` installs **no plan at all**, so the zero-rate column is
//! byte-identical to a fault-free build.

use std::cell::RefCell;
use std::rc::Rc;

use desim::{FaultPlan, Observe, Observed, Sim, SimDuration, SimTime};
use pami_sim::{FailureMode, Machine, MachineConfig, RetryPolicy};

/// One measured `(fault rate, message size)` sweep cell. All fields except
/// none are deterministic; the JSON schema (`fault-v1`) emits them all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCell {
    /// Per-link-traversal corruption probability, parts per million.
    pub rate_ppm: u64,
    /// Payload bytes per put.
    pub size: usize,
    /// Final virtual time (ps) — deterministic.
    pub sim_time_ps: u64,
    /// Aggregate goodput: delivered payload bytes over the full run (MB/s).
    pub mb_s: f64,
    /// 99th-percentile blocking put latency (µs).
    pub p99_us: f64,
    /// Retransmits performed by the PAMI retry layer.
    pub retries: u64,
    /// Attempts declared lost (drops noticed by the sender).
    pub timeouts: u64,
    /// Operations abandoned by the best-effort policy.
    pub gave_up: u64,
    /// Aggregate link downtime from the plan's link windows (ps).
    pub link_down_ps: u64,
    /// Messages the network actually delivered.
    pub messages: u64,
}

impl FaultCell {
    /// The cell as a `fault-v1` JSON object (fixed field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rate_ppm\":{},\"size\":{},\"sim_time_ps\":{},\"mb_s\":{:.3},\
             \"p99_us\":{:.3},\"retries\":{},\"timeouts\":{},\"gave_up\":{},\
             \"link_down_ps\":{},\"messages\":{}}}",
            self.rate_ppm,
            self.size,
            self.sim_time_ps,
            self.mb_s,
            self.p99_us,
            self.retries,
            self.timeouts,
            self.gave_up,
            self.link_down_ps,
            self.messages
        )
    }
}

/// The fault plan for one nonzero-rate cell: background corruption at
/// `rate_ppm`, plus one deterministic link-down window in the middle of the
/// expected run so rerouting and downtime accounting are exercised too.
fn plan_for(rate_ppm: u64, seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .route_update_delay(SimDuration::from_us(10))
        .corruption(rate_ppm as f64 / 1e6)
        // Kill one link of node 0 for a fixed window; dimension-ordered
        // traffic from rank 0's node reroutes once detection fires.
        .link_down(
            1,
            SimTime::ZERO + SimDuration::from_us(50),
            SimTime::ZERO + SimDuration::from_us(150),
        )
}

/// Run one sweep cell: `procs` ranks (16/node), each streaming
/// `msgs_per_rank` blocking puts of `size` bytes to `(r + 16) % procs`,
/// with the sinks `observe` names turned on. A timeline gives link
/// occupancy, retry/timeout rates, retry backlog and links-down a time
/// axis, so `simstat` can pinpoint the retry storm around the link-down
/// window.
pub fn run_cell(
    procs: usize,
    size: usize,
    msgs_per_rank: usize,
    rate_ppm: u64,
    seed: u64,
    observe: Observe,
) -> (FaultCell, Observed) {
    assert!(
        procs > 16 && procs.is_multiple_of(16),
        "need >=2 nodes of 16 ranks"
    );
    let mut mcfg = MachineConfig::new(procs)
        .procs_per_node(16)
        .contention(true)
        .retry(RetryPolicy {
            failure: FailureMode::BestEffort,
            ..RetryPolicy::default()
        });
    if rate_ppm > 0 {
        mcfg = mcfg.faults(plan_for(rate_ppm, seed));
    }
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), mcfg);
    observe.start(sim.probes());
    let lat_ps: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for r in 0..procs {
        let target = (r + 16) % procs;
        let rk = m.rank(r);
        let tk = m.rank(target);
        let src = rk.alloc(size);
        let dst = tk.alloc(size);
        let s = sim.clone();
        let lat = Rc::clone(&lat_ps);
        sim.spawn(async move {
            for _ in 0..msgs_per_rank {
                let t0 = s.now();
                let h = rk.rdma_put(target, src, dst, size).await;
                h.remote.wait().await;
                lat.borrow_mut().push((s.now() - t0).as_ps());
            }
        });
    }
    let end = sim.run();
    m.flush_net_stats();
    let observed = observe.finish(sim.probes(), end);
    let stats = m.stats();
    let mut lats = Rc::try_unwrap(lat_ps).expect("all tasks done").into_inner();
    lats.sort_unstable();
    // Nearest-rank p99 (deterministic integer indexing).
    let p99 = lats[((lats.len() * 99) / 100).min(lats.len() - 1)];
    let delivered_msgs = stats.counter("net.messages");
    let total_bytes = (procs * msgs_per_rank * size) as f64;
    let secs = (end.as_ps() as f64 / 1e12).max(1e-12);
    let cell = FaultCell {
        rate_ppm,
        size,
        sim_time_ps: end.as_ps(),
        mb_s: total_bytes / secs / 1e6,
        p99_us: p99 as f64 / 1e6,
        retries: stats.counter("pami.retries"),
        timeouts: stats.counter("pami.timeouts"),
        gave_up: stats.counter("pami.gave_up"),
        link_down_ps: stats.counter("fault.link_down_ps"),
        messages: delivered_msgs,
    };
    (cell, observed)
}

/// Render a full sweep as the fixed-schema `fault-v1` JSON document.
pub fn sweep_json(procs: usize, msgs_per_rank: usize, seed: u64, cells: &[FaultCell]) -> String {
    let mut s = format!(
        "{{\"schema\":\"fault-v1\",\"bench\":\"fig_fault\",\"procs\":{procs},\
         \"msgs_per_rank\":{msgs_per_rank},\"seed\":{seed},\"cells\":["
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&c.to_json());
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(msgs: usize, rate_ppm: u64, seed: u64) -> FaultCell {
        run_cell(32, 4096, msgs, rate_ppm, seed, Observe::default()).0
    }

    #[test]
    fn zero_rate_cell_is_deterministic_and_fault_free() {
        let a = cell(4, 0, 42);
        let b = cell(4, 0, 42);
        assert_eq!(a, b);
        assert_eq!(a.retries, 0);
        assert_eq!(a.timeouts, 0);
        assert_eq!(a.link_down_ps, 0);
        assert_eq!(a.messages, (32 * 4) as u64);
    }

    #[test]
    fn faulty_cell_is_seed_deterministic_and_degrades() {
        let clean = cell(4, 0, 42);
        let a = cell(4, 50_000, 42);
        let b = cell(4, 50_000, 42);
        assert_eq!(a, b, "same seed+rate must be byte-identical");
        assert!(a.timeouts > 0, "5% corruption must drop something");
        assert!(a.retries > 0);
        assert!(a.link_down_ps > 0);
        assert!(
            a.sim_time_ps > clean.sim_time_ps,
            "faults must cost time: {} vs {}",
            a.sim_time_ps,
            clean.sim_time_ps
        );
        assert!(a.p99_us >= clean.p99_us);
        assert!(a.mb_s <= clean.mb_s);
    }

    #[test]
    fn sweep_json_has_fixed_schema() {
        let c = cell(2, 0, 7);
        let doc = sweep_json(32, 2, 7, &[c]);
        let parsed = desim::json::parse(&doc).expect("valid JSON");
        let flat = crate::perfdiff::flatten(&parsed);
        let keys: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        for want in [
            "schema",
            "cells[0].rate_ppm",
            "cells[0].sim_time_ps",
            "cells[0].mb_s",
            "cells[0].p99_us",
            "cells[0].retries",
            "cells[0].link_down_ps",
        ] {
            assert!(keys.contains(&want), "missing {want} in {keys:?}");
        }
    }
}
