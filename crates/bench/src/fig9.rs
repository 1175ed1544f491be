//! Shared core of the Fig 9 read-modify-write benchmark (the `fig9_rmw`
//! figure of `bgq-bench`): ranks 1..p fetch-and-add a counter hosted at
//! rank 0 under a {Default, AsyncThread} × {idle, compute} configuration
//! matrix.
//!
//! Lives in the library (rather than the binary) so the fault-injection
//! differential tests can run the exact production workload with and
//! without a [`FaultPlan`] installed and compare outputs byte-for-byte.

use armci::{ArmciConfig, ProgressMode};
use desim::{FaultPlan, MetricsSnapshot, Observe, Observed, SimDuration};
use std::cell::Cell;
use std::rc::Rc;

use crate::Fixture;

/// Outcome of one Fig 9 configuration run.
pub struct RunOut {
    /// Mean fetch-and-add latency over all requester operations (µs).
    pub latency_us: f64,
    /// Virtual end time of the run (ps) — deterministic.
    pub sim_time_ps: u64,
    /// Kernel events processed — deterministic for a given binary.
    pub events: u64,
    /// Ranks whose state materialized (in Fig 9 every rank is active, so
    /// this equals `p`; the scale sweep asserts it).
    pub materialized: usize,
    /// Kernel task-table high-water mark (concurrently live tasks).
    pub task_slots: usize,
    /// The machine's full metrics snapshot at the end of the run.
    pub snapshot: MetricsSnapshot,
    /// What the sinks the run was asked to observe recorded.
    pub observed: Observed,
}

/// Run one Fig 9 configuration: `p` ranks, `k` fetch-and-adds per
/// requester. `fault` installs a fault plan on the machine (with `None` and
/// with an *empty* plan the run is byte-identical — the
/// zero-cost-when-idle contract, asserted by `tests/fault_zero_cost.rs`);
/// `observe` names the sinks the run turns on.
pub fn run(
    p: usize,
    progress: ProgressMode,
    rank0_computes: bool,
    k: usize,
    fault: Option<FaultPlan>,
    observe: Observe,
) -> RunOut {
    let contexts = if progress == ProgressMode::AsyncThread {
        2
    } else {
        1
    };
    let mut mcfg = pami_sim::MachineConfig::new(p)
        .procs_per_node(16)
        .contexts(contexts);
    if let Some(plan) = fault {
        mcfg = mcfg.faults(plan);
    }
    let f = Fixture::with_machine(mcfg, ArmciConfig::default().progress(progress));
    observe.start(f.sim.probes());
    let owner = f.armci.machine().rank(0);
    let counter = owner.alloc(8);
    owner.write_i64(counter, 0);
    let total_wait = Rc::new(Cell::new(SimDuration::ZERO));
    let finished = Rc::new(Cell::new(0usize));
    let ops = (p - 1) * k;

    for r in 1..p {
        let rk = f.rank(r);
        let s = f.sim.clone();
        let total_wait = Rc::clone(&total_wait);
        let finished = Rc::clone(&finished);
        f.sim.spawn(async move {
            for _ in 0..k {
                let t0 = s.now();
                rk.rmw_fetch_add(0, counter, 1).await;
                total_wait.set(total_wait.get() + (s.now() - t0));
            }
            finished.set(finished.get() + 1);
            rk.barrier().await;
        });
    }
    // Rank 0's program.
    {
        let rk = f.rank(0);
        let s = f.sim.clone();
        let finished = Rc::clone(&finished);
        let nreq = p - 1;
        f.sim.spawn(async move {
            if rank0_computes {
                // SCF-like: compute 300 us, then touch the counter (the only
                // point where the default progress engine runs).
                while finished.get() < nreq {
                    s.sleep(SimDuration::from_us(300)).await;
                    rk.rmw_fetch_add(0, counter, 0).await;
                }
            }
            rk.barrier().await;
        });
    }
    f.finish();
    // `run_until` leaves the clock at the last fired event, so this is the
    // deterministic completion time of the workload (not the 600 s bound).
    let sim_time_ps = f.sim.now().as_ps();
    let events = f.sim.events_processed();
    let materialized = f.armci.machine().materialized_count();
    let task_slots = f.sim.task_slots();
    f.armci.machine().flush_net_stats();
    let snapshot = f.armci.machine().stats().snapshot();
    RunOut {
        latency_us: total_wait.get().as_us() / ops as f64,
        sim_time_ps,
        events,
        materialized,
        task_slots,
        snapshot,
        observed: observe.finish(f.sim.probes(), f.sim.now()),
    }
}
