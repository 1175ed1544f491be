//! Full-stack message-lifecycle tests: ARMCI ops → PAMI contexts → torus
//! delivery, accumulated as lifecycle intervals and decomposed with
//! [`desim::analyze`]. Reproduces the paper's central claim at lifecycle
//! granularity: under the default progress engine a compute-busy target
//! *starves* remote atomics (the critical path is progress-starvation time),
//! while the asynchronous progress thread shifts the bottleneck back to the
//! wire (§III-D, Fig 9).

use armci::{Armci, ArmciConfig, ProgressMode};
use desim::{analyze, CritPath, SegCategory, Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};
use std::cell::Cell;
use std::rc::Rc;

/// Ranks 1..p fetch-and-add a counter at rank 0 while rank 0 "computes" for
/// 300 µs before entering the final barrier — the SCF pattern. Rank 0 issues
/// no ARMCI data ops, so the recorded lifecycles (and the critical path)
/// belong entirely to the requesters. Returns the analysis clipped to the
/// last operation's completion, plus its JSON rendering.
fn rmw_storm(mode: ProgressMode) -> (CritPath, String) {
    let p = 4;
    let k = 6;
    let sim = Sim::new();
    let contexts = if mode == ProgressMode::AsyncThread {
        2
    } else {
        1
    };
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(p).procs_per_node(1).contexts(contexts),
    );
    sim.probes().lifecycle.enable();
    let armci = Armci::new(machine, ArmciConfig::default().progress(mode));
    let owner = armci.machine().rank(0);
    let counter = owner.alloc(8);
    owner.write_i64(counter, 0);
    let done = Rc::new(Cell::new(0usize));
    for r in 1..p {
        let rk = armci.rank(r);
        let done = Rc::clone(&done);
        sim.spawn(async move {
            for _ in 0..k {
                rk.rmw_fetch_add(0, counter, 1).await;
            }
            done.set(done.get() + 1);
            rk.barrier().await;
        });
    }
    {
        // Rank 0 computes one 300 µs grain, then sits in the barrier. In D
        // mode nothing services the counter's AMOs until the barrier's
        // progress wait starts; under AT the progress thread serves them
        // throughout.
        let rk = armci.rank(0);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_us(300)).await;
            rk.barrier().await;
        });
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let lc = &sim.probes().lifecycle;
    // Clip the analysis to the communication epoch: the last op completion.
    let end = lc.latest_end().expect("ops recorded");
    let cp = analyze(lc, end);
    let json = cp.to_json();
    armci.finalize();
    sim.shutdown();
    (cp, json)
}

#[test]
fn critical_path_shifts_from_starvation_to_wire_under_at() {
    let (d, _) = rmw_storm(ProgressMode::Default);
    let (at, _) = rmw_storm(ProgressMode::AsyncThread);
    // The five categories tile the whole analyzed window in both modes.
    assert_eq!(d.breakdown.total(), d.total);
    assert_eq!(at.breakdown.total(), at.total);
    // Default: remote fetch-and-adds sit unserviced while rank 0 computes —
    // progress starvation dominates the critical path.
    assert_eq!(
        d.breakdown.dominant(),
        SegCategory::Starvation,
        "D breakdown: {:?}",
        d.breakdown
    );
    // Async thread: starvation collapses and the wire dominates.
    assert_eq!(
        at.breakdown.dominant(),
        SegCategory::Wire,
        "AT breakdown: {:?}",
        at.breakdown
    );
    assert!(
        at.breakdown.starvation < at.breakdown.wire,
        "AT starvation {} >= wire {}",
        at.breakdown.starvation,
        at.breakdown.wire
    );
    // And the run itself collapses: the paper's speedup, seen end-to-end.
    assert!(at.total < d.total);
    assert!(at.breakdown.starvation < d.breakdown.starvation);
}

#[test]
fn lifecycle_analysis_is_deterministic() {
    let (_, a) = rmw_storm(ProgressMode::AsyncThread);
    let (_, b) = rmw_storm(ProgressMode::AsyncThread);
    assert_eq!(a, b, "same seed must give byte-identical breakdown JSON");
}
