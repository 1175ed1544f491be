//! The allocation profiler's zero-cost contract, end to end: memory
//! profiling must *observe* a run, never perturb it. With [`MemProf`]
//! installed as this binary's global allocator, every simulated result
//! (virtual times, latencies, metrics counters) must be byte-identical
//! whether the profiler is disabled (the production default — one relaxed
//! atomic load per allocation) or fully enabled with scope attribution and
//! side-table accounting on every allocation. This is what keeps the
//! committed goldens valid while `fig_mem` profiles the same workloads.

use armci::ProgressMode;
use bgq_bench::fig9::{run, RunOut};
use bgq_bench::scale::{net_churn, Point};
use desim::memprof::{self, MemProf};
use desim::Observe;

#[global_allocator]
static ALLOC: MemProf = MemProf;

fn churn() -> Point {
    net_churn(64, 2000, None, Observe::default()).0
}

fn fig9() -> RunOut {
    run(
        16,
        ProgressMode::AsyncThread,
        false,
        4,
        None,
        Observe::default(),
    )
}

/// One test body (not two `#[test]`s): enable/disable is process-global, so
/// the phases must be strictly ordered.
#[test]
fn results_are_identical_with_profiling_off_and_on() {
    // Phase 1: profiler disabled — the baseline.
    assert!(!memprof::enabled());
    let churn_off = churn();
    let fig9_off = fig9();

    // Phase 2: profiler fully on — worst case, every allocation attributed.
    memprof::enable();
    let on = memprof::mark();
    let churn_on = churn();
    let fig9_on = fig9();
    memprof::disable();

    assert_eq!(churn_off.events, churn_on.events);
    assert_eq!(
        churn_off.sim_time_ps, churn_on.sim_time_ps,
        "profiling must not move a single delivery time"
    );
    assert_eq!(
        fig9_off.latency_us, fig9_on.latency_us,
        "fetch-and-add latency must not move when profiling is on"
    );
    assert_eq!(
        fig9_off.snapshot.to_json(),
        fig9_on.snapshot.to_json(),
        "metrics snapshot must be byte-identical"
    );

    // And the enabled phase really was observing: the workload's subsystem
    // tags accumulated activity on this thread, which ran both workloads.
    let snap = memprof::since(&on);
    for tag in ["pami.queues", "armci.handles", "torus5d.links"] {
        assert!(
            snap.get(tag).is_some_and(|t| t.allocs > 0),
            "expected allocations under {tag} while enabled"
        );
    }

    // Phase 3: disabled again — results still match the baseline, so an
    // enable/disable cycle leaves no residue in the simulation.
    let churn_after = churn();
    assert_eq!(churn_off.events, churn_after.events);
    assert_eq!(churn_off.sim_time_ps, churn_after.sim_time_ps);
}
