//! The fault layer's zero-cost contract, end to end: installing an **empty**
//! [`desim::FaultPlan`] must leave real workloads byte-identical to runs
//! with no plan at all. This pins the fast-path guarantee — every
//! fault-aware branch in the machine, rank and network layers collapses to
//! the exact pre-fault code path when the plan has nothing to inject — so
//! the committed fault-free goldens stay valid forever.

use armci::ProgressMode;
use bgq_bench::fig9::run;
use bgq_bench::scale::net_churn;
use desim::{FaultPlan, Observe};

/// fig9_rmw (the full ARMCI + PAMI + network stack, both progress modes,
/// with rank-0 compute) produces the same latency and the same metrics
/// snapshot with no plan and with an empty plan.
#[test]
fn fig9_with_empty_plan_is_byte_identical_to_no_plan() {
    for mode in [ProgressMode::Default, ProgressMode::AsyncThread] {
        let bare = run(32, mode, true, 4, None, Observe::default());
        let empty = run(
            32,
            mode,
            true,
            4,
            Some(FaultPlan::new(99)),
            Observe::default(),
        );
        assert_eq!(
            bare.latency_us, empty.latency_us,
            "{mode:?}: latency must not move"
        );
        assert_eq!(
            bare.snapshot.to_json(),
            empty.snapshot.to_json(),
            "{mode:?}: metrics snapshot must be byte-identical"
        );
    }
}

/// The raw network hot path: the contended all-to-all delivery storm yields
/// the same delivery count and final arrival time under an empty plan.
#[test]
fn net_churn_with_empty_plan_is_byte_identical() {
    let (bare, _) = net_churn(128, 3000, None, Observe::default());
    let (empty, _) = net_churn(128, 3000, Some(FaultPlan::new(7)), Observe::default());
    assert_eq!(bare.events, empty.events);
    assert_eq!(bare.sim_time_ps, empty.sim_time_ps);
}
