//! The timeline layer's zero-cost contract, end to end: telemetry must
//! *observe* a run, never perturb it. Enabling a timeline may not move any
//! simulated result (virtual times, latencies, metrics counters), and
//! leaving it disabled must leave workloads byte-identical to builds that
//! predate the timeline layer entirely — which keeps every committed
//! fault-free golden valid. (The allocation-freedom half of the contract is
//! pinned by `torus5d/tests/alloc_free.rs` with a counting allocator.)

use armci::ProgressMode;
use bgq_bench::fig9::run;
use bgq_bench::scale::net_churn;
use bgq_bench::TIMELINE_WINDOW_PS;
use desim::Observe;
use nwchem_scf::{run_scf, run_scf_observed, ScfConfig};

fn timeline(window_ps: u64) -> Observe {
    Observe {
        timeline: Some(window_ps),
        ..Observe::default()
    }
}

/// fig9_rmw through the full ARMCI + PAMI + network stack: same latency and
/// same metrics snapshot with and without an active timeline, and the
/// enabled run actually captured series.
#[test]
fn fig9_timeline_observes_without_perturbing() {
    for mode in [ProgressMode::Default, ProgressMode::AsyncThread] {
        let bare = run(32, mode, true, 4, None, Observe::default());
        let tl = run(32, mode, true, 4, None, timeline(TIMELINE_WINDOW_PS));
        assert_eq!(
            bare.latency_us, tl.latency_us,
            "{mode:?}: latency must not move when telemetry is on"
        );
        assert_eq!(
            bare.snapshot.to_json(),
            tl.snapshot.to_json(),
            "{mode:?}: metrics snapshot must be byte-identical"
        );
        assert!(bare.observed.timeline.is_none());
        let snap = tl.observed.timeline.expect("timeline requested");
        assert!(
            snap.series("net.msgs").is_some(),
            "{mode:?}: network counters missing from timeline"
        );
        assert!(
            snap.series("pami.queue_depth").is_some(),
            "{mode:?}: queue-depth gauge missing from timeline"
        );
        assert!(
            snap.series("armci.inflight").is_some(),
            "{mode:?}: in-flight gauge missing from timeline"
        );
    }
}

/// The raw network hot path: the delivery storm yields identical results
/// with a *disabled* timeline attached (the production default — one
/// branch, no allocation) and with telemetry fully on.
#[test]
fn net_churn_results_are_timeline_invariant() {
    let (bare, no_snap) = net_churn(128, 3000, None, Observe::default());
    let (enabled, snap) = net_churn(128, 3000, None, timeline(TIMELINE_WINDOW_PS / 100));
    assert_eq!(bare.events, enabled.events);
    assert_eq!(bare.sim_time_ps, enabled.sim_time_ps);
    assert!(no_snap.timeline.is_none());
    let snap = snap.timeline.expect("timeline requested");
    let msgs = snap.series("net.msgs").expect("message counter recorded");
    let total: u64 = msgs.windows.iter().map(|w| w.sum).sum();
    assert_eq!(total, bare.events, "every delivery lands in some window");
    assert!(
        snap.series("net.link_busy_ps").is_some(),
        "link occupancy missing"
    );
}

/// The paper's application with every sink on — tracer, lifecycle
/// accumulator and timeline — reports exactly what the unobserved run
/// reports.
#[test]
fn scf_report_is_the_same_with_every_sink_on() {
    let cfg = ScfConfig::tiny(ProgressMode::AsyncThread);
    let all = Observe {
        trace: Some((1, "scf")),
        crit: true,
        timeline: Some(TIMELINE_WINDOW_PS / 100),
    };
    let (report, seen) = run_scf_observed(4, &cfg, all);
    assert_eq!(report.to_json(), run_scf(4, &cfg).to_json());
    assert!(seen.chrome.is_some() && seen.crit.is_some() && seen.timeline.is_some());
}
