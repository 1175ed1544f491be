//! The health rules catch real pathologies in real workloads — and do so
//! deterministically. `net_churn`'s staggered all-to-all storm must trip
//! the congestion-onset rule (injection outruns link capacity); `fig_fault`
//! at a stormy corruption rate must trip the retry-storm rule around the
//! fault plan's link-down window. Running the same workload twice must
//! produce byte-identical findings (they feed trace instants and `simstat`
//! reports that CI compares).

use bgq_bench::fault_bench::run_cell;
use bgq_bench::scale::net_churn;
use bgq_bench::TIMELINE_WINDOW_PS;
use desim::health::analyze;
use desim::Observe;

fn render(findings: &[desim::Finding]) -> String {
    findings
        .iter()
        .map(|f| {
            format!(
                "[{}] w{} {}: {}\n",
                f.severity.as_str(),
                f.window,
                f.rule,
                f.evidence
            )
        })
        .collect()
}

fn timeline(window_ps: u64) -> Observe {
    Observe {
        timeline: Some(window_ps),
        ..Observe::default()
    }
}

#[test]
fn net_churn_trips_congestion_onset_deterministically() {
    let run = || {
        let (_, seen) = net_churn(128, 20_000, None, timeline(TIMELINE_WINDOW_PS / 100));
        analyze(&seen.timeline.expect("timeline on"))
    };
    let a = run();
    assert!(
        a.iter().any(|f| f.rule == "congestion-onset"),
        "the delivery storm must saturate links: {}",
        render(&a)
    );
    assert_eq!(render(&a), render(&run()), "findings must be reproducible");
}

#[test]
fn fig_fault_storm_trips_retry_storm_deterministically() {
    // 5% per-traversal corruption + the plan's mid-run link-down window:
    // the same designated cell `fig_fault --fault-rate 0,50000 --msgs 32
    // --timeline` records.
    let run = || {
        let (_, seen) = run_cell(32, 4096, 32, 50_000, 42, timeline(TIMELINE_WINDOW_PS));
        analyze(&seen.timeline.expect("timeline on"))
    };
    let a = run();
    assert!(
        a.iter().any(|f| f.rule == "retry-storm"),
        "sustained corruption must register as a retry storm: {}",
        render(&a)
    );
    assert_eq!(render(&a), render(&run()), "findings must be reproducible");
}
