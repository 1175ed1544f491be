//! The AM layer's zero-cost contract, end to end: with no
//! [`pami_sim::MachineConfig::am_batching`] configured, a machine carries no
//! batcher, emits no `am.*` telemetry, and — decisively — reproduces the
//! committed pre-AM goldens byte-for-byte. The fig_fault golden predates the
//! AM layer entirely, so matching its virtual times and counters exactly
//! proves the refactored delivery path (`enqueue_at_target`, the
//! `send_am`/batcher hooks) changed nothing on the hot path.

use bgq_bench::fault_bench::run_cell;
use bgq_bench::perfdiff::{flatten, Leaf};
use desim::{Observe, Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};

fn golden_num(flat: &[(String, Leaf)], key: &str) -> f64 {
    match flat.iter().find(|(k, _)| k == key) {
        Some((_, Leaf::Num(n))) => *n,
        other => panic!("golden missing numeric {key}: {other:?}"),
    }
}

/// The production fault workload, fault-free and faulty columns, against
/// the committed golden values (written before the AM layer existed).
#[test]
fn am_disabled_runs_match_the_pre_am_fault_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_fig_fault.json"
    );
    let golden = std::fs::read_to_string(path).expect("committed golden");
    let doc = desim::json::parse(&golden).expect("valid golden JSON");
    let flat = flatten(&doc);
    assert_eq!(golden_num(&flat, "cells[0].rate_ppm"), 0.0);
    assert_eq!(golden_num(&flat, "cells[0].size"), 4096.0);
    let (clean, _) = run_cell(32, 4096, 8, 0, 42, Observe::default());
    assert_eq!(
        clean.sim_time_ps as f64,
        golden_num(&flat, "cells[0].sim_time_ps"),
        "fault-free virtual time drifted from the pre-AM golden"
    );
    assert_eq!(
        clean.messages as f64,
        golden_num(&flat, "cells[0].messages")
    );

    // The faulty column exercises drops, timeouts and retransmits — the
    // paths the AM batcher now also rides — and must be untouched too.
    assert_eq!(golden_num(&flat, "cells[2].size"), 4096.0);
    let rate = golden_num(&flat, "cells[2].rate_ppm") as u64;
    let (faulty, _) = run_cell(32, 4096, 8, rate, 42, Observe::default());
    assert_eq!(
        faulty.sim_time_ps as f64,
        golden_num(&flat, "cells[2].sim_time_ps"),
        "faulty-column virtual time drifted from the pre-AM golden"
    );
    assert_eq!(faulty.retries as f64, golden_num(&flat, "cells[2].retries"));
    assert_eq!(
        faulty.timeouts as f64,
        golden_num(&flat, "cells[2].timeouts")
    );
}

/// Without `am_batching` there is no batcher, no `am.*` stats and no `am.*`
/// timeline series — the AM machinery is structurally absent, not merely
/// idle.
#[test]
fn no_batcher_means_no_am_surface() {
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32).procs_per_node(16).contention(true),
    );
    sim.timeline().enable(100_000_000, 512);
    assert!(m.batcher().is_none(), "no config, no batcher");
    for r in 0..32usize {
        let rk = m.rank(r);
        let src = rk.alloc(256);
        let dst = m.rank((r + 16) % 32).alloc(256);
        sim.spawn(async move {
            let h = rk.rdma_put((r + 16) % 32, src, dst, 256).await;
            h.remote.wait().await;
        });
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    m.flush_net_stats();
    let snap = m.stats().snapshot();
    let json = snap.to_json();
    assert!(
        !json.contains("\"am."),
        "am.* stats leaked into an AM-free run: {json}"
    );
    let tl = m.sim().timeline().snapshot();
    assert!(
        tl.series.iter().all(|s| !s.name.starts_with("am.")),
        "am.* series interned without a batcher"
    );
}
