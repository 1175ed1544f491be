//! Size ceilings for the futures a rank program embeds.
//!
//! A rank program is one boxed future per materialized rank, and its size is
//! the size of the largest blocking call it makes: `rmw_fetch_add`, `barrier`,
//! `get` and `put` each embed `PamiRank::progress_wait` and a PAMI issue
//! call. The progress engine (`advance`) and the fault-retry loop sit behind
//! boxes that only ρ = 1 or a fault plan allocates (DESIGN.md §15, "Out of
//! line"), so neither is part of a blocking call. At p = 262144 every 100 bytes
//! here are 26 MB of resident memory. Ceilings sit 10 % above what is
//! reached (rustc 1.95, x86-64), so re-bloat fails this test instead of a
//! 1 GB run.

use std::mem::size_of_val;

use armci::{Armci, ArmciConfig, ReduceOp};
use desim::{Completion, Sim};
use pami_sim::{Machine, MachineConfig, RmwOp};

#[track_caller]
fn check<F>(name: &str, fut: &F, reached: usize) {
    let ceiling = reached + reached / 10;
    let size = size_of_val(fut);
    assert!(
        size <= ceiling,
        "{name} future is {size} B: over its {ceiling} B ceiling ({reached} B + 10 %)"
    );
}

#[test]
fn blocking_call_futures_stay_under_their_ceilings() {
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(4).contexts(2));
    let armci = Armci::new(m.clone(), ArmciConfig::default());
    // Futures are inert until polled: building them touches no rank.
    let (rk, pr) = (armci.rank(1), m.rank(1));
    let done: Completion<i64> = Completion::new();
    check("PamiRank::advance", &pr.advance(0, 1), 280);
    check("PamiRank::progress_wait", &pr.progress_wait(&done), 104);
    check("PamiRank::rmw", &pr.rmw(0, 0, RmwOp::FetchAdd(1)), 160);
    check("PamiRank::rdma_get", &pr.rdma_get(0, 0, 0, 8), 120);
    check("PamiRank::rdma_put", &pr.rdma_put(0, 0, 0, 8), 120);
    check("PamiRank::ensure_endpoint", &pr.ensure_endpoint(0, 1), 72);
    check("ArmciRank::rmw_fetch_add", &rk.rmw_fetch_add(0, 0, 1), 256);
    check("ArmciRank::barrier", &rk.barrier(), 200);
    check(
        "ArmciRank::allreduce_f64",
        &rk.allreduce_f64(&[1.0], ReduceOp::Sum),
        144,
    );
    check("ArmciRank::broadcast", &rk.broadcast(0, None), 184);
    check(
        "ArmciRank::malloc_collective",
        &rk.malloc_collective(8),
        160,
    );
    check("ArmciRank::am_fence", &rk.am_fence(0), 312);
    check("ArmciRank::get", &rk.get(0, 0, 0, 8), 504);
    check("ArmciRank::put", &rk.put(0, 0, 0, 8), 552);
    assert_eq!(m.materialized_count(), 0);
}
