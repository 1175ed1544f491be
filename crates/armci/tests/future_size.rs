//! Size ceilings for the futures a rank program embeds.
//!
//! A rank program is one boxed future per materialized rank, and its size is
//! the size of the largest blocking call it makes: `rmw_fetch_add`, `barrier`,
//! `get` and `put` each embed `PamiRank::progress_wait`, which embeds
//! `PamiRank::advance` — the progress engine. When `advance` carried the
//! union of nine work-item state machines these were 824 / 872 (PAMI) and
//! 1008 / 968 / ≈1240 / ≈1240 bytes (ARMCI); at p = 262144 every 100 bytes
//! here are 26 MB of resident memory. Ceilings sit 10 % above what the
//! cost + apply progress engine reaches (rustc 1.95, x86-64), so re-bloat
//! fails this test instead of a 1 GB run.

use std::mem::size_of_val;

use armci::{Armci, ArmciConfig};
use desim::{Completion, Sim};
use pami_sim::{Machine, MachineConfig};

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
    check("PamiRank::advance", &pr.advance(0, 1), 368);
    check("PamiRank::progress_wait", &pr.progress_wait(&done), 432);
    check("ArmciRank::rmw_fetch_add", &rk.rmw_fetch_add(0, 0, 1), 552);
    check("ArmciRank::barrier", &rk.barrier(), 528);
    check("ArmciRank::get", &rk.get(0, 0, 0, 8), 792);
    check("ArmciRank::put", &rk.put(0, 0, 0, 8), 776);
    assert_eq!(m.materialized_count(), 0);
}
