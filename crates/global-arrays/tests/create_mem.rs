//! Creating a global array keeps its region keys once: one shared table per
//! array, plus four bytes of LFU state per (rank, owner), instead of a cache
//! entry and an index slot for every pair. Pinned at the paper
//! application's set-up — p = 256, two 644 × 644 arrays — which held
//! 11.69 MB in 67,852 allocations with one entry per pair, and holds
//! 0.62 MB in 1,294 with the shared tables. Its own
//! integration-test binary: the profiling allocator is process-wide.

use armci::{Armci, ArmciConfig};
use desim::memprof::{self, MemProf};
use desim::Sim;
use global_arrays::Ga;
use pami_sim::{Machine, MachineConfig};

#[global_allocator]
static ALLOC: MemProf = MemProf;

#[test]
fn two_arrays_over_256_ranks_hold_their_keys_once() {
    memprof::enable();
    let p = 256;
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(p).procs_per_node(16).contexts(2),
    );
    let armci = Armci::new(m.clone(), ArmciConfig::default());
    // Bring every rank up first: what is measured is the arrays alone.
    for r in 0..p {
        m.materialize_rank(r);
    }
    let before = memprof::mark();
    let density = Ga::create(&armci, "density", 644, 644);
    let fock = Ga::create(&armci, "fock", 644, 644);
    let grown = memprof::since(&before);
    let live: i64 = grown.tags.iter().map(|t| t.live_bytes).sum();
    assert!(live <= 1_500_000, "{live} B live after two creates");
    assert!(
        grown.total_allocs() <= 2048,
        "{} allocations by two creates",
        grown.total_allocs()
    );
    drop((density, fock));
    sim.shutdown();
}
