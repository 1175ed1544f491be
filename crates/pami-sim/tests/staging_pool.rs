//! Chunk-train staging buffers come from a per-machine pool that is reused
//! last in, first out: which buffer a train gets follows from the event
//! order alone, so two identical runs allocate identically, block for
//! block. The pool's bytes are charged to the `pami.staging` tag. Its own
//! integration-test binary: the profiling allocator is process-wide.

use desim::memprof::{self, MemProf, MemSnapshot};
use desim::Sim;
use pami_sim::{Machine, MachineConfig, Pieces};

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// 63 ranks of a fresh machine each get `chunks` one-KiB chunks from rank 0
/// at once, then put them back; the allocations of the whole run, machine
/// still alive.
fn burst(chunks: usize) -> MemSnapshot {
    let before = memprof::mark();
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(64));
    for r in 1..64 {
        let rk = m.rank(r);
        let local = rk.alloc(chunks << 10);
        sim.spawn(async move {
            let parts: Vec<_> = (0..chunks)
                .map(|i| (local + i * 1024, i * 1024, 1024))
                .collect();
            rk.rdma_get_list(0, Pieces::List(&parts)).await.wait().await;
            let h = rk.rdma_put_list(0, Pieces::List(&parts)).await;
            h.remote.wait().await;
        });
    }
    sim.run();
    let snap = memprof::since(&before);
    sim.shutdown();
    snap
}

#[test]
fn identical_runs_allocate_identically() {
    memprof::enable();
    // Lazily registered process-wide state (tags, probe rows) settles first.
    burst(8);
    for chunks in [8, 48] {
        let (a, b) = (burst(chunks), burst(chunks));
        assert_eq!(a.to_json(), b.to_json(), "{chunks} chunks a train");
        let staging = a.get("pami.staging").expect("staging is tagged");
        // Some buffers stay pooled; past the budget, the rest were freed.
        assert!(staging.live_bytes > 0, "{staging:?}");
        if chunks == 48 {
            assert!(staging.live_bytes < staging.peak_bytes / 4, "{staging:?}");
        }
    }
}
