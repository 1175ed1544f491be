//! Host memory of an SCF run, by memprof tag.
//!
//! - The `scf` tag holds the application's own state (tallies, the shared
//!   contribution buffer, one task per rank): O(p), however many tasks run.
//!   What the run allocates — event callbacks, progress threads, messages —
//!   is charged to the layer that allocates it (`desim.kernel` for callback
//!   boxes), not to the scope that spawned the rank programs.
//! - The network's front tables (`torus5d.fxmap`) follow the messages in
//!   flight, since the machine passes its clock as the delivery floor, and
//!   rank memory (`pami.rankmem`) stops at what the arenas allocated.
//! - The fault-free get trains keep nothing per chunk (`pami.staging`).
//!
//! The `#[ignore]`d full-size case runs one AT iteration of the paper's
//! workload at p = 1024 (`cargo test --release -p nwchem-scf --test
//! scf_memprof -- --ignored`, ~20 s).
//!
//! Own binary: `#[global_allocator]` is process-wide; the `mark`/`since`
//! brackets are per-thread, so each test measures only its own run.

use armci::ProgressMode;
use desim::memprof::{self, MemProf, MemSnapshot};
use nwchem_scf::{run_scf, ScfConfig};

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// One iteration of the paper's workload in AT mode at `p` ranks with
/// `repeat_factor` tasks per matrix block, under memprof.
fn scf(p: usize, repeat_factor: usize) -> (MemSnapshot, usize) {
    memprof::enable();
    let cfg = ScfConfig {
        repeat_factor,
        iterations: 1,
        ..ScfConfig::paper(ProgressMode::AsyncThread)
    };
    let m = memprof::mark();
    let report = run_scf(p, &cfg);
    assert_eq!(report.tasks_per_iter, cfg.tasks_per_iter());
    (memprof::since(&m), cfg.tasks_per_iter())
}

fn tag(snap: &MemSnapshot, name: &str) -> (u64, i64) {
    snap.get(name).map_or((0, 0), |t| (t.allocs, t.peak_bytes))
}

#[test]
fn scf_tag_holds_only_the_application() {
    for p in [32, 64] {
        let (snap, tasks) = scf(p, 2);
        let (scf_allocs, _) = tag(&snap, "scf");
        let (kernel_allocs, _) = tag(&snap, "desim.kernel");
        assert!(
            scf_allocs <= 4 * p as u64,
            "p = {p}: {scf_allocs} scf allocations for {tasks} tasks"
        );
        // Every task schedules callbacks (replies, progress wake-ups).
        assert!(
            kernel_allocs >= tasks as u64,
            "p = {p}: {kernel_allocs} desim.kernel allocations for {tasks} tasks"
        );
    }
}

#[test]
fn scf_fock_shape_fronts_and_rank_memory() {
    let (snap, _) = scf(128, 2);
    let (_, fxmap) = tag(&snap, "torus5d.fxmap");
    let (_, rankmem) = tag(&snap, "pami.rankmem");
    let (staging_allocs, staging) = tag(&snap, "pami.staging");
    // Before fronts retired at the floor and rank memory stopped at the
    // arena: 200,704 B and 13,868,832 B. Reached: 25,600 B and 13,340,200 B.
    assert!(fxmap <= 64 << 10, "torus5d.fxmap peak {fxmap} B");
    assert!(rankmem <= 13_500_000, "pami.rankmem peak {rankmem} B");
    // Every train here is a strided get, which stages nothing. When get
    // chunks were staged until the train's last landing: 2,433,208 B.
    assert_eq!(
        (staging_allocs, staging),
        (0, 0),
        "pami.staging allocations and peak"
    );
}

#[test]
#[ignore = "one paper-scale SCF iteration at p = 1024; run in release"]
fn paper_scale_fronts_and_rank_memory() {
    let (snap, _) = scf(
        1024,
        ScfConfig::paper(ProgressMode::AsyncThread).repeat_factor,
    );
    let (_, fxmap) = tag(&snap, "torus5d.fxmap");
    let (_, rankmem) = tag(&snap, "pami.rankmem");
    // Before: 25.2 MB and 94.2 MB. Reached: 0.10 MB and 67.6 MB.
    assert!(fxmap <= 1 << 20, "torus5d.fxmap peak {fxmap} B");
    assert!(rankmem <= 72_000_000, "pami.rankmem peak {rankmem} B");
}
