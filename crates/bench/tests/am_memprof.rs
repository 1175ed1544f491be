//! Allocation attribution for the AM aggregation layer: with the profiler
//! on, a batched run charges its buffers, pending entries and timer
//! closures to the `pami.am` tag; an unbatched run charges the tag nothing
//! (so the tag is omitted from memprof-v1 documents and the committed
//! memory goldens stay untouched).

use bgq_bench::am_bench::run_cell;
use desim::memprof::{self, MemProf};
use desim::Observe;

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// One test body: enable/disable is process-global, so the unbatched phase
/// must run under the same enabled profiler as the batched one.
#[test]
fn batched_runs_charge_the_pami_am_tag_and_unbatched_charge_nothing() {
    memprof::enable();

    let m0 = memprof::mark();
    run_cell(32, 8, 16, 0, 1, Observe::default()); // window 0: no batcher at all
    let unbatched = memprof::since(&m0);
    let un_allocs = unbatched.get("pami.am").map_or(0, |t| t.allocs);
    assert_eq!(
        un_allocs, 0,
        "unbatched run must not allocate under pami.am"
    );

    let m1 = memprof::mark();
    run_cell(32, 8, 16, 1, 1, Observe::default()); // 1 µs window: batcher active
    let batched = memprof::since(&m1);
    let tag = batched.get("pami.am").expect("pami.am tag recorded");
    assert!(
        tag.allocs > 0,
        "batched run must attribute allocations to pami.am"
    );
    assert!(tag.peak_bytes > 0, "aggregation buffers have a peak");
}
