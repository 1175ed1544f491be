//! `--jobs` invariance of the memory-scaling sweep: per-run accounting is
//! taken with thread-local [`memprof::mark`]/[`since`] brackets *inside*
//! each worker closure, so the per-point snapshots — and the serialized
//! `memscale-v1` document — must be byte-identical whether the sweep runs
//! inline on one thread or fans out across four workers (which the harness
//! also reuses across points, the harder case).

use bgq_bench::memscale;
use desim::memprof::{self, MemProf};
use desim::Observe;

#[global_allocator]
static ALLOC: MemProf = MemProf;

#[test]
fn per_run_accounting_is_jobs_invariant() {
    memprof::enable();
    let procs = [8, 16];
    let (serial_fig9, serial_churn, _) = memscale::run_sweep(&procs, 2, 16, 1, Observe::default());
    let (parallel_fig9, parallel_churn, _) =
        memscale::run_sweep(&procs, 2, 16, 4, Observe::default());

    for (s, p) in serial_fig9.iter().zip(&parallel_fig9) {
        assert_eq!(s.procs, p.procs);
        assert_eq!(s.snap, p.snap, "fig9_rmw p={} snapshot moved", s.procs);
    }
    for (s, p) in serial_churn.iter().zip(&parallel_churn) {
        assert_eq!(s.snap, p.snap, "net_churn p={} snapshot moved", s.procs);
    }
    assert_eq!(
        memscale::scale_json(&serial_fig9, &serial_churn, 2, 16),
        memscale::scale_json(&parallel_fig9, &parallel_churn, 2, 16),
        "memscale-v1 document must be byte-identical across --jobs"
    );

    // The sweep actually profiled something: a representative tag from each
    // layer shows activity at every point.
    for pt in &serial_fig9 {
        for tag in ["pami.queues", "armci.handles", "desim.kernel"] {
            assert!(
                pt.snap.get(tag).is_some_and(|t| t.allocs > 0),
                "fig9_rmw p={} missing {tag}",
                pt.procs
            );
        }
    }
}
