//! Bytes-and-blocks budget of a materialized rank.
//!
//! The Fig 9 shape at p = 4096 — AsyncThread progress, two contexts, ranks
//! 1..p one `rmw_fetch_add` on rank 0, then every rank the barrier — run
//! under the tagged allocation profiler. What one rank costs the host,
//! everything included (task box, kernel slot, PAMI state block, ARMCI
//! runtime state, its share of the rank tables, the timer wheel and rank
//! 0's queue), must stay inside a stated budget:
//!
//! |                                   | parent commit | this budget | reached |
//! |-----------------------------------|--------------:|------------:|--------:|
//! | Σ per-tag peak bytes ÷ p          |          4759 |        2458 |    2403 |
//! | live blocks ÷ p, all ranks parked |         17.07 |          10 |    7.08 |
//! | allocation calls ÷ p, whole run   |         30.09 |          16 |   14.09 |
//!
//! and lifecycle laziness must not move an event: the run's end `SimTime`
//! is pinned to the value the parent commit produces.

use armci::{ArmciConfig, ProgressMode};
use bgq_bench::Fixture;
use desim::memprof::{self, MemProf};
use desim::{SimDuration, SimTime};
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: MemProf = MemProf;

const P: usize = 4096;
/// 2.4 KiB per rank.
const BYTES_PER_RANK: f64 = 2.4 * 1024.0;
const BLOCKS_PER_RANK: f64 = 10.0;
const ALLOCS_PER_RANK: f64 = 16.0;
/// End of the run at the parent commit (ps).
const END_PS: u64 = 619_166_104;

#[test]
fn materialized_rank_stays_inside_its_byte_and_block_budget() {
    memprof::enable();
    let mark = memprof::mark();
    let f = Fixture::with_machine(
        MachineConfig::new(P).procs_per_node(16).contexts(2),
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let owner = f.armci.machine().rank(0);
    let counter = owner.alloc(8);
    owner.write_i64(counter, 0);
    let at_barrier = Rc::new(Cell::new(0usize));
    let mut expect = 0i64;
    for r in 0..P {
        let rk = f.rank(r);
        let inc = 1 + (r % 8) as i64;
        if r > 0 {
            expect += inc;
        }
        let at_barrier = Rc::clone(&at_barrier);
        f.sim.spawn(async move {
            if r > 0 {
                rk.rmw_fetch_add(0, counter, inc).await;
            }
            at_barrier.set(at_barrier.get() + 1);
            rk.barrier().await;
        });
    }
    let per_rank = |n: i64| n as f64 / P as f64;

    // Step to the instant every rank is parked in the barrier: the live
    // blocks then are what p materialized, idle ranks hold.
    let mut t = SimTime::ZERO;
    while at_barrier.get() < P {
        t += SimDuration::from_us(1);
        f.sim.run_until(t);
    }
    let parked = memprof::since(&mark);
    let blocks = per_rank(
        parked
            .tags
            .iter()
            .map(|t| t.allocs as i64 - t.frees as i64)
            .sum(),
    );
    assert!(
        blocks <= BLOCKS_PER_RANK,
        "{blocks:.2} live blocks per parked rank (budget {BLOCKS_PER_RANK})"
    );

    let end = f.sim.run();
    let run = memprof::since(&mark);
    let bytes = per_rank(run.tags.iter().map(|t| t.peak_bytes).sum());
    assert!(
        bytes <= BYTES_PER_RANK,
        "{bytes:.0} peak bytes per rank (budget {BYTES_PER_RANK:.0}): {}",
        run.to_json()
    );
    let allocs = per_rank(run.total_allocs() as i64);
    assert!(
        allocs <= ALLOCS_PER_RANK,
        "{allocs:.2} allocation calls per rank (budget {ALLOCS_PER_RANK})"
    );

    assert_eq!(f.armci.machine().materialized_count(), P);
    assert_eq!(owner.read_i64(counter), expect, "counter sum");
    assert_eq!(end.as_ps(), END_PS, "simulated end time moved");
    f.armci.finalize();
    f.sim.shutdown();
}
