//! Bytes-and-blocks budget of a materialized rank.
//!
//! The Fig 9 shape at p = 4096 — AsyncThread progress, two contexts, ranks
//! 1..p one `rmw_fetch_add` on rank 0, then every rank the barrier — run
//! under the tagged allocation profiler. What one rank costs the host,
//! everything included (task box, kernel slot, PAMI state block, ARMCI
//! runtime state, its share of the rank tables, the timer wheel and rank
//! 0's queue), must stay inside a stated budget:
//!
//! |                                   | before | this budget | reached |
//! |-----------------------------------|-------:|------------:|--------:|
//! | Σ per-tag peak bytes ÷ p          |   2282 |        2048 |    1982 |
//! | live blocks ÷ p, all ranks parked |   7.08 |         6.5 |    6.08 |
//! | allocation calls ÷ p, whole run   |  11.09 |        10.5 |   10.09 |
//!
//! "Before" is the rank with the progress engine and the retry loop inside
//! every blocking call's future, a hash set per endpoint set and hash-map
//! rank tables; the three cuts are DESIGN.md §15's third column.
//!
//! Lifecycle laziness must not move an event: the run's end `SimTime` is
//! pinned. The `#[ignore]`d full-size case runs the same shape at
//! p = 262144 (`cargo test --release -p bgq-bench --test rank_budget --
//! --ignored`, a few seconds) under the same byte budget.

use armci::{ArmciConfig, ProgressMode};
use bgq_bench::Fixture;
use desim::memprof::{self, MemProf};
use desim::{SimDuration, SimTime};
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// 2.0 KiB per rank.
const BYTES_PER_RANK: f64 = 2.0 * 1024.0;
const BLOCKS_PER_RANK: f64 = 6.5;
const ALLOCS_PER_RANK: f64 = 10.5;

/// What one run of the Fig 9 shape cost, per rank.
struct PerRank {
    /// Live blocks at the instant every rank is parked in the barrier.
    blocks: f64,
    /// Σ per-tag peak bytes over the whole run.
    bytes: f64,
    /// Allocation calls over the whole run.
    allocs: f64,
    /// End of the run (ps).
    end_ps: u64,
    /// The run's per-tag snapshot, for failure messages.
    tags: String,
}

fn fig9_shape(p: usize) -> PerRank {
    memprof::enable();
    let mark = memprof::mark();
    let f = Fixture::with_machine(
        MachineConfig::new(p).procs_per_node(16).contexts(2),
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let owner = f.armci.machine().rank(0);
    let counter = owner.alloc(8);
    owner.write_i64(counter, 0);
    let at_barrier = Rc::new(Cell::new(0usize));
    let mut expect = 0i64;
    for r in 0..p {
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
    let per_rank = |n: i64| n as f64 / p as f64;

    // Step to the instant every rank is parked in the barrier: the live
    // blocks then are what p materialized, idle ranks hold.
    let mut t = SimTime::ZERO;
    while at_barrier.get() < p {
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

    let end = f.sim.run();
    let run = memprof::since(&mark);
    assert_eq!(f.armci.machine().materialized_count(), p);
    assert_eq!(owner.read_i64(counter), expect, "counter sum");
    f.armci.finalize();
    f.sim.shutdown();
    PerRank {
        blocks,
        bytes: per_rank(run.tags.iter().map(|t| t.peak_bytes).sum()),
        allocs: per_rank(run.total_allocs() as i64),
        end_ps: end.as_ps(),
        tags: run.to_json(),
    }
}

#[test]
fn materialized_rank_stays_inside_its_byte_and_block_budget() {
    let PerRank {
        blocks,
        bytes,
        allocs,
        end_ps,
        tags,
    } = fig9_shape(4096);
    assert!(
        blocks <= BLOCKS_PER_RANK,
        "{blocks:.2} live blocks per parked rank (budget {BLOCKS_PER_RANK})"
    );
    assert!(
        bytes <= BYTES_PER_RANK,
        "{bytes:.0} peak bytes per rank (budget {BYTES_PER_RANK:.0}): {tags}"
    );
    assert!(
        allocs <= ALLOCS_PER_RANK,
        "{allocs:.2} allocation calls per rank (budget {ALLOCS_PER_RANK})"
    );
    assert_eq!(end_ps, 619_166_104, "simulated end time moved");
}

#[test]
#[ignore = "full size: run with --release -- --ignored"]
fn full_size_fig9_rank_stays_inside_its_byte_budget() {
    let got = fig9_shape(262_144);
    assert!(
        got.bytes <= BYTES_PER_RANK,
        "{:.0} peak bytes per rank at p = 262144 (budget {BYTES_PER_RANK:.0}): {}",
        got.bytes,
        got.tags
    );
    eprintln!(
        "p = 262144: {:.0} B, {:.2} blocks, {:.2} allocs per rank",
        got.bytes, got.blocks, got.allocs
    );
    assert_eq!(got.end_ps, 39_327_016_104, "simulated end time moved");
}
