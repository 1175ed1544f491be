//! Bytes-and-blocks budget of a materialized rank.
//!
//! The Fig 9 shape at p = 4096 — AsyncThread progress, two contexts, ranks
//! 1..p one `rmw_fetch_add` on rank 0, then every rank the barrier — run
//! under the tagged allocation profiler. What one rank costs the host,
//! everything included (task box, kernel slot, PAMI state block, ARMCI
//! runtime state, its share of the rank tables, the timer wheel and rank
//! 0's queue), must stay inside a stated budget:
//!
//! |                                   | first budget |  then | this budget | reached |
//! |-----------------------------------|-------------:|------:|------------:|--------:|
//! | Σ per-tag peak bytes ÷ p          |         2048 |  1883 |        1728 |    1672 |
//! | live blocks ÷ p, all ranks parked |          6.5 |  6.08 |         5.2 |    5.08 |
//! | allocation calls ÷ p, whole run   |         10.5 | 10.09 |         9.2 |    9.09 |
//!
//! The first budget cut 2282 B, 7.08 blocks and 11.09 calls: the progress
//! engine and the retry loop left every blocking call's future, and hash
//! sets and hash maps left the endpoint sets and rank tables. The second
//! moved the task hooks into the ready queue's dense table, made the region
//! cache on first use and stopped the timer wheel keeping burst-sized
//! buffers (1704 B); reading PAMI object space off the objects, not from
//! per-rank byte counters, took 32 B more. DESIGN.md §15's columns list
//! each cut.
//!
//! Lifecycle laziness must not move an event: the run's end `SimTime` is
//! pinned. The `#[ignore]`d full-size case runs the same shape at
//! p = 262144 (`cargo test --release -p bgq-bench --test rank_budget --
//! --ignored`, a few seconds; 1638 B, 5.01 blocks and 9.01 calls per rank)
//! under the same budget.

use armci::{ArmciConfig, ProgressMode};
use bgq_bench::Fixture;
use desim::memprof::{self, MemProf};
use desim::{SimDuration, SimTime};
use pami_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// 1.6875 KiB per rank.
const BYTES_PER_RANK: f64 = 1.6875 * 1024.0;
const BLOCKS_PER_RANK: f64 = 5.2;
const ALLOCS_PER_RANK: f64 = 9.2;

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

/// Check one run against the budget and its pinned end time.
fn assert_within_budget(p: usize, end_ps: u64) {
    let got = fig9_shape(p);
    eprintln!(
        "p = {p}: {:.0} B, {:.2} blocks, {:.2} allocs per rank",
        got.bytes, got.blocks, got.allocs
    );
    assert!(
        got.blocks <= BLOCKS_PER_RANK,
        "{:.2} live blocks per parked rank at p = {p} (budget {BLOCKS_PER_RANK})",
        got.blocks
    );
    assert!(
        got.bytes <= BYTES_PER_RANK,
        "{:.0} peak bytes per rank at p = {p} (budget {BYTES_PER_RANK:.0}): {}",
        got.bytes,
        got.tags
    );
    assert!(
        got.allocs <= ALLOCS_PER_RANK,
        "{:.2} allocation calls per rank at p = {p} (budget {ALLOCS_PER_RANK})",
        got.allocs
    );
    assert_eq!(got.end_ps, end_ps, "simulated end time moved");
}

#[test]
fn materialized_rank_stays_inside_its_byte_and_block_budget() {
    assert_within_budget(4096, 619_166_104);
}

#[test]
#[ignore = "full size: run with --release -- --ignored"]
fn full_size_fig9_rank_stays_inside_its_byte_budget() {
    assert_within_budget(262_144, 39_327_016_104);
}
