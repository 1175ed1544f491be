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
//! | Σ per-tag peak bytes ÷ p          |         2048 |  1728 |        1408 |    1262 |
//! | live blocks ÷ p, all ranks parked |          6.5 |   5.2 |         4.2 |    4.08 |
//! | allocation calls ÷ p, whole run   |         10.5 |   9.2 |         8.2 |    8.09 |
//!
//! The first budget cut 2282 B, 7.08 blocks and 11.09 calls: the progress
//! engine and the retry loop left every blocking call's future, and hash
//! sets and hash maps left the endpoint sets and rank tables. The second
//! moved the task hooks into the ready queue's dense table, made the region
//! cache on first use and stopped the timer wheel keeping burst-sized
//! buffers (1704 B); reading PAMI object space off the objects, not from
//! per-rank byte counters, took 32 B more. The third gave a rank one work
//! context, made where work arrives: a parked rank holds no context, and
//! its wait is a completion wait with no waiter on a context's notifier
//! (1662 B). DESIGN.md §15 states what a rank costs.
//!
//! The same shape at ρ = 1 (default progress, one context) makes every
//! rank's context in its first blocking wait, a block of its own: it has its
//! own budget. Lifecycle laziness must not move an event: each run's end
//! `SimTime` is pinned. The `#[ignore]`d full-size case runs the ρ = 2 shape
//! at p = 262144 (`cargo test --release -p bgq-bench --test rank_budget --
//! --ignored`, a few seconds; 1228 B, 4.01 blocks and 8.01 calls per rank)
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

/// A rank's budget: Σ per-tag peak bytes, live blocks while parked and
/// allocation calls, each ÷ p.
struct Budget {
    bytes: f64,
    blocks: f64,
    allocs: f64,
}

/// ρ = 2, AT: 1.375 KiB per rank.
const AT: Budget = Budget {
    bytes: 1.375 * 1024.0,
    blocks: 4.2,
    allocs: 8.2,
};
/// ρ = 1, D: 1.5 KiB per rank (1429 B, 6.08 blocks and 11.09 calls
/// reached: each rank's context is a block of its own).
const D: Budget = Budget {
    bytes: 1.5 * 1024.0,
    blocks: 6.2,
    allocs: 11.2,
};

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
    /// `pami.rankmem` blocks live while every rank is parked.
    rankmem_blocks: u64,
    /// The run's per-tag snapshot, for failure messages.
    tags: String,
}

/// Fig 9's shape at ρ contexts: AT progress at ρ = 2, D at ρ = 1.
fn fig9_shape(p: usize, rho: usize) -> PerRank {
    memprof::enable();
    let mark = memprof::mark();
    let progress = if rho == 1 {
        ProgressMode::Default
    } else {
        ProgressMode::AsyncThread
    };
    let f = Fixture::with_machine(
        MachineConfig::new(p).procs_per_node(16).contexts(rho),
        ArmciConfig::default().progress(progress),
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
    let rankmem_blocks = parked.get("pami.rankmem").map_or(0, |t| t.allocs - t.frees);
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
        rankmem_blocks,
        tags: run.to_json(),
    }
}

/// Check one run against the budget and its pinned end time.
fn assert_within_budget(p: usize, rho: usize, budget: &Budget, end_ps: u64) -> PerRank {
    let got = fig9_shape(p, rho);
    eprintln!(
        "p = {p}, rho = {rho}: {:.0} B, {:.2} blocks, {:.2} allocs per rank",
        got.bytes, got.blocks, got.allocs
    );
    assert!(
        got.blocks <= budget.blocks,
        "{:.2} live blocks per parked rank at p = {p} (budget {})",
        got.blocks,
        budget.blocks
    );
    assert!(
        got.bytes <= budget.bytes,
        "{:.0} peak bytes per rank at p = {p} (budget {:.0}): {}",
        got.bytes,
        budget.bytes,
        got.tags
    );
    assert!(
        got.allocs <= budget.allocs,
        "{:.2} allocation calls per rank at p = {p} (budget {})",
        got.allocs,
        budget.allocs
    );
    assert_eq!(got.end_ps, end_ps, "simulated end time moved");
    got
}

#[test]
fn materialized_rank_stays_inside_its_byte_and_block_budget() {
    // Parked, the PAMI state is p rank blocks, the rank table's two, rank
    // 0's memory and one work context — rank 0's, the only rank work
    // reaches.
    let got = assert_within_budget(4096, 2, &AT, 619_166_104);
    assert_eq!(
        got.rankmem_blocks,
        4096 + 4,
        "contexts only where work arrives"
    );
}

#[test]
fn rho1_rank_makes_its_context_in_its_first_wait_and_stays_inside_its_budget() {
    // Every rank blocks at ρ = 1, and its wait drives — so makes — its
    // only context: p contexts beside the p rank blocks.
    let got = assert_within_budget(4096, 1, &D, 618_966_104);
    assert_eq!(got.rankmem_blocks, 2 * 4096 + 3);
}

#[test]
#[ignore = "full size: run with --release -- --ignored"]
fn full_size_fig9_rank_stays_inside_its_byte_budget() {
    assert_within_budget(262_144, 2, &AT, 39_327_016_104);
}
