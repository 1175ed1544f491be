//! What a chunk of a warm zero-copy strided get or put costs the host: two
//! kernel events (its post and its request arrival — a get's landing and a
//! put's ack are events only for a chunk that may complete the train), no
//! allocation (every event targets the train itself) and no task.
//! Everything else — rank states, parameters, the chunk list, staging
//! bytes, the completions and their countdowns — exists once per train, and
//! a warm train's staging buffer comes from the machine's pool.
//!
//! Allocations are counted with `desim::memprof`, leaving out the
//! `desim.wheel` tag: a timer-wheel slot regrows when a long train reaches a
//! window it has not filled before, which is the wheel's occupancy, not the
//! train's cost. Its own integration-test binary: the profiling allocator is
//! process-wide.

use armci::{Armci, ArmciConfig, Strided};
use desim::memprof::{self, MemProf};
use desim::Sim;
use pami_sim::{Machine, MachineConfig};
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: MemProf = MemProf;

const ROW: usize = 368;
const LD: usize = 1024;

#[test]
fn an_extra_chunk_costs_two_events_no_allocation_and_no_task() {
    memprof::enable();
    let sim = Sim::new();
    let machine = Machine::new(sim.clone(), MachineConfig::new(2).procs_per_node(1));
    let armci = Armci::new(machine, ArmciConfig::default());
    let bufs = Rc::new(Cell::new((0, 0)));
    for r in 0..2 {
        let (rk, bufs) = (armci.rank(r), Rc::clone(&bufs));
        sim.spawn(async move {
            let seg = rk.malloc_collective(64 * LD).await;
            if r == 0 {
                bufs.set((rk.malloc(64 * ROW).await, seg[1]));
            }
        });
    }
    sim.run();
    let (local, remote) = bufs.get();
    // One blocking `rows`-row get (or put) from rank 0: kernel events,
    // allocations, those of the staging buffer, and the task table and
    // live-task count while the transfer is in flight.
    let transfer = |put: bool, rows: usize| {
        let rk = armci.rank(0);
        let seen = Rc::new(Cell::new((0, 0)));
        let (s, seen2) = (sim.clone(), Rc::clone(&seen));
        let (events, before) = (sim.events_processed(), memprof::mark());
        sim.spawn(async move {
            let here = Strided::patch2d(local, ROW, rows, ROW);
            let there = Strided::patch2d(remote, ROW, rows, LD);
            let h = if put {
                rk.nbput_strided(1, &here, &there).await
            } else {
                rk.nbget_strided(1, &here, &there).await
            };
            seen2.set((s.task_slots(), s.pending_tasks()));
            rk.wait(&h).await;
        });
        sim.run();
        let snap = memprof::since(&before);
        let blocks = |name: &str| snap.get(name).map_or(0, |t| t.allocs + t.reallocs);
        let allocs: u64 = snap
            .tags
            .iter()
            .filter(|t| t.name != "desim.wheel")
            .map(|t| t.allocs + t.reallocs)
            .sum();
        let staging = blocks("pami.staging");
        (sim.events_processed() - events, allocs, staging, seen.get())
    };
    let idle = (sim.task_slots(), sim.pending_tasks());
    for put in [false, true] {
        // Warm both shapes (wheel slots, the pooled staging buffer, stats
        // keys).
        transfer(put, 8);
        transfer(put, 64);
        let (events8, allocs8, staging8, tasks8) = transfer(put, 8);
        let (events64, allocs64, staging64, tasks64) = transfer(put, 64);
        assert_eq!(
            events64 - events8,
            2 * (64 - 8),
            "put={put}: 8 rows: {events8} events, 64 rows: {events64}"
        );
        assert_eq!(
            allocs64, allocs8,
            "put={put}: 8 rows: {allocs8} allocations, 64 rows: {allocs64}"
        );
        assert_eq!((staging8, staging64), (0, 0), "put={put}: staging");
        // The issuing task is the only one: no watcher per transfer.
        assert_eq!(tasks8, (idle.0.max(1), idle.1 + 1));
        assert_eq!(tasks64, tasks8);
        assert_eq!((sim.task_slots(), sim.pending_tasks()), idle);
    }
    armci.finalize();
    sim.shutdown();
}
