//! The two paths that sit behind a box — the progress engine a blocking call
//! drives at ρ = 1, and the retry loop of a request leg under a fault plan —
//! still run, at the same instants; and the common path boxes nothing.
//!
//! The end `SimTime`, event count and counters pinned below are what the
//! same programs produced with both paths inline in every blocking call's
//! future: moving a future to the heap moves no event. The allocation
//! counts are the blocks a warm ρ = 2 `rmw`/`get`/`put` allocates: the rmw
//! as many as with both paths inline, the get and put three fewer since
//! their train's events target the train and its staging buffer is pooled.
//! Equality says no box joined the path. Its own integration-test binary:
//! the profiling allocator is process-wide.

use std::cell::Cell;
use std::rc::Rc;

use armci::{Armci, ArmciConfig, ProgressMode};
use desim::memprof::{self, MemProf};
use desim::{FaultPlan, Sim, SimDuration, SimTime};
use pami_sim::{FailureMode, Machine, MachineConfig, RetryPolicy, RmwOp};
use torus5d::{routing, RouteTable, Topology};

#[global_allocator]
static ALLOC: MemProf = MemProf;

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// What a run reached: end time, kernel events, wire messages, and the
/// named counters.
fn outcome(sim: &Sim, m: &Machine, counters: &[&str]) -> (u64, u64, u64, Vec<u64>) {
    let stats = m.stats();
    (
        sim.now().as_ps(),
        sim.events_processed(),
        m.net_messages(),
        counters.iter().map(|c| stats.counter(c)).collect(),
    )
}

#[test]
fn rho1_blocking_call_services_work_queued_on_its_own_context() {
    // D mode, one context: every fetch-and-add lands on rank 0's only
    // context, and nobody services it until rank 0 blocks in the barrier.
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32).procs_per_node(16).contexts(1),
    );
    let armci = Armci::new(
        m.clone(),
        ArmciConfig::default().progress(ProgressMode::Default),
    );
    let owner = m.rank(0);
    let counter = owner.alloc(8);
    owner.write_i64(counter, 0);
    let fetched = Rc::new(Cell::new(0i64));
    for r in 0..32 {
        let (rk, fetched) = (armci.rank(r), Rc::clone(&fetched));
        sim.spawn(async move {
            if r > 0 {
                let old = rk.rmw_fetch_add(0, counter, r as i64).await;
                fetched.set(fetched.get() + old);
            } else {
                // Compute first, so the requests queue up behind it.
                rk.armci().sim().sleep(us(20)).await;
            }
            rk.barrier().await;
        });
    }
    sim.run();
    assert_eq!(owner.read_i64(counter), (1..32).sum::<i64>());
    assert_eq!(m.target_ctx(), 0);
    // The fetched values sum to what the service order made them.
    assert_eq!(fetched.get(), 4960);
    assert_eq!(
        outcome(&sim, &m, &["pami.rmw", "armci.rmw"]),
        (27_519_504, 408, 62, vec![31, 31])
    );
    armci.finalize();
    sim.shutdown();
}

#[test]
fn request_leg_retries_under_a_fault_plan() {
    // Rank 0 → 16 crosses the node boundary; the route's first link dies at
    // 100 µs and routing notices at 140 µs, so requests injected in between
    // are dropped and retried after a 60 µs timeout.
    let topo = Topology::for_procs(32, 16);
    let rt = RouteTable::new(&topo);
    let first = routing::route(rt.shape(), rt.ranks().coord_of(0), rt.ranks().coord_of(16))[0];
    let plan = FaultPlan::new(7).route_update_delay(us(40)).link_down(
        rt.link_id(first).0,
        SimTime::ZERO + us(100),
        SimTime::ZERO + us(500),
    );
    let policy = RetryPolicy {
        timeout: us(60),
        backoff: us(5),
        max_retries: 8,
        failure: FailureMode::FailFast,
    };
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32)
            .procs_per_node(16)
            .contexts(2)
            .contention(true)
            .faults(plan)
            .retry(policy),
    );
    let armci = Armci::new(m.clone(), ArmciConfig::default());
    let target = m.rank(16);
    let counter = target.alloc(8);
    target.write_i64(counter, 5);
    let old = Rc::new(Cell::new(0i64));
    {
        let (rk, old, s) = (armci.rank(0), Rc::clone(&old), sim.clone());
        sim.spawn(async move {
            s.sleep_until(SimTime::ZERO + us(102)).await;
            old.set(rk.rmw_fetch_add(16, counter, 3).await);
        });
    }
    sim.run();
    assert_eq!((old.get(), target.read_i64(counter)), (5, 8));
    assert_eq!(
        outcome(&sim, &m, &["pami.rmw", "pami.retries", "pami.timeouts"]),
        (170_093_512, 19, 2, vec![1, 1, 1])
    );
    armci.finalize();
    sim.shutdown();
}

#[test]
fn warm_rho2_rmw_get_put_allocate_their_pinned_blocks() {
    memprof::enable();
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32).procs_per_node(16).contexts(2),
    );
    let armci = Armci::new(m.clone(), ArmciConfig::default());
    let seg = Rc::new(Cell::new(0usize));
    for r in 0..32 {
        let (rk, seg) = (armci.rank(r), Rc::clone(&seg));
        sim.spawn(async move {
            let offs = rk.malloc_collective(64).await;
            seg.set(offs[16]);
        });
    }
    sim.run();
    let (remote, local) = (seg.get(), m.rank(0).alloc(8));
    // Blocks one op from rank 0 to rank 16 allocates, wheel growth aside.
    let blocks = |op: u8| {
        let rk = armci.rank(0);
        let before = memprof::mark();
        sim.spawn(async move {
            match op {
                0 => drop(rk.rmw_fetch_add(16, remote, 1).await),
                1 => rk.get(16, local, remote + 8, 8).await,
                _ => rk.put(16, local, remote + 16, 8).await,
            }
        });
        sim.run();
        memprof::since(&before)
            .tags
            .iter()
            .filter(|t| t.name != "desim.wheel")
            .map(|t| t.allocs)
            .sum::<u64>()
    };
    for op in 0..3 {
        blocks(op);
        blocks(op);
    }
    assert_eq!([blocks(0), blocks(1), blocks(2)], [6, 5, 7]);
    armci.finalize();
    sim.shutdown();
}

#[test]
fn a_rank_makes_its_work_context_only_where_work_arrives() {
    memprof::enable();
    let rankmem = |mark: &memprof::MemMark| {
        memprof::since(mark)
            .get("pami.rankmem")
            .map_or(0, |t| t.allocs)
    };
    // ρ = 2: a fetch-and-add queues on rank 5's work context, context 1.
    // Driving context 0 services nothing and makes nothing; driving context
    // 1 services the item.
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(32).contexts(2));
    let (owner, counter) = (m.rank(5), m.rank(5).alloc(8));
    owner.write_i64(counter, 0);
    m.materialize_rank(9);
    let before = memprof::mark();
    let idle = Rc::new(Cell::new(usize::MAX));
    {
        let (owner, idle) = (owner.clone(), Rc::clone(&idle));
        sim.spawn(async move { idle.set(owner.advance(0, usize::MAX).await) });
    }
    sim.run();
    assert_eq!(idle.get(), 0, "context 0 holds no work");
    assert_eq!(rankmem(&before), 0, "advance(0) makes no context");
    let fetched = Rc::new(Cell::new(-1));
    {
        let (rk, fetched) = (m.rank(9), Rc::clone(&fetched));
        sim.spawn(async move {
            let old = rk.rmw(5, counter, RmwOp::FetchAdd(1)).await;
            fetched.set(old.wait().await);
        });
    }
    sim.run();
    assert_eq!(rankmem(&before), 1, "the first item makes the work context");
    let serviced = Rc::new(Cell::new([usize::MAX; 2]));
    {
        let (owner, serviced) = (owner.clone(), Rc::clone(&serviced));
        sim.spawn(async move {
            let idle = owner.advance(0, usize::MAX).await;
            serviced.set([idle, owner.advance(1, usize::MAX).await]);
        });
    }
    sim.run();
    assert_eq!(serviced.get(), [0, 1]);
    assert_eq!((fetched.get(), owner.read_i64(counter)), (0, 1));
    assert_eq!(rankmem(&before), 1, "one context, made once");
    sim.shutdown();

    // ρ = 1: a blocking wait drives the only context, so it makes it.
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), MachineConfig::new(32).contexts(1));
    let rk = m.rank(3);
    rk.write_i64(0, 0);
    let before = memprof::mark();
    let done: desim::Completion<()> = desim::Completion::new();
    {
        let (sim2, done) = (sim.clone(), done.clone());
        sim.spawn(async move {
            sim2.sleep(us(1)).await;
            done.complete(());
        });
    }
    sim.spawn(async move { rk.progress_wait(&done).await });
    sim.run();
    assert_eq!(rankmem(&before), 1, "a rho = 1 wait makes the context");
    sim.shutdown();
}
