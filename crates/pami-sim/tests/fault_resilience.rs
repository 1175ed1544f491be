//! Fault-injection acceptance scenarios: kill a link mid-run and check that
//! the run completes, traffic reroutes around the dead link once detection
//! fires, retries preserve per-pair ordering, and the retry/timeout/downtime
//! accounting reaches the metrics snapshot and the critical-path analyzer.

use desim::{analyze, FaultPlan, Sim, SimDuration, SimTime};
use pami_sim::{FailureMode, Machine, MachineConfig, Pieces, RetryPolicy, Side};
use torus5d::{routing, RouteTable, Topology};

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

fn at(n: u64) -> SimTime {
    SimTime::ZERO + us(n)
}

/// The dense link id of the first link on the node0→node1 route for a
/// 32-rank (2-node) partition — the link the fault plan kills.
fn first_internode_link(topo: &Topology) -> u32 {
    let rt = RouteTable::new(topo);
    let src = rt.ranks().coord_of(0);
    let dst = rt.ranks().coord_of(16);
    let first = routing::route(rt.shape(), src, dst)[0];
    rt.link_id(first).0
}

#[test]
fn killed_link_mid_run_reroutes_retries_and_preserves_ordering() {
    let topo = Topology::for_procs(32, 16);
    let dead = first_internode_link(&topo);
    // Link dies at 100µs, routing notices at 140µs, link heals at 500µs.
    let plan = FaultPlan::new(7)
        .route_update_delay(us(40))
        .link_down(dead, at(100), at(500));
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
            .contention(true)
            .faults(plan)
            .retry(policy),
    );
    sim.probes().lifecycle.enable();
    assert!(m.faults_active());

    let a = m.rank(0);
    let b = m.rank(16);
    let src_pre = a.alloc(8);
    let src_a = a.alloc(8);
    let src_b = a.alloc(8);
    let dst_pre = b.alloc(8);
    let dst_a = b.alloc(8);
    let dst_b = b.alloc(8);
    a.write_i64(src_pre, 1);
    a.write_i64(src_a, 2);
    a.write_i64(src_b, 3);

    let lc = sim.probes().lifecycle.clone();
    let done_a = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));
    let done_b = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));

    // Put A: injected inside the detection gap (link physically down, routes
    // not yet updated) → dropped, retried after timeout + backoff.
    {
        let (a, sim, lc, done_a) = (a.clone(), sim.clone(), lc.clone(), done_a.clone());
        sim.clone().spawn(async move {
            // Sanity put before the fault window: the normal fast path.
            let h = a.rdma_put(16, src_pre, dst_pre, 8).await;
            h.remote.wait().await;
            assert!(sim.now() < at(100), "pre-fault put must land early");
            sim.sleep_until(at(102)).await;
            let op = lc.begin_op(sim.now(), 0);
            a.set_current_op(op);
            let h = a.rdma_put(16, src_a, dst_a, 8).await;
            a.set_current_op(None);
            h.remote.wait().await;
            done_a.set(sim.now());
            if let Some(op) = op {
                lc.end_op(op, sim.now());
            }
        });
    }
    // Put B: younger, injected after route detection — detours around the
    // dead link and lands while A is still waiting out its timeout.
    {
        let (a, sim, done_b) = (a.clone(), sim.clone(), done_b.clone());
        sim.clone().spawn(async move {
            sim.sleep_until(at(145)).await;
            let h = a.rdma_put(16, src_b, dst_b, 8).await;
            h.remote.wait().await;
            done_b.set(sim.now());
        });
    }
    sim.run();

    // The run completed and all three payloads landed.
    assert_eq!(b.read_i64(dst_pre), 1);
    assert_eq!(b.read_i64(dst_a), 2);
    assert_eq!(b.read_i64(dst_b), 3);

    // B rerouted: it completed promptly over the detour, well before the
    // link heals at 500µs and before A's retransmit.
    let (t_a, t_b) = (done_a.get(), done_b.get());
    assert!(t_b < at(200), "B should detour promptly, landed at {t_b}");
    // Ordering across retry: the retried older put may not pass the younger
    // put to the same target.
    assert!(t_a >= t_b, "retried A ({t_a}) overtook younger B ({t_b})");

    // Retry accounting reached the stats and the critical path.
    let stats = m.stats();
    assert!(stats.counter("pami.retries") >= 1, "no retries recorded");
    assert!(stats.counter("pami.timeouts") >= 1, "no timeouts recorded");
    m.flush_net_stats();
    assert!(stats.counter("fault.link_down_events") >= 1);
    assert!(stats.counter("fault.link_down_ps") > 0);
    assert!(stats.counter("fault.drops") >= 1);
    let cp = analyze(&lc, sim.now());
    assert!(
        cp.breakdown.retry > SimDuration::ZERO,
        "critical path must blame a retry segment: {:?}",
        cp.breakdown
    );
}

#[test]
fn batched_ams_survive_link_down_exactly_once_and_in_order() {
    let topo = Topology::for_procs(32, 16);
    let dead = first_internode_link(&topo);
    // Link dies before the AM storm and heals late; routing notices at
    // 140µs, so both coalesced wire messages are injected into the
    // detection gap, dropped, and retransmitted over the detour.
    let plan = FaultPlan::new(13)
        .route_update_delay(us(40))
        .link_down(dead, at(100), at(500));
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
            .contention(true)
            .am_batching(1 << 16, us(5))
            .faults(plan)
            .retry(policy),
    );
    sim.probes().lifecycle.enable();
    // Handler logs each AM's (batch, idx) tag in execution order.
    let log: std::rc::Rc<std::cell::RefCell<Vec<(u8, u8)>>> = Default::default();
    {
        let log = log.clone();
        m.register_am(
            42,
            std::rc::Rc::new(move |_env, msg| {
                log.borrow_mut().push((msg.header[0], msg.header[1]));
            }),
        );
    }
    let a = m.rank(0);
    let b = m.rank(16);
    b.enable_async_progress();
    let lc = sim.probes().lifecycle.clone();
    {
        let (m, a, sim, lc) = (m.clone(), a.clone(), sim.clone(), lc.clone());
        sim.clone().spawn(async move {
            sim.sleep_until(at(102)).await;
            let op = lc.begin_op(sim.now(), 0);
            a.set_current_op(op);
            for i in 0..4u8 {
                a.send_am(16, 42, vec![0, i], Vec::new()).await;
            }
            m.am_flush_pair(0, 16); // batch 0: flushed inside the gap
            for i in 0..4u8 {
                a.send_am(16, 42, vec![1, i], Vec::new()).await;
            }
            m.am_flush_pair(0, 16); // batch 1: likewise
            a.set_current_op(None);
            if let Some(op) = op {
                lc.end_op(op, sim.now());
            }
        });
    }
    sim.run();

    // Exactly-once: each tagged AM executed once despite the retransmits.
    let got = log.borrow().clone();
    assert_eq!(got.len(), 8, "expected 8 AM executions, got {got:?}");
    // Each batch lands as one work item: its entries are contiguous and in
    // enqueue order, and pair-FIFO keeps batch 0 ahead of batch 1.
    assert_eq!(
        got,
        (0..2u8)
            .flat_map(|b| (0..4u8).map(move |i| (b, i)))
            .collect::<Vec<_>>(),
        "batched AMs lost contiguity or pair order across retransmits"
    );
    // The drops really happened and were blamed on the retry layer.
    let stats = m.stats();
    assert!(
        stats.counter("pami.retries") >= 2,
        "both batches must retry"
    );
    assert!(stats.counter("pami.timeouts") >= 2);
    assert_eq!(stats.counter("am.wire_msgs"), 2, "one wire message a batch");
    let cp = analyze(&lc, sim.now());
    assert!(
        cp.breakdown.retry > SimDuration::ZERO,
        "critical path must carry retry blame: {:?}",
        cp.breakdown
    );
}

#[test]
fn hung_node_stalls_progress_until_recovery() {
    let topo = Topology::for_procs(32, 16);
    let _ = topo; // 2 nodes; rank 16 lives on node 1.
    let plan = FaultPlan::new(11).node_hang(1, at(50), at(250));
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32)
            .procs_per_node(16)
            .contention(true)
            .faults(plan),
    );
    let a = m.rank(0);
    let b = m.rank(16);
    let src = a.alloc(8);
    let dst = b.alloc(8);
    a.write_i64(src, 99);
    let landed = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));
    {
        let (sim, b, landed) = (sim.clone(), b.clone(), landed.clone());
        sim.clone().spawn(async move {
            sim.sleep_until(at(60)).await;
            // Software put needs the *target's* progress engine, and node 1
            // is hung from 50µs to 250µs: servicing must wait for recovery.
            let h = a.sw_put(16, src, dst, 8).await;
            b.progress_wait(&h.remote).await;
            landed.set(sim.now());
        });
    }
    sim.run();
    assert_eq!(b.read_i64(dst), 99);
    assert!(
        landed.get() >= at(250),
        "hung node serviced work at {} (before recovery)",
        landed.get()
    );
}

#[test]
fn fail_fast_panics_when_the_plan_outlasts_the_retries() {
    let topo = Topology::for_procs(32, 16);
    let dead = first_internode_link(&topo);
    // Link never comes back within reach of one retry.
    let plan = FaultPlan::new(3)
        .route_update_delay(us(100_000)) // routes never update in time
        .link_down(dead, at(10), at(900_000));
    let policy = RetryPolicy {
        timeout: us(10),
        backoff: us(1),
        max_retries: 1,
        failure: FailureMode::FailFast,
    };
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32)
            .procs_per_node(16)
            .contention(true)
            .faults(plan)
            .retry(policy),
    );
    let a = m.rank(0);
    let src = a.alloc(8);
    let dst = m.rank(16).alloc(8);
    sim.clone().spawn(async move {
        sim.sleep_until(at(20)).await;
        let h = a.rdma_put(16, src, dst, 8).await;
        h.remote.wait().await;
    });
    let sim2 = m.sim().clone();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || sim2.run()))
        .expect_err("fail-fast policy must panic on retry exhaustion");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("lost after"),
        "unexpected panic payload: {msg}"
    );
}

#[test]
fn best_effort_gives_up_and_completes_without_data() {
    let topo = Topology::for_procs(32, 16);
    let dead = first_internode_link(&topo);
    let plan =
        FaultPlan::new(3)
            .route_update_delay(us(100_000))
            .link_down(dead, at(10), at(900_000));
    let policy = RetryPolicy {
        timeout: us(10),
        backoff: us(1),
        max_retries: 1,
        failure: FailureMode::BestEffort,
    };
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32)
            .procs_per_node(16)
            .contention(true)
            .faults(plan)
            .retry(policy),
    );
    let a = m.rank(0);
    let b = m.rank(16);
    let src = a.alloc(8);
    let dst = b.alloc(8);
    a.write_i64(src, 7);
    b.write_i64(dst, 0);
    {
        let sim = sim.clone();
        sim.clone().spawn(async move {
            sim.sleep_until(at(20)).await;
            let h = a.rdma_put(16, src, dst, 8).await;
            h.remote.wait().await;
            h.local.wait().await;
        });
    }
    sim.run();
    // The run completed, but the payload never landed.
    assert_eq!(b.read_i64(dst), 0);
    assert!(m.stats().counter("pami.gave_up") >= 1);
}

/// One 8-chunk train (256 B chunks, rank 0 → rank 16) whose fourth chunk is
/// injected just after the route's first link dies; routing notices
/// `detect` later, so with a short `detect` every other chunk goes out before
/// the link dies or after routing has noticed. Chunks are posted one after
/// another, so while a request backs off, the chunks behind it wait. Returns
/// the machine, which destination chunks hold the source pattern afterwards,
/// and the instants (ps) at which the train's completions fired, in order:
/// the get's one, or the put's remote and then local completion.
fn train_over_a_dying_link(
    get: bool,
    detect: SimDuration,
    policy: RetryPolicy,
) -> (Machine, Vec<bool>, Vec<u64>) {
    const CHUNKS: usize = 8;
    const LEN: usize = 256;
    let topo = Topology::for_procs(32, 16);
    let dead = first_internode_link(&topo);
    let p = torus5d::BgqParams::default();
    // Chunk i is posted (i + 1)·o_send after the start and injected one
    // `rdma_engine` later.
    let start = at(10);
    let inject = |i: u64| start + p.o_send * (i + 1) + p.rdma_engine;
    let plan = FaultPlan::new(3).route_update_delay(detect).link_down(
        dead,
        inject(3) - SimDuration::from_ns(100),
        at(500),
    );
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32)
            .procs_per_node(16)
            .contention(true)
            .faults(plan)
            .retry(policy),
    );
    // The requester is rank 0 either way; data flows 0 → 16 for the put and
    // 16 → 0 for the get, whose *requests* cross the dying link.
    let (a, b) = (m.rank(0), m.rank(16));
    let (src_rank, dst_rank) = if get { (&b, &a) } else { (&a, &b) };
    let src = src_rank.alloc(CHUNKS * LEN);
    let dst = dst_rank.alloc(2 * CHUNKS * LEN);
    let pattern: Vec<u8> = (0..CHUNKS * LEN).map(|i| (i % 251) as u8 + 1).collect();
    src_rank.write_bytes(src, &pattern);
    let fired: std::rc::Rc<std::cell::RefCell<Vec<u64>>> = Default::default();
    {
        let (a, sim, fired) = (a.clone(), sim.clone(), fired.clone());
        sim.clone().spawn(async move {
            sim.sleep_until(start).await;
            // Destination chunks sit 2·LEN apart: a strided scatter.
            let (s, d) = (
                Side::new(src, [(CHUNKS, LEN)]).expect("one level"),
                Side::new(dst, [(CHUNKS, 2 * LEN)]).expect("one level"),
            );
            let (local, remote) = if get { (d, s) } else { (s, d) };
            let parts = Pieces::Strided {
                len: LEN,
                local,
                remote,
            };
            let done =
                |fired: &std::cell::RefCell<Vec<u64>>| fired.borrow_mut().push(sim.now().as_ps());
            if get {
                let h = a.rdma_get_list(16, parts).await;
                h.wait().await;
                done(&fired);
            } else {
                let h = a.rdma_put_list(16, parts).await;
                h.remote.wait().await;
                done(&fired);
                h.local.wait().await;
                done(&fired);
            }
        });
    }
    sim.run();
    let landed = (0..CHUNKS)
        .map(|i| dst_rank.read_bytes(dst + 2 * i * LEN, LEN) == pattern[i * LEN..][..LEN])
        .collect();
    let fired = fired.take();
    (m, landed, fired)
}

#[test]
fn one_dropped_chunk_of_a_train_retries_alone() {
    let policy = RetryPolicy {
        timeout: us(5),
        backoff: us(1),
        max_retries: 4,
        failure: FailureMode::FailFast,
    };
    for (get, instants) in [(false, &PIN_RETRIED_PUT[..]), (true, &PIN_RETRIED_GET[..])] {
        let (m, landed, fired) = train_over_a_dying_link(get, SimDuration::from_ns(300), policy);
        assert_eq!(landed, vec![true; 8], "get={get}: every chunk lands");
        assert_eq!(fired, instants, "get={get}");
        let stats = m.stats();
        assert_eq!(stats.counter("pami.timeouts"), 1, "get={get}");
        assert_eq!(stats.counter("pami.retries"), 1, "get={get}");
        assert_eq!(stats.counter("pami.gave_up"), 0, "get={get}");
        let key = if get {
            "pami.rdma_get"
        } else {
            "pami.rdma_put"
        };
        assert_eq!(stats.counter(key), 8, "one count per chunk, get={get}");
    }
}

#[test]
fn a_train_completes_once_without_the_chunk_best_effort_gave_up_on() {
    let policy = RetryPolicy {
        timeout: us(5),
        backoff: us(1),
        max_retries: 0,
        failure: FailureMode::BestEffort,
    };
    for (get, instants) in [(false, &PIN_LOST_PUT[..]), (true, &PIN_LOST_GET[..])] {
        let (m, landed, fired) = train_over_a_dying_link(get, SimDuration::from_ns(300), policy);
        // Only the fourth chunk's bytes are missing; a second firing of a
        // countdown would have panicked in `Completion::complete`.
        let mut expect = vec![true; 8];
        expect[3] = false;
        assert_eq!(landed, expect, "get={get}");
        assert_eq!(fired, instants, "get={get}");
        let stats = m.stats();
        assert_eq!(stats.counter("pami.gave_up"), 1, "get={get}");
        assert_eq!(stats.counter("pami.retries"), 0, "get={get}");
    }
}

#[test]
fn requests_that_back_off_hold_back_the_rest_of_the_train() {
    // Routing never notices: from the fourth chunk on, every request is
    // dropped, backs off once, is dropped again and given up on — and each
    // chunk is posted only once the one before it is resolved.
    let policy = RetryPolicy {
        timeout: us(5),
        backoff: us(1),
        max_retries: 1,
        failure: FailureMode::BestEffort,
    };
    for (get, instants) in [
        (false, &PIN_BACKED_OFF_PUT[..]),
        (true, &PIN_BACKED_OFF_GET[..]),
    ] {
        let (m, landed, fired) = train_over_a_dying_link(get, us(100_000), policy);
        let expect: Vec<bool> = (0..8).map(|i| i < 3).collect();
        assert_eq!(landed, expect, "get={get}");
        assert_eq!(fired, instants, "get={get}");
        let stats = m.stats();
        assert_eq!(stats.counter("pami.timeouts"), 10, "get={get}");
        assert_eq!(stats.counter("pami.retries"), 5, "get={get}");
        assert_eq!(stats.counter("pami.gave_up"), 5, "get={get}");
    }
}

/// A get train whose *replies* are lost: rank 16 gets from rank 0, and the
/// node0→node1 link the replies need is down before the train starts and
/// never routed around. Under `BestEffort` each reply is given up on and
/// the train still completes once, with none of the bytes the target read
/// in the buffer: a get under a fault plan holds what it read until its
/// reply lands (DESIGN.md §18).
#[test]
fn a_get_whose_replies_are_lost_leaves_its_buffer_as_it_was() {
    const CHUNKS: usize = 8;
    const LEN: usize = 256;
    let dead = first_internode_link(&Topology::for_procs(32, 16));
    let plan =
        FaultPlan::new(3)
            .route_update_delay(us(100_000))
            .link_down(dead, at(1), at(900_000));
    let policy = RetryPolicy {
        timeout: us(5),
        backoff: us(1),
        max_retries: 0,
        failure: FailureMode::BestEffort,
    };
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32)
            .procs_per_node(16)
            .faults(plan)
            .retry(policy),
    );
    let (a, b) = (m.rank(0), m.rank(16));
    let src = a.alloc(CHUNKS * LEN);
    a.write_bytes(src, &[7; CHUNKS * LEN]);
    let dst = b.alloc(CHUNKS * LEN);
    let fired = std::rc::Rc::new(std::cell::Cell::new(0));
    {
        let (sim, b, fired) = (sim.clone(), b.clone(), fired.clone());
        sim.clone().spawn(async move {
            sim.sleep_until(at(10)).await;
            let side = |base| Side::new(base, [(CHUNKS, LEN)]).expect("one level");
            let pieces = Pieces::Strided {
                len: LEN,
                local: side(dst),
                remote: side(src),
            };
            b.rdma_get_list(0, pieces).await.wait().await;
            fired.set(fired.get() + 1);
        });
    }
    sim.run();
    assert_eq!(fired.get(), 1, "the get completes once");
    let landed = b
        .read_bytes(dst, CHUNKS * LEN)
        .iter()
        .filter(|&&x| x != 0)
        .count();
    assert_eq!(landed, 0, "bytes of lost replies in the buffer");
    let stats = m.stats();
    assert_eq!(stats.counter("pami.gave_up"), CHUNKS as u64);
    assert_eq!(stats.counter("pami.rdma_get"), CHUNKS as u64);
}

// Completion instants (ps) recorded at the commit before trains posted
// themselves: the get's, or the put's remote and local.
const PIN_RETRIED_GET: [u64; 1] = [22_174_128];
const PIN_RETRIED_PUT: [u64; 2] = [21_359_128, 22_174_128];
const PIN_LOST_GET: [u64; 1] = [18_200_000];
const PIN_LOST_PUT: [u64; 2] = [18_200_000, 19_015_000];
const PIN_BACKED_OFF_GET: [u64; 1] = [52_000_000];
const PIN_BACKED_OFF_PUT: [u64; 2] = [52_000_000, 52_815_000];

/// Retry accounting `(timeouts, retries, retried ops, gave_up)` of one leg
/// sent from node 0 to node 1 at 102 µs across a link that died at 100 µs:
/// the request leg of an RDMA put by rank 0, or the response leg of a
/// fetch-and-add that rank 16 issued against rank 0.
fn one_leg_over_the_dead_link(response: bool, recovers: bool) -> (u64, u64, u64, u64) {
    let dead = first_internode_link(&Topology::for_procs(32, 16));
    let (plan, policy) = if recovers {
        // Routing notices at 140 µs: the retransmit at 137 µs is dropped
        // too, the one at 177 µs goes around.
        let plan = FaultPlan::new(7)
            .route_update_delay(us(40))
            .link_down(dead, at(100), at(500));
        (plan, RetryPolicy::default())
    } else {
        let plan =
            FaultPlan::new(7)
                .route_update_delay(us(100_000))
                .link_down(dead, at(100), at(900_000));
        let policy = RetryPolicy {
            max_retries: 2,
            failure: FailureMode::BestEffort,
            ..RetryPolicy::default()
        };
        (plan, policy)
    };
    let sim = Sim::new();
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(32)
            .procs_per_node(16)
            .faults(plan)
            .retry(policy),
    );
    let (a, b) = (m.rank(0), m.rank(16));
    let (cell_a, cell_b) = (a.alloc(8), b.alloc(8));
    let _at = a.start_progress_thread();
    {
        let sim = sim.clone();
        sim.clone().spawn(async move {
            sim.sleep_until(at(102)).await;
            if response {
                let done = b.rmw(0, cell_a, pami_sim::RmwOp::FetchAdd(1)).await;
                done.wait().await;
            } else {
                let h = a.rdma_put(16, cell_a, cell_b, 8).await;
                h.local.wait().await;
            }
        });
    }
    sim.run_until(at(10_000));
    m.stop_progress_threads();
    sim.shutdown();
    let s = m.stats();
    (
        s.counter("pami.timeouts"),
        s.counter("pami.retries"),
        s.hist("pami.op_retries").count(),
        s.counter("pami.gave_up"),
    )
}

/// One retry core drives both kinds of leg, so the same drop plan costs a
/// request leg (awaited by its initiator) and a response leg (rescheduled
/// from the target's progress engine) exactly the same accounting.
#[test]
fn request_and_response_legs_account_retries_alike() {
    let recovered = one_leg_over_the_dead_link(false, true);
    assert_eq!(recovered, (2, 2, 1, 0), "dropped twice, then rerouted");
    assert_eq!(one_leg_over_the_dead_link(true, true), recovered);
    let gave_up = one_leg_over_the_dead_link(false, false);
    assert_eq!(gave_up, (3, 2, 0, 1), "two retransmits, then best-effort");
    assert_eq!(one_leg_over_the_dead_link(true, false), gave_up);
}
