//! Proof that message delivery is allocation-free once warm: the tracking
//! allocator from `desim::memprof` is installed as the global allocator,
//! the delivery state is warmed (route arena + pair map populated), and a
//! second batch of deliveries must not allocate at all —
//! [`desim::memprof::total_allocs`] counts every `alloc`/`alloc_zeroed`/
//! `realloc` on this thread, which runs every delivery, exactly like the
//! private counting allocator this test used to carry.
//!
//! This doubles as an end-to-end check of the profiler itself: with it
//! *enabled* (the worst case — full attribution and side-table accounting on
//! every allocation), the warm path still performs zero heap operations, so
//! the profiler cannot have added any of its own.
//!
//! This lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide, and it holds a single `#[test]` because enabling the
//! profiler is process-wide too.

use desim::memprof::{self, MemProf};
use desim::{SimDuration, SimRng, SimTime};
use torus5d::{BgqParams, MsgClass, NetState, Topology};

#[global_allocator]
static ALLOC: MemProf = MemProf;

fn schedule(procs: usize, msgs: usize, seed: u64) -> Vec<(usize, usize, usize, MsgClass)> {
    let mut rng = SimRng::new(seed);
    (0..msgs)
        .map(|i| {
            let src = rng.next_below(procs as u64) as usize;
            let mut dst = rng.next_below(procs as u64) as usize;
            if dst == src {
                dst = (dst + 1) % procs;
            }
            let payload = 1usize << (4 + rng.next_below(12));
            let class = match i % 8 {
                0 => MsgClass::Unordered,
                1 | 2 => MsgClass::Control,
                _ => MsgClass::Ordered,
            };
            (src, dst, payload, class)
        })
        .collect()
}

#[test]
fn deliver_is_allocation_free_once_routes_are_warm() {
    memprof::enable();
    let procs = 256;
    let topo = Topology::for_procs(procs, 16);
    let warm = memprof::mark();
    let mut net = NetState::new(topo, BgqParams::default(), true);
    let sched = schedule(procs, 30_000, 0xA110_C8EE);

    // Warm pass: populates the route arena, the span table and every pair
    // slot in the ordering map (allocations expected and allowed here).
    let mut inject = SimTime::ZERO;
    for &(src, dst, payload, class) in &sched {
        inject += SimDuration::from_ns(100);
        net.deliver(inject, src, dst, payload, class);
    }
    let routes_warm = net.route_table().routes_cached();
    let arena_warm = net.route_table().arena_len();

    // The warm pass must have charged the network tags, not `untagged` —
    // the scope wiring in `NetState`/`RouteTable` is live.
    let warmed = memprof::since(&warm);
    assert!(
        warmed.get("torus5d.links").is_some_and(|t| t.allocs > 0),
        "link state allocations must carry the torus5d.links tag"
    );
    assert!(
        warmed.get("torus5d.routes").is_some_and(|t| t.allocs > 0),
        "route arena allocations must carry the torus5d.routes tag"
    );

    // Hot pass: same pairs again — zero heap activity allowed.
    let before = memprof::total_allocs();
    for &(src, dst, payload, class) in &sched {
        inject += SimDuration::from_ns(100);
        net.deliver(inject, src, dst, payload, class);
    }
    let after = memprof::total_allocs();
    assert_eq!(
        after - before,
        0,
        "deliveries over warm routes must not allocate"
    );

    // And the warm pass really did all the cache work: nothing new appeared.
    assert_eq!(net.route_table().routes_cached(), routes_warm);
    assert_eq!(net.route_table().arena_len(), arena_warm);
    assert_eq!(net.messages(), 2 * sched.len() as u64);

    // Same contract with an *empty* fault plan installed: the fault-gating
    // branches on the delivery path must stay allocation-free too.
    let mut fnet = NetState::new(Topology::for_procs(procs, 16), BgqParams::default(), true);
    fnet.install_faults(desim::FaultPlan::new(42));
    let mut inject = SimTime::ZERO;
    for &(src, dst, payload, class) in &sched {
        inject += SimDuration::from_ns(100);
        fnet.deliver(inject, src, dst, payload, class);
    }
    let before = memprof::total_allocs();
    for &(src, dst, payload, class) in &sched {
        inject += SimDuration::from_ns(100);
        fnet.deliver(inject, src, dst, payload, class);
    }
    let after = memprof::total_allocs();
    assert_eq!(
        after - before,
        0,
        "an empty fault plan must not add allocations to warm deliveries"
    );

    // Same contract with *disabled* sinks attached (the production default:
    // the telemetry branches collapse to one flag check per sink).
    let mut tnet = NetState::new(Topology::for_procs(procs, 16), BgqParams::default(), true);
    tnet.attach(desim::Probes::default());
    let mut inject = SimTime::ZERO;
    for &(src, dst, payload, class) in &sched {
        inject += SimDuration::from_ns(100);
        tnet.deliver(inject, src, dst, payload, class);
    }
    let before = memprof::total_allocs();
    for &(src, dst, payload, class) in &sched {
        inject += SimDuration::from_ns(100);
        tnet.deliver(inject, src, dst, payload, class);
    }
    let after = memprof::total_allocs();
    assert_eq!(
        after - before,
        0,
        "a disabled timeline must not add allocations to warm deliveries"
    );

    // With the floor at each injection (a simulator sending at its clock),
    // fronts retire instead of piling up: once the tables have reached the
    // size of the traffic in flight, a stream of never-seen pairs rehashes
    // them in place, without allocating.
    let procs = 4096;
    let mut anet = NetState::new(Topology::for_procs(procs, 16), BgqParams::default(), false);
    let fresh = schedule(procs, 60_000, 0xF100_0A11);
    let (warm, hot) = fresh.split_at(20_000);
    let mut inject = SimTime::ZERO;
    let mut send =
        |net: &mut NetState, &(src, dst, payload, class): &(usize, usize, usize, MsgClass)| {
            inject += SimDuration::from_ns(100);
            net.raise_floor(inject);
            net.deliver(inject, src, dst, payload, class);
        };
    warm.iter().for_each(|m| send(&mut anet, m));
    let before = memprof::total_allocs();
    hot.iter().for_each(|m| send(&mut anet, m));
    assert_eq!(
        memprof::total_allocs() - before,
        0,
        "fronts behind the floor must retire in place"
    );

    // Ranks that never send cost zero bytes: per-rank sender state
    // (`tx_busy`, the pair-ordering map) lives in lazily-grown hash maps
    // tagged `torus5d.fxmap`, so the same traffic between the same two
    // ranks must charge *byte-identical* fxmap allocations whether the
    // machine has 256 ranks or a million — only the per-link hardware
    // arrays (`torus5d.links`, O(nodes) by design) may grow with the
    // partition. `mark`/`since` brackets are thread-local, so this stays
    // exact inside the one-test binary.
    let run = |procs: usize| {
        let m = memprof::mark();
        let mut net = NetState::new(Topology::for_procs(procs, 16), BgqParams::default(), true);
        let mut inject = SimTime::ZERO;
        for i in 0..200 {
            inject += SimDuration::from_ns(100);
            // Two cross-node pairs, every class: 0→17, 33→17.
            let (src, dst) = if i % 2 == 0 { (0, 17) } else { (33, 17) };
            let class = match i % 3 {
                0 => MsgClass::Ordered,
                1 => MsgClass::Control,
                _ => MsgClass::Unordered,
            };
            net.deliver(inject, src, dst, 4096, class);
        }
        let snap = memprof::since(&m);
        let stat = |tag: &str| {
            snap.get(tag)
                .map(|t| (t.peak_bytes, t.allocs))
                .unwrap_or((0, 0))
        };
        (stat("torus5d.fxmap"), stat("torus5d.links"))
    };
    let (fx_small, links_small) = run(256);
    let (fx_huge, links_huge) = run(1 << 20);
    assert_eq!(
        fx_small, fx_huge,
        "per-rank sender state must scale with senders, not with p"
    );
    assert!(fx_small.1 > 0, "fxmap traffic state was actually exercised");
    assert!(
        links_huge.0 > links_small.0,
        "link arrays are per-node hardware and do grow with the machine"
    );
}
