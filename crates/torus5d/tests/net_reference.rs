//! Differential test: the dense, arena-backed `NetState` must produce
//! *bit-identical* arrival times and link-utilization views to the original
//! HashMap-based implementation, reproduced here as a reference model.
//!
//! The reference deliberately mirrors the old code's arithmetic (max/add
//! ordering, `unwrap_or(ZERO)` defaults, `entry().or_default()` inserts) so
//! any divergence in the rework shows up as a failed equality, not a tolerance
//! breach.

use std::collections::{BTreeMap, HashMap};

use desim::{FaultPlan, SimDuration, SimRng, SimTime};
use torus5d::routing::route;
use torus5d::{
    BgqParams, Delivery, FaultCounters, Link, MsgClass, NetState, RouteTable, Topology, TorusShape,
};

/// The pre-rework `NetState` delivery logic, verbatim modulo flight
/// recording (both sides run with the recorder disabled).
struct RefNet {
    topo: Topology,
    params: BgqParams,
    contention: bool,
    track_links: bool,
    pair_last: HashMap<(u32, u32), SimTime>,
    link_busy: HashMap<Link, SimTime>,
    tx_busy: HashMap<u32, SimTime>,
    link_util: HashMap<Link, SimDuration>,
}

impl RefNet {
    #[allow(clippy::disallowed_methods)] // the reference network shares no code, maps included
    fn new(topo: Topology, params: BgqParams, contention: bool, track_links: bool) -> RefNet {
        RefNet {
            topo,
            params,
            contention,
            track_links,
            pair_last: HashMap::new(),
            link_busy: HashMap::new(),
            tx_busy: HashMap::new(),
            link_util: HashMap::new(),
        }
    }

    fn deliver(
        &mut self,
        inject: SimTime,
        src: usize,
        dst: usize,
        payload: usize,
        class: MsgClass,
    ) -> (SimTime, bool) {
        let same_node = self.topo.same_node(src, dst);
        let wire = if same_node {
            self.params.intranode_time(payload)
        } else {
            self.params.wire_time(payload)
        };
        let start = if class == MsgClass::Ordered {
            let busy = self
                .tx_busy
                .get(&(src as u32))
                .copied()
                .unwrap_or(SimTime::ZERO);
            let start = inject.max(busy);
            self.tx_busy.insert(src as u32, start + wire);
            start
        } else {
            inject
        };
        let head = if same_node {
            start + self.params.intranode_latency
        } else if self.contention {
            self.contended_head(start, src, dst, payload)
        } else {
            if self.track_links {
                self.account_links(src, dst, payload);
            }
            start + self.params.oneway_header(self.topo.hops(src, dst))
        };
        let mut arrival = head + wire;
        let mut clamped = false;
        if class != MsgClass::Unordered {
            let key = (src as u32, dst as u32);
            let last = self.pair_last.get(&key).copied().unwrap_or(SimTime::ZERO);
            clamped = last > arrival;
            arrival = arrival.max(last);
            self.pair_last.insert(key, arrival);
        }
        (arrival, clamped)
    }

    fn contended_head(
        &mut self,
        inject: SimTime,
        src: usize,
        dst: usize,
        payload: usize,
    ) -> SimTime {
        let links = route(
            &self.topo.shape,
            self.topo.coord_of(src),
            self.topo.coord_of(dst),
        );
        let wire = self.params.wire_time(payload);
        let hop = self.params.hop_latency;
        let mut t = inject + self.params.base_latency;
        for link in links {
            let busy = self.link_busy.get(&link).copied().unwrap_or(SimTime::ZERO);
            let granted = t.max(busy);
            t = granted + hop;
            self.link_busy.insert(link, t + wire);
            *self.link_util.entry(link).or_default() += hop + wire;
        }
        t
    }

    fn account_links(&mut self, src: usize, dst: usize, payload: usize) {
        let links = route(
            &self.topo.shape,
            self.topo.coord_of(src),
            self.topo.coord_of(dst),
        );
        let add = self.params.hop_latency + self.params.wire_time(payload);
        for link in links {
            *self.link_util.entry(link).or_default() += add;
        }
    }

    fn link_utilization(&self) -> Vec<(Link, SimDuration)> {
        let mut v: Vec<(Link, SimDuration)> =
            self.link_util.iter().map(|(l, d)| (*l, *d)).collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }
}

/// A partition from an explicit node count, slot count and mapping string.
fn partition(nodes: usize, ppn: usize, mapping: &str) -> Topology {
    Topology {
        shape: TorusShape::for_nodes(nodes),
        procs_per_node: ppn,
        mapping: mapping.parse().unwrap(),
    }
}

/// One message of a schedule: inject time, source, destination, payload
/// bytes, class.
type Sched = (SimTime, usize, usize, usize, MsgClass);

/// A uniform source and a different destination below `cap`.
fn next_pair(rng: &mut SimRng, cap: usize) -> (usize, usize) {
    let src = rng.next_below(cap as u64) as usize;
    let dst = rng.next_below(cap as u64) as usize;
    (src, if dst == src { (dst + 1) % cap } else { dst })
}

/// One seeded message of the randomized schedules below.
fn next_msg(rng: &mut SimRng, inject: &mut SimTime, cap: usize) -> (usize, usize, usize, MsgClass) {
    let (src, dst) = next_pair(rng, cap);
    let payload = 1usize << rng.next_below(16); // 1 B .. 32 KB
    let class = match rng.next_below(4) {
        0 => MsgClass::Unordered,
        1 => MsgClass::Control,
        _ => MsgClass::Ordered,
    };
    *inject += SimDuration::from_ns(rng.next_below(500));
    (src, dst, payload, class)
}

/// `msgs` messages of [`next_msg`].
fn random_schedule(seed: u64, cap: usize, msgs: usize) -> impl Iterator<Item = Sched> {
    let mut rng = SimRng::new(seed);
    let mut inject = SimTime::ZERO;
    (0..msgs).map(move |_| {
        let (src, dst, payload, class) = next_msg(&mut rng, &mut inject, cap);
        (inject, src, dst, payload, class)
    })
}

/// The `net_storm` schedule of `benchmark/src/workloads.rs`, draw for draw:
/// uniform pairs, classes 1/2/5 of 8 (`Unordered`/`Control`/`Ordered`),
/// 0–200 ns stagger, 16 B .. 32 KB.
fn storm_schedule(seed: u64, cap: usize, msgs: usize) -> impl Iterator<Item = Sched> {
    let mut rng = SimRng::new(seed);
    let mut inject = SimTime::ZERO;
    (0..msgs).map(move |i| {
        let (src, dst) = next_pair(&mut rng, cap);
        let class = match i % 8 {
            0 => MsgClass::Unordered,
            1 | 2 => MsgClass::Control,
            _ => MsgClass::Ordered,
        };
        inject += SimDuration::from_ns(rng.next_below(200));
        (inject, src, dst, 1 << (4 + rng.next_below(12)), class)
    })
}

/// What [`compare`] saw besides equality.
struct Seen {
    /// Times the reference's pair-order clamp bound (moved an arrival).
    clamps: u64,
    /// Latest arrival.
    last: SimTime,
}

/// Run a schedule through both implementations and require exact agreement
/// on every arrival time and the final utilization view. With `empty_plan`
/// the new side runs its fault-aware core under an installed but empty
/// [`FaultPlan`], which must change nothing.
///
/// The reference keeps a pair front for *every* message, `NetState` only
/// where links do not already order the pair, so equality here is the proof
/// obligation of that shortcut; on top of it the reference's clamp must never
/// bind on a contended inter-node message, whatever `NetState` does.
fn compare(
    topo: Topology,
    contention: bool,
    track: bool,
    empty_plan: bool,
    schedule: impl Iterator<Item = Sched>,
) -> Seen {
    let what = format!(
        "{} on {} ppn {} contention={contention} track={track} empty_plan={empty_plan}",
        topo.mapping, topo.shape, topo.procs_per_node
    );
    let mut new = NetState::new(topo.clone(), BgqParams::default(), contention);
    new.set_link_tracking(track);
    if empty_plan {
        new.install_faults(FaultPlan::new(0xE4_97));
    }
    let mut old = RefNet::new(topo.clone(), BgqParams::default(), contention, track);
    let mut seen = Seen {
        clamps: 0,
        last: SimTime::ZERO,
    };
    for (i, (inject, src, dst, payload, class)) in schedule.enumerate() {
        let a_new = new.deliver(inject, src, dst, payload, class);
        let (a_old, clamped) = old.deliver(inject, src, dst, payload, class);
        assert_eq!(
            a_new, a_old,
            "msg {i}: {src}->{dst} {payload}B {class:?} at {inject} ({what})"
        );
        assert!(
            !(clamped && contention && !topo.same_node(src, dst)),
            "msg {i}: {src}->{dst} clamped behind its pair on reserved links ({what})"
        );
        seen.clamps += u64::from(clamped);
        seen.last = seen.last.max(a_old);
    }
    assert_eq!(
        new.link_utilization(),
        old.link_utilization(),
        "link utilization view diverged ({what})"
    );
    assert_eq!(new.fault_counters(seen.last), None, "{what}");
    seen
}

/// [`compare`] over a [`random_schedule`].
fn differential(
    topo: Topology,
    contention: bool,
    track: bool,
    empty_plan: bool,
    seed: u64,
    msgs: usize,
) {
    let schedule = random_schedule(seed, topo.capacity(), msgs);
    compare(topo, contention, track, empty_plan, schedule);
}

#[test]
fn contended_delivery_matches_reference() {
    differential(
        Topology::for_procs(256, 16),
        true,
        false,
        false,
        0xD1FF_0001,
        20_000,
    );
}

#[test]
fn analytic_delivery_matches_reference() {
    differential(
        Topology::for_procs(256, 16),
        false,
        false,
        false,
        0xD1FF_0002,
        20_000,
    );
}

#[test]
fn tracked_analytic_delivery_matches_reference() {
    differential(
        Topology::for_procs(128, 16),
        false,
        true,
        false,
        0xD1FF_0003,
        10_000,
    );
}

#[test]
fn single_rank_per_node_matches_reference() {
    differential(
        Topology::for_procs(64, 1),
        true,
        false,
        false,
        0xD1FF_0004,
        10_000,
    );
}

#[test]
fn intranode_heavy_schedule_matches_reference() {
    // Few nodes, many ranks per node: most traffic is intranode, stressing
    // the same-node and tx-FIFO paths.
    differential(
        Topology::for_procs(32, 16),
        true,
        false,
        false,
        0xD1FF_0005,
        10_000,
    );
}

#[test]
fn other_mappings_and_shapes_match_reference() {
    // T slowest, a scramble no two of whose axes fold, and a greedy-factored
    // 96-node shape (4x3x2x2x2: an odd dimension, so no wrap ties there).
    let mut seed = 0xD1FF_0100;
    for (nodes, ppn, mapping) in [
        (16, 16, "TABCDE"),
        (32, 4, "DTBEAC"),
        (96, 3, "ABCDET"),
        (96, 2, "DTBEAC"),
    ] {
        for (contention, track) in [(true, false), (false, false), (false, true)] {
            seed += 1;
            differential(
                partition(nodes, ppn, mapping),
                contention,
                track,
                false,
                seed,
                4_000,
            );
        }
    }
}

#[test]
fn empty_fault_plan_matches_reference() {
    // The fault-aware instance of the delivery core, given nothing to do,
    // must be the reference network too: contended and analytic, tracked
    // and not, default and scrambled mapping.
    let mut seed = 0xD1FF_0200;
    for (nodes, ppn, mapping) in [(16, 16, "ABCDET"), (96, 2, "DTBEAC")] {
        for (contention, track) in [(true, false), (false, false), (false, true)] {
            seed += 1;
            differential(
                partition(nodes, ppn, mapping),
                contention,
                track,
                true,
                seed,
                4_000,
            );
        }
    }
}

/// The benchmark's partition: p = 512 at 16 ranks per node.
fn storm_partition(mapping: &str) -> Topology {
    partition(32, 16, mapping)
}

#[test]
fn storm_schedule_matches_reference_without_a_pair_front() {
    // Contended: `NetState` keeps no front for the inter-node pairs, the
    // reference does, and `compare` holds both to the same arrivals.
    for mapping in ["ABCDET", "TABCDE"] {
        for seed in [0x5702_0001, 0x5702_0002, 0x5702_0003] {
            let schedule = storm_schedule(seed, 512, 200_000);
            compare(storm_partition(mapping), true, false, false, schedule);
        }
    }
    // Every pair inter-node, a dozen messages per pair.
    let schedule = storm_schedule(0x5702_0004, 128, 200_000);
    compare(Topology::for_procs(128, 1), true, false, false, schedule);
    // An installed-but-empty plan keeps the front; it must not matter.
    let schedule = storm_schedule(0x5702_0005, 512, 50_000);
    compare(storm_partition("ABCDET"), true, false, true, schedule);
}

/// Same-pair runs built to make a later message want to arrive first: a
/// 16 B message behind a 32 KB one, `Control` (no injection FIFO) behind
/// `Ordered`, inject times running backwards, an `Unordered` in between.
fn overtaking_schedule(src: usize, dst: usize) -> impl Iterator<Item = Sched> {
    use MsgClass::{Control, Ordered, Unordered};
    let at = |ns| SimTime::ZERO + SimDuration::from_ns(ns);
    [
        (at(1_000), 32 << 10, Ordered),
        (at(1_001), 16, Ordered),
        (at(50_000), 32 << 10, Ordered),
        (at(50_000), 16, Control),
        (at(90_000), 32 << 10, Control),
        (at(80_000), 16, Control),
        (at(70_000), 16, Ordered),
        (at(120_000), 32 << 10, Ordered),
        (at(120_001), 16, Unordered),
        (at(120_002), 16, Control),
    ]
    .into_iter()
    .map(move |(inject, payload, class)| (inject, src, dst, payload, class))
}

#[test]
fn pair_front_binds_only_where_no_link_orders_the_pair() {
    for mapping in ["ABCDET", "TABCDE"] {
        let topo = storm_partition(mapping);
        // Rank 0's nearest neighbour shares its node, its farthest does not.
        let near = (1..512).find(|&r| topo.same_node(0, r)).unwrap();
        let far = (1..512).max_by_key(|&r| topo.hops(0, r)).unwrap();
        assert!(topo.hops(0, far) > 1);
        for empty_plan in [false, true] {
            let run = |contention, dst| {
                let schedule = overtaking_schedule(0, dst);
                compare(topo.clone(), contention, false, empty_plan, schedule).clamps
            };
            // `compare` itself rejects a clamp on reserved links.
            assert_eq!(run(true, far), 0, "links order the pair ({mapping})");
            assert!(run(false, far) > 0, "analytic needs the front ({mapping})");
            assert!(run(true, near) > 0, "intranode needs the front ({mapping})");
        }
    }
}

/// The benchmark's `net_storm` run at full size — 12 M messages, every
/// arrival compared — ending on the `sim_time_ps` that
/// `benchmark/expected.json` pins for seed 1. Release build only:
/// `cargo test --release -p torus5d --test net_reference -- --ignored`.
#[test]
#[ignore = "12 M messages through both networks; run in release"]
fn full_size_storm_matches_reference() {
    let schedule = storm_schedule(1, 512, 12_000_000);
    let seen = compare(Topology::for_procs(512, 16), true, false, false, schedule);
    assert_eq!(seen.last.as_ps(), 1_194_105_622_200);
}

/// One message of a floored schedule: the delivery floor raised before it,
/// then the message.
type Floored = (SimTime, Sched);

/// Rounds of deliveries under an advancing floor, injects running backwards
/// but never below it. Each round raises the floor to one picosecond before
/// a sender's injection-FIFO front — mirrored here from the schedule alone
/// (`max(inject, front) + wire` per `Ordered` message, dropped or not) — so
/// that front sits at floor + 1 ps; sends a burst of other senders' messages
/// injected anywhere in the 2 µs after the floor (new keys, so the front
/// tables rehash and retire); then one `Ordered` message from that sender
/// injected exactly at the floor, which the kept front must still delay.
fn floored_schedule(topo: &Topology, seed: u64, rounds: usize) -> Vec<Floored> {
    let params = BgqParams::default();
    let cap = topo.capacity();
    let mut rng = SimRng::new(seed);
    let mut tx: BTreeMap<usize, SimTime> = BTreeMap::new();
    let mut floor = SimTime::ZERO;
    let mut out = Vec::new();
    for _ in 0..rounds {
        // A sender whose front lies past the floor + 1 ps, in rank order.
        let ahead: Vec<usize> = tx
            .iter()
            .filter(|&(_, &f)| f > floor + SimDuration::from_ps(1))
            .map(|(&r, _)| r)
            .collect();
        let held = if ahead.is_empty() {
            floor += SimDuration::from_ns(rng.next_below(400));
            None
        } else {
            let s = ahead[rng.next_below(ahead.len() as u64) as usize];
            floor = SimTime(tx[&s].0 - 1);
            Some(s)
        };
        let mut round = Vec::new();
        for _ in 0..rng.next_below(48) {
            // `next_msg`'s stagger is dropped: the inject is drawn below.
            let (mut src, dst, payload, class) = next_msg(&mut rng, &mut floor.clone(), cap);
            if Some(src) == held {
                src = (src + 1) % cap;
            }
            let dst = if dst == src { (dst + 1) % cap } else { dst };
            let inject = floor + SimDuration::from_ps(rng.next_below(2_000_000));
            round.push((inject, src, dst, payload, class));
        }
        if let Some(src) = held {
            let (_, dst) = next_pair(&mut rng, cap);
            let dst = if dst == src { (dst + 1) % cap } else { dst };
            round.push((floor, src, dst, 1 << rng.next_below(16), MsgClass::Ordered));
        }
        // Mirror the injection FIFO of every `Ordered` message, dropped or not.
        for (inject, src, dst, payload, class) in round {
            if class == MsgClass::Ordered {
                let wire = if topo.same_node(src, dst) {
                    params.intranode_time(payload)
                } else {
                    params.wire_time(payload)
                };
                let front = tx.entry(src).or_insert(SimTime::ZERO);
                *front = inject.max(*front) + wire;
            }
            out.push((floor, (inject, src, dst, payload, class)));
        }
    }
    out
}

/// [`floored_schedule`] through `NetState` with the floor raised before
/// every message and through the reference, which keeps every front:
/// every arrival must agree.
fn compare_floored(topo: Topology, contention: bool, empty_plan: bool, seed: u64, rounds: usize) {
    let what = format!(
        "floored {} ppn {} contention={contention} empty_plan={empty_plan}",
        topo.shape, topo.procs_per_node
    );
    let schedule = floored_schedule(&topo, seed, rounds);
    let mut new = NetState::new(topo.clone(), BgqParams::default(), contention);
    if empty_plan {
        new.install_faults(FaultPlan::new(0xE4_97));
    }
    let mut old = RefNet::new(topo, BgqParams::default(), contention, false);
    for (i, (floor, (inject, src, dst, payload, class))) in schedule.into_iter().enumerate() {
        new.raise_floor(floor);
        let a_new = new.deliver(inject, src, dst, payload, class);
        let (a_old, _) = old.deliver(inject, src, dst, payload, class);
        assert_eq!(
            a_new, a_old,
            "msg {i}: {src}->{dst} {payload}B {class:?} at {inject}, floor {floor} ({what})"
        );
    }
}

#[test]
fn analytic_fronts_retire_at_the_floor() {
    compare_floored(
        Topology::for_procs(256, 16),
        false,
        false,
        0xF100_0001,
        1_500,
    );
    compare_floored(partition(96, 2, "DTBEAC"), false, false, 0xF100_0002, 1_000);
}

#[test]
fn intranode_fronts_retire_at_the_floor() {
    // Contended, but most pairs share a node: the fronts are the ordering.
    compare_floored(Topology::for_procs(32, 16), true, false, 0xF100_0003, 1_500);
    compare_floored(
        Topology::for_procs(256, 16),
        true,
        false,
        0xF100_0004,
        1_000,
    );
}

#[test]
fn empty_plan_fronts_retire_at_the_floor() {
    for (contention, seed) in [(true, 0xF100_0005), (false, 0xF100_0006)] {
        compare_floored(partition(16, 16, "ABCDET"), contention, true, seed, 1_000);
    }
}

/// Under a non-empty plan the reference is the same network given no
/// floor: the plan's drops, detours and corruption draws must not see the
/// retirement either.
#[test]
fn fault_plan_fronts_retire_at_the_floor() {
    let topo = Topology::for_procs(128, 4);
    let cap = topo.capacity();
    let first = route(&topo.shape, topo.coord_of(0), topo.coord_of(cap - 1))[0];
    let dead = RouteTable::new(&topo).link_id(first).0;
    let at = |us| SimTime::ZERO + SimDuration::from_us(us);
    let plan = || {
        FaultPlan::new(0xFA18)
            .route_update_delay(SimDuration::from_us(40))
            .link_down(dead, at(30), at(400))
            .corruption(0.05)
    };
    for (contention, seed) in [(true, 0xF100_0007), (false, 0xF100_0008)] {
        let schedule = floored_schedule(&topo, seed, 1_500);
        let mut nets = [(); 2].map(|()| {
            let mut n = NetState::new(topo.clone(), BgqParams::default(), contention);
            n.install_faults(plan());
            n
        });
        let (mut dropped, mut last) = (0, SimTime::ZERO);
        for (i, (floor, (inject, src, dst, payload, class))) in schedule.into_iter().enumerate() {
            nets[0].raise_floor(floor);
            let [a, b] =
                [0, 1].map(|k| nets[k].try_deliver_op(inject, src, dst, payload, class, None));
            assert_eq!(a, b, "msg {i}: {src}->{dst} at {inject}, floor {floor}");
            dropped += u64::from(matches!(a, Delivery::Dropped { .. }));
            last = last.max(inject);
        }
        assert!(dropped > 0, "the plan must drop some messages");
        assert_eq!(nets[0].fault_counters(last), nets[1].fault_counters(last));
    }
}

/// FNV-1a over a stream of u64 words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of the `(Delivered | Dropped, ps)` outcome stream and the final
/// fault counters of a seeded schedule under a **non-empty** plan: the link
/// under the heaviest pair's first hop goes down for a window (with a
/// routing-detection delay, so stale routes drop, then detour, then return)
/// and every link corrupts 5 % of the packets that cross it.
fn faulty_digest(contention: bool) -> (u64, FaultCounters) {
    let topo = Topology::for_procs(128, 4);
    let cap = topo.capacity();
    let first = route(&topo.shape, topo.coord_of(0), topo.coord_of(cap - 1))[0];
    let ids = RouteTable::new(&topo);
    let dead = ids.link_id(first).0;
    let at = |us| SimTime::ZERO + SimDuration::from_us(us);
    let mut net = NetState::new(topo, BgqParams::default(), contention);
    net.set_link_tracking(true);
    net.install_faults(
        FaultPlan::new(0xFA17)
            .route_update_delay(SimDuration::from_us(40))
            .link_down(dead, at(300), at(1_200))
            .corruption(0.05),
    );
    let mut rng = SimRng::new(0xD1FF_0300);
    let mut inject = SimTime::ZERO;
    let mut words = Vec::new();
    for i in 0..8_000 {
        let (mut src, mut dst, payload, class) = next_msg(&mut rng, &mut inject, cap);
        if i % 4 == 0 {
            // Keep the pair whose route starts on the doomed link busy.
            (src, dst) = (0, cap - 1);
        }
        match net.try_deliver_op(inject, src, dst, payload, class, None) {
            Delivery::Delivered(at) => words.extend([1, at.as_ps()]),
            Delivery::Dropped { at } => words.extend([0, at.as_ps()]),
        }
    }
    for (link, busy) in net.link_utilization() {
        words.extend([u64::from(ids.link_id(link).0), busy.as_ps()]);
    }
    let counters = net.fault_counters(inject).expect("non-empty plan");
    (fnv(words), counters)
}

/// Pinned on the commit before the delivery paths were merged into one core
/// (`deliver_contended_head` / `analytic_head_faulty` still separate): the
/// fault arm of the core is held to exactly that behaviour.
#[test]
fn faulty_delivery_matches_pinned_digest() {
    let counters = FaultCounters {
        link_down_ps: 900_000_000,
        link_down_events: 1,
        drops_dead_link: 42,
        drops_corrupt: 1178,
        drops_unroutable: 0,
    };
    assert_eq!(faulty_digest(true), (0x2e32_e79a_5e6b_91d6, counters));
    assert_eq!(faulty_digest(false), (0x116e_8425_99b4_48d0, counters));
}
