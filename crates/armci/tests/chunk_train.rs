//! Strided transfers as chunk trains: the simulated outcome is pinned.
//!
//! Seeded strided gets and puts (1–3 stride levels, 1–64 rows, 32–4096 B
//! chunks, dense levels on one side only, so pairs re-split; under 128 B a
//! transfer takes the packed path) from four ranks of one node to the
//! sixteen of another, link contention on, in both progress modes. The digests of every operation's completion time and of
//! every rank's final memory, the message count and the end time were
//! recorded at the commit before strided transfers became chunk trains
//! (one operation, completion and snapshot per chunk, a watcher task per
//! transfer); a host-side reorganisation must reproduce them exactly.
//!
//! Four hand-made train cases (`Case`) pin the same four things, recorded
//! before trains posted themselves and landed once: a same-pair delivery
//! between two posts, landings out of chunk order, a zero `o_send`, and a
//! put landing on the target mid-train.

use armci::{Armci, ArmciConfig, ProgressMode, Strided};
use desim::{Sim, SimDuration, SimRng};
use pami_sim::{Machine, MachineConfig};
use std::cell::RefCell;
use std::rc::Rc;

const P: usize = 32;
const SEG: usize = 256 * 1024;
const OPS: usize = 24;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Local and remote descriptor of one transfer: same counts and chunk,
/// independent gaps (zero = dense, coalescing that level on that side).
fn arb_pair(rng: &mut SimRng, local: usize, remote: usize) -> (Strided, Strided) {
    let levels = 1 + rng.next_below(3) as usize;
    let mut counts = Vec::new();
    let mut rows = 1;
    for _ in 0..levels {
        let c = 1 + rng.next_below((64 / rows) as u64) as usize;
        counts.push(c);
        rows *= c;
    }
    // 32 B – 4 KiB, every octave equally likely.
    let octave = 32usize << rng.next_below(8);
    let chunk = (octave + 8 * rng.next_below(octave as u64 / 8) as usize)
        .min(4096)
        .min((128 * 1024 / rows).max(32));
    let mut side = |offset: usize| {
        let mut strides = Vec::new();
        let mut extent = chunk;
        for &c in &counts {
            let gap = if rng.next_below(4) == 0 {
                0
            } else {
                8 * (1 + rng.next_below(8) as usize)
            };
            strides.push(extent + gap);
            extent = (extent + gap) * c;
        }
        Strided {
            offset,
            chunk,
            counts: counts.clone(),
            strides,
        }
    };
    (side(local), side(remote))
}

/// `(completion-time digest, memory digest, net messages, end time in ps)`.
fn run(mode: ProgressMode, seed: u64) -> (u64, u64, u64, u64) {
    let sim = Sim::new();
    // D drives its one context from blocking calls; AT gets the second.
    let contexts = if mode == ProgressMode::Default { 1 } else { 2 };
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(P)
            .procs_per_node(16)
            .contexts(contexts)
            .contention(true),
    );
    // Chunks under 128 B take the packed path, which needs the target's
    // progress engine: there the two modes part ways.
    let acfg = ArmciConfig::default().progress(mode).pack_threshold(128);
    let armci = Armci::new(machine.clone(), acfg);
    let times: Rc<RefCell<Vec<(usize, usize, u64)>>> = Rc::default();
    let root = SimRng::new(seed);
    for r in 0..P {
        let rk = armci.rank(r);
        let (sim, times) = (sim.clone(), Rc::clone(&times));
        let mut rng = root.derive(r as u64);
        sim.clone().spawn(async move {
            let segs = rk.malloc_collective(SEG).await;
            let fill: Vec<u8> = (0..SEG).map(|_| rng.next_below(256) as u8).collect();
            rk.pami().write_bytes(segs[r], &fill);
            rk.barrier().await;
            if r < 4 {
                let local = rk.malloc(SEG).await;
                rk.pami().write_bytes(local, &fill);
                for i in 0..OPS {
                    let target = 16 + rng.next_below(16) as usize;
                    let (here, there) = arb_pair(&mut rng, local, segs[target]);
                    if rng.next_below(2) == 0 {
                        rk.get_strided(target, &here, &there).await;
                    } else {
                        rk.put_strided(target, &here, &there).await;
                    }
                    times.borrow_mut().push((r, i, sim.now().as_ps()));
                }
                rk.fence_all().await;
            }
            rk.barrier().await;
        });
    }
    let end = sim.run();
    let mut times = times.take();
    times.sort_unstable();
    assert_eq!(times.len(), 4 * OPS);
    let t = times.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(r, i, ps)| {
        fnv(h, &[r as u64, i as u64, ps].map(u64::to_le_bytes).concat())
    });
    let mem = (0..P).fold(0xcbf2_9ce4_8422_2325, |h, r| {
        // Everything the rank allocated: segment, notify cells, local buffer.
        fnv(h, &machine.rank(r).read_bytes(0, 3 * SEG))
    });
    let msgs = machine.net_messages();
    armci.finalize();
    sim.shutdown();
    (t, mem, msgs, end.as_ps())
}

#[test]
fn strided_outcomes_match_the_per_chunk_operation_build() {
    let pinned = [
        (ProgressMode::Default, 1, PIN_D1),
        (ProgressMode::AsyncThread, 1, PIN_AT1),
        (ProgressMode::Default, 2, PIN_D2),
        (ProgressMode::AsyncThread, 2, PIN_AT2),
    ];
    for (mode, seed, want) in pinned {
        assert_eq!(run(mode, seed), want, "{mode:?}, seed {seed}");
    }
}

#[test]
fn zero_count_transfers_complete_without_a_message() {
    let sim = Sim::new();
    let machine = Machine::new(sim.clone(), MachineConfig::new(2).procs_per_node(1));
    let armci = Armci::new(machine.clone(), ArmciConfig::default());
    let rk = armci.rank(0);
    let done = Rc::new(RefCell::new(false));
    let done2 = Rc::clone(&done);
    let m = machine.clone();
    sim.spawn(async move {
        let local = rk.malloc(4096).await;
        rk.pami().write_bytes(local, &[7; 4096]);
        let before = (m.net_messages(), m.rank(1).read_bytes(0, 4096));
        // No rows, and a zero at an outer level behind three inner rows.
        let none = Strided::patch2d(local, 16, 0, 64);
        let outer = Strided {
            offset: 0,
            chunk: 8,
            counts: vec![3, 0],
            strides: vec![16, 64],
        };
        rk.get_strided(1, &none, &outer).await;
        rk.put_strided(1, &none, &outer).await;
        rk.acc_strided(1, &none, &outer, 2.0).await;
        // The vector form of nothing: no triples at all.
        rk.getv(1, &[]).await;
        rk.putv(1, &[]).await;
        let h = rk.nbgetv(1, &[]).await;
        assert!(h.test(), "an empty vector get is complete when issued");
        rk.wait(&h).await;
        rk.fence_all().await;
        assert_eq!((m.net_messages(), m.rank(1).read_bytes(0, 4096)), before);
        *done2.borrow_mut() = true;
    });
    sim.run();
    assert!(*done.borrow(), "an empty transfer never completed");
    armci.finalize();
    sim.shutdown();
}

/// The train cases below: the initiator 0 on one node, the target 16 and a
/// third party 17 on the other.
#[derive(Clone, Copy, Debug)]
enum Case {
    /// While rank 0 posts a 24-chunk get from 16, rank 16 fetch-and-adds a
    /// counter on 0: in AT mode, 0's progress thread replies to 16 between
    /// two of the train's posts (16's completion is pinned before the
    /// instant 0's `nbgetv` returns), a same-pair delivery the posts must
    /// not be reordered around.
    Interleaved,
    /// A `getv` and then a `putv` whose chunks straddle `align_threshold`
    /// (256 B), so later chunks can land before earlier ones.
    MixedLengths,
    /// A strided get and put with `o_send` = 0: every chunk posts at once.
    ZeroOsend,
    /// Rank 17 overwrites the region a 16-chunk get reads; its put lands
    /// between two of the train's request arrivals.
    PutMidTrain,
}

/// `((rank, completion instant in ps) in the order they happened, memory
/// digest, net messages, end time in ps)`.
type Outcome = (Vec<(usize, u64)>, u64, u64, u64);

const ACTIVE: [usize; 3] = [0, 16, 17];

fn run_case(case: Case, mode: ProgressMode, contention: bool) -> Outcome {
    let sim = Sim::new();
    let contexts = if mode == ProgressMode::Default { 1 } else { 2 };
    let mut params = torus5d::BgqParams::default();
    if let Case::ZeroOsend = case {
        params.o_send = SimDuration::ZERO;
    }
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(P)
            .procs_per_node(16)
            .contexts(contexts)
            .contention(contention)
            .params(params),
    );
    let armci = Armci::new(machine.clone(), ArmciConfig::default().progress(mode));
    let times: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    const SEG_BYTES: usize = 64 * 1024;
    for r in ACTIVE {
        let rk = armci.rank(r);
        let (sim, times) = (sim.clone(), Rc::clone(&times));
        let mut rng = SimRng::new(r as u64 + 1);
        sim.clone().spawn(async move {
            let segs = rk.malloc_collective(SEG_BYTES).await;
            let fill: Vec<u8> = (0..SEG_BYTES).map(|_| rng.next_below(256) as u8).collect();
            rk.pami().write_bytes(segs[r], &fill);
            let local = rk.malloc(SEG_BYTES).await;
            // Warm the endpoints and region caches the case uses.
            match r {
                0 => rk.get(16, local, segs[16], 8).await,
                16 => drop(rk.rmw_fetch_add(0, segs[0], 0).await),
                _ => rk.put(16, local, segs[16] + 8, 8).await,
            }
            rk.barrier().await;
            let start = sim.now();
            let done = |times: &Rc<RefCell<Vec<(usize, u64)>>>| {
                times.borrow_mut().push((r, sim.now().as_ps()))
            };
            match (case, r) {
                (Case::Interleaved, 0) => {
                    let parts: Vec<_> = (0..24)
                        .map(|i| (local + 512 * i, segs[16] + 1024 * i, 512))
                        .collect();
                    let h = rk.nbgetv(16, &parts).await;
                    done(&times);
                    rk.wait(&h).await;
                    done(&times);
                }
                (Case::Interleaved, 16) => {
                    sim.sleep_until(start + SimDuration::from_us(4)).await;
                    rk.rmw_fetch_add(0, segs[0] + 64, 1).await;
                    done(&times);
                }
                (Case::MixedLengths, 0) => {
                    // Behind the 4 KiB chunk's reply, the 100 B one lands last.
                    let lens = [64, 512, 96, 1024, 128, 300, 48, 4096, 100, 256];
                    let mut parts = Vec::new();
                    let (mut l, mut rem) = (local, segs[16]);
                    for len in lens {
                        parts.push((l, rem, len));
                        (l, rem) = (l + len + 8, rem + 2 * len);
                    }
                    rk.getv(16, &parts).await;
                    done(&times);
                    let back: Vec<_> = parts.iter().map(|&(l, r, n)| (l, r + 8192, n)).collect();
                    rk.putv(16, &back).await;
                    done(&times);
                }
                (Case::ZeroOsend, 0) => {
                    let here = Strided::patch2d(local, 384, 8, 512);
                    let there = Strided::patch2d(segs[16], 384, 8, 1024);
                    rk.get_strided(16, &here, &there).await;
                    done(&times);
                    let there = Strided::patch2d(segs[16] + 16384, 384, 8, 640);
                    rk.put_strided(16, &here, &there).await;
                    done(&times);
                }
                (Case::PutMidTrain, 0) => {
                    let parts: Vec<_> = (0..16)
                        .map(|i| (local + 256 * i, segs[16] + 256 * i, 256))
                        .collect();
                    rk.getv(16, &parts).await;
                    done(&times);
                    // Each chunk holds what its request found: the first
                    // ones predate the put, the rest see it.
                    let got = rk.pami().read_bytes(local, 4096);
                    let fresh: Vec<bool> = got.chunks(256).map(|c| c == [0xee; 256]).collect();
                    let cut = fresh
                        .iter()
                        .position(|&f| f)
                        .expect("the put landed mid-train");
                    assert!(cut > 0 && fresh[cut..].iter().all(|&f| f), "{fresh:?}");
                }
                (Case::PutMidTrain, 17) => {
                    rk.pami().write_bytes(local, &[0xee; 4096]);
                    sim.sleep_until(start + SimDuration::from_ns(4500)).await;
                    rk.put(16, local, segs[16], 4096).await;
                    done(&times);
                }
                _ => {}
            }
            rk.fence_all().await;
            rk.barrier().await;
        });
    }
    // The ranks that take no part still enter the collectives.
    for r in (0..P).filter(|r| !ACTIVE.contains(r)) {
        let rk = armci.rank(r);
        sim.spawn(async move {
            rk.malloc_collective(SEG_BYTES).await;
            rk.barrier().await;
            rk.barrier().await;
        });
    }
    let end = sim.run();
    let mem = ACTIVE.iter().fold(0xcbf2_9ce4_8422_2325, |h, &r| {
        fnv(h, &machine.rank(r).read_bytes(0, 3 * SEG_BYTES))
    });
    let msgs = machine.net_messages();
    let times = times.take();
    armci.finalize();
    sim.shutdown();
    (times, mem, msgs, end.as_ps())
}

#[test]
fn train_cases_match_their_recorded_outcomes() {
    for (case, pins) in [
        (Case::Interleaved, PIN_INTERLEAVED),
        (Case::MixedLengths, PIN_MIXED),
        (Case::ZeroOsend, PIN_ZERO_OSEND),
        (Case::PutMidTrain, PIN_PUT_MID_TRAIN),
    ] {
        let configs = [ProgressMode::Default, ProgressMode::AsyncThread]
            .into_iter()
            .flat_map(|mode| [(mode, false), (mode, true)]);
        for ((mode, contention), want) in configs.zip(pins) {
            let (times, mem, msgs, end) = run_case(case, mode, contention);
            assert_eq!(
                (&times[..], mem, msgs, end),
                want,
                "{case:?}, {mode:?}, contention {contention}"
            );
        }
    }
}

/// `(instants, memory digest, messages, end)` per case, for D and then AT,
/// each with contention off and then on; recorded at the commit before
/// trains posted themselves.
type Pin = (&'static [(usize, u64)], u64, u64, u64);
const PIN_INTERLEAVED: [Pin; 4] = [
    (
        &[(0, 104684504), (16, 105954008), (0, 107102760)],
        133252463013873765,
        55,
        108852760,
    ),
    (
        &[(0, 104684504), (16, 106039008), (0, 107102760)],
        133252463013873765,
        55,
        108852760,
    ),
    (
        &[(16, 99478016), (0, 104684504), (0, 107102760)],
        133252463013873765,
        55,
        108852760,
    ),
    (
        &[(16, 99539008), (0, 104684504), (0, 107102760)],
        133252463013873765,
        55,
        108852760,
    ),
];
const PIN_MIXED: [Pin; 4] = [
    (
        &[(0, 101426852), (0, 109979200)],
        17831132554587638094,
        35,
        111729200,
    ),
    (
        &[(0, 101461852), (0, 110049200)],
        17831132554587638094,
        35,
        111799200,
    ),
    (
        &[(0, 101426852), (0, 109979200)],
        17831132554587638094,
        35,
        111729200,
    ),
    (
        &[(0, 101461852), (0, 110049200)],
        17831132554587638094,
        35,
        111799200,
    ),
];
const PIN_ZERO_OSEND: [Pin; 4] = [
    (
        &[(0, 96044040), (0, 99713576)],
        3870198275907058312,
        29,
        101463576,
    ),
    (
        &[(0, 96289040), (0, 100203576)],
        3870198275907058312,
        29,
        101953576,
    ),
    (
        &[(0, 96044040), (0, 99713576)],
        3870198275907058312,
        29,
        101463576,
    ),
    (
        &[(0, 96289040), (0, 100203576)],
        3870198275907058312,
        29,
        101953576,
    ),
];
const PIN_PUT_MID_TRAIN: [Pin; 4] = [
    (
        &[(17, 99304104), (0, 102958632)],
        2404102997063388437,
        38,
        104708632,
    ),
    (
        &[(17, 99304104), (0, 102958632)],
        2404102997063388437,
        38,
        104708632,
    ),
    (
        &[(17, 99304104), (0, 102958632)],
        2404102997063388437,
        38,
        104708632,
    ),
    (
        &[(17, 99304104), (0, 102958632)],
        2404102997063388437,
        38,
        104708632,
    ),
];

const PIN_D1: (u64, u64, u64, u64) = (889678178306109358, 12518809790512685128, 3775, 1939918239);
const PIN_AT1: (u64, u64, u64, u64) = (8569423904363568536, 10666706766254096254, 3775, 1866995279);
const PIN_D2: (u64, u64, u64, u64) = (11016532004628727734, 8095552533613091646, 3829, 1560849412);
const PIN_AT2: (u64, u64, u64, u64) = (9435418563004809601, 8095552533613091646, 3829, 1561249412);
