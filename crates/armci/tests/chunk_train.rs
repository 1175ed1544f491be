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

use armci::{Armci, ArmciConfig, ProgressMode, Strided};
use desim::{Sim, SimRng};
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

const PIN_D1: (u64, u64, u64, u64) = (889678178306109358, 12518809790512685128, 3775, 1939918239);
const PIN_AT1: (u64, u64, u64, u64) = (8569423904363568536, 10666706766254096254, 3775, 1866995279);
const PIN_D2: (u64, u64, u64, u64) = (11016532004628727734, 8095552533613091646, 3829, 1560849412);
const PIN_AT2: (u64, u64, u64, u64) = (9435418563004809601, 8095552533613091646, 3829, 1561249412);
