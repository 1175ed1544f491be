//! Every target-side service kind, pinned in isolation: one software-path
//! operation from rank 0 to rank 1, in the default (D: the target drives
//! progress from a blocking call) and the asynchronous-thread (AT: ρ = 2,
//! a progress thread on the target's second context) configuration, against
//! an idle target and a busy one — a third rank's four accumulates queued
//! ahead, and in D mode a target that computes 10 µs before it drives
//! progress.
//!
//! Each case records the instant the operation completed (remote completion
//! for a put, the reply for a get or rmw, the handler run for an active
//! message), a digest of the initiator's and the target's memory, the
//! kernel's event count and every `pami.*` / `am.*` counter. The constants
//! below were captured from the implementation the service rows replaced; a
//! change to a wire size, a busy period, a reply leg or an effect moves at
//! least one of them.

use std::cell::Cell;
use std::fmt::Write;
use std::rc::Rc;

use desim::{Completion, Sim, SimDuration, SimTime};
use pami_sim::{AmEnv, AmMsg, Machine, MachineConfig, PamiRank, RmwOp};

/// Bytes of memory each rank allocates and the digest covers.
const MEM: usize = 4096;
/// Where an active-message handler stores the payload it received.
const AM_SINK: usize = 3072;
const DISPATCH: u16 = 7;

#[derive(Clone, Copy, Debug)]
enum Op {
    SwPut,
    SwGet,
    AccF64,
    FetchAdd,
    Swap,
    CompareSwap,
    PackedGet,
    PackedPut,
    AccStrided,
    ControlAm,
    DataAm,
    BatchedAm,
}

const OPS: [Op; 12] = [
    Op::SwPut,
    Op::SwGet,
    Op::AccF64,
    Op::FetchAdd,
    Op::Swap,
    Op::CompareSwap,
    Op::PackedGet,
    Op::PackedPut,
    Op::AccStrided,
    Op::ControlAm,
    Op::DataAm,
    Op::BatchedAm,
];

/// `n` chunks of `len` bytes, `stride` apart, from `base`.
fn chunks(base: usize, n: usize, len: usize, stride: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (base + i * stride, len)).collect()
}

/// FNV-1a over a rank's first [`MEM`] bytes.
fn digest(r: &PamiRank) -> u64 {
    r.read_bytes(0, MEM)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Run `op` once and describe the outcome in one line.
fn run(op: Op, at: bool, busy: bool) -> String {
    let sim = Sim::new();
    let mut cfg = MachineConfig::new(3).procs_per_node(1);
    if at {
        cfg = cfg.contexts(2);
    }
    if matches!(op, Op::BatchedAm) {
        cfg = cfg.am_batching(4096, SimDuration::from_us(2));
    }
    let m = Machine::new(sim.clone(), cfg);
    let (a, b, c) = (m.rank(0), m.rank(1), m.rank(2));
    for (k, r) in [&a, &b, &c].into_iter().enumerate() {
        assert_eq!(r.alloc(MEM), 0);
        let xs: Vec<f64> = (0..MEM / 8).map(|i| (i * (k + 2)) as f64 * 0.25).collect();
        r.write_f64s(0, &xs);
    }
    if at {
        b.enable_async_progress();
    }
    // Set once the operation under test has completed.
    let done_at = Rc::new(Cell::new(None::<SimTime>));
    let stop = Completion::<()>::new();
    {
        let (done_at, stop) = (Rc::clone(&done_at), stop.clone());
        m.register_am(
            DISPATCH,
            Rc::new(move |env: AmEnv, msg: AmMsg| {
                let me = env.machine.rank(env.rank);
                let at = AM_SINK + msg.header[0] as usize * 8;
                me.write_bytes(at, &msg.payload[..64]);
                if msg.header[0] == 2 {
                    done_at.set(Some(env.machine.sim().now()));
                    stop.complete(());
                }
            }),
        );
    }
    if busy {
        let c = c.clone();
        sim.spawn(async move {
            for i in 0..4 {
                c.acc_f64(1, 0, 1024 + i * 256, 32, 0.5).await;
            }
        });
    }
    // The D-mode target drives progress from a blocking call until the
    // operation is done; a busy one computes first.
    if !at {
        let (b, s, stop) = (b.clone(), sim.clone(), stop.clone());
        sim.spawn(async move {
            if busy {
                s.sleep(SimDuration::from_us(10)).await;
            }
            b.progress_wait(&stop).await;
        });
    }
    {
        let (a, s, done_at, stop) = (a.clone(), sim.clone(), Rc::clone(&done_at), stop.clone());
        sim.spawn(async move {
            let finish = |t: SimTime| {
                done_at.set(Some(t));
                stop.complete(());
            };
            match op {
                Op::SwPut => {
                    a.sw_put(1, 0, 512, 1048).await.remote.wait().await;
                    finish(s.now());
                }
                Op::SwGet => {
                    a.sw_get(1, 512, 0, 1048).await.wait().await;
                    finish(s.now());
                }
                Op::AccF64 => {
                    a.acc_f64(1, 64, 256, 131, 1.5).await.remote.wait().await;
                    finish(s.now());
                }
                Op::FetchAdd | Op::Swap | Op::CompareSwap => {
                    let rop = match op {
                        Op::FetchAdd => RmwOp::FetchAdd(5),
                        Op::Swap => RmwOp::Swap(9),
                        _ => RmwOp::CompareSwap {
                            compare: 2.25f64.to_bits() as i64,
                            swap: 77,
                        },
                    };
                    let old = a.rmw(1, 24, rop).await.wait().await;
                    a.write_i64(8, old);
                    finish(s.now());
                }
                Op::PackedGet => {
                    let remote = chunks(0, 5, 104, 200);
                    let local = chunks(2048, 5, 104, 128);
                    a.packed_get(1, remote, local).await.wait().await;
                    finish(s.now());
                }
                Op::PackedPut => {
                    let local = chunks(0, 5, 104, 200);
                    let remote = chunks(2048, 5, 104, 128);
                    a.packed_put(1, local, remote).await.remote.wait().await;
                    finish(s.now());
                }
                Op::AccStrided => {
                    let local = chunks(0, 5, 96, 200);
                    let remote = chunks(2048, 5, 96, 128);
                    let h = a.acc_strided_f64(1, local, remote, -2.0).await;
                    h.remote.wait().await;
                    finish(s.now());
                }
                Op::ControlAm | Op::DataAm | Op::BatchedAm => {
                    let n = if matches!(op, Op::BatchedAm) { 3 } else { 1 };
                    for i in 0..n {
                        let header = vec![(3 - n + i) as u8; 12];
                        let payload = a.read_bytes(i * 300, 300);
                        if matches!(op, Op::ControlAm) {
                            a.send_control_am(1, DISPATCH, header, payload).await;
                        } else {
                            a.send_am(1, DISPATCH, header, payload).await;
                        }
                    }
                }
            }
        });
    }
    sim.run();
    m.stop_progress_threads();
    sim.run();
    let done = done_at.get().expect("the operation completed");
    let mut line = format!(
        "{op:?} {} {} t={} init={:016x} tgt={:016x} events={}",
        if at { "AT" } else { "D" },
        if busy { "busy" } else { "idle" },
        done.as_ps(),
        digest(&a),
        digest(&b),
        sim.events_processed(),
    );
    for (key, v) in m.stats().snapshot().counters {
        if key.starts_with("pami.") || key.starts_with("am.") {
            write!(line, " {key}={v}").unwrap();
        }
    }
    line
}

const EXPECTED: &str = "\
SwPut D idle t=2273040 init=66d8f3c1d62a96b0 tgt=d5a19936b323a5eb events=10 pami.sw_put=1
SwPut D busy t=10708000 init=66d8f3c1d62a96b0 tgt=0f65753e441362eb events=27 pami.acc=4 pami.sw_put=1
SwPut AT idle t=2473040 init=66d8f3c1d62a96b0 tgt=d5a19936b323a5eb events=11 pami.at_serviced=1 pami.sw_put=1
SwPut AT busy t=2385144 init=66d8f3c1d62a96b0 tgt=70416b2a99bd2b15 events=32 pami.acc=4 pami.at_serviced=5 pami.sw_put=1
SwGet D idle t=3088040 init=20b03950875b1cab tgt=311330eee9e6a93d events=11 pami.sw_get=1
SwGet D busy t=11755024 init=20b03950875b1cab tgt=31102d285d21e2d5 events=32 pami.acc=4 pami.sw_get=1
SwGet AT idle t=3288040 init=20b03950875b1cab tgt=311330eee9e6a93d events=12 pami.at_serviced=1 pami.sw_get=1
SwGet AT busy t=3288040 init=20b03950875b1cab tgt=31102d285d21e2d5 events=36 pami.acc=4 pami.at_serviced=5 pami.sw_get=1
AccF64 D idle t=2305790 init=66d8f3c1d62a96b0 tgt=29d602fba4ec5c00 events=10 pami.acc=1
AccF64 D busy t=10740750 init=66d8f3c1d62a96b0 tgt=a68f9c099dc45ccc events=27 pami.acc=5
AccF64 AT idle t=2505790 init=66d8f3c1d62a96b0 tgt=29d602fba4ec5c00 events=11 pami.acc=1 pami.at_serviced=1
AccF64 AT busy t=2417894 init=66d8f3c1d62a96b0 tgt=bd0605756b6c89ea events=32 pami.acc=5 pami.at_serviced=5
FetchAdd D idle t=2293512 init=10b9c87b728d814f tgt=a89c1a29f1d74278 events=11 pami.rmw=1
FetchAdd D busy t=10969504 init=10b9c87b728d814f tgt=256827ce3c529639 events=30 pami.acc=4 pami.rmw=1
FetchAdd AT idle t=2493512 init=10b9c87b728d814f tgt=a89c1a29f1d74278 events=12 pami.at_serviced=1 pami.rmw=1
FetchAdd AT busy t=2493512 init=10b9c87b728d814f tgt=6ebe08c4c86a8510 events=36 pami.acc=4 pami.at_serviced=5 pami.rmw=1
Swap D idle t=2293512 init=10b9c87b728d814f tgt=5b08fca84d8beac6 events=11 pami.rmw=1
Swap D busy t=10969504 init=10b9c87b728d814f tgt=97ac6e0b6663095f events=30 pami.acc=4 pami.rmw=1
Swap AT idle t=2493512 init=10b9c87b728d814f tgt=5b08fca84d8beac6 events=12 pami.at_serviced=1 pami.rmw=1
Swap AT busy t=2493512 init=10b9c87b728d814f tgt=f6c84214dce5218e events=36 pami.acc=4 pami.at_serviced=5 pami.rmw=1
CompareSwap D idle t=2293512 init=10b9c87b728d814f tgt=b32cbccab93a3bc2 events=11 pami.rmw=1
CompareSwap D busy t=10969504 init=10b9c87b728d814f tgt=0cb862e550618fcb events=30 pami.acc=4 pami.rmw=1
CompareSwap AT idle t=2493512 init=10b9c87b728d814f tgt=b32cbccab93a3bc2 events=12 pami.at_serviced=1 pami.rmw=1
CompareSwap AT busy t=2493512 init=10b9c87b728d814f tgt=8b0963f09ff036ea events=36 pami.acc=4 pami.at_serviced=5 pami.rmw=1
PackedGet D idle t=2991816 init=e6257e590468a13d tgt=311330eee9e6a93d events=11 pami.packed_get=1
PackedGet D busy t=11613760 init=e6257e590468a13d tgt=31102d285d21e2d5 events=32 pami.acc=4 pami.packed_get=1
PackedGet AT idle t=3191816 init=e6257e590468a13d tgt=311330eee9e6a93d events=12 pami.at_serviced=1 pami.packed_get=1
PackedGet AT busy t=3191816 init=e6257e590468a13d tgt=31102d285d21e2d5 events=33 pami.acc=4 pami.at_serviced=5 pami.packed_get=1
PackedPut D idle t=2176816 init=66d8f3c1d62a96b0 tgt=a417441e523dac23 events=12 pami.packed_put=1
PackedPut D busy t=10786000 init=66d8f3c1d62a96b0 tgt=9fd26c329c032bf9 events=29 pami.acc=4 pami.packed_put=1
PackedPut AT idle t=2376816 init=66d8f3c1d62a96b0 tgt=a417441e523dac23 events=13 pami.at_serviced=1 pami.packed_put=1
PackedPut AT busy t=2463144 init=66d8f3c1d62a96b0 tgt=b5edf9fe142c74eb events=34 pami.acc=4 pami.at_serviced=5 pami.packed_put=1
AccStrided D idle t=2085296 init=66d8f3c1d62a96b0 tgt=c7f4071dda4f4c0c events=12 pami.acc_strided=1
AccStrided D busy t=10723000 init=66d8f3c1d62a96b0 tgt=c103fcd83fa63df2 events=29 pami.acc=4 pami.acc_strided=1
AccStrided AT idle t=2285296 init=66d8f3c1d62a96b0 tgt=c7f4071dda4f4c0c events=13 pami.acc_strided=1 pami.at_serviced=1
AccStrided AT busy t=2400144 init=66d8f3c1d62a96b0 tgt=43b332656b1bd9f4 events=34 pami.acc=4 pami.acc_strided=1 pami.at_serviced=5
ControlAm D idle t=1858672 init=66d8f3c1d62a96b0 tgt=22dee76e7b75fffc events=8 pami.am=1
ControlAm D busy t=10708000 init=66d8f3c1d62a96b0 tgt=73b9fbe1c98e24ff events=24 pami.acc=4 pami.am=1
ControlAm AT idle t=2058672 init=66d8f3c1d62a96b0 tgt=22dee76e7b75fffc events=10 pami.am=1 pami.at_serviced=1
ControlAm AT busy t=2385144 init=66d8f3c1d62a96b0 tgt=2e329d97a186b914 events=31 pami.acc=4 pami.am=1 pami.at_serviced=5
DataAm D idle t=1858672 init=66d8f3c1d62a96b0 tgt=22dee76e7b75fffc events=8 am.bytes=344 am.sent=1 am.wire_msgs=1
DataAm D busy t=10708000 init=66d8f3c1d62a96b0 tgt=73b9fbe1c98e24ff events=24 am.bytes=344 am.sent=1 am.wire_msgs=1 pami.acc=4
DataAm AT idle t=2058672 init=66d8f3c1d62a96b0 tgt=22dee76e7b75fffc events=10 am.bytes=344 am.sent=1 am.wire_msgs=1 pami.at_serviced=1
DataAm AT busy t=2385144 init=66d8f3c1d62a96b0 tgt=2e329d97a186b914 events=31 am.bytes=344 am.sent=1 am.wire_msgs=1 pami.acc=4 pami.at_serviced=5
BatchedAm D idle t=4520696 init=66d8f3c1d62a96b0 tgt=7e98d60c43c7ed8d events=19 am.batches=1 am.bytes=992 am.flushes=1 am.sent=3 am.wire_msgs=1
BatchedAm D busy t=11922400 init=66d8f3c1d62a96b0 tgt=8d26223984b9c0b5 events=41 am.batches=1 am.bytes=992 am.flushes=1 am.sent=3 am.wire_msgs=1 pami.acc=4
BatchedAm AT idle t=4720696 init=66d8f3c1d62a96b0 tgt=7e98d60c43c7ed8d events=21 am.batches=1 am.bytes=992 am.flushes=1 am.sent=3 am.wire_msgs=1 pami.at_serviced=1
BatchedAm AT busy t=4720696 init=66d8f3c1d62a96b0 tgt=8d26223984b9c0b5 events=48 am.batches=1 am.bytes=992 am.flushes=1 am.sent=3 am.wire_msgs=1 pami.acc=4 pami.at_serviced=5
";

#[test]
fn every_service_kind_completes_where_it_did() {
    let mut got = String::new();
    for op in OPS {
        for at in [false, true] {
            for busy in [false, true] {
                got.push_str(&run(op, at, busy));
                got.push('\n');
            }
        }
    }
    if got != EXPECTED {
        let diff: Vec<_> = got
            .lines()
            .zip(EXPECTED.lines().chain(std::iter::repeat("<missing>")))
            .filter(|(g, e)| g != e)
            .map(|(g, e)| format!("  want {e}\n  got  {g}"))
            .collect();
        panic!(
            "{} case(s) moved:\n{}\nfull table:\n{got}",
            diff.len(),
            diff.join("\n")
        );
    }
}
