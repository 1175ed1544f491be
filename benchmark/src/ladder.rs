//! The per-layer ladder: host time per call into each layer's public
//! functions, timed from outside the crates. One rung is one operation issued
//! through one layer with everything beneath it running too, so a rung minus
//! the rung below (`*.self_ns.*`) is what that layer adds — the host-time
//! analogue of the paper's composition of PAMI object costs (§III, Tables
//! I/II). Every number is the median of `BATCHES` timed batches after one
//! untimed warm-up batch, on a warm p = 32, c = 16, AsyncThread machine unless
//! the metric says otherwise.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use armci::{Armci, ArmciConfig, ArmciRank, ProgressMode, Strided};
use desim::{Sim, SimDuration, SimRng, SimTime};
use global_arrays::{Ga, SharedCounter};
use nwchem_scf::ScfConfig;
use pami_sim::{Machine, MachineConfig, RmwOp};
use torus5d::{BgqParams, MsgClass, NetState, Topology};

use crate::probe::Probe;
use crate::stats::median;
use crate::workloads::Size;

const BATCHES: usize = 5;
/// Batches of the rungs that build a 262144- or million-rank object each time.
const BIG_BATCHES: usize = 3;
/// The rank every rig operation targets: the first rank of the second node.
const TARGET: usize = 16;
const SEG: usize = 64 * 1024;
/// A Fock patch: 46 rows of 46 f64 (368 B).
const PATCH: usize = 46;

/// How a rung repeats: `(timed batches, untimed warm-up batch first?)`.
type Plan = (usize, bool);
const WARM: Plan = (BATCHES, true);
/// Rungs that build a 262144- or million-rank object in every batch: fewer
/// batches, and no warm-up — the first construction is the one users pay.
const COLD: Plan = (BIG_BATCHES, false);

/// Median over the plan's timed batches of `batch`'s duration times `scale`
/// (`per_call(n)` for ns per call of an `n`-call batch, `PER_BUILD_US` for µs
/// per construction). Each timed batch is one span named `name`; what
/// `batch` returns is dropped outside the span.
fn rung<T>(
    pr: &mut Probe,
    out: &mut Vec<(String, f64)>,
    name: &str,
    (batches, warm_up): Plan,
    scale: f64,
    mut batch: impl FnMut() -> T,
) {
    if warm_up {
        batch();
    }
    let values: Vec<f64> = (0..batches)
        .map(|_| {
            let (built, secs) = pr.span(name, |_| batch());
            drop(built);
            secs * scale
        })
        .collect();
    out.push((name.to_string(), median(&values)));
}

fn per_call(calls: usize) -> f64 {
    1e9 / calls as f64
}

const PER_BUILD_US: f64 = 1e6;

/// A warm machine with an ARMCI runtime, a 64 KB collective segment on every
/// rank and a 32 KB private buffer on rank 0.
struct Rig {
    sim: Sim,
    armci: Armci,
    seg: Rc<Vec<usize>>,
    local: usize,
}

impl Rig {
    fn new(p: usize, mcfg: MachineConfig, acfg: ArmciConfig) -> Rig {
        let sim = Sim::new();
        let armci = Armci::new(Machine::new(sim.clone(), mcfg), acfg);
        let seg: Rc<RefCell<Vec<usize>>> = Rc::default();
        let local = Rc::new(Cell::new(0));
        for r in 0..p {
            let rk = armci.rank(r);
            let (seg, local) = (Rc::clone(&seg), Rc::clone(&local));
            sim.spawn(async move {
                let offs = rk.malloc_collective(SEG).await;
                if r == 0 {
                    local.set(rk.malloc(SEG / 2).await);
                    *seg.borrow_mut() = offs;
                }
            });
        }
        sim.run();
        Rig {
            sim,
            armci,
            seg: Rc::new(seg.take()),
            local: local.get(),
        }
    }

    fn standard(p: usize) -> Rig {
        Rig::new(
            p,
            MachineConfig::new(p).procs_per_node(16).contexts(2),
            ArmciConfig::default().progress(ProgressMode::AsyncThread),
        )
    }

    /// One batch: rank 0 runs `program`, the kernel runs dry.
    fn batch<Fut: Future<Output = ()> + 'static>(&self, program: impl FnOnce(ArmciRank) -> Fut) {
        self.sim.spawn(program(self.armci.rank(0)));
        self.sim.run();
    }

    fn close(self) {
        self.armci.finalize();
        self.sim.shutdown();
    }
}

/// All 37 ladder metrics ([`crate::spec::LADDER`]), in the order measured.
pub fn run(size: Size, pr: &mut Probe) -> Vec<(String, f64)> {
    let quick = size == Size::Quick;
    // Calls per batch, ranks of the "every rank" rungs, ranks of the
    // constructors.
    let (n, dense_p, wide_p, huge_p) = if quick {
        (200usize, 4096usize, 4096usize, 65_536usize)
    } else {
        (20_000, 262_144, 131_072, 1_000_000)
    };
    let mut out = Vec::new();
    desim_rungs(pr, &mut out, n, dense_p);
    torus_rungs(pr, &mut out, n, wide_p, huge_p);
    rig_rungs(pr, &mut out, n);
    construction_rungs(pr, &mut out, dense_p, huge_p, quick);
    scf_rungs(pr, &mut out, quick);
    out
}

fn desim_rungs(pr: &mut Probe, out: &mut Vec<(String, f64)>, n: usize, dense_p: usize) {
    let (tasks, pairs) = (16, 16);
    rung(pr, out, "desim.sleep_ns", WARM, per_call(tasks * n), || {
        let sim = Sim::new();
        let root = SimRng::new(1);
        for t in 0..tasks {
            let s = sim.clone();
            let mut rng = root.derive(t as u64);
            sim.spawn(async move {
                for _ in 0..n {
                    s.sleep(SimDuration::from_ns(1 + rng.next_below(1000)))
                        .await;
                }
            });
        }
        sim.run();
    });
    rung(
        pr,
        out,
        "desim.chan_rtt_ns",
        WARM,
        per_call(pairs * n),
        || {
            let sim = Sim::new();
            for _ in 0..pairs {
                let (to_b, from_a) = desim::channel::channel::<u64>();
                let (to_a, from_b) = desim::channel::channel::<u64>();
                sim.spawn(async move {
                    for i in 0..n {
                        to_b.send(i as u64);
                        from_b.recv().await.expect("peer hung up");
                    }
                });
                sim.spawn(async move {
                    for _ in 0..n {
                        let v = from_a.recv().await.expect("peer hung up");
                        to_a.send(v);
                    }
                });
            }
            sim.run();
        },
    );
    let callbacks = 16 * n;
    rung(
        pr,
        out,
        "desim.schedule_ns",
        WARM,
        per_call(callbacks),
        || {
            let sim = Sim::new();
            let mut rng = SimRng::new(2);
            let fired = Rc::new(Cell::new(0u64));
            for _ in 0..callbacks {
                let fired = Rc::clone(&fired);
                sim.schedule(SimTime(rng.next_below(1_000_000_000)), move || {
                    fired.set(fired.get() + 1)
                });
            }
            sim.run();
            assert_eq!(fired.get(), callbacks as u64);
        },
    );
    rung(pr, out, "desim.spawn_ns", WARM, per_call(dense_p), || {
        let sim = Sim::new();
        for _ in 0..dense_p {
            sim.spawn(async {});
        }
        sim.run();
    });
}

fn torus_rungs(
    pr: &mut Probe,
    out: &mut Vec<(String, f64)>,
    n: usize,
    wide_p: usize,
    huge_p: usize,
) {
    let msgs = 5 * n;
    for (name, p, contention) in [
        ("torus5d.deliver_ns.hot", 512, true),
        ("torus5d.deliver_ns.wide", wide_p, true),
        ("torus5d.deliver_ns.uncontended", 512, false),
    ] {
        // One network and one schedule per rung; later batches continue
        // where the previous one stopped, on warm routes.
        let mut net = NetState::new(Topology::for_procs(p, 16), BgqParams::default(), contention);
        let mut rng = SimRng::new(3);
        let mut inject = SimTime::ZERO;
        rung(pr, out, name, WARM, per_call(msgs), || {
            for i in 0..msgs {
                let src = rng.next_below(p as u64) as usize;
                let dst = (src + 1 + rng.next_below(p as u64 - 1) as usize) % p;
                let class = match i % 8 {
                    0 => MsgClass::Unordered,
                    1 | 2 => MsgClass::Control,
                    _ => MsgClass::Ordered,
                };
                inject += SimDuration::from_ns(rng.next_below(200));
                let len = 1 << (4 + rng.next_below(12));
                std::hint::black_box(net.try_deliver_op(inject, src, dst, len, class, None));
            }
        });
    }
    rung(
        pr,
        out,
        "torus5d.netstate_new_us",
        COLD,
        PER_BUILD_US,
        || NetState::new(Topology::for_procs(huge_p, 16), BgqParams::default(), true),
    );
}

fn big_machine(p: usize) -> Machine {
    Machine::new(
        Sim::new(),
        MachineConfig::new(p).procs_per_node(16).contexts(2),
    )
}

/// One operation issued `calls` times by rank 0 of a [`Rig`]: a rung
/// measured interleaved with the others of its group.
struct RigOp<'a> {
    rig: &'a Rig,
    name: &'static str,
    calls: usize,
    batch: Box<dyn FnMut() + 'a>,
}

impl<'a> RigOp<'a> {
    fn new<Fut: Future<Output = ()> + 'static>(
        rig: &'a Rig,
        name: &'static str,
        calls: usize,
        program: impl Fn(ArmciRank, usize) -> Fut + 'a,
    ) -> RigOp<'a> {
        RigOp {
            rig,
            name,
            calls,
            batch: Box::new(move || rig.batch(|rk| program(rk, calls))),
        }
    }
}

/// Measure a group of rungs batch by batch in turn — a, b, c, a, b, c, … —
/// after one untimed batch of each, then each `(name, upper, lower)` of
/// `selfs` as the median over the rounds of upper − lower. The runtime's
/// state drifts as batches go by (unfenced writes, implicit handles,
/// allocator layout) and so does the host, either enough to move a rung by
/// 10 %; a difference taken within one round sees neither.
fn interleaved(
    pr: &mut Probe,
    out: &mut Vec<(String, f64)>,
    mut ops: Vec<RigOp>,
    selfs: &[(&str, &str, &str)],
) {
    for op in &mut ops {
        (op.batch)();
    }
    let mut values = vec![Vec::new(); ops.len()];
    for _ in 0..BATCHES {
        for (op, values) in ops.iter_mut().zip(&mut values) {
            // Untimed: fence and reap what earlier batches left behind, so
            // that every timed batch starts from the same runtime state.
            op.rig.batch(|rk| async move {
                rk.fence_all().await;
                rk.wait_all().await;
            });
            let secs = pr.span(op.name, |_| (op.batch)()).1;
            values.push(secs * per_call(op.calls));
        }
    }
    for (op, values) in ops.iter().zip(&values) {
        out.push((op.name.to_string(), median(values)));
    }
    for &(name, upper, lower) in selfs {
        let of = |rung: &str| {
            let i = ops.iter().position(|op| op.name == rung);
            &values[i.expect("both rungs are in the group")]
        };
        let diffs: Vec<f64> = of(upper)
            .iter()
            .zip(of(lower))
            .map(|(u, l)| u - l)
            .collect();
        out.push((name.to_string(), median(&diffs)));
    }
}

/// The rungs that issue operations on the warm p = 32 machine: `pami-sim`,
/// `armci` and `global-arrays` side by side.
fn rig_rungs(pr: &mut Probe, out: &mut Vec<(String, f64)>, n: usize) {
    let rig = Rig::standard(32);
    let (seg, local) = (rig.seg[TARGET], rig.local);
    let counter = SharedCounter::create(&rig.armci, TARGET);
    const DISPATCH: u16 = 200;
    let send_ams = |rk: ArmciRank, n: usize| async move {
        for _ in 0..n {
            let sent = rk
                .pami()
                .send_am(TARGET, DISPATCH, vec![0u8; 8], Vec::new())
                .await;
            rk.pami().progress_wait(&sent).await;
        }
    };
    rig.armci
        .machine()
        .register_am(DISPATCH, Rc::new(|_env, _msg| {}));
    // Contiguous operations: 4 KiB gets and puts, 512 f64 accumulates.
    let contiguous = vec![
        RigOp::new(&rig, "pami.rmw_ns", n, |rk, n| async move {
            for _ in 0..n {
                let done = rk.pami().rmw(TARGET, seg, RmwOp::FetchAdd(1)).await;
                rk.pami().progress_wait(&done).await;
            }
        }),
        RigOp::new(&rig, "armci.rmw_ns", n, |rk, n| async move {
            for _ in 0..n {
                rk.rmw_fetch_add(TARGET, seg, 1).await;
            }
        }),
        RigOp::new(&rig, "ga.counter_next_ns", n, |rk, n| {
            let counter = counter.clone();
            async move {
                for _ in 0..n {
                    counter.next(&rk, 1).await;
                }
            }
        }),
        RigOp::new(&rig, "pami.get_ns", n, |rk, n| async move {
            for _ in 0..n {
                let done = rk.pami().rdma_get(TARGET, local, seg + 64, 4096).await;
                rk.pami().progress_wait(&done).await;
            }
        }),
        RigOp::new(&rig, "armci.get_ns", n, |rk, n| async move {
            for _ in 0..n {
                rk.get(TARGET, local, seg + 64, 4096).await;
            }
        }),
        RigOp::new(&rig, "pami.put_ns", n, |rk, n| async move {
            for _ in 0..n {
                let h = rk.pami().rdma_put(TARGET, local, seg + 64, 4096).await;
                rk.pami().progress_wait(&h.local).await;
            }
        }),
        RigOp::new(&rig, "armci.put_ns", n, |rk, n| async move {
            for _ in 0..n {
                rk.put(TARGET, local, seg + 64, 4096).await;
            }
        }),
        RigOp::new(&rig, "pami.acc_ns", n, |rk, n| async move {
            for _ in 0..n {
                let h = rk.pami().acc_f64(TARGET, local, seg + 8192, 512, 1.0).await;
                rk.pami().progress_wait(&h.local).await;
            }
        }),
        RigOp::new(&rig, "armci.acc_ns", n, |rk, n| async move {
            for _ in 0..n {
                rk.acc(TARGET, local, seg + 8192, 512, 1.0).await;
            }
        }),
        // One 8-byte put and the fence that waits for its remote completion.
        RigOp::new(&rig, "armci.fence_ns", n, |rk, n| async move {
            for _ in 0..n {
                rk.put(TARGET, local, seg, 8).await;
                rk.fence(TARGET).await;
            }
        }),
        RigOp::new(&rig, "pami.am_ns", n, send_ams),
    ];
    interleaved(
        pr,
        out,
        contiguous,
        &[
            ("armci.self_ns.rmw", "armci.rmw_ns", "pami.rmw_ns"),
            ("armci.self_ns.get", "armci.get_ns", "pami.get_ns"),
            ("armci.self_ns.put", "armci.put_ns", "pami.put_ns"),
            ("armci.self_ns.acc", "armci.acc_ns", "pami.acc_ns"),
            (
                "ga.self_ns.counter_next",
                "ga.counter_next_ns",
                "armci.rmw_ns",
            ),
        ],
    );

    // A Fock patch — 46 rows of 368 B at the origin of the target's block of
    // a 644² array (one owner, on another node), dense here — moved through
    // `Ga` and, the same bytes, through strided `armci` calls.
    let ga = Ga::create(&rig.armci, "ladder", 644, 644);
    ga.fill(0.5);
    let ((rlo, rhi), (clo, chi)) = ga.dist().block_of(TARGET);
    assert!(
        rhi - rlo >= PATCH && chi - clo >= PATCH,
        "patch fits one block"
    );
    let here = Strided::patch2d(local, PATCH * 8, PATCH, PATCH * 8);
    let there = Strided::patch2d(ga.base_of(TARGET), PATCH * 8, PATCH, (chi - clo) * 8);
    let patches = vec![
        RigOp::new(&rig, "armci.get_strided_ns", n / 10, |rk, n| {
            let (here, there) = (here.clone(), there.clone());
            async move {
                for _ in 0..n {
                    rk.get_strided(TARGET, &here, &there).await;
                }
            }
        }),
        RigOp::new(&rig, "ga.get_patch_ns", n / 10, |rk, n| {
            let ga = ga.clone();
            async move {
                for _ in 0..n {
                    ga.get_patch(&rk, rlo, rlo + PATCH, clo, clo + PATCH, local)
                        .await;
                }
            }
        }),
        RigOp::new(&rig, "armci.put_strided_ns", n / 10, |rk, n| {
            let (here, there) = (here.clone(), there.clone());
            async move {
                for _ in 0..n {
                    rk.put_strided(TARGET, &here, &there).await;
                }
            }
        }),
        RigOp::new(&rig, "ga.acc_patch_ns", n / 10, |rk, n| {
            let ga = ga.clone();
            async move {
                for _ in 0..n {
                    ga.acc_patch(&rk, rlo, rlo + PATCH, clo, clo + PATCH, local, 1.0)
                        .await;
                }
            }
        }),
    ];
    interleaved(
        pr,
        out,
        patches,
        &[(
            "ga.self_ns.get_patch",
            "ga.get_patch_ns",
            "armci.get_strided_ns",
        )],
    );
    rig.close();

    let batched = Rig::new(
        32,
        MachineConfig::new(32)
            .procs_per_node(16)
            .contexts(2)
            .am_batching(4096, SimDuration::from_us(1)),
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    batched
        .armci
        .machine()
        .register_am(DISPATCH, Rc::new(|_env, _msg| {}));
    let ops = vec![RigOp::new(&batched, "pami.am_batched_ns", n, send_ams)];
    interleaved(pr, out, ops, &[]);
    batched.close();

    // A one-entry region cache and two alternating targets: every get
    // queries the owner for its region first.
    let cold = Rig::new(
        32,
        MachineConfig::new(32).procs_per_node(16).contexts(2),
        ArmciConfig::default()
            .progress(ProgressMode::AsyncThread)
            .region_cache_capacity(1),
    );
    let (cold_seg, cold_local) = (Rc::clone(&cold.seg), cold.local);
    let ops = vec![RigOp::new(&cold, "armci.get_miss_ns", n / 4, |rk, n| {
        let seg = Rc::clone(&cold_seg);
        async move {
            for i in 0..n {
                let t = TARGET + i % 2;
                rk.get(t, cold_local, seg[t] + 64, 4096).await;
            }
        }
    })];
    interleaved(pr, out, ops, &[]);
    let (_, misses, _) = cold.armci.region_cache_totals();
    assert!(misses as usize >= n / 4, "the miss rung must miss");
    cold.close();
}

/// The rungs that build something big every batch.
fn construction_rungs(
    pr: &mut Probe,
    out: &mut Vec<(String, f64)>,
    dense_p: usize,
    huge_p: usize,
    quick: bool,
) {
    rung(
        pr,
        out,
        "pami.materialize_ns",
        COLD,
        per_call(dense_p),
        || {
            let m = big_machine(dense_p);
            for r in 0..dense_p {
                m.materialize_rank(r);
            }
            assert_eq!(m.materialized_count(), dense_p);
            m
        },
    );
    rung(pr, out, "pami.machine_new_us", COLD, PER_BUILD_US, || {
        big_machine(huge_p)
    });
    // The machines are built ahead of the timed constructions.
    let mut machines: Vec<Machine> = (0..BIG_BATCHES).map(|_| big_machine(huge_p)).collect();
    rung(pr, out, "armci.new_us", COLD, PER_BUILD_US, || {
        Armci::new(
            machines.pop().expect("one machine per batch"),
            ArmciConfig::default().progress(ProgressMode::AsyncThread),
        )
    });
    let wide = Rig::standard(if quick { 64 } else { 256 });
    rung(
        pr,
        out,
        "ga.create_us",
        (BATCHES, false),
        PER_BUILD_US,
        || Ga::create(&wide.armci, "ladder", 644, 644),
    );
    wide.close();
}

fn scf_rungs(pr: &mut Probe, out: &mut Vec<(String, f64)>, quick: bool) {
    let paper = ScfConfig::paper(ProgressMode::AsyncThread);
    let busy = ScfConfig {
        repeat_factor: if quick { 1 } else { 4 },
        iterations: 1,
        ..paper.clone()
    };
    let tasks = busy.tasks_per_iter() * busy.iterations;
    rung(pr, out, "scf.task_us", COLD, 1e6 / tasks as f64, || {
        nwchem_scf::run_scf(32, &busy)
    });
    // No tasks at all: what is left is the counter overdraw, the barriers
    // and the global sum — the O(p) collective share of an iteration.
    let empty = ScfConfig {
        repeat_factor: 0,
        iterations: 3,
        ..paper
    };
    let p = if quick { 64 } else { 256 };
    rung(
        pr,
        out,
        "scf.empty_iter_ms",
        COLD,
        1e3 / empty.iterations as f64,
        || nwchem_scf::run_scf(p, &empty),
    );
}
