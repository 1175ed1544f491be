//! The six workloads. Each makes its inputs from the seed, builds the layers
//! it needs (set-up), runs them (the timed run phase), tears them down, and
//! checks what they produced. The "op" that `ops_per_s` counts is fixed by
//! the input, never by how many kernel events an implementation needs.
//!
//! Every workload is one closed, single-threaded batch: the simulator is a
//! batch program, so there is no arrival schedule to keep.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use armci::{Armci, ArmciConfig, ArmciRank, ProgressMode, Strided};
use desim::{Sim, SimDuration, SimRng, SimTime};
use global_arrays::{Ga, SharedCounter};
use nwchem_scf::ScfConfig;
use pami_sim::{Machine, MachineConfig};
use torus5d::{BgqParams, Delivery, MsgClass, NetState, Topology};

use crate::alloc;
use crate::probe::Probe;

/// What one execution of a workload measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations the input asked for.
    pub ops: u64,
    /// Operations that did not complete.
    pub ops_failed: u64,
    /// Invariant checks made on the outputs.
    pub checks: u64,
    /// Invariant checks that failed.
    pub checks_failed: u64,
    /// Construction up to the first timed call, s.
    pub setup_s: f64,
    /// The run phase: first timed call to last completion, s.
    pub run_s: f64,
    /// `finalize`, `shutdown` and drop, s.
    pub teardown_s: f64,
    /// Simulated time at the end of the run, ps: the workload's signature,
    /// identical on every repeat of one seed.
    pub sim_time_ps: u64,
    /// Allocations in the run phase (traced runs only).
    pub allocs: u64,
    /// Bytes requested in the run phase (traced runs only).
    pub alloc_bytes: u64,
    /// Kernel events processed (0 where no kernel runs or none is exposed).
    pub events: u64,
    /// Messages the interconnect delivered (0 where it is bypassed or hidden).
    pub net_msgs: u64,
    /// Ranks whose state materialized (0 where no machine is exposed).
    pub materialized: u64,
    /// `Machine::new`, s (0 where the workload builds none itself).
    pub machine_new_s: f64,
    /// `Armci::new`, s.
    pub armci_new_s: f64,
    /// The loop spawning the rank programs, s.
    pub spawn_s: f64,
    /// Region-cache hits over lookups, all ranks.
    pub region_hit_ratio: f64,
    /// Reads that had to wait for an earlier write, all ranks.
    pub induced_fences: u64,
}

/// Full size (the sizes in the README's workload table) or the small sizes
/// the tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Test sizes: every workload in well under a second.
    Quick,
}

/// Run workload `name` once. `None` for an unknown name.
pub fn run(name: &str, seed: u64, size: Size, pr: &mut Probe) -> Option<Outcome> {
    let quick = size == Size::Quick;
    Some(match name {
        "kernel_churn" => kernel_churn(seed, quick, pr),
        "net_storm" => net_storm(seed, quick, pr),
        "rmw_dense" => rmw_dense(seed, quick, pr),
        "rmw_sparse" => rmw_sparse(seed, quick, pr),
        "rma_mix" => rma_mix(seed, quick, pr),
        "scf_fock" => scf_fock(seed, quick, pr),
        _ => return None,
    })
}

/// Count allocations over `f` (one piece of the run phase) when tracing.
fn counted<R>(pr: &mut Probe, out: &mut Outcome, f: impl FnOnce(&mut Probe) -> R) -> R {
    if !pr.tracing() {
        return f(pr);
    }
    alloc::start();
    let r = f(pr);
    let (allocs, bytes) = alloc::stop();
    out.allocs += allocs;
    out.alloc_bytes += bytes;
    r
}

impl Outcome {
    fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.checks_failed += u64::from(!ok);
    }
}

// ---------------------------------------------------------------------
// kernel_churn: desim alone
// ---------------------------------------------------------------------

/// Seeded sleeps plus channel ping-pong in one `Sim`: timer wheel, ready
/// queue and wakers. No network, no machine.
fn kernel_churn(seed: u64, quick: bool, pr: &mut Probe) -> Outcome {
    let (tasks, steps, pairs, rounds) = if quick {
        (64usize, 500usize, 32usize, 1000usize)
    } else {
        (1024, 12_000, 512, 24_000)
    };
    let mut out = Outcome {
        ops: (tasks * steps + pairs * rounds) as u64,
        ..Outcome::default()
    };
    let done = Rc::new(Cell::new(0u64));
    let tokens = Rc::new(RefCell::new(vec![0u64; pairs]));
    let (sim, setup_s) = pr.span("setup", |pr| {
        let sim = pr.span("desim.Sim::new", |_| Sim::new()).0;
        pr.span("desim.spawn_loop", |_| {
            let root = SimRng::new(seed);
            for t in 0..tasks {
                let (s, done) = (sim.clone(), Rc::clone(&done));
                let mut rng = root.derive(t as u64);
                sim.spawn(async move {
                    for step in 0..steps {
                        // Every 64th sleep is a compute grain that falls past
                        // the near timer wheel.
                        let d = if step % 64 == 63 {
                            SimDuration::from_us(300)
                        } else {
                            SimDuration::from_ns(1 + rng.next_below(1000))
                        };
                        s.sleep(d).await;
                        done.set(done.get() + 1);
                    }
                });
            }
            for p in 0..pairs {
                let (to_b, from_a) = desim::channel::channel::<u64>();
                let (to_a, from_b) = desim::channel::channel::<u64>();
                let (done, tokens) = (Rc::clone(&done), Rc::clone(&tokens));
                sim.spawn(async move {
                    let mut token = p as u64;
                    for _ in 0..rounds {
                        to_b.send(token);
                        token = from_b.recv().await.expect("peer hung up");
                        done.set(done.get() + 1);
                    }
                    tokens.borrow_mut()[p] = token;
                });
                sim.spawn(async move {
                    for _ in 0..rounds {
                        let v = from_a.recv().await.expect("peer hung up");
                        to_a.send(v.wrapping_add(1));
                    }
                });
            }
        });
        sim
    });
    out.setup_s = setup_s;
    let (end, run_s) = pr.span("run", |pr| {
        counted(pr, &mut out, |pr| {
            let end = pr.span("desim.Sim::run", |_| sim.run()).0;
            pr.count("desim.events", sim.events_processed());
            end
        })
    });
    out.run_s = run_s;
    out.sim_time_ps = end.as_ps();
    out.events = sim.events_processed();
    out.teardown_s = pr
        .span("teardown", |pr| {
            pr.span("desim.Sim::shutdown", |_| sim.shutdown());
            pr.span("drop", |_| drop(sim));
        })
        .1;
    out.ops_failed = out.ops - done.get();
    // Each pair's token comes back incremented once per round.
    let tokens_ok = tokens
        .borrow()
        .iter()
        .enumerate()
        .all(|(p, &t)| t == (p + rounds) as u64);
    out.check(tokens_ok);
    out
}

// ---------------------------------------------------------------------
// net_storm: torus5d alone
// ---------------------------------------------------------------------

struct Msg {
    inject: SimTime,
    src: u32,
    dst: u32,
    payload: u32,
    class: MsgClass,
}

/// Seeded messages straight through `NetState::try_deliver_op` at p = 512
/// with contention on. No kernel, no tasks. Messages are generated a block
/// at a time outside the timed region, so route and link state stay
/// cache-resident and the schedule never costs more than one block of
/// memory; generation counts as set-up.
fn net_storm(seed: u64, quick: bool, pr: &mut Probe) -> Outcome {
    let (procs, blocks, block) = if quick {
        (512usize, 4usize, 20_000usize)
    } else {
        (512, 12, 1_000_000)
    };
    let mut out = Outcome {
        ops: (blocks * block) as u64,
        ..Outcome::default()
    };
    let (mut net, mut setup_s) = pr.span("setup", |pr| {
        pr.span("torus5d.NetState::new", |_| {
            NetState::new(Topology::for_procs(procs, 16), BgqParams::default(), true)
        })
        .0
    });
    let mut rng = SimRng::new(seed);
    let mut inject = SimTime::ZERO;
    let mut sched: Vec<Msg> = Vec::with_capacity(block);
    let (mut last, mut delivered, mut i) = (SimTime::ZERO, 0u64, 0u64);
    for _ in 0..blocks {
        setup_s += pr
            .span("setup.generate_block", |_| {
                sched.clear();
                for _ in 0..block {
                    let src = rng.next_below(procs as u64) as u32;
                    let mut dst = rng.next_below(procs as u64) as u32;
                    if dst == src {
                        dst = (dst + 1) % procs as u32;
                    }
                    let class = match i % 8 {
                        0 => MsgClass::Unordered,
                        1 | 2 => MsgClass::Control,
                        _ => MsgClass::Ordered,
                    };
                    i += 1;
                    inject += SimDuration::from_ns(rng.next_below(200));
                    sched.push(Msg {
                        inject,
                        src,
                        dst,
                        payload: 1 << (4 + rng.next_below(12)), // 16 B .. 32 KB
                        class,
                    });
                }
            })
            .1;
        let secs = pr
            .span("run", |pr| {
                counted(pr, &mut out, |pr| {
                    pr.span("torus5d.NetState::try_deliver_op", |_| {
                        for m in &sched {
                            if let Delivery::Delivered(at) = net.try_deliver_op(
                                m.inject,
                                m.src as usize,
                                m.dst as usize,
                                m.payload as usize,
                                m.class,
                                None,
                            ) {
                                delivered += 1;
                                last = last.max(at);
                            }
                        }
                    });
                    pr.count("torus5d.messages", net.messages());
                })
            })
            .1;
        out.run_s += secs;
    }
    out.setup_s = setup_s;
    out.sim_time_ps = last.as_ps();
    out.net_msgs = net.messages();
    out.ops_failed = out.ops - delivered;
    out.check(net.messages() == out.ops); // delivered == sent
    out.teardown_s = pr.span("teardown", |pr| pr.span("drop", |_| drop(net)).1).1;
    out
}

// ---------------------------------------------------------------------
// The ARMCI stack shared by rmw_dense, rmw_sparse and rma_mix
// ---------------------------------------------------------------------

/// `Sim` + `Machine` (c = 16, two contexts) + `Armci` in AsyncThread mode.
struct Stack {
    sim: Sim,
    armci: Armci,
}

impl Stack {
    fn build(p: usize, pr: &mut Probe, out: &mut Outcome) -> Stack {
        let sim = pr.span("desim.Sim::new", |_| Sim::new()).0;
        let (machine, secs) = pr.span("pami.Machine::new", |_| {
            Machine::new(
                sim.clone(),
                MachineConfig::new(p).procs_per_node(16).contexts(2),
            )
        });
        out.machine_new_s = secs;
        let (armci, secs) = pr.span("armci.Armci::new", |_| {
            Armci::new(
                machine,
                ArmciConfig::default().progress(ProgressMode::AsyncThread),
            )
        });
        out.armci_new_s = secs;
        Stack { sim, armci }
    }

    /// Run the kernel until no event remains; reads the counts at the
    /// boundary.
    fn run(&self, pr: &mut Probe, out: &mut Outcome) -> f64 {
        pr.span("run", |pr| {
            counted(pr, out, |pr| {
                pr.span("desim.Sim::run", |_| self.sim.run());
                let m = self.armci.machine();
                pr.count("desim.events", self.sim.events_processed());
                pr.count("desim.task_slots", self.sim.task_slots() as u64);
                pr.count("pami.net_messages", m.net_messages());
                pr.count("pami.net_bytes", m.net_bytes());
                pr.count("pami.materialized", m.materialized_count() as u64);
            })
        })
        .1
    }

    fn teardown(self, pr: &mut Probe, out: &mut Outcome) {
        let m = self.armci.machine();
        out.sim_time_ps = self.sim.now().as_ps();
        out.events = self.sim.events_processed();
        out.net_msgs = m.net_messages();
        out.materialized = m.materialized_count() as u64;
        let (hits, misses, _) = self.armci.region_cache_totals();
        if hits + misses > 0 {
            out.region_hit_ratio = hits as f64 / (hits + misses) as f64;
        }
        out.induced_fences = self.armci.induced_fences();
        out.teardown_s = pr
            .span("teardown", |pr| {
                pr.span("armci.Armci::finalize", |_| self.armci.finalize());
                pr.span("desim.Sim::shutdown", |_| self.sim.shutdown());
                pr.span("drop", |_| drop(self));
            })
            .1;
    }
}

// ---------------------------------------------------------------------
// rmw_dense: every rank materializes, spawns and retires
// ---------------------------------------------------------------------

/// Fig 9's shape at p = 262144: every rank 1..p does one fetch-and-add (a
/// seeded increment) on a counter at rank 0, then the barrier.
fn rmw_dense(seed: u64, quick: bool, pr: &mut Probe) -> Outcome {
    let p = if quick { 2048 } else { 262_144 };
    let mut out = Outcome {
        ops: (p - 1) as u64,
        ..Outcome::default()
    };
    let done = Rc::new(Cell::new(0u64));
    let through_barrier = Rc::new(Cell::new(0usize));
    let mut expect = 0i64;
    let ((stack, counter), setup_s) = pr.span("setup", |pr| {
        let stack = Stack::build(p, pr, &mut out);
        let owner = stack.armci.machine().rank(0);
        let counter = owner.alloc(8);
        owner.write_i64(counter, 0);
        out.spawn_s = pr
            .span("desim.spawn_loop", |_| {
                let mut rng = SimRng::new(seed);
                for r in 0..p {
                    let rk = stack.armci.rank(r);
                    let inc = 1 + rng.next_below(8) as i64;
                    let (done, through) = (Rc::clone(&done), Rc::clone(&through_barrier));
                    if r > 0 {
                        expect += inc;
                    }
                    stack.sim.spawn(async move {
                        if r > 0 {
                            rk.rmw_fetch_add(0, counter, inc).await;
                            done.set(done.get() + 1);
                        }
                        rk.barrier().await;
                        through.set(through.get() + 1);
                    });
                }
            })
            .1;
        (stack, counter)
    });
    out.setup_s = setup_s;
    out.run_s = stack.run(pr, &mut out);
    let total = stack.armci.machine().rank(0).read_i64(counter);
    stack.teardown(pr, &mut out);
    out.ops_failed = out.ops - done.get();
    out.check(total == expect);
    out.check(through_barrier.get() == p);
    out.check(out.materialized == p as u64);
    out
}

// ---------------------------------------------------------------------
// rmw_sparse: the same op in steady state, nothing materializing
// ---------------------------------------------------------------------

/// p = 1 000 000 with 256 evenly-strided active ranks doing 16 rounds of
/// all-to-all fetch-and-add (seeded increments), no barrier: a barrier would
/// materialize the idle ranks. Each counter sits at offset 0 of its rank —
/// `alloc` would hand out an offset past the p·8 notification cells and drag
/// a p-proportional memory vector into every active rank.
fn rmw_sparse(seed: u64, quick: bool, pr: &mut Probe) -> Outcome {
    let (p, active, rounds) = if quick {
        (65_536usize, 32usize, 2usize)
    } else {
        (1_000_000, 256, 16)
    };
    let mut out = Outcome {
        ops: (active * (active - 1) * rounds) as u64,
        ..Outcome::default()
    };
    let ids: Rc<Vec<usize>> = Rc::new((0..active).map(|i| i * (p / active)).collect());
    let mut rng = SimRng::new(seed);
    let incs: Vec<i64> = (0..active).map(|_| 1 + rng.next_below(8) as i64).collect();
    let done = Rc::new(Cell::new(0u64));
    let (stack, setup_s) = pr.span("setup", |pr| {
        let stack = Stack::build(p, pr, &mut out);
        out.spawn_s = pr
            .span("desim.spawn_loop", |_| {
                for &r in ids.iter() {
                    stack.armci.machine().rank(r).write_i64(0, 0);
                }
                for (i, &r) in ids.iter().enumerate() {
                    let rk = stack.armci.rank(r);
                    let (ids, done, inc) = (Rc::clone(&ids), Rc::clone(&done), incs[i]);
                    stack.sim.spawn(async move {
                        for _ in 0..rounds {
                            for &t in ids.iter() {
                                if t != r {
                                    rk.rmw_fetch_add(t, 0, inc).await;
                                    done.set(done.get() + 1);
                                }
                            }
                        }
                    });
                }
            })
            .1;
        stack
    });
    out.setup_s = setup_s;
    out.run_s = stack.run(pr, &mut out);
    // Every active rank received every other active rank's increment once
    // per round.
    let sum: i64 = incs.iter().sum();
    let counters: Vec<i64> = ids
        .iter()
        .map(|&r| stack.armci.machine().rank(r).read_i64(0))
        .collect();
    stack.teardown(pr, &mut out);
    out.ops_failed = out.ops - done.get();
    for (got, inc) in counters.iter().zip(&incs) {
        out.check(*got == (sum - inc) * rounds as i64);
    }
    out.check(out.materialized == active as u64);
    out
}

// ---------------------------------------------------------------------
// rma_mix: the ARMCI op paths side by side
// ---------------------------------------------------------------------

const KB: usize = 1024;
/// Each rank's collective segment: puts, gets and strided transfers land in
/// `[0, SHARED)`, accumulates in `[ACC, SLOTS)`, and `[SLOTS, SEG)` holds one
/// 1 KB slot per source rank that only that source writes.
const SEG: usize = 256 * KB;
const SHARED: usize = 128 * KB;
const ACC: usize = SHARED;
const ACC_ELEMS: usize = 64 * KB / 8;
const SLOTS: usize = 192 * KB;
/// Each rank's private buffer: `[0, STAGE)` stages gets and puts,
/// `[STAGE, STAGE + 4·16 KB)` holds the accumulate sources (16 KB of the
/// value 1.0, of 2.0, of 3.0 and of 4.0).
const STAGE: usize = 16 * KB;
const LOCAL: usize = STAGE + 4 * 16 * KB;
/// Bytes of a private-slot pattern.
const PATTERN: usize = 64;
/// `fence_all` after every this many ops.
const FENCE_EVERY: usize = 64;

enum RmaOp {
    Get {
        t: usize,
        off: usize,
        len: usize,
    },
    Put {
        t: usize,
        off: usize,
        len: usize,
    },
    GetStrided {
        t: usize,
        off: usize,
        rows: usize,
        row: usize,
    },
    PutStrided {
        t: usize,
        off: usize,
        rows: usize,
        row: usize,
    },
    /// `elems` f64s of the value `val` onto `[ACC + 8·at, ..)`.
    Acc {
        t: usize,
        at: usize,
        elems: usize,
        val: usize,
    },
    /// Write this rank's pattern for block `block` into its slot at `t`;
    /// the last op before a fence.
    SlotPut {
        t: usize,
        block: usize,
    },
    /// Read the slot back; the first op after that fence.
    SlotGet {
        t: usize,
        block: usize,
    },
}

fn pattern(seed: u64, rank: usize, block: usize) -> [u8; PATTERN] {
    let mut rng = SimRng::new(seed).derive(((rank as u64) << 32) | block as u64);
    let mut bytes = [0u8; PATTERN];
    for chunk in bytes.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    bytes
}

/// Rank `r`'s seeded op list, and what its accumulates add to `expect_acc`
/// (`expect_acc[t][i]` = final value of element `i` of rank `t`'s ACC area).
fn rma_ops(seed: u64, r: usize, p: usize, nops: usize, expect_acc: &mut [Vec<f64>]) -> Vec<RmaOp> {
    let mut rng = SimRng::new(seed).derive(r as u64);
    let mut ops = Vec::with_capacity(nops);
    let mut slot_target = 0;
    for i in 0..nops {
        let mut t = rng.next_below(p as u64 - 1) as usize;
        if t >= r {
            t += 1; // never self
        }
        let block = i / FENCE_EVERY;
        ops.push(if i % FENCE_EVERY == FENCE_EVERY - 1 {
            slot_target = t;
            RmaOp::SlotPut { t, block }
        } else if i % FENCE_EVERY == 0 && i > 0 {
            RmaOp::SlotGet {
                t: slot_target,
                block: block - 1,
            }
        } else {
            match rng.next_below(8) {
                0..=2 => {
                    let len = 8usize << rng.next_below(12); // 8 B .. 16 KB
                    let off = 8 * rng.next_below(((SHARED - len) / 8 + 1) as u64) as usize;
                    RmaOp::Get { t, off, len }
                }
                3 | 4 => {
                    let len = 8usize << rng.next_below(12);
                    let off = 8 * rng.next_below(((SHARED - len) / 8 + 1) as u64) as usize;
                    RmaOp::Put { t, off, len }
                }
                k @ (5 | 6) => {
                    let rows = 1 + rng.next_below(32) as usize;
                    let row = 64 << rng.next_below(4); // 64 .. 512 B
                    let extent = rows * (row + 64);
                    let off = 8 * rng.next_below(((SHARED - extent) / 8 + 1) as u64) as usize;
                    if k == 5 {
                        RmaOp::GetStrided { t, off, rows, row }
                    } else {
                        RmaOp::PutStrided { t, off, rows, row }
                    }
                }
                _ => {
                    let elems = 1usize << rng.next_below(12); // 8 B .. 16 KB
                    let at = rng.next_below((ACC_ELEMS - elems + 1) as u64) as usize;
                    let val = 1 + rng.next_below(4) as usize;
                    for e in &mut expect_acc[t][at..at + elems] {
                        *e += val as f64;
                    }
                    RmaOp::Acc { t, at, elems, val }
                }
            }
        });
    }
    ops
}

/// One rank's program: its ops in order, a `fence_all` after every 64th, the
/// barrier at the end. Returns how many slot read-backs matched.
#[allow(clippy::too_many_arguments)]
async fn rma_program(
    rk: ArmciRank,
    ops: Vec<RmaOp>,
    seg: Rc<Vec<usize>>,
    local: usize,
    seed: u64,
    done: Rc<Cell<u64>>,
    readbacks_ok: Rc<Cell<u64>>,
) {
    let me = rk.id();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            RmaOp::Get { t, off, len } => rk.get(t, local, seg[t] + off, len).await,
            RmaOp::Put { t, off, len } => rk.put(t, local, seg[t] + off, len).await,
            RmaOp::GetStrided { t, off, rows, row } => {
                let (l, r) = strided_pair(local, seg[t] + off, rows, row);
                rk.get_strided(t, &l, &r).await;
            }
            RmaOp::PutStrided { t, off, rows, row } => {
                let (l, r) = strided_pair(local, seg[t] + off, rows, row);
                rk.put_strided(t, &l, &r).await;
            }
            RmaOp::Acc { t, at, elems, val } => {
                let src = local + STAGE + (val - 1) * 16 * KB;
                rk.acc(t, src, seg[t] + ACC + 8 * at, elems, 1.0).await;
            }
            RmaOp::SlotPut { t, block } => {
                rk.pami().write_bytes(local, &pattern(seed, me, block));
                rk.put(t, local, seg[t] + SLOTS + me * KB, PATTERN).await;
            }
            RmaOp::SlotGet { t, block } => {
                rk.get(t, local + PATTERN, seg[t] + SLOTS + me * KB, PATTERN)
                    .await;
                let got = rk.pami().read_bytes(local + PATTERN, PATTERN);
                if got == pattern(seed, me, block) {
                    readbacks_ok.set(readbacks_ok.get() + 1);
                }
            }
        }
        done.set(done.get() + 1);
        if i % FENCE_EVERY == FENCE_EVERY - 1 {
            rk.fence_all().await;
        }
    }
    rk.barrier().await;
}

/// A dense local buffer against a remote patch whose rows are 64 B apart.
fn strided_pair(local: usize, remote: usize, rows: usize, row: usize) -> (Strided, Strided) {
    (
        Strided::patch2d(local, row, rows, row),
        Strided::patch2d(remote, row, rows, row + 64),
    )
}

/// p = 64; each rank issues 4000 seeded blocking ops at random targets over a
/// 256 KB collective segment — 3/8 get, 2/8 put, 1/8 get_strided, 1/8
/// put_strided, 1/8 acc — with a `fence_all` every 64 ops and a final
/// barrier. Reads sit beside writes on the same region, so location
/// consistency induces fences.
fn rma_mix(seed: u64, quick: bool, pr: &mut Probe) -> Outcome {
    let (p, nops) = if quick {
        (16usize, 200usize)
    } else {
        (64, 4000)
    };
    let mut out = Outcome {
        ops: (p * nops) as u64,
        ..Outcome::default()
    };
    let done = Rc::new(Cell::new(0u64));
    let readbacks_ok = Rc::new(Cell::new(0u64));
    let ((stack, seg, expect_acc), setup_s) = pr.span("setup", |pr| {
        let (programs, expect_acc) = pr
            .span("setup.generate_ops", |_| {
                let mut expect_acc = vec![vec![0.0f64; ACC_ELEMS]; p];
                let programs: Vec<Vec<RmaOp>> = (0..p)
                    .map(|r| rma_ops(seed, r, p, nops, &mut expect_acc))
                    .collect();
                (programs, expect_acc)
            })
            .0;
        let stack = Stack::build(p, pr, &mut out);
        // Collective allocation is part of set-up: run it to quiescence
        // before the timed phase.
        let seg: Rc<RefCell<Vec<usize>>> = Rc::default();
        let locals = Rc::new(RefCell::new(vec![0usize; p]));
        pr.span("armci.malloc_collective", |_| {
            for r in 0..p {
                let rk = stack.armci.rank(r);
                let (seg, locals) = (Rc::clone(&seg), Rc::clone(&locals));
                stack.sim.spawn(async move {
                    let offs = rk.malloc_collective(SEG).await;
                    let local = rk.malloc(LOCAL).await;
                    locals.borrow_mut()[r] = local;
                    if r == 0 {
                        *seg.borrow_mut() = offs;
                    }
                });
            }
            stack.sim.run();
        });
        let seg = Rc::new(seg.take());
        out.spawn_s = pr
            .span("desim.spawn_loop", |_| {
                for (r, ops) in programs.into_iter().enumerate() {
                    let rk = stack.armci.rank(r);
                    let local = locals.borrow()[r];
                    for v in 0..4 {
                        rk.pami().write_f64s(
                            local + STAGE + v * 16 * KB,
                            &vec![(v + 1) as f64; 16 * KB / 8],
                        );
                    }
                    stack.sim.spawn(rma_program(
                        rk,
                        ops,
                        Rc::clone(&seg),
                        local,
                        seed,
                        Rc::clone(&done),
                        Rc::clone(&readbacks_ok),
                    ));
                }
            })
            .1;
        (stack, seg, expect_acc)
    });
    out.setup_s = setup_s;
    out.run_s = stack.run(pr, &mut out);
    // Every rank's ACC area holds exactly what the accumulates aimed at it
    // add up to (small whole numbers: exact in f64 in any order).
    let acc_ok: Vec<bool> = (0..p)
        .map(|t| {
            let got = stack
                .armci
                .machine()
                .rank(t)
                .read_f64s(seg[t] + ACC, ACC_ELEMS);
            got == expect_acc[t]
        })
        .collect();
    stack.teardown(pr, &mut out);
    out.ops_failed = out.ops - done.get();
    for ok in acc_ok {
        out.check(ok);
    }
    // put → fence → get on a private slot reads back what was put.
    let readbacks = (p * ((nops - 1) / FENCE_EVERY)) as u64;
    out.checks += readbacks;
    out.checks_failed += readbacks - readbacks_ok.get();
    out.check(out.materialized == p as u64);
    out
}

// ---------------------------------------------------------------------
// scf_fock: the paper's application
// ---------------------------------------------------------------------

/// `run_scf(256, paper{repeat_factor: 24, iterations: 2})`: Global-Arrays
/// patch decomposition over strided ARMCI, the task counter on rank 0 and the
/// collectives. `run_scf` builds, runs and tears down in one call, so the run
/// phase is that call; set-up times an identical construction (machine,
/// runtime, both 644² arrays, the counter) beforehand so that construction
/// cost has a number of its own.
fn scf_fock(seed: u64, quick: bool, pr: &mut Probe) -> Outcome {
    let (p, repeat_factor, iterations) = if quick { (32, 1, 1) } else { (256, 24, 2) };
    let cfg = ScfConfig {
        repeat_factor,
        iterations,
        seed,
        ..ScfConfig::paper(ProgressMode::AsyncThread)
    };
    let tasks = (cfg.tasks_per_iter() * iterations) as u64;
    let mut out = Outcome {
        ops: tasks,
        ..Outcome::default()
    };
    out.setup_s = pr
        .span("setup", |pr| {
            let stack = Stack::build(p, pr, &mut out);
            pr.span("ga.Ga::create", |_| {
                let density = Ga::create(&stack.armci, "density", cfg.nbf, cfg.nbf);
                let fock = Ga::create(&stack.armci, "fock", cfg.nbf, cfg.nbf);
                density.fill(0.1);
                fock.fill(0.0);
                SharedCounter::create(&stack.armci, 0);
            });
            pr.span("drop", |_| drop(stack));
        })
        .1;
    let (report, run_s) = pr.span("run", |pr| {
        counted(pr, &mut out, |pr| {
            let report = pr.span("scf.run_scf", |_| nwchem_scf::run_scf(p, &cfg)).0;
            pr.count("scf.tasks_per_iter", report.tasks_per_iter as u64);
            pr.count("scf.iterations", report.iterations as u64);
            pr.count("scf.rmw_count", report.rmw_count);
            report
        })
    });
    out.run_s = run_s;
    out.sim_time_ps = (report.total_us * 1e6).round() as u64;
    // Every rank overdraws the task counter once per iteration, so the
    // fetch-and-add count fixes the number of tasks handed out.
    let handed_out = report.rmw_count as i64 - (iterations * p) as i64;
    out.ops_failed = (tasks as i64 - handed_out).unsigned_abs().min(tasks);
    out.check((report.tasks_per_iter * report.iterations) as u64 == tasks);
    out.check(report.tasks_min > 0);
    // `run_scf` finalizes and shuts down inside the call: only the report
    // is left to drop.
    out.teardown_s = pr.span("teardown", |_| drop(report)).1;
    out
}
