//! Collective operations over the BG/Q collective network.
//!
//! Blue Gene/Q integrates a hardware collective/barrier network with the
//! torus (paper §II-A); Global Arrays' `ga_dgop`/`ga_brdcst` and NWChem's
//! convergence checks ride it. The model: all ranks arrive, the combined
//! result is available `barrier_cost(p) + bytes·G_coll` after the last
//! arrival (the collective network runs at link rate with near-constant
//! latency).
//!
//! Every collective — barrier, allreduce, broadcast, collective allocation
//! — is one `Round` on the runtime: a rank joins the round in progress
//! (or opens one), folds in its `Part`, and the last arrival closes it
//! with its kind's closing step. No rank leaves a round before the last one
//! has joined, so one slot serves every kind and no sequence numbers are
//! needed; a rank that joins a round of another kind panics.

use std::rc::Rc;

use desim::{Completion, Probe};

use crate::ops::ArmciRank;
use crate::region_cache::{RegionTable, RemoteRegion};

static ALLREDUCE: Probe = Probe::new().count("armci.allreduce");
static BROADCAST: Probe = Probe::new().count("armci.broadcast");

/// Reduction operator for [`ArmciRank::allreduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f64], xs: &[f64]) {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a = match self {
                ReduceOp::Sum => *a + x,
                ReduceOp::Max => a.max(x),
                ReduceOp::Min => a.min(x),
            };
        }
    }
}

/// One rank's part of a collective round.
pub(crate) enum Part<'a> {
    Barrier,
    Allreduce(&'a [f64], ReduceOp),
    /// The root's bytes; `None` at every other rank.
    Broadcast(Option<Vec<u8>>),
    /// This rank's block of a collective allocation of `len` bytes.
    Alloc {
        off: usize,
        len: usize,
    },
}

impl Part<'_> {
    /// The call this part comes from, which names the round's kind.
    fn kind(&self) -> &'static str {
        match self {
            Part::Barrier => "barrier",
            Part::Allreduce(..) => "allreduce_f64",
            Part::Broadcast(_) => "broadcast",
            Part::Alloc { .. } => "malloc_collective",
        }
    }
}

/// What a closed round hands every rank.
#[derive(Default)]
pub(crate) struct Outcome {
    /// The reduced vector (allreduce).
    pub f64s: Vec<f64>,
    /// The root's bytes (broadcast).
    pub bytes: Vec<u8>,
    /// Every rank's block offset (collective allocation).
    pub offs: Vec<usize>,
}

/// The collective round in progress (`ArmciInner::round`).
pub(crate) struct Round {
    kind: &'static str,
    arrived: usize,
    out: Outcome,
    done: Completion<Rc<Outcome>>,
}

impl ArmciRank {
    /// Join the collective round in progress, or open one, and fold in
    /// `part`. The last arrival runs the kind's closing step and completes
    /// the round `barrier_cost(p) + wire_time(bytes)` later. A plain
    /// function the caller awaits with `progress_wait`: an `async` join
    /// would sit in every collective's future.
    pub(crate) fn join_round(&self, part: Part<'_>) -> Completion<Rc<Outcome>> {
        let a = self.armci();
        let p = a.nprocs();
        let mut slot = a.inner.round.borrow_mut();
        let round = slot.get_or_insert_with(|| Round {
            kind: part.kind(),
            arrived: 0,
            out: Outcome::default(),
            done: Completion::new(),
        });
        assert!(
            round.kind == part.kind(),
            "collective kind mismatch: rank {} called {} while a {} round is open",
            self.id(),
            part.kind(),
            round.kind
        );
        let first = round.arrived == 0;
        round.arrived += 1;
        let last = round.arrived == p;
        let out = &mut round.out;
        let bytes = match part {
            Part::Barrier => 0,
            Part::Allreduce(xs, op) => {
                if first {
                    out.f64s = xs.to_vec();
                } else {
                    assert_eq!(out.f64s.len(), xs.len(), "allreduce length mismatch");
                    op.apply(&mut out.f64s, xs);
                }
                if last {
                    a.sim().count(&ALLREDUCE, 1);
                }
                xs.len() * 8
            }
            Part::Broadcast(data) => {
                if let Some(d) = data {
                    out.bytes = d;
                }
                if last {
                    a.sim().count(&BROADCAST, 1);
                }
                out.bytes.len()
            }
            Part::Alloc { off, len } => {
                if first {
                    out.offs = vec![0; p];
                }
                out.offs[self.id()] = off;
                if last {
                    // Exchange region keys: one table of the blocks that
                    // registered, shared by every rank's cache.
                    let table: RegionTable = out
                        .offs
                        .iter()
                        .enumerate()
                        .map(|(owner, &off)| {
                            let registered = a.machine().rank(owner).find_region(off, len);
                            registered.map(|_| RemoteRegion { off, len })
                        })
                        .collect();
                    a.seed_collective(&table);
                }
                0
            }
        };
        let done = round.done.clone();
        if last {
            let out = Rc::new(slot.take().expect("the round is open").out);
            let params = a.machine().params();
            let cost = params.barrier_cost(p) + params.wire_time(bytes);
            let closed = done.clone();
            a.sim().schedule_in(cost, move || closed.complete(out));
        }
        done
    }

    /// All-reduce a vector of f64 over all ranks on the collective network.
    /// Every rank must call it in the same order with the same length.
    pub async fn allreduce_f64(&self, xs: &[f64], op: ReduceOp) -> Vec<f64> {
        let done = self.join_round(Part::Allreduce(xs, op));
        self.pami().progress_wait(&done).await.f64s.clone()
    }

    /// Broadcast bytes from `root` to all ranks over the collective network.
    /// Non-root ranks pass `None` and receive the root's data.
    pub async fn broadcast(&self, root: usize, data: Option<Vec<u8>>) -> Vec<u8> {
        assert_eq!(
            self.id() == root,
            data.is_some(),
            "exactly the root provides data"
        );
        let done = self.join_round(Part::Broadcast(data));
        self.pami().progress_wait(&done).await.bytes.clone()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Armci, ArmciConfig};
    use desim::{Sim, SimDuration, SimTime};
    use pami_sim::{Machine, MachineConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::ReduceOp;

    fn setup(p: usize) -> (Sim, Armci) {
        let sim = Sim::new();
        let machine = Machine::new(
            sim.clone(),
            MachineConfig::new(p).procs_per_node(1).contexts(2),
        );
        let armci = Armci::new(machine, ArmciConfig::default());
        (sim, armci)
    }

    #[test]
    fn allreduce_sum_and_max() {
        let p = 5;
        let (sim, a) = setup(p);
        type Outs = Rc<RefCell<Vec<(Vec<f64>, Vec<f64>)>>>;
        let outs: Outs = Rc::new(RefCell::new(vec![Default::default(); p]));
        for r in 0..p {
            let rk = a.rank(r);
            let outs = Rc::clone(&outs);
            sim.spawn(async move {
                let sum = rk.allreduce_f64(&[r as f64, 1.0], ReduceOp::Sum).await;
                let max = rk
                    .allreduce_f64(&[r as f64, -(r as f64)], ReduceOp::Max)
                    .await;
                outs.borrow_mut()[r] = (sum, max);
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        a.finalize();
        sim.shutdown();
        for r in 0..p {
            let (sum, max) = &outs.borrow()[r];
            assert_eq!(sum, &vec![10.0, 5.0], "rank {r}");
            assert_eq!(max, &vec![4.0, 0.0], "rank {r}");
        }
    }

    #[test]
    fn allreduce_synchronizes_on_last_arrival() {
        let p = 3;
        let (sim, a) = setup(p);
        let times: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; p]));
        for r in 0..p {
            let rk = a.rank(r);
            let s = sim.clone();
            let times = Rc::clone(&times);
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(r as u64 * 100)).await;
                rk.allreduce_f64(&[1.0], ReduceOp::Sum).await;
                times.borrow_mut()[r] = s.now().as_us();
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        a.finalize();
        sim.shutdown();
        let times = times.borrow();
        assert!(times.iter().all(|&t| t >= 200.0), "{times:?}");
        assert!((times[0] - times[2]).abs() < 1e-9);
    }

    #[test]
    fn broadcast_delivers_root_payload() {
        let p = 4;
        let (sim, a) = setup(p);
        let outs: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(vec![Vec::new(); p]));
        for r in 0..p {
            let rk = a.rank(r);
            let outs = Rc::clone(&outs);
            sim.spawn(async move {
                let payload = (r == 2).then(|| vec![7u8, 8, 9]);
                let got = rk.broadcast(2, payload).await;
                outs.borrow_mut()[r] = got;
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        a.finalize();
        sim.shutdown();
        for r in 0..p {
            assert_eq!(outs.borrow()[r], vec![7, 8, 9], "rank {r}");
        }
    }

    #[test]
    fn repeated_collectives_keep_order() {
        let p = 3;
        let (sim, a) = setup(p);
        let ok = Rc::new(RefCell::new(0));
        for r in 0..p {
            let rk = a.rank(r);
            let ok = Rc::clone(&ok);
            sim.spawn(async move {
                for round in 0..5 {
                    let s = rk.allreduce_f64(&[round as f64], ReduceOp::Sum).await;
                    assert_eq!(s, vec![(round * 3) as f64]);
                }
                *ok.borrow_mut() += 1;
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        a.finalize();
        sim.shutdown();
        assert_eq!(*ok.borrow(), p);
    }
}
