//! Collective operations over the BG/Q collective network.
//!
//! Blue Gene/Q integrates a hardware collective/barrier network with the
//! torus (paper §II-A); Global Arrays' `ga_dgop`/`ga_brdcst` and NWChem's
//! convergence checks ride it. The model: all ranks arrive, the combined
//! result is available `barrier_cost(p) + bytes·G_coll` after the last
//! arrival (the collective network runs at link rate with near-constant
//! latency).

use std::cell::RefCell;
use std::rc::Rc;

use desim::{Completion, FxHashMap, Probe};

use crate::ops::ArmciRank;

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

/// In-flight collective state, keyed by per-kind sequence number.
pub(crate) struct CollectiveOp {
    arrived: usize,
    acc: Vec<f64>,
    bytes_payload: Vec<u8>,
    done: Completion<Rc<(Vec<f64>, Vec<u8>)>>,
}

/// Shared collective-engine state (one per runtime). Per-rank sequence
/// counters are sparse: ranks that never join a collective carry no slot.
#[derive(Default)]
pub(crate) struct CollectiveEngine {
    reduce_seq: RefCell<FxHashMap<usize, u64>>,
    reduces: RefCell<FxHashMap<u64, CollectiveOp>>,
    bcast_seq: RefCell<FxHashMap<usize, u64>>,
    bcasts: RefCell<FxHashMap<u64, CollectiveOp>>,
}

fn next_seq(seqs: &RefCell<FxHashMap<usize, u64>>, rank: usize) -> u64 {
    let mut s = seqs.borrow_mut();
    let e = s.entry(rank).or_insert(0);
    let v = *e;
    *e += 1;
    v
}

impl ArmciRank {
    /// All-reduce a vector of f64 over all ranks on the collective network.
    /// Every rank must call it in the same order with the same length.
    pub async fn allreduce_f64(&self, xs: &[f64], op: ReduceOp) -> Vec<f64> {
        let p = self.armci().nprocs();
        let eng = &self.armci().inner.coll;
        let seq = next_seq(&eng.reduce_seq, self.id());
        let (done, ready) = {
            let mut reds = eng.reduces.borrow_mut();
            let st = reds.entry(seq).or_insert_with(|| CollectiveOp {
                arrived: 0,
                acc: Vec::new(),
                bytes_payload: Vec::new(),
                done: Completion::new(),
            });
            if st.acc.is_empty() {
                st.acc = xs.to_vec();
            } else {
                assert_eq!(st.acc.len(), xs.len(), "allreduce length mismatch");
                op.apply(&mut st.acc, xs);
            }
            st.arrived += 1;
            (st.done.clone(), st.arrived == p)
        };
        if ready {
            let st = eng
                .reduces
                .borrow_mut()
                .remove(&seq)
                .expect("collective state present");
            let params = self.armci().machine().params();
            let cost = params.barrier_cost(p) + params.wire_time(xs.len() * 8);
            let result = Rc::new((st.acc, Vec::new()));
            let done2 = st.done.clone();
            self.armci()
                .sim()
                .schedule_in(cost, move || done2.complete(result));
            self.armci().sim().count(&ALLREDUCE, 1);
        }
        let out = self.pami().progress_wait(&done).await;
        out.0.clone()
    }

    /// Broadcast bytes from `root` to all ranks over the collective network.
    /// Non-root ranks pass `None` and receive the root's data.
    pub async fn broadcast(&self, root: usize, data: Option<Vec<u8>>) -> Vec<u8> {
        let p = self.armci().nprocs();
        assert_eq!(
            self.id() == root,
            data.is_some(),
            "exactly the root provides data"
        );
        let eng = &self.armci().inner.coll;
        let seq = next_seq(&eng.bcast_seq, self.id());
        let (done, ready, nbytes) = {
            let mut bc = eng.bcasts.borrow_mut();
            let st = bc.entry(seq).or_insert_with(|| CollectiveOp {
                arrived: 0,
                acc: Vec::new(),
                bytes_payload: Vec::new(),
                done: Completion::new(),
            });
            if let Some(d) = data {
                st.bytes_payload = d;
            }
            st.arrived += 1;
            (st.done.clone(), st.arrived == p, st.bytes_payload.len())
        };
        if ready {
            let st = eng
                .bcasts
                .borrow_mut()
                .remove(&seq)
                .expect("collective state present");
            let params = self.armci().machine().params();
            let cost =
                params.barrier_cost(p) + params.wire_time(nbytes.max(st.bytes_payload.len()));
            let result = Rc::new((Vec::new(), st.bytes_payload));
            let done2 = st.done.clone();
            self.armci()
                .sim()
                .schedule_in(cost, move || done2.complete(result));
            self.armci().sim().count(&BROADCAST, 1);
        }
        let out = self.pami().progress_wait(&done).await;
        out.1.clone()
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
