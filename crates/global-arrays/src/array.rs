//! Block-distributed dense 2D arrays with one-sided patch access.

use std::future::Future;
use std::rc::Rc;

use armci::{Armci, ArmciRank, RegionTable, RemoteRegion, Strided};
use desim::memprof::{self, MemTag};

use crate::distribution::BlockDist;

/// Distributed-array metadata and staging buffers.
static GA_TAG: MemTag = MemTag::new("ga.arrays");

struct GaInner {
    #[allow(dead_code)]
    name: String,
    dist: BlockDist,
    /// Per-rank base offset of the local block in that rank's memory.
    bases: Vec<usize>,
    armci: Armci,
}

/// What [`Ga::patch`] does with each owner's piece of a patch.
#[derive(Clone, Copy)]
enum PatchOp {
    Get,
    Put,
    /// `A[patch] += scale·buf`.
    Acc(f64),
}

/// A dense, block-distributed 2D array of f64 (a "global array").
///
/// Creation is collective setup (regions are registered untimed so
/// measurement windows exclude allocation); all data movement afterwards
/// goes through ARMCI strided operations and is fully timed.
#[derive(Clone)]
pub struct Ga {
    inner: Rc<GaInner>,
}

impl Ga {
    /// Create an `rows × cols` array distributed over all ranks of `armci`.
    pub fn create(armci: &Armci, name: &str, rows: usize, cols: usize) -> Ga {
        let _mem = memprof::scope(&GA_TAG);
        let p = armci.nprocs();
        let dist = BlockDist::new(rows, cols, p);
        let mut bases = Vec::with_capacity(p);
        let mut regions = Vec::with_capacity(p);
        for r in 0..p {
            let pr = armci.machine().rank(r);
            let elems = dist.local_elems(r);
            let len = elems.max(1) * 8;
            let off = pr.alloc(len);
            // Register the block for RDMA; failures simply mean the
            // fall-back protocol will be used for this block.
            let registered = pr.register_region_untimed(off, len).is_ok();
            bases.push(off);
            regions.push(registered.then_some(RemoteRegion { off, len }));
        }
        // Collective allocation exchanges region keys among all ranks
        // (ARMCI_Malloc semantics): one table, shared by every rank's cache.
        armci.seed_collective(&RegionTable::from(regions));
        Ga {
            inner: Rc::new(GaInner {
                name: name.to_string(),
                dist,
                bases,
                armci: armci.clone(),
            }),
        }
    }

    /// The distribution of this array.
    pub fn dist(&self) -> &BlockDist {
        &self.inner.dist
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.inner.dist.rows, self.inner.dist.cols)
    }

    /// Base offset of `rank`'s local block (for local access).
    pub fn base_of(&self, rank: usize) -> usize {
        self.inner.bases[rank]
    }

    /// Strided descriptor addressing the intersection of
    /// `[rlo,rhi)×[clo,chi)` with `rank`'s block, in that rank's memory.
    fn owner_desc(&self, rank: usize, rlo: usize, rhi: usize, clo: usize, chi: usize) -> Strided {
        let ((brlo, _), (bclo, bchi)) = self.inner.dist.block_of(rank);
        let ld = (bchi - bclo) * 8;
        let first = self.inner.bases[rank] + ((rlo - brlo) * (bchi - bclo) + (clo - bclo)) * 8;
        Strided::patch2d(first, (chi - clo) * 8, rhi - rlo, ld)
    }

    /// Strided descriptor for the caller's dense local buffer holding the
    /// sub-patch rows `[rlo,rhi)` cols `[clo,chi)` of a patch whose full
    /// extent is `[prlo,prhi)×[pclo,pchi)` laid out row-major at `buf`.
    #[allow(clippy::too_many_arguments)] // mirrors GA's NGA_Get patch signature
    fn local_desc(
        buf: usize,
        prlo: usize,
        pclo: usize,
        pchi: usize,
        rlo: usize,
        rhi: usize,
        clo: usize,
        chi: usize,
    ) -> Strided {
        let patch_ld = (pchi - pclo) * 8;
        let first = buf + ((rlo - prlo) * (pchi - pclo) + (clo - pclo)) * 8;
        Strided::patch2d(first, (chi - clo) * 8, rhi - rlo, patch_ld)
    }

    /// The one patch loop: issue `op` on the intersection of the patch
    /// `[rlo,rhi)×[clo,chi)` with each owner's block, against the matching
    /// part of the caller's dense row-major buffer at `buf`, then wait for
    /// every piece.
    #[allow(clippy::too_many_arguments)]
    // GA's patch signature plus the op
    // An `async move` block, not an `async fn`: the arguments live in the future
    // once, as captures, instead of twice (DESIGN.md, "Ops as data").
    #[allow(clippy::manual_async_fn)]
    fn patch<'a>(
        &'a self,
        op: PatchOp,
        caller: &'a ArmciRank,
        rlo: usize,
        rhi: usize,
        clo: usize,
        chi: usize,
        buf: usize,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            let mut handles = Vec::new();
            for (owner, (orlo, orhi), (oclo, ochi)) in
                self.inner.dist.owners_of_patch(rlo, rhi, clo, chi)
            {
                let remote = self.owner_desc(owner, orlo, orhi, oclo, ochi);
                let local = Self::local_desc(buf, rlo, clo, chi, orlo, orhi, oclo, ochi);
                handles.push(match op {
                    PatchOp::Get => caller.nbget_strided(owner, &local, &remote).await,
                    PatchOp::Put => caller.nbput_strided(owner, &local, &remote).await,
                    PatchOp::Acc(scale) => {
                        caller.nbacc_strided(owner, &local, &remote, scale).await
                    }
                });
            }
            for h in &handles {
                caller.wait(h).await;
            }
        }
    }

    /// One-sided get of the patch `[rlo,rhi)×[clo,chi)` into the caller's
    /// dense row-major buffer at `buf` (must hold the full patch).
    pub fn get_patch<'a>(
        &'a self,
        caller: &'a ArmciRank,
        rlo: usize,
        rhi: usize,
        clo: usize,
        chi: usize,
        buf: usize,
    ) -> impl Future<Output = ()> + 'a {
        self.patch(PatchOp::Get, caller, rlo, rhi, clo, chi, buf)
    }

    /// One-sided put of the caller's dense buffer into the patch.
    pub fn put_patch<'a>(
        &'a self,
        caller: &'a ArmciRank,
        rlo: usize,
        rhi: usize,
        clo: usize,
        chi: usize,
        buf: usize,
    ) -> impl Future<Output = ()> + 'a {
        self.patch(PatchOp::Put, caller, rlo, rhi, clo, chi, buf)
    }

    /// One-sided accumulate (`A[patch] += scale·buf`) of the caller's dense
    /// buffer into the patch. Completes locally; fence to make it visible.
    #[allow(clippy::too_many_arguments)] // mirrors GA's NGA_Acc patch signature
    pub fn acc_patch<'a>(
        &'a self,
        caller: &'a ArmciRank,
        rlo: usize,
        rhi: usize,
        clo: usize,
        chi: usize,
        buf: usize,
        scale: f64,
    ) -> impl Future<Output = ()> + 'a {
        self.patch(PatchOp::Acc(scale), caller, rlo, rhi, clo, chi, buf)
    }

    /// Scatter-accumulate of individual elements (`A[i,j] += scale·v` for
    /// each update) over the active-message path: one small value-carrying
    /// AM per element, routed to the element's owner. With AM batching
    /// enabled on the machine, updates headed to the same owner coalesce
    /// into single wire messages — the NGA_Scatter_acc pattern the
    /// aggregation layer exists for. Fenced before returning: all updates
    /// are applied at their owners when this completes.
    pub async fn scatter_acc_am(
        &self,
        caller: &ArmciRank,
        updates: &[(usize, usize, f64)],
        scale: f64,
    ) {
        let mut owners: Vec<usize> = Vec::new();
        for &(i, j, v) in updates {
            let owner = self.inner.dist.owner_of(i, j);
            let ((brlo, _), (bclo, bchi)) = self.inner.dist.block_of(owner);
            let off = self.inner.bases[owner] + ((i - brlo) * (bchi - bclo) + (j - bclo)) * 8;
            caller.acc_am(owner, off, &[v], scale).await;
            owners.push(owner);
        }
        // Fence each touched owner once, in ascending order.
        owners.sort_unstable();
        owners.dedup();
        for owner in owners {
            caller.am_fence(owner).await;
        }
    }

    // ------------------------------------------------------------------
    // Collective reductions (GA's ga_dgop family, on the collective net)
    // ------------------------------------------------------------------

    /// Collective global sum of all elements (ga_dgop-style): each rank sums
    /// its local block (modelled flop time) and the partial sums ride the
    /// collective network. Every rank must call it.
    pub async fn global_sum(&self, caller: &ArmciRank) -> f64 {
        let elems = self.inner.dist.local_elems(caller.id());
        let base = self.inner.bases[caller.id()];
        let local: f64 = caller.pami().read_f64s(base, elems).iter().sum();
        // Local reduction flops at the accumulate rate.
        let params = self.inner.armci.machine().params().clone();
        caller
            .armci()
            .sim()
            .sleep(desim::SimDuration::from_ps(
                elems as u64 * params.acc_elem_time_ps,
            ))
            .await;
        caller.allreduce_f64(&[local], armci::ReduceOp::Sum).await[0]
    }

    /// Collective trace (sum of diagonal elements; square arrays).
    pub async fn trace(&self, caller: &ArmciRank) -> f64 {
        assert_eq!(
            self.inner.dist.rows, self.inner.dist.cols,
            "trace needs square"
        );
        let ((rlo, rhi), (clo, chi)) = self.inner.dist.block_of(caller.id());
        let base = self.inner.bases[caller.id()];
        let mut local = 0.0;
        for i in rlo.max(clo)..rhi.min(chi) {
            let off = base + ((i - rlo) * (chi - clo) + (i - clo)) * 8;
            local += caller.pami().read_f64s(off, 1)[0];
        }
        caller.allreduce_f64(&[local], armci::ReduceOp::Sum).await[0]
    }

    // ------------------------------------------------------------------
    // Direct (setup/verification) access — no simulated cost.
    // ------------------------------------------------------------------

    /// Fill the whole array with `v` (setup helper, no simulated time).
    pub fn fill(&self, v: f64) {
        let _mem = memprof::scope(&GA_TAG);
        for r in 0..self.inner.dist.nprocs() {
            let elems = self.inner.dist.local_elems(r);
            let pr = self.inner.armci.machine().rank(r);
            pr.write_f64s(self.inner.bases[r], &vec![v; elems]);
        }
    }

    /// Set one element directly (setup helper).
    pub fn set_direct(&self, i: usize, j: usize, v: f64) {
        let owner = self.inner.dist.owner_of(i, j);
        let ((brlo, _), (bclo, bchi)) = self.inner.dist.block_of(owner);
        let off = self.inner.bases[owner] + ((i - brlo) * (bchi - bclo) + (j - bclo)) * 8;
        self.inner.armci.machine().rank(owner).write_f64s(off, &[v]);
    }

    /// Read one element directly (verification helper).
    pub fn get_direct(&self, i: usize, j: usize) -> f64 {
        let owner = self.inner.dist.owner_of(i, j);
        let ((brlo, _), (bclo, bchi)) = self.inner.dist.block_of(owner);
        let off = self.inner.bases[owner] + ((i - brlo) * (bchi - bclo) + (j - bclo)) * 8;
        self.inner.armci.machine().rank(owner).read_f64s(off, 1)[0]
    }

    /// Sum of all elements (verification helper).
    pub fn checksum(&self) -> f64 {
        let mut sum = 0.0;
        for r in 0..self.inner.dist.nprocs() {
            let elems = self.inner.dist.local_elems(r);
            let pr = self.inner.armci.machine().rank(r);
            sum += pr.read_f64s(self.inner.bases[r], elems).iter().sum::<f64>();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armci::ArmciConfig;
    use desim::{Sim, SimDuration, SimTime};
    use pami_sim::{Machine, MachineConfig};

    fn setup(p: usize) -> (Sim, Armci) {
        let sim = Sim::new();
        let machine = Machine::new(sim.clone(), MachineConfig::new(p).procs_per_node(1));
        let armci = Armci::new(machine, ArmciConfig::default());
        (sim, armci)
    }

    fn finish(sim: &Sim) {
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        sim.shutdown();
    }

    #[test]
    fn direct_access_round_trip() {
        let (_sim, a) = setup(4);
        let ga = Ga::create(&a, "t", 10, 10);
        ga.fill(0.0);
        ga.set_direct(3, 7, 5.5);
        assert_eq!(ga.get_direct(3, 7), 5.5);
        assert_eq!(ga.checksum(), 5.5);
    }

    #[test]
    fn scatter_acc_am_matches_direct_sum() {
        // Same element-update storm with and without AM batching: identical
        // final array, and the batched run coalesces the wire traffic.
        let run = |batch: bool| -> (f64, u64, u64) {
            let sim = Sim::new();
            let mut mc = MachineConfig::new(4).procs_per_node(1);
            if batch {
                mc = mc.am_batching(4096, SimDuration::from_us(4));
            }
            let machine = Machine::new(sim.clone(), mc);
            let a = Armci::new(machine, ArmciConfig::default());
            let ga = Ga::create(&a, "s", 16, 16);
            ga.fill(1.0);
            let r0 = a.rank(0);
            let ga2 = ga.clone();
            sim.spawn(async move {
                let updates: Vec<(usize, usize, f64)> = (0..32)
                    .map(|k| ((k * 7) % 16, (k * 3) % 16, (k + 1) as f64))
                    .collect();
                ga2.scatter_acc_am(&r0, &updates, 0.5).await;
            });
            finish(&sim);
            let s = a.machine().stats();
            (
                ga.checksum(),
                s.counter("am.sent"),
                s.counter("am.wire_msgs"),
            )
        };
        let (sum_b, sent_b, wire_b) = run(true);
        let (sum_u, sent_u, wire_u) = run(false);
        // 16·16 ones + 0.5 · Σ(k+1) for k in 0..32
        let expect = 256.0 + 0.5 * (32.0 * 33.0 / 2.0);
        assert_eq!(sum_b, expect);
        assert_eq!(sum_u, expect);
        assert_eq!(sent_b, sent_u);
        assert!(
            wire_b < wire_u,
            "batching should coalesce wire messages ({wire_b} vs {wire_u})"
        );
    }

    #[test]
    fn get_patch_spanning_owners() {
        let (sim, a) = setup(4);
        let ga = Ga::create(&a, "t", 16, 16);
        for i in 0..16 {
            for j in 0..16 {
                ga.set_direct(i, j, (i * 16 + j) as f64);
            }
        }
        let r0 = a.rank(0);
        let ga2 = ga.clone();
        sim.spawn(async move {
            // Patch straddles all four owner blocks.
            let buf = r0.malloc(8 * 8 * 8).await;
            ga2.get_patch(&r0, 4, 12, 4, 12, buf).await;
            let data = r0.pami().read_f64s(buf, 64);
            for (k, &v) in data.iter().enumerate() {
                let (i, j) = (4 + k / 8, 4 + k % 8);
                assert_eq!(v, (i * 16 + j) as f64, "element ({i},{j})");
            }
        });
        finish(&sim);
    }

    #[test]
    fn put_patch_then_verify_direct() {
        let (sim, a) = setup(4);
        let ga = Ga::create(&a, "t", 12, 12);
        ga.fill(0.0);
        let r1 = a.rank(1);
        let ga2 = ga.clone();
        sim.spawn(async move {
            let buf = r1.malloc(6 * 6 * 8).await;
            let vals: Vec<f64> = (0..36).map(|x| x as f64).collect();
            r1.pami().write_f64s(buf, &vals);
            ga2.put_patch(&r1, 3, 9, 3, 9, buf).await;
            r1.fence_all().await;
        });
        finish(&sim);
        for i in 0..12 {
            for j in 0..12 {
                let expect = if (3..9).contains(&i) && (3..9).contains(&j) {
                    ((i - 3) * 6 + (j - 3)) as f64
                } else {
                    0.0
                };
                assert_eq!(ga.get_direct(i, j), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn acc_patch_accumulates() {
        let (sim, a) = setup(4);
        let ga = Ga::create(&a, "fock", 8, 8);
        ga.fill(1.0);
        let r2 = a.rank(2);
        let ga2 = ga.clone();
        sim.spawn(async move {
            let buf = r2.malloc(4 * 4 * 8).await;
            r2.pami().write_f64s(buf, &[2.0; 16]);
            ga2.acc_patch(&r2, 2, 6, 2, 6, buf, 3.0).await;
            r2.fence_all().await;
        });
        finish(&sim);
        assert_eq!(ga.get_direct(2, 2), 7.0);
        assert_eq!(ga.get_direct(5, 5), 7.0);
        assert_eq!(ga.get_direct(0, 0), 1.0);
        assert_eq!(ga.checksum(), 64.0 + 16.0 * 6.0);
    }

    #[test]
    fn global_sum_and_trace_collectives() {
        let (sim, a) = setup(4);
        let ga = Ga::create(&a, "m", 10, 10);
        ga.fill(2.0);
        ga.set_direct(3, 3, 7.0);
        let sums = Rc::new(RefCell::new(Vec::new()));
        for r in 0..4 {
            let rk = a.rank(r);
            let ga = ga.clone();
            let sums = Rc::clone(&sums);
            sim.spawn(async move {
                let s = ga.global_sum(&rk).await;
                let t = ga.trace(&rk).await;
                sums.borrow_mut().push((s, t));
            });
        }
        finish(&sim);
        for &(s, t) in sums.borrow().iter() {
            assert_eq!(s, 2.0 * 100.0 + 5.0);
            assert_eq!(t, 2.0 * 10.0 + 5.0);
        }
    }

    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn concurrent_accs_from_multiple_ranks() {
        let (sim, a) = setup(4);
        let ga = Ga::create(&a, "fock", 8, 8);
        ga.fill(0.0);
        for r in 0..4 {
            let rk = a.rank(r);
            let ga2 = ga.clone();
            sim.spawn(async move {
                let buf = rk.malloc(8 * 8 * 8).await;
                rk.pami().write_f64s(buf, &[1.0; 64]);
                ga2.acc_patch(&rk, 0, 8, 0, 8, buf, 1.0).await;
                rk.barrier().await;
            });
        }
        finish(&sim);
        // All four ranks accumulated 1.0 everywhere.
        assert_eq!(ga.checksum(), 4.0 * 64.0);
        assert_eq!(ga.get_direct(7, 0), 4.0);
    }
}
