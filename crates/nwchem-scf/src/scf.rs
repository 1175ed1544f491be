//! The SCF driver: Fig 10's algorithm over Global Arrays, with the
//! paper's two runtime configurations (D = default progress, AT =
//! asynchronous progress thread).

use std::cell::RefCell;
use std::rc::Rc;

use armci::{Armci, ArmciConfig, ProgressMode};
use desim::memprof::{self, MemTag};
use desim::{Lane, Observe, Observed, Probe, Sim, SimDuration, SimRng, TraceValue};

/// SCF driver state: per-rank tallies and rank-program captures.
static SCF_TAG: MemTag = MemTag::new("scf");

// The phases of one SCF iteration: a span on the rank's lane and a duration.
static FOCK: Probe = Probe::new().trace("scf.fock_build").time("scf.phase.fock");
static SYNC: Probe = Probe::new().trace("scf.sync").time("scf.phase.sync");
static DIAG: Probe = Probe::new().trace("scf.diag").time("scf.phase.diag");
static ENERGY: Probe = Probe::new().trace("scf.energy");
use global_arrays::{Ga, SharedCounter};
use pami_sim::{Machine, MachineConfig};

use crate::report::{max_us, mean_us, ScfReport};

/// Configuration of an SCF run.
#[derive(Debug, Clone)]
pub struct ScfConfig {
    /// Basis functions (matrix dimension). Paper: 644.
    pub nbf: usize,
    /// Patch dimension in elements (task granularity in the matrix).
    pub block: usize,
    /// Task multiplier: tasks per iteration = `repeat_factor · nblk²`
    /// (shell-pair batches revisit matrix blocks many times).
    pub repeat_factor: usize,
    /// SCF iterations.
    pub iterations: usize,
    /// Mean `do work` time per task (paper §IV-B3: ≈300 µs).
    pub compute_mean: SimDuration,
    /// Uniform jitter fraction on the task compute time.
    pub compute_jitter: f64,
    /// Modeled diagonalization/DIIS time per iteration (replicated).
    pub diag_time: SimDuration,
    /// Progress mode (the D-vs-AT axis of Fig 11).
    pub progress: ProgressMode,
    /// PAMI contexts per rank (ρ); the AT design uses 2 (§III-D).
    pub contexts: usize,
    /// Processes per node.
    pub procs_per_node: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl ScfConfig {
    /// The paper's workload: 6 H₂O, 644 basis functions, ≈300 µs tasks,
    /// ~24k Fock-build tasks per iteration.
    pub fn paper(progress: ProgressMode) -> ScfConfig {
        ScfConfig {
            nbf: 644,
            block: 46,
            repeat_factor: 123, // 123 * ceil(644/46)^2 = 24,108 tasks/iter
            iterations: 3,
            compute_mean: SimDuration::from_us(300),
            compute_jitter: 0.3,
            diag_time: SimDuration::from_us(200),
            progress,
            contexts: if progress == ProgressMode::AsyncThread {
                2
            } else {
                1
            },
            procs_per_node: 16,
            seed: 20130520,
        }
    }

    /// A small configuration for tests.
    pub fn tiny(progress: ProgressMode) -> ScfConfig {
        ScfConfig {
            nbf: 32,
            block: 8,
            repeat_factor: 2,
            iterations: 2,
            compute_mean: SimDuration::from_us(50),
            compute_jitter: 0.2,
            diag_time: SimDuration::from_us(20),
            progress,
            contexts: if progress == ProgressMode::AsyncThread {
                2
            } else {
                1
            },
            procs_per_node: 1,
            seed: 7,
        }
    }

    /// Matrix block grid dimension.
    pub fn nblocks(&self) -> usize {
        self.nbf.div_ceil(self.block)
    }

    /// Fock-build tasks per iteration.
    pub fn tasks_per_iter(&self) -> usize {
        self.repeat_factor * self.nblocks() * self.nblocks()
    }
}

#[derive(Default, Clone, Copy)]
struct RankTally {
    counter_wait: SimDuration,
    get_time: SimDuration,
    acc_time: SimDuration,
    compute_time: SimDuration,
    sync_time: SimDuration,
    tasks: usize,
    iterations_run: usize,
}

/// Run one SCF calculation on a fresh simulated machine and report the
/// timing breakdown. Deterministic for a given configuration.
pub fn run_scf(nprocs: usize, cfg: &ScfConfig) -> ScfReport {
    run_scf_observed(nprocs, cfg, Observe::default()).0
}

/// [`run_scf`] with the sinks `observe` names turned on: returns what they
/// recorded beside the report, which they never change.
pub fn run_scf_observed(nprocs: usize, cfg: &ScfConfig, observe: Observe) -> (ScfReport, Observed) {
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(nprocs)
            .procs_per_node(cfg.procs_per_node)
            .contexts(cfg.contexts),
    );
    observe.start(sim.probes());
    let armci = Armci::new(machine, ArmciConfig::default().progress(cfg.progress));
    let density = Ga::create(&armci, "density", cfg.nbf, cfg.nbf);
    let fock = Ga::create(&armci, "fock", cfg.nbf, cfg.nbf);
    density.fill(0.1);
    fock.fill(0.0);
    let counter = SharedCounter::create(&armci, 0);

    // The application's own state and rank programs; what they allocate
    // once running is charged where it happens (DESIGN.md §14), so the
    // scope ends before the run.
    let mem = memprof::scope(&SCF_TAG);
    let tallies: Rc<RefCell<Vec<RankTally>>> =
        Rc::new(RefCell::new(vec![RankTally::default(); nprocs]));
    let root_rng = SimRng::new(cfg.seed);
    let ntasks = cfg.tasks_per_iter();
    let nblk = cfg.nblocks();
    // One contribution buffer for every rank program: a deposit fills and
    // writes it without awaiting, so no two ranks use it at once, and it
    // costs one patch for the run instead of one per rank.
    let contribution: Rc<RefCell<Vec<f64>>> = Rc::default();

    for r in 0..nprocs {
        let rk = armci.rank(r);
        let s = sim.clone();
        let cfg = cfg.clone();
        let density = density.clone();
        let fock = fock.clone();
        let counter = counter.clone();
        let tallies = Rc::clone(&tallies);
        let armci_handle = armci.clone();
        let contribution = Rc::clone(&contribution);
        let mut rng = root_rng.derive(r as u64);
        sim.spawn(async move {
            let patch_elems = cfg.block * cfg.block;
            let d_buf = rk.malloc(patch_elems * 8).await;
            let d_buf2 = rk.malloc(patch_elems * 8).await;
            let f_buf = rk.malloc(patch_elems * 8).await;
            let mut tally = RankTally::default();
            // SCF phase tags: one span per phase per iteration on this
            // rank's lane (allocation-free while tracing is disabled).
            let lane = Lane::Rank(rk.id());
            for iter in 0..cfg.iterations {
                // --- Fock build (Fig 10 inner loop) ---
                let t_fock = s.now();
                let it = TraceValue::U64(iter as u64);
                s.probes().begin(&FOCK, lane, t_fock, &[("iter", it)]);
                loop {
                    let t0 = s.now();
                    let t = counter.next(&rk, 1).await;
                    tally.counter_wait += s.now() - t0;
                    if t >= ntasks as i64 {
                        break;
                    }
                    tally.tasks += 1;
                    let blk = (t as usize) % (nblk * nblk);
                    let (bi, bj) = (blk / nblk, blk % nblk);
                    let (rlo, rhi) = (bi * cfg.block, ((bi + 1) * cfg.block).min(cfg.nbf));
                    let (clo, chi) = (bj * cfg.block, ((bj + 1) * cfg.block).min(cfg.nbf));
                    // Two density patches: D(i,j) and its transpose block.
                    let t0 = s.now();
                    density.get_patch(&rk, rlo, rhi, clo, chi, d_buf).await;
                    density.get_patch(&rk, clo, chi, rlo, rhi, d_buf2).await;
                    tally.get_time += s.now() - t0;
                    // do work: contract integrals with the density patches.
                    let jitter =
                        1.0 - cfg.compute_jitter + 2.0 * cfg.compute_jitter * rng.next_f64();
                    let dt = SimDuration::from_us_f64(cfg.compute_mean.as_us() * jitter);
                    let t0 = s.now();
                    s.sleep(dt).await;
                    tally.compute_time += s.now() - t0;
                    // Deposit the contribution (contents: derived locally,
                    // written without cost — the flops are modeled above).
                    // Density damping: later cycles contribute less, so the
                    // energy series converges like a real SCF.
                    let damp = 1.0 / ((iter + 1) * (iter + 1)) as f64;
                    {
                        let mut patch = contribution.borrow_mut();
                        patch.clear();
                        patch.resize((rhi - rlo) * (chi - clo), damp / ntasks as f64);
                        rk.pami().write_f64s(f_buf, &patch);
                    }
                    let t0 = s.now();
                    fock.acc_patch(&rk, rlo, rhi, clo, chi, f_buf, 1.0).await;
                    tally.acc_time += s.now() - t0;
                }
                s.probes().end(&FOCK, lane, None, t_fock, s.now(), &[]);
                // --- end of iteration: synchronize, reset counter, "diag" ---
                let t0 = s.now();
                s.probes().begin(&SYNC, lane, t0, &[]);
                rk.barrier().await;
                if rk.id() == 0 {
                    counter.reset(&armci_handle);
                }
                rk.barrier().await;
                tally.sync_time += s.now() - t0;
                s.probes().end(&SYNC, lane, None, t0, s.now(), &[]);
                let t_diag = s.now();
                s.probes().begin(&DIAG, lane, t_diag, &[]);
                s.sleep(cfg.diag_time).await;
                s.probes().end(&DIAG, lane, None, t_diag, s.now(), &[]);
                // SCF energy via the collective network.
                let energy = fock.global_sum(&rk).await;
                let value = TraceValue::F64(energy);
                s.probes()
                    .instant(&ENERGY, lane, s.now(), 0, &[("value", value)]);
                tally.iterations_run = iter + 1;
            }
            rk.barrier().await;
            tallies.borrow_mut()[rk.id()] = tally;
        });
    }
    drop(mem);

    let end = sim.run();
    let observed = observe.finish(sim.probes(), end);
    let rmw_count = sim.stats().counter("armci.rmw");
    armci.finalize();
    sim.shutdown();

    let tallies = tallies.borrow();
    let counter_waits: Vec<SimDuration> = tallies.iter().map(|t| t.counter_wait).collect();
    let gets: Vec<SimDuration> = tallies.iter().map(|t| t.get_time).collect();
    let accs: Vec<SimDuration> = tallies.iter().map(|t| t.acc_time).collect();
    let computes: Vec<SimDuration> = tallies.iter().map(|t| t.compute_time).collect();
    let syncs: Vec<SimDuration> = tallies.iter().map(|t| t.sync_time).collect();
    let report = ScfReport {
        nprocs,
        mode: match cfg.progress {
            ProgressMode::Default => "D".to_string(),
            ProgressMode::AsyncThread => "AT".to_string(),
        },
        iterations: tallies.iter().map(|t| t.iterations_run).max().unwrap_or(0),
        tasks_per_iter: ntasks,
        total_us: end.as_us(),
        counter_wait_mean_us: mean_us(&counter_waits),
        counter_wait_max_us: max_us(&counter_waits),
        get_mean_us: mean_us(&gets),
        acc_mean_us: mean_us(&accs),
        compute_mean_us: mean_us(&computes),
        sync_mean_us: mean_us(&syncs),
        tasks_min: tallies.iter().map(|t| t.tasks).min().unwrap_or(0),
        tasks_max: tallies.iter().map(|t| t.tasks).max().unwrap_or(0),
        rmw_count,
    };
    (report, observed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scf_completes_and_balances() {
        let cfg = ScfConfig::tiny(ProgressMode::AsyncThread);
        let report = run_scf(4, &cfg);
        assert_eq!(report.iterations, 2);
        let total_tasks: usize = report.tasks_per_iter * report.iterations;
        // Every task was executed exactly once across ranks and iterations.
        assert!(report.rmw_count as usize >= total_tasks);
        assert!(report.tasks_max >= report.tasks_min);
        assert!(report.total_us > 0.0);
        // Compute dominates for the tiny config.
        assert!(report.compute_mean_us > 0.0);
    }

    #[test]
    fn scf_is_deterministic() {
        let cfg = ScfConfig::tiny(ProgressMode::AsyncThread);
        let a = run_scf(4, &cfg);
        let b = run_scf(4, &cfg);
        assert_eq!(a.total_us, b.total_us);
        assert_eq!(a.counter_wait_mean_us, b.counter_wait_mean_us);
        assert_eq!(a.tasks_min, b.tasks_min);
        assert_eq!(a.tasks_max, b.tasks_max);
    }

    #[test]
    fn at_beats_default_with_compute_heavy_rank0() {
        // Even at tiny scale the counter waits should be visibly lower
        // with the asynchronous thread.
        let d = run_scf(8, &ScfConfig::tiny(ProgressMode::Default));
        let at = run_scf(8, &ScfConfig::tiny(ProgressMode::AsyncThread));
        assert!(
            at.counter_wait_mean_us < d.counter_wait_mean_us,
            "AT counter {} >= D counter {}",
            at.counter_wait_mean_us,
            d.counter_wait_mean_us
        );
        assert!(
            at.total_us <= d.total_us,
            "AT total {} > D total {}",
            at.total_us,
            d.total_us
        );
    }

    #[test]
    fn flight_breakdown_tiles_total_time_deterministically() {
        let cfg = ScfConfig::tiny(ProgressMode::AsyncThread);
        let observe = Observe {
            crit: true,
            ..Observe::default()
        };
        let (report, seen) = run_scf_observed(4, &cfg, observe);
        let cp = seen.crit.expect("critical path requested");
        // The five categories tile the whole run exactly.
        assert_eq!(cp.breakdown.total(), cp.total);
        assert!((cp.total.as_us() - report.total_us).abs() < 1e-9);
        // Byte-identical across same-seed runs.
        let (_, again) = run_scf_observed(4, &cfg, observe);
        assert_eq!(cp.to_json(), again.crit.unwrap().to_json());
        // Plain run_scf keeps recording off and matches the recorded run.
        let plain = run_scf(4, &cfg);
        assert_eq!(plain.total_us, report.total_us);
    }

    #[test]
    fn counter_overdraw_is_exactly_one_per_rank_per_iteration() {
        // Each rank keeps fetching until it sees t >= ntasks, so it overdraws
        // exactly once per iteration: rmw_count = iters * (ntasks + p).
        let cfg = ScfConfig::tiny(ProgressMode::AsyncThread);
        let p = 3;
        let report = run_scf(p, &cfg);
        let expected = cfg.iterations as u64 * (cfg.tasks_per_iter() as u64 + p as u64);
        assert_eq!(report.rmw_count, expected);
        // And the work was complete: total tasks executed match.
        // (tasks_min/max only bound the distribution; the counter accounting
        // above is the exact invariant.)
    }
}
