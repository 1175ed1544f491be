//! Global Arrays invariants that hold on every schedule seed.
//!
//! Each check runs a small seeded workload on `Sim::with_schedule_seed(seed)`,
//! which reorders events that share an instant (DESIGN.md §11, "Perturbed
//! schedules"), and compares the result with a reference the stack cannot
//! touch: a closed-form total, or the counter's memory read straight out of
//! the machine. Odd seeds run ρ = 1 with default progress, even seeds ρ = 2
//! with a progress thread. A failure names its seed; `check_*(seed)` reruns
//! that seed alone.

use std::cell::RefCell;
use std::rc::Rc;

use armci::{Armci, ArmciConfig, ProgressMode};
use desim::{Sim, SimRng};
use global_arrays::{Ga, SharedCounter};
use pami_sim::{Machine, MachineConfig};

/// Schedule seeds each invariant runs over.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=64;
/// Ranks, two per node: intranode and inter-node pairs both.
const P: usize = 8;

fn setup(seed: u64) -> (Sim, Armci) {
    let rho = if seed.is_multiple_of(2) { 2 } else { 1 };
    let sim = Sim::with_schedule_seed(seed);
    let m = Machine::new(
        sim.clone(),
        MachineConfig::new(P).procs_per_node(2).contexts(rho),
    );
    let progress = if rho == 1 {
        ProgressMode::Default
    } else {
        ProgressMode::AsyncThread
    };
    (
        sim,
        Armci::new(m, ArmciConfig::default().progress(progress)),
    )
}

/// Run the spawned rank programs to the end; every rank must finish.
fn finish(seed: u64, sim: &Sim, a: &Armci, done: &RefCell<usize>) {
    sim.run();
    a.finalize();
    sim.shutdown();
    assert_eq!(
        *done.borrow(),
        P,
        "seed {seed}: a rank program did not finish"
    );
}

/// Increasing cut points that split `0..n` into one to three pieces.
fn cuts(rng: &mut SimRng, n: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..rng.next_below(3))
        .map(|_| 1 + rng.next_below(n as u64 - 1) as usize)
        .collect();
    cuts.extend([0, n]);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// GA accumulate sums (`NGA_Acc`, and `NGA_Scatter_acc` over AMs): every
/// rank adds `r + 1` to the whole array `PASSES` times, each pass cut into
/// randomly shaped patches issued in random order, then adds `r + 1` over
/// AMs to every element of row `r`. Once the barrier (`GA_Sync`) returns,
/// each element is `PASSES · P(P+1)/2`, plus `i + 1` in row `i < P`,
/// exactly: every rank checks the block it owns.
fn check_acc_sums(seed: u64) {
    const ROWS: usize = 13;
    const COLS: usize = 11;
    const PASSES: usize = 3;
    let want = |i: usize| (PASSES * P * (P + 1) / 2 + if i < P { i + 1 } else { 0 }) as f64;
    let (sim, a) = setup(seed);
    let ga = Ga::create(&a, "acc", ROWS, COLS);
    ga.fill(0.0);
    let errors = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(RefCell::new(0));
    for r in 0..P {
        let (rk, ga, done) = (a.rank(r), ga.clone(), Rc::clone(&done));
        let errors = Rc::clone(&errors);
        sim.spawn(async move {
            let mut rng = SimRng::new(seed).derive(r as u64);
            let buf = rk.malloc(ROWS * COLS * 8).await;
            rk.pami()
                .write_f64s(buf, &vec![(r + 1) as f64; ROWS * COLS]);
            for _ in 0..PASSES {
                let (rc, cc) = (cuts(&mut rng, ROWS), cuts(&mut rng, COLS));
                let mut patches: Vec<_> = rc
                    .windows(2)
                    .flat_map(|r| cc.windows(2).map(move |c| (r[0], r[1], c[0], c[1])))
                    .collect();
                for i in (1..patches.len()).rev() {
                    patches.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                for (rlo, rhi, clo, chi) in patches {
                    ga.acc_patch(&rk, rlo, rhi, clo, chi, buf, 1.0).await;
                }
            }
            let row: Vec<_> = (0..COLS).map(|j| (r, j, (r + 1) as f64)).collect();
            ga.scatter_acc_am(&rk, &row, 1.0).await;
            rk.barrier().await;
            let ((rlo, rhi), (clo, chi)) = ga.dist().block_of(r);
            for i in rlo..rhi {
                for j in clo..chi {
                    let got = ga.get_direct(i, j);
                    if got != want(i) {
                        errors
                            .borrow_mut()
                            .push(format!("rank {r} after the barrier: ({i}, {j}) = {got}"));
                    }
                }
            }
            *done.borrow_mut() += 1;
        });
    }
    finish(seed, &sim, &a, &done);
    let errors = errors.borrow();
    assert!(errors.is_empty(), "seed {seed}: {}", errors.join("; "));
}

/// The SCF task counter (paper Fig 10): ranks draw task indices from a
/// `SharedCounter` until one is past the last task, as `run_scf` does.
/// Each index in `0..TASKS` is handed out exactly once, and the counter,
/// read straight out of its owner's memory, ends at `TASKS + P`: every
/// rank's last draw is the one that stopped it.
fn check_task_counter(seed: u64) {
    const TASKS: i64 = 40;
    let (sim, a) = setup(seed);
    let counter = SharedCounter::create(&a, 0);
    let got = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(RefCell::new(0));
    for r in 0..P {
        let (rk, counter) = (a.rank(r), counter.clone());
        let (got, done) = (Rc::clone(&got), Rc::clone(&done));
        let s = sim.clone();
        sim.spawn(async move {
            let mut rng = SimRng::new(seed).derive(r as u64);
            loop {
                let t = counter.next(&rk, 1).await;
                if t >= TASKS {
                    break;
                }
                got.borrow_mut().push(t);
                // A task's compute, so ranks interleave unevenly.
                s.sleep(desim::SimDuration::from_ns(rng.next_below(2000)))
                    .await;
            }
            rk.barrier().await;
            *done.borrow_mut() += 1;
        });
    }
    finish(seed, &sim, &a, &done);
    let mut got = got.take();
    got.sort_unstable();
    assert_eq!(got, (0..TASKS).collect::<Vec<_>>(), "seed {seed}");
    assert_eq!(counter.read_direct(&a), TASKS + P as i64, "seed {seed}");
}

#[test]
fn acc_sums_are_exact_on_every_seed() {
    SEEDS.for_each(check_acc_sums);
}

#[test]
fn task_counter_hands_out_each_task_once_on_every_seed() {
    SEEDS.for_each(check_task_counter);
}
