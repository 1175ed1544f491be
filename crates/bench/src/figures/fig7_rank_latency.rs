//! Fig 7 — get latency as a function of process rank (ABCDET mapping).
//!
//! 2048 processes = 128 nodes = 2×2×4×4×2 (paper Eq. 10): the latency curve
//! oscillates with the torus distance from rank 0; the min/max spread gives
//! ≈ 35 ns per hop.

use crate::Figure;
use armci::ArmciConfig;
use bgq_bench::cli::JOBS;
use bgq_bench::{Args, Fixture};
use std::cell::RefCell;
use std::rc::Rc;

// This figure is one big simulation (all ranks share a machine), so the
// sweep harness has nothing to fan out; `--jobs` is accepted so one loop can
// pass it to every figure.
pub const FIGURE: Figure = Figure {
    name: "fig7_rank_latency",
    about: "Fig 7 — get latency vs process rank under ABCDET",
    flags: &[JOBS],
    run,
};

fn run(_: &Args) {
    let (p, c) = (2048, 16);
    let reps = 3; // per rank
    let bytes = 16usize;
    let f = Fixture::new(p, c, ArmciConfig::default());
    let topo = f.armci.machine().topology().clone();
    let r0 = f.rank(0);
    let s = f.sim.clone();
    let lat: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; p]));
    let lat2 = Rc::clone(&lat);
    let armci = f.armci.clone();
    f.sim.spawn(async move {
        let local = r0.malloc(64).await;
        for target in 1..p {
            let remote = armci.rank(target).alloc_unregistered(0); // probe owner memory
            let remote = {
                // allocate a real remote buffer (registered, setup-time)
                let pr = armci.machine().rank(target);
                let off = pr.alloc(64);
                let _ = pr.register_region_untimed(off, 64);
                let _ = remote;
                off
            };
            r0.get(target, local, remote, bytes).await; // warm
            let t0 = s.now();
            for _ in 0..reps {
                r0.get(target, local, remote, bytes).await;
            }
            lat2.borrow_mut()[target] = (s.now() - t0).as_us() / reps as f64;
        }
    });
    f.finish();

    let lat = lat.borrow();
    println!(
        "== Fig 7: 16B get latency vs rank, p={p}, c={c}, shape {} ==",
        topo.shape
    );
    println!("{:>6} {:>6} {:>10}", "rank", "hops", "get (us)");
    let stride = (p / 64).max(1);
    for r in (1..p).step_by(stride) {
        println!("{:>6} {:>6} {:>10.3}", r, topo.hops(0, r), lat[r]);
    }
    // Inter-node statistics.
    let mut min = f64::MAX;
    let mut max: f64 = 0.0;
    let (mut minh, mut maxh) = (u32::MAX, 0);
    for r in 1..p {
        let h = topo.hops(0, r);
        if h == 0 {
            continue; // intra-node
        }
        if lat[r] < min {
            min = lat[r];
            minh = h;
        }
        if lat[r] > max {
            max = lat[r];
            maxh = h;
        }
    }
    let per_hop = if maxh > minh {
        (max - min) * 1000.0 / (2.0 * (maxh - minh) as f64)
    } else {
        0.0
    };
    println!("inter-node min = {min:.3} us (hops {minh}), max = {max:.3} us (hops {maxh})");
    println!("latency increment per hop (round trip counted) = {per_hop:.1} ns");
    println!("paper: min 2.89 us, max 3.38 us, ~35 ns/hop, diameter 7");
}
