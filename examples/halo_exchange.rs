//! Halo exchange on a 1D process ring: each rank owns a slab of a field,
//! puts its boundary cells into its neighbours' ghost cells, and uses
//! ARMCI notify/wait for point-to-point synchronization (cheaper than a
//! global barrier per step) — a classic PGAS stencil pattern.
//!
//! ```sh
//! cargo run --release --example halo_exchange
//! ```

use armci::{Armci, ArmciConfig, RegionTable, RemoteRegion};
use desim::Sim;
use pami_sim::{Machine, MachineConfig};
use std::cell::RefCell;
use std::rc::Rc;

const P: usize = 8;
const CELLS: usize = 1024; // interior cells per rank
const STEPS: usize = 5;

fn main() {
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(P).procs_per_node(4).contexts(2),
    );
    let armci = Armci::new(machine, ArmciConfig::default());

    // Layout per rank: [left ghost][CELLS interior][right ghost], f64 each.
    let slab_bytes = (CELLS + 2) * 8;
    let mut slabs = Vec::new();
    for r in 0..P {
        let pr = armci.machine().rank(r);
        let off = pr.alloc(slab_bytes);
        let _ = pr.register_region_untimed(off, slab_bytes);
        // Interior initialized to the rank id.
        pr.write_f64s(off + 8, &vec![r as f64; CELLS]);
        slabs.push(off);
    }
    let table: RegionTable = slabs
        .iter()
        .map(|&off| {
            Some(RemoteRegion {
                off,
                len: slab_bytes,
            })
        })
        .collect();
    armci.seed_collective(&table);

    let sums: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; P]));
    for r in 0..P {
        let rk = armci.rank(r);
        let s = sim.clone();
        let slabs = slabs.clone();
        let sums = Rc::clone(&sums);
        sim.spawn(async move {
            let left = (r + P - 1) % P;
            let right = (r + 1) % P;
            let my = slabs[r];
            for step in 0..STEPS {
                // Push boundary cells into the neighbours' ghost slots.
                let first_cell = my + 8;
                let last_cell = my + CELLS * 8;
                let left_ghost_of_right = slabs[right]; // their slot 0
                let right_ghost_of_left = slabs[left] + (CELLS + 1) * 8;
                rk.put(right, last_cell, left_ghost_of_right, 8).await;
                rk.fence(right).await;
                rk.notify(right).await;
                rk.put(left, first_cell, right_ghost_of_left, 8).await;
                rk.fence(left).await;
                rk.notify(left).await;
                // Wait for both neighbours' halos for this step.
                rk.wait_notify(left, step as i64 + 1).await;
                rk.wait_notify(right, step as i64 + 1).await;
                // Jacobi-ish relaxation over the interior (real math).
                let vals = rk.pami().read_f64s(my, CELLS + 2);
                let mut next = vals.clone();
                for i in 1..=CELLS {
                    next[i] = (vals[i - 1] + vals[i] + vals[i + 1]) / 3.0;
                }
                rk.pami().write_f64s(my, &next);
                // Model the stencil flops.
                s.sleep(desim::SimDuration::from_us(20)).await;
            }
            rk.barrier().await;
            let vals = rk.pami().read_f64s(my + 8, CELLS);
            sums.borrow_mut()[r] = vals.iter().sum();
        });
    }
    let end = sim.run();
    armci.finalize();
    sim.shutdown();

    let sums = sums.borrow();
    let total: f64 = sums.iter().sum();
    println!("halo exchange: {P} ranks x {CELLS} cells, {STEPS} steps, done at {end}");
    for (r, s) in sums.iter().enumerate() {
        println!("  rank {r}: interior sum {s:>10.3}");
    }
    // Diffusion conserves the total (up to the ghost flux at this scale).
    let initial: f64 = (0..P).map(|r| r as f64 * CELLS as f64).sum();
    println!("total {total:.1} (initial {initial:.1}) — mass approximately conserved");
    assert!((total - initial).abs() / initial < 0.01);
}
