//! Table II — empirical values of time and space attributes.
//!
//! Measures object-creation times and space inside the simulation and prints
//! them next to the paper's reported values.

use crate::Figure;
use armci::model;
use bgq_bench::cli::JOBS;
use bgq_bench::{Args, Fixture};
use std::cell::RefCell;
use std::rc::Rc;

// A single measurement simulation; `--jobs` is accepted so one loop can pass
// it to every figure.
pub const FIGURE: Figure = Figure {
    name: "table2_attributes",
    about: "Table II — empirical time/space attribute values",
    flags: &[JOBS],
    run,
};

fn run(_args: &Args) {
    let f = Fixture::new(4, 1, armci::ArmciConfig::default());
    let r0 = f.armci.machine().rank(0);
    let params = f.armci.machine().params().clone();
    let s = f.sim.clone();
    let measured: Rc<RefCell<Vec<(String, String)>>> = Rc::new(RefCell::new(Vec::new()));
    let out = Rc::clone(&measured);
    f.sim.spawn(async move {
        // Endpoint creation time (beta).
        let t0 = s.now();
        r0.ensure_endpoint(1, 0).await;
        let beta = s.now() - t0;
        // Memory region creation time (delta).
        let off = r0.alloc(4096);
        let t0 = s.now();
        r0.register_region(off, 4096).await.expect("register");
        let delta = s.now() - t0;
        // Context creation time.
        let t0 = s.now();
        r0.create_contexts().await;
        let ctx = s.now() - t0;
        let mut m = out.borrow_mut();
        m.push(("Endpoint Creation Time (beta)".into(), format!("{beta}")));
        m.push((
            "Memory Region Creation Time (delta)".into(),
            format!("{delta}"),
        ));
        m.push(("Context Creation Time".into(), format!("{ctx}")));
    });
    f.finish();

    println!("== Table II: empirical values of time and space attributes ==");
    println!(
        "{:<45} {:>18} {:>18}",
        "Property", "paper", "measured/model"
    );
    let paper_rows = [
        (
            "Message Size for Data Transfer (m)",
            "16 B - 1 MB",
            "16 B - 1 MB",
        ),
        ("Total number of processes (p)", "2 - 4096", "2 - 4096"),
        ("Number of processes/Node (c)", "1 - 16", "1 - 16"),
        ("Communication Clique (zeta)", "1 - p", "1 - p"),
        ("Active Global Address Structures (sigma)", "1 - 7", "1 - 7"),
        ("Local Communication Buffers (tau)", "1 - 3", "1 - 3"),
    ];
    for (k, p, m) in paper_rows {
        println!("{k:<45} {p:>18} {m:>18}");
    }
    let model_rows = [
        (
            "Endpoint Space Utilization (alpha)",
            "4 Bytes",
            format!("{} Bytes", params.endpoint_bytes),
        ),
        (
            "Endpoint Creation Time (beta)",
            ".3 us",
            format!("{}", params.endpoint_create),
        ),
        (
            "Memory Region Space Utilization (gamma)",
            "8 Bytes",
            format!("{} Bytes", params.memregion_bytes),
        ),
        (
            "Memory Region Creation Time (delta)",
            "43 us",
            format!("{}", params.memregion_create),
        ),
        (
            "Context Creation Time",
            "3821-4271 us",
            format!("{}", params.context_create),
        ),
    ];
    for (k, p, m) in &model_rows {
        println!("{k:<45} {p:>18} {m:>18}");
    }
    println!("\n-- measured inside the simulation --");
    for (k, v) in measured.borrow().iter() {
        println!("{k:<45} {v:>18}");
    }

    // Space-model examples (Eqs. 1-6) for a 4096-process clique.
    println!("\n-- space models at p = zeta = 4096, rho = 1 (Eqs. 1-6) --");
    println!(
        "M_c  = eps*rho                  = {} bytes",
        model::context_space(params.context_bytes, 1)
    );
    println!(
        "M_e  = zeta*alpha*rho           = {} bytes",
        model::endpoint_space(4096, params.endpoint_bytes, 1)
    );
    println!(
        "M_r  = tau*gamma + sigma*zeta*gamma = {} bytes (tau=3, sigma=7)",
        model::region_space(3, params.memregion_bytes, 7, 4096)
    );
    println!(
        "T_e  = zeta*beta*rho            = {}",
        model::endpoint_time(4096, params.endpoint_create, 1)
    );
    println!(
        "T_r  = (tau+sigma)*delta        = {}",
        model::region_time(3, 7, params.memregion_create)
    );
}
