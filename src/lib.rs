#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # bgq-pgas — scalable PGAS communication subsystem on a simulated Blue Gene/Q
//!
//! Umbrella crate for the reproduction of *Building Scalable PGAS
//! Communication Subsystem on Blue Gene/Q* (Vishnu, Kerbyson, Barker,
//! van Dam — IPPS 2013). It re-exports the workspace layers:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | simulation kernel | [`desim`] | deterministic discrete-event executor, virtual time, sync primitives |
//! | interconnect | [`torus5d`] | 5D torus, ABCDET mapping, routing, LogGP cost model, contention |
//! | messaging | [`pami_sim`] | PAMI-like clients/contexts/endpoints/regions, AM, RMA, AMOs, progress |
//! | **PGAS runtime** | [`armci`] | the paper's contribution: protocols, caches, async threads, consistency |
//! | programming model | [`global_arrays`] | block-distributed arrays, shared counters |
//! | application | [`nwchem_scf`] | NWChem SCF Fock-build mini-app (Fig 10/11) |
//!
//! See `examples/` for runnable programs and `crates/bench/src/figures/` for
//! the per-figure reproduction harness (`bgq-bench <figure>`).

pub use armci;
pub use desim;
pub use global_arrays;
pub use nwchem_scf;
pub use pami_sim;
pub use torus5d;
