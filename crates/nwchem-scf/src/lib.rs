#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # nwchem-scf — Self-Consistent-Field mini-app over Global Arrays
//!
//! A faithful skeleton of NWChem's SCF Fock-matrix construction (the
//! paper's Fig 10), preserving exactly the structure whose performance the
//! paper measures:
//!
//! ```text
//! do while (SCF not converged)
//!   t = SharedCounter.fetch_add(1)            # load-balance counter (rank 0)
//!   while (t < ntasks)
//!     get density patches for task t          # ARMCI strided gets (RDMA)
//!     do work (~300 us)                       # local 2-electron integrals
//!     accumulate Fock patch                   # ARMCI accumulate (software)
//!     t = SharedCounter.fetch_add(1)
//!   barrier; diagonalize; next iteration
//! ```
//!
//! The chemistry itself (integral evaluation, diagonalization) is replaced
//! by a calibrated compute-time model — the paper's own analysis attributes
//! the D-vs-AT difference entirely to *who makes progress on the counter's
//! AMOs while rank 0 computes*, which this skeleton reproduces: real counter
//! traffic, real patch gets, real accumulates, real task-grain compute.
//!
//! The default workload is the paper's: 6 water molecules, 644 basis
//! functions (§IV-C2, the reduced Gordon-Bell input).

pub mod report;
pub mod scf;

pub use report::ScfReport;
pub use scf::{run_scf, run_scf_observed, ScfConfig};
