//! # bgq-perf — one fresh-process host-time benchmark of the simulator stack
//!
//! Six workloads over the layers `desim` → `torus5d` → `pami-sim` → `armci`
//! → `global-arrays` → `nwchem-scf`; end-to-end metrics from untraced
//! fresh-process repeats and a per-layer ladder from a separate traced run.
//! See `README.md` beside this crate for the tables and the protocol.

#![warn(missing_docs)]

pub mod alloc;
pub mod child;
pub mod compare;
pub mod host;
pub mod ladder;
pub mod probe;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
