#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # global-arrays — a minimal Global Arrays model over ARMCI
//!
//! The Global Arrays programming model provides block-distributed dense
//! arrays with one-sided patch access, layered directly on ARMCI — exactly
//! the stack NWChem uses (paper §II-B). This crate implements the subset the
//! paper's evaluation needs:
//!
//! * [`Ga`] — dense 2D f64 arrays, 2D block distribution over a process
//!   grid, patch `get`/`put`/`acc` that translate to ARMCI strided
//!   operations against each overlapped owner;
//! * [`SharedCounter`] — the dynamic load-balancing primitive
//!   (`NXTVAL`-style fetch-and-add on a counter hosted by one rank) whose
//!   acceleration is the subject of the paper's §III-D/§IV-B3.
//!
//! ```
//! use desim::Sim;
//! use pami_sim::{Machine, MachineConfig};
//! use armci::{Armci, ArmciConfig};
//! use global_arrays::Ga;
//!
//! let sim = Sim::new();
//! let machine = Machine::new(sim.clone(), MachineConfig::new(4));
//! let armci = Armci::new(machine, ArmciConfig::default());
//! let ga = Ga::create(&armci, "density", 64, 64);
//! ga.fill(1.0);
//! let r0 = armci.rank(0);
//! sim.spawn(async move {
//!     let buf = r0.malloc(16 * 16 * 8).await;
//!     ga.get_patch(&r0, 8, 24, 8, 24, buf).await;
//!     assert_eq!(r0.pami().read_f64s(buf, 4), vec![1.0; 4]);
//! });
//! sim.run();
//! ```

pub mod array;
pub mod counter;
pub mod distribution;

pub use array::Ga;
pub use counter::SharedCounter;
pub use distribution::BlockDist;
