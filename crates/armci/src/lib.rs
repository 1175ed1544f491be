#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # armci — scalable PGAS communication runtime on simulated Blue Gene/Q
//!
//! Rust reproduction of the communication subsystem from *Building Scalable
//! PGAS Communication Subsystem on Blue Gene/Q* (Vishnu, Kerbyson, Barker,
//! van Dam — IPPS 2013). This crate is the paper's primary contribution: an
//! ARMCI-style one-sided communication runtime layered on a PAMI-like
//! messaging interface ([`pami_sim`]), providing:
//!
//! * **contiguous get/put/accumulate** with RDMA fast paths and an
//!   active-message fall-back protocol (paper Eqs. 7–8), blocking and
//!   non-blocking with explicit/implicit handles;
//! * **uniformly non-contiguous (strided) transfers** as chunk lists of
//!   non-blocking RDMA operations (Eq. 9), with a packed typed-datatype path
//!   for tall-skinny shapes;
//! * **endpoint caching** and a bounded **LFU remote memory-region cache**
//!   whose misses are served by active messages to the owner (§III-B);
//! * **atomic memory operations** (fetch-and-add / swap / compare-and-swap)
//!   for load-balance counters, serviced in target software — accelerated by
//!   an optional **asynchronous progress thread** (§III-D);
//! * **location consistency** with either the naive per-target status or the
//!   paper's per-memory-region (`cs_mr`) tracking that eliminates
//!   false-positive fences between distinct distributed structures (§III-E);
//! * fences, mutexes, and pairwise notify/wait;
//! * **collectives** — barrier, allreduce, broadcast and collective
//!   allocation — as one round on the collective network ([`collectives`]);
//!   region queries and AM fences share one request/reply table per rank.
//!
//! Each operation is described once, as a row of [`optable::OPS`]; the issue
//! path in [`ops`], [`ArmciRank::wait`] and the tests read the rows.
//!
//! ```
//! use desim::Sim;
//! use pami_sim::{Machine, MachineConfig};
//! use armci::{Armci, ArmciConfig};
//!
//! let sim = Sim::new();
//! let machine = Machine::new(sim.clone(), MachineConfig::new(2));
//! let armci = Armci::new(machine, ArmciConfig::default());
//! let (r0, r1) = (armci.rank(0), armci.rank(1));
//! sim.spawn(async move {
//!     let src = r0.malloc(1024).await;
//!     let dst = r1.malloc(1024).await;
//!     r0.pami().write_bytes(src, &[42u8; 1024]);
//!     r0.put(1, src, dst, 1024).await;
//!     r0.fence(1).await;
//!     assert_eq!(r1.pami().read_bytes(dst, 1024), vec![42u8; 1024]);
//! });
//! sim.run();
//! ```

pub mod collectives;
pub mod consistency;
pub mod handle;
pub mod model;
pub mod ops;
pub mod optable;
pub mod region_cache;
pub mod runtime;
pub mod strided;

pub use collectives::ReduceOp;
pub use consistency::{ConsistencyMode, ConsistencyTracker};
pub use handle::{NbHandle, OpKind};
pub use model::{FailureMode, RetryPolicy};
pub use ops::ArmciRank;
pub use optable::{OpDesc, Overhead, OPS};
pub use region_cache::{RegionCache, RegionTable, RemoteRegion};
pub use runtime::{Armci, ArmciConfig, ProgressMode};
pub use strided::Strided;
