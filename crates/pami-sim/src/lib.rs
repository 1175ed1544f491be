#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pami-sim — a PAMI-like messaging layer on a simulated Blue Gene/Q
//!
//! Models IBM's Parallel Active Messaging Interface (PAMI) as described in
//! the paper (§III-A) and by Kumar et al.: clients/contexts/endpoints/memory
//! regions as first-class objects with the measured creation costs of
//! Table II, active messages dispatched through one machine-wide handler
//! table ([`Machine::register_am`]), RMA put/get with true
//! RDMA (no target-CPU involvement) plus software variants that require the
//! target's progress engine, and read-modify-write operations that — as on
//! the real BG/Q NIC — have **no hardware support** and are serviced by
//! target-side software.
//!
//! Semantics preserved from the real interface:
//!
//! * deterministic dimension-ordered routing ⇒ pairwise FIFO for ordered
//!   traffic; AMOs are unordered (§III-A4);
//! * RDMA operations progress without the target CPU (Eq. 7); the software
//!   path queues work on a target context until *someone* calls `advance`
//!   (Eq. 8 and the entire §III-D motivation);
//! * the progress engine is lock-guarded per context: a main thread and an
//!   asynchronous progress thread sharing one context (ρ = 1) contend, two
//!   contexts (ρ = 2) progress independently.
//!
//! ```
//! use desim::Sim;
//! use pami_sim::{Machine, MachineConfig};
//!
//! let sim = Sim::new();
//! let m = Machine::new(sim.clone(), MachineConfig::new(2));
//! let (a, b) = (m.rank(0), m.rank(1));
//! let src = a.alloc(8);
//! let dst = b.alloc(8);
//! a.write_i64(src, 42);
//! sim.spawn(async move {
//!     let h = a.rdma_put(1, src, dst, 8).await;
//!     h.remote.wait().await;
//!     assert_eq!(b.read_i64(dst), 42);
//! });
//! sim.run();
//! ```

pub mod am;
pub mod batcher;
pub mod context;
pub mod machine;
pub mod rank;
pub mod retry;
mod service;
pub mod space;
mod train;

pub use batcher::{AmBatchConfig, Batcher, AM_FRAME_BYTES};
pub use context::{AmEntry, AmEnv, AmHandler, AmMsg, CtxState, RmwOp, WorkItem};
pub use machine::{Machine, MachineConfig, RegionError, RegionId};
pub use rank::{AsyncThread, PamiRank, PutHandles};
pub use retry::{FailureMode, RetryPolicy};
pub use space::SpaceSnapshot;
pub use train::{Pieces, Side, MAX_LEVELS};
