#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
//! # desim — deterministic discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulator with a virtual-time async
//! executor. Simulated entities (PGAS ranks, NIC engines, asynchronous
//! progress threads, …) are expressed as ordinary `async` functions; awaiting
//! [`Sim::sleep`] advances *virtual* time, and synchronization primitives
//! ([`sync::MutexCell`], [`sync::NotifyCell`], [`channel`]s, [`event::Completion`])
//! let tasks interact causally without consuming virtual time on their own.
//!
//! The executor is single-threaded and fully deterministic: events that fire
//! at the same virtual time are ordered by their insertion sequence number, so
//! a given program always produces the same schedule, timings and statistics.
//!
//! Time is kept in integer **picoseconds** ([`SimTime`]); at that resolution a
//! `u64` covers ~213 simulated days, while byte-granularity bandwidth terms
//! (e.g. 0.5556 ns/byte for a 1.8 GB/s link) remain exact enough that
//! accumulated rounding error is negligible.
//!
//! ```
//! use desim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! sim.spawn(async move {
//!     s.sleep(SimDuration::from_us(5)).await;
//!     assert_eq!(s.now().as_us(), 5.0);
//! });
//! let end = sim.run();
//! assert_eq!(end.as_us(), 5.0);
//! ```

pub mod channel;
pub mod critpath;
pub mod event;
pub mod fault;
pub mod futures;
pub mod fxhash;
pub mod health;
pub mod json;
pub mod kernel;
pub mod memprof;
pub mod paged;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod timeline;
pub mod trace;
pub mod waker_set;
mod wheel;

pub use critpath::{analyze, Breakdown, CritPath, Lifecycle, LinkStat, OpId, SegCategory};
pub use event::Completion;
pub use fault::{FaultEvent, FaultPlan, FaultSpec};
pub use futures::{race, Either};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use health::{Finding, Severity};
pub use kernel::{Fire, JoinHandle, Sim, TaskId};
pub use memprof::{MemProf, MemScope, MemSnapshot, MemTag};
pub use paged::PagedMap;
pub use probe::{Lane, Observe, Observed, Probe, Probes};
pub use rng::SimRng;
pub use stats::{MetricsSnapshot, Stats};
pub use time::{SimDuration, SimTime};
pub use timeline::{SeriesKind, Timeline, TimelineDoc, TimelineSnapshot, WindowSample};
pub use trace::{ChromeTrace, TraceValue, Tracer, TrackId};
