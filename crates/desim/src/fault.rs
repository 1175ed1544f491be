//! Deterministic fault injection: seeded link/node failure schedules.
//!
//! A [`FaultPlan`] describes *what goes wrong and when* on a simulated
//! machine: links that go down and come back up, nodes that hang (stop
//! driving their progress engines) for a window, and a packet corruption
//! probability per link traversal. The plan is pure data — it does not know
//! about any particular network model — and everything about it is
//! deterministic:
//!
//! * A plan built by explicit builder calls ([`FaultPlan::link_down`],
//!   [`FaultPlan::node_hang`], …) contains exactly what was written.
//! * A plan sampled from a [`FaultSpec`] via [`FaultPlan::generate`] draws
//!   every window from a [`SimRng`] seeded by the caller, using integer
//!   arithmetic only, so the same `(seed, spec)` pair yields a byte-identical
//!   schedule on every host.
//! * [`FaultPlan::compiled`] flattens the plan into a single time-sorted
//!   event list with a total (time, kind, resource) order, so consumers that
//!   replay it advance through exactly the same sequence every run.
//!
//! The network model distinguishes two views of a dead link. The **physical**
//! view ([`FaultEvent::LinkDown`]/[`FaultEvent::LinkUp`]) flips the instant
//! the window starts: packets crossing the link after that are lost. The
//! **routing** view ([`FaultEvent::RouteLost`]/[`FaultEvent::RouteRestored`])
//! flips [`FaultPlan::route_update_delay`] later, modelling the detection
//! latency before routes detour around the failure. During the gap, senders
//! keep using the stale route, lose packets, and must retry — which is what
//! produces the timeout/retry traffic the resilience layer exists to absorb.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A deterministic schedule of injected faults. See the module docs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    route_update_delay: SimDuration,
    /// `(link, down_from, up_at)` windows; `up_at` may be past the horizon.
    link_windows: Vec<(u32, SimTime, SimTime)>,
    /// `(node, hang_from, resume_at)` windows.
    hang_windows: Vec<(u32, SimTime, SimTime)>,
    /// Per-traversal corruption probability, the same on every link.
    corrupt: f64,
}

/// Parameters for sampling a random [`FaultPlan`] with
/// [`FaultPlan::generate`].
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Exclusive upper bound of the dense link-id space to draw from.
    pub links: u32,
    /// Exclusive upper bound of the node-index space to draw from.
    pub nodes: u32,
    /// Number of link-down windows to sample.
    pub link_down_windows: u32,
    /// Mean downtime per window; actual downtimes are drawn uniformly from
    /// `[mean/2, 3*mean/2)` in whole picoseconds (integer math only).
    pub mean_downtime: SimDuration,
    /// Number of node-hang windows to sample.
    pub node_hangs: u32,
    /// Mean hang duration (same uniform integer sampling as downtimes).
    pub mean_hang: SimDuration,
    /// Window start times are drawn uniformly from `[0, horizon)`.
    pub horizon: SimDuration,
    /// Default per-traversal corruption probability for every link.
    pub corruption: f64,
}

/// One entry of a compiled fault schedule (see [`FaultPlan::compiled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The link physically stops delivering packets.
    LinkDown(u32),
    /// The link physically delivers packets again.
    LinkUp(u32),
    /// The routing layer notices the link is dead and detours around it.
    RouteLost(u32),
    /// The routing layer notices the link is back and may use it again.
    RouteRestored(u32),
    /// The node stops driving progress until `until`.
    NodeHang {
        /// Node index that hangs.
        node: u32,
        /// Virtual time at which the node resumes.
        until: SimTime,
    },
}

impl FaultEvent {
    /// Tie-break tag for same-instant events: downs before ups before route
    /// changes before hangs, then by resource id. Any fixed total order
    /// works; this one is part of the determinism contract.
    fn sort_key(&self) -> (u8, u32) {
        match *self {
            FaultEvent::LinkDown(l) => (0, l),
            FaultEvent::LinkUp(l) => (1, l),
            FaultEvent::RouteLost(l) => (2, l),
            FaultEvent::RouteRestored(l) => (3, l),
            FaultEvent::NodeHang { node, .. } => (4, node),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults) carrying `seed` for the corruption RNG.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            route_update_delay: SimDuration::from_us(10),
            link_windows: Vec::new(),
            hang_windows: Vec::new(),
            corrupt: 0.0,
        }
    }

    /// Set the delay between a link state flip and the routing layer
    /// noticing it (default 10 µs).
    pub fn route_update_delay(mut self, d: SimDuration) -> FaultPlan {
        self.route_update_delay = d;
        self
    }

    /// Add a link-down window: `link` is dead from `from` until `until`.
    pub fn link_down(mut self, link: u32, from: SimTime, until: SimTime) -> FaultPlan {
        assert!(from < until, "link-down window must be non-empty");
        self.link_windows.push((link, from, until));
        self
    }

    /// Add a node-hang window: `node` drives no progress from `from` until
    /// `until`.
    pub fn node_hang(mut self, node: u32, from: SimTime, until: SimTime) -> FaultPlan {
        assert!(from < until, "node-hang window must be non-empty");
        self.hang_windows.push((node, from, until));
        self
    }

    /// Set the default per-traversal corruption probability for every link.
    pub fn corruption(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.corrupt = p;
        self
    }

    /// Sample a random plan from `spec`, fully determined by `seed`.
    pub fn generate(seed: u64, spec: &FaultSpec) -> FaultPlan {
        let mut rng = SimRng::new(seed).derive(0xFA01);
        let horizon = spec.horizon.as_ps().max(1);
        let mut plan = FaultPlan::new(seed).corruption(spec.corruption);
        let uniform_around = |rng: &mut SimRng, mean: SimDuration| -> u64 {
            let mean_ps = mean.as_ps().max(2);
            mean_ps / 2 + rng.next_below(mean_ps)
        };
        for _ in 0..spec.link_down_windows {
            let link = rng.next_below(u64::from(spec.links.max(1))) as u32;
            let from = SimTime::ZERO + SimDuration::from_ps(rng.next_below(horizon));
            let dur = uniform_around(&mut rng, spec.mean_downtime);
            plan = plan.link_down(link, from, from + SimDuration::from_ps(dur.max(1)));
        }
        for _ in 0..spec.node_hangs {
            let node = rng.next_below(u64::from(spec.nodes.max(1))) as u32;
            let from = SimTime::ZERO + SimDuration::from_ps(rng.next_below(horizon));
            let dur = uniform_around(&mut rng, spec.mean_hang);
            plan = plan.node_hang(node, from, from + SimDuration::from_ps(dur.max(1)));
        }
        plan
    }

    /// Seed used for the runtime corruption RNG.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing: no windows and zero corruption.
    /// Consumers may treat an empty plan exactly like no plan.
    pub fn is_empty(&self) -> bool {
        self.link_windows.is_empty() && self.hang_windows.is_empty() && self.corrupt == 0.0
    }

    /// Per-traversal corruption probability of every link.
    pub fn corruption_rate(&self) -> f64 {
        self.corrupt
    }

    /// Compile the plan into a time-sorted event list. Each link window
    /// expands into four events (physical down/up plus the delayed routing
    /// reactions); each hang window into one. The sort is total — ties at
    /// one instant break on `(kind, resource)` — so the schedule is
    /// byte-identical for identical plans.
    pub fn compiled(&self) -> Vec<(SimTime, FaultEvent)> {
        let mut ev = Vec::with_capacity(self.link_windows.len() * 4 + self.hang_windows.len());
        for &(link, from, until) in &self.link_windows {
            ev.push((from, FaultEvent::LinkDown(link)));
            ev.push((from + self.route_update_delay, FaultEvent::RouteLost(link)));
            ev.push((until, FaultEvent::LinkUp(link)));
            ev.push((
                until + self.route_update_delay,
                FaultEvent::RouteRestored(link),
            ));
        }
        for &(node, from, until) in &self.hang_windows {
            ev.push((from, FaultEvent::NodeHang { node, until }));
        }
        ev.sort_by_key(|&(at, e)| (at, e.sort_key()));
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            links: 640,
            nodes: 64,
            link_down_windows: 8,
            mean_downtime: SimDuration::from_us(500),
            node_hangs: 3,
            mean_hang: SimDuration::from_us(200),
            horizon: SimDuration::from_ms(5),
            corruption: 1e-3,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::generate(42, &spec());
        let b = FaultPlan::generate(42, &spec());
        assert_eq!(a.compiled(), b.compiled());
        assert!(!a.compiled().is_empty());
        let c = FaultPlan::generate(43, &spec());
        assert_ne!(a.compiled(), c.compiled());
    }

    #[test]
    fn compiled_is_sorted_and_complete() {
        let plan = FaultPlan::generate(7, &spec());
        let ev = plan.compiled();
        assert_eq!(ev.len(), 8 * 4 + 3);
        for w in ev.windows(2) {
            assert!(
                (w[0].0, w[0].1.sort_key()) <= (w[1].0, w[1].1.sort_key()),
                "schedule must be totally ordered"
            );
        }
        // Every down has a matching routing reaction exactly delay later.
        let delay = plan.route_update_delay;
        for (at, e) in &ev {
            if let FaultEvent::LinkDown(l) = e {
                assert!(ev.contains(&(*at + delay, FaultEvent::RouteLost(*l))));
            }
        }
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new(1).is_empty());
        assert!(FaultPlan::new(1)
            .route_update_delay(SimDuration::from_us(1))
            .is_empty());
        assert!(!FaultPlan::new(1)
            .link_down(3, SimTime::ZERO, SimTime::ZERO + SimDuration::from_us(1))
            .is_empty());
        assert!(!FaultPlan::new(1).corruption(0.5).is_empty());
        assert!(FaultPlan::new(1).corruption(0.0).is_empty());
    }
}
