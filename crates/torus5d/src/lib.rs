#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # torus5d — Blue Gene/Q interconnect model
//!
//! Faithful model of the Blue Gene/Q 5D torus used by the PGAS communication
//! subsystem reproduction:
//!
//! * [`shape::TorusShape`] — 5D torus dimensions (A, B, C, D, E), including
//!   the standard BG/Q partition shapes (e.g. 128 nodes = 2×2×4×4×2, the
//!   shape in the paper's Eq. 10).
//! * [`coords::Coord`] — node coordinates with wrap-around distance.
//! * [`mapping::Mapping`] — process→torus mapping; `ABCDET` (the paper's
//!   mapping, rightmost letter varies fastest) plus the other permutations.
//! * [`routing`] — deterministic dimension-ordered routing, as enabled by
//!   default on BG/Q (the property that gives PAMI its pairwise ordering).
//! * [`cost::BgqParams`] — LogGP-style cost constants calibrated against the
//!   paper's Table II and §IV-B microbenchmarks (35 ns/hop, 1.8 GB/s
//!   available link bandwidth, 2.89 µs adjacent-node get, …).
//! * [`rank_map::RankMap`] — rank → node → coordinate with the mapping's
//!   digits folded once and every division a reciprocal multiplication;
//!   [`Mapping::rank_to_coord`] stays as the slow, obviously-right oracle.
//! * [`route_table::RouteTable`] — interned dense [`route_table::LinkId`]s
//!   and a lazily cached route arena behind a node-pair `desim::FxHashMap`, so
//!   warm delivery is allocation-free (it still probes hash maps: injection
//!   FIFO, route span, and a pair front where no link FIFO orders the pair).
//! * [`net::NetState`] — per-(src,dst) FIFO tracking for ordered delivery and
//!   optional per-link contention (busy-until reservation), one delivery
//!   core for the plain, observed and fault-injected paths.

pub mod coords;
pub mod cost;
pub mod mapping;
pub mod net;
pub mod rank_map;
pub mod route_table;
pub mod routing;
pub mod shape;

pub use coords::Coord;
pub use cost::BgqParams;
pub use mapping::Mapping;
pub use net::{Delivery, FaultCounters, MsgClass, NetState};
pub use rank_map::RankMap;
pub use route_table::{LinkId, RouteTable};
pub use routing::Link;
pub use shape::TorusShape;

/// A fully specified simulated partition: torus shape, processes/node and
/// the process→coordinate mapping.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Torus dimensions.
    pub shape: TorusShape,
    /// Processes per node (`c` in the paper, 1–16 on BG/Q).
    pub procs_per_node: usize,
    /// Process→coordinate mapping (default `ABCDET`).
    pub mapping: Mapping,
}

impl Topology {
    /// Topology for `nprocs` processes with `procs_per_node` ranks per node,
    /// using the standard BG/Q partition shape for the node count and the
    /// `ABCDET` mapping.
    ///
    /// # Panics
    /// When [`Topology::try_for_procs`] finds no such partition.
    pub fn for_procs(nprocs: usize, procs_per_node: usize) -> Topology {
        Topology::try_for_procs(nprocs, procs_per_node).unwrap_or_else(|| {
            panic!("no 5D torus holds {nprocs} ranks at {procs_per_node} per node")
        })
    }

    /// [`Topology::for_procs`], or `None` when no partition holds the ranks:
    /// zero ranks or ranks per node, a node count no 5D torus has
    /// ([`TorusShape::try_for_nodes`]), or more process slots than 32-bit
    /// rank ids can name.
    pub fn try_for_procs(nprocs: usize, procs_per_node: usize) -> Option<Topology> {
        if nprocs == 0 || procs_per_node == 0 {
            return None;
        }
        let shape = TorusShape::try_for_nodes(nprocs.div_ceil(procs_per_node))?;
        let slots = shape.num_nodes().checked_mul(procs_per_node)?;
        (slots <= u32::MAX as usize).then(|| Topology {
            shape,
            procs_per_node,
            mapping: Mapping::abcdet(),
        })
    }

    /// Total process slots in the partition.
    pub fn capacity(&self) -> usize {
        self.shape.num_nodes() * self.procs_per_node
    }

    /// Torus coordinate of the node hosting `rank`.
    pub fn coord_of(&self, rank: usize) -> Coord {
        self.mapping
            .rank_to_coord(rank, &self.shape, self.procs_per_node)
            .0
    }

    /// Hop count between the nodes hosting the two ranks (0 if co-located).
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        self.shape.torus_distance(ca, cb)
    }

    /// True when both ranks live on the same node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.coord_of(a) == self.coord_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_for_procs_paper_example() {
        // Paper §IV-B1: 2048 processes, 16/node -> 128 nodes = 2*2*4*4*2.
        let t = Topology::for_procs(2048, 16);
        assert_eq!(t.shape.num_nodes(), 128);
        assert_eq!(t.shape.dims(), [2, 2, 4, 4, 2]);
        assert_eq!(t.capacity(), 2048);
    }

    #[test]
    fn adjacent_ranks_same_node_under_abcdet() {
        let t = Topology::for_procs(32, 16);
        // With ABCDET the T coordinate varies fastest: ranks 0..16 share node.
        assert!(t.same_node(0, 15));
        assert!(!t.same_node(0, 16));
        assert_eq!(t.hops(0, 16), 1);
    }

    #[test]
    fn partitions_no_torus_holds_are_refused() {
        // 65537 nodes (prime), and more slots than 32-bit ranks can name.
        assert!(Topology::try_for_procs(1_048_592, 16).is_none());
        assert!(Topology::try_for_procs(99_999_999_999, 16).is_none());
        assert!(Topology::try_for_procs(0, 16).is_none());
        let t = Topology::try_for_procs(1 << 20, 16).expect("the p = 1M partition");
        assert_eq!(t.capacity(), 1 << 20);
    }

    #[test]
    fn capacity_round_up() {
        let t = Topology::for_procs(17, 16);
        assert_eq!(t.shape.num_nodes(), 2);
        assert_eq!(t.capacity(), 32);
    }
}
