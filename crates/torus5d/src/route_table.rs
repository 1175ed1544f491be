//! Interned links and cached dimension-ordered routes.
//!
//! Deterministic dimension-ordered routing makes a route a pure function of
//! its `(source node, destination node)` pair — the exact property the
//! paper's PAMI relies on for pairwise ordering (§III-A4). [`RouteTable`]
//! exploits it on the simulator's hot path:
//!
//! * **[`LinkId`]** — a directed physical link interned as
//!   `node_index * 10 + dim * 2 + plus`: O(1) to compute, no hashing, and
//!   dense, so per-link state can live in flat `Vec`s indexed by it.
//!   Ascending `LinkId` order equals the lexicographic [`Link`] order
//!   (node indices are the lexicographic linearization of coordinates), so
//!   sorted views come for free.
//! * **Route arena** — the first message between a node pair computes its
//!   route once (via [`crate::routing::route_with`], so it is exact by
//!   construction) and appends it to a shared arena; every later message
//!   walks the cached `LinkId` slice with zero allocations.
//! * **Folded rank mapping** — rank → node index → coordinate goes through
//!   a [`RankMap`]: a handful of reciprocal multiplications fixed at
//!   construction, O(1) in size whatever the partition. A per-rank table
//!   (and a dense node² span table) would cost O(p) (and O(nodes²)) bytes up
//!   front; at the million-rank partitions `fig_scale` targets, every
//!   per-rank structure must instead cost O(touched). Route spans live in a
//!   [`desim::FxHashMap`] keyed by the packed node pair, so only pairs that
//!   actually exchange traffic occupy memory — the warm delivery path makes
//!   one probe of it (and one of [`crate::net::NetState`]'s per-rank FIFO;
//!   of its per-pair front only when no link is reserved or a fault plan is
//!   live); it is allocation-free, not hash-free.

use crate::net::entry_retiring;
use crate::rank_map::RankMap;
use crate::routing::{route_avoiding, route_with, Link};
use crate::shape::TorusShape;
use crate::Topology;
use desim::memprof::{self, MemTag};
use desim::FxHashMap;

/// Span map and link arena of the route cache.
static ROUTES_TAG: MemTag = MemTag::new("torus5d.routes");

/// Links per node: 5 dimensions × 2 directions.
const LINKS_PER_NODE: u32 = 10;

/// Interned directed-link id: `node_index * 10 + dim * 2 + plus`.
///
/// The interning is a bijection between ids `0..nodes*10` and [`Link`]s of
/// the torus; decode with [`RouteTable::link_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Sentinel offset marking a node pair the degraded walker could not
/// connect at its epoch (destination cut off by dead links).
const NO_ROUTE: u32 = u32::MAX;

/// One cached route span: arena offset, hop count and the liveness epoch it
/// was last validated at. A pair with no slot has never been routed.
#[derive(Debug, Clone, Copy, Default)]
struct SpanSlot {
    off: u32,
    len: u16,
    /// Only consulted by [`RouteTable::route_span_live`]; the fault-free
    /// [`RouteTable::route_span`] never looks at it.
    epoch: u32,
}

/// The [`LinkId`] of `link` in `shape` (see [`RouteTable::link_id`]).
#[inline]
fn intern(shape: &TorusShape, link: Link) -> LinkId {
    let node = shape.node_index(link.from) as u32;
    LinkId(node * LINKS_PER_NODE + u32::from(link.dim) * 2 + u32::from(link.plus))
}

/// Pack a `(src node, dst node)` pair into one span-map key.
#[inline]
fn span_key(src_node: u32, dst_node: u32) -> u64 {
    (u64::from(src_node) << 32) | u64::from(dst_node)
}

/// Per-partition routing acceleration: link interning and the lazily filled
/// route arena. See the module docs.
pub struct RouteTable {
    shape: TorusShape,
    nodes: u32,
    /// Rank → node → coordinate resolution.
    ranks: RankMap,
    /// Packed (src node, dst node) → cached span. Compact: only pairs that
    /// exchanged traffic occupy a slot, so idle partitions cost zero and a
    /// million-rank all-to-all among k active ranks costs O(k²), never
    /// O(nodes²).
    spans: FxHashMap<u64, SpanSlot>,
    /// Shared arena of cached routes, stored back-to-back.
    arena: Vec<LinkId>,
    /// Number of distinct node pairs whose route has been cached.
    routes_cached: u64,
}

impl RouteTable {
    /// Build the table for a topology. Construction is O(1) in the partition
    /// size: the rank map is a fixed handful of reciprocals and routes fill
    /// in lazily as traffic touches node pairs.
    pub fn new(topo: &Topology) -> RouteTable {
        let shape = topo.shape;
        RouteTable {
            shape,
            nodes: shape.num_nodes() as u32,
            ranks: RankMap::new(&topo.mapping, &shape, topo.procs_per_node),
            spans: FxHashMap::default(),
            arena: Vec::new(),
            routes_cached: 0,
        }
    }

    /// The torus shape this table spans.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// The rank → node → coordinate map of the partition.
    pub fn ranks(&self) -> &RankMap {
        &self.ranks
    }

    /// Number of nodes in the torus.
    pub fn num_nodes(&self) -> usize {
        self.nodes as usize
    }

    /// Exclusive upper bound of the dense [`LinkId`] space (`nodes * 10`).
    pub fn num_link_ids(&self) -> usize {
        (self.nodes * LINKS_PER_NODE) as usize
    }

    /// Intern a [`Link`] (O(1): one node-index linearization, no hashing).
    #[inline]
    pub fn link_id(&self, link: Link) -> LinkId {
        intern(&self.shape, link)
    }

    /// Decode a [`LinkId`] back into the full [`Link`] identity.
    #[inline]
    pub fn link_of(&self, id: LinkId) -> Link {
        let rem = id.0 % LINKS_PER_NODE;
        Link {
            from: self.shape.node_coord((id.0 / LINKS_PER_NODE) as usize),
            dim: (rem / 2) as u8,
            plus: rem % 2 == 1,
        }
    }

    /// The cached route between two *node indices* as an `(arena offset,
    /// hop count)` span, computing and caching it on first use. Index the
    /// links with [`RouteTable::link_at`]; the span stays valid for the
    /// lifetime of the table (the arena only grows).
    #[inline]
    pub fn route_span(&mut self, src_node: u32, dst_node: u32) -> (u32, u16) {
        let key = span_key(src_node, dst_node);
        if let Some(slot) = self.spans.get(&key) {
            debug_assert_ne!(slot.off, NO_ROUTE, "fault-free lookups never see NO_ROUTE");
            return (slot.off, slot.len);
        }
        self.fill_route(key, src_node, dst_node)
    }

    /// Liveness-aware variant of [`RouteTable::route_span`]: the cached span
    /// for the pair, valid **at liveness epoch `epoch`** given the per-link
    /// predicate `live`. A span cached at an older epoch is recomputed with
    /// [`route_avoiding`]; if the fresh walk matches the cached links the
    /// span is merely re-stamped (no arena growth — the common case once
    /// routes settle after a failure), otherwise the detour is appended as a
    /// new span. Returns `None` when the pair is unreachable at this epoch.
    #[inline]
    pub fn route_span_live<F: Fn(LinkId) -> bool>(
        &mut self,
        src_node: u32,
        dst_node: u32,
        epoch: u32,
        live: F,
    ) -> Option<(u32, u16)> {
        let key = span_key(src_node, dst_node);
        if let Some(slot) = self.spans.get(&key).filter(|slot| slot.epoch == epoch) {
            return (slot.off != NO_ROUTE).then_some((slot.off, slot.len));
        }
        self.fill_route_live(key, src_node, dst_node, epoch, live)
    }

    /// One link of the arena (index comes from [`RouteTable::route_span`]).
    #[inline]
    pub fn link_at(&self, arena_idx: u32) -> LinkId {
        self.arena[arena_idx as usize]
    }

    /// Number of distinct node-pair routes cached so far.
    pub fn routes_cached(&self) -> u64 {
        self.routes_cached
    }

    /// Total links stored in the shared route arena. Kept for
    /// `tests/alloc_free.rs`, which pins that warm routes never grow it.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    #[cold]
    fn fill_route(&mut self, key: u64, src_node: u32, dst_node: u32) -> (u32, u16) {
        let _mem = memprof::scope(&ROUTES_TAG);
        let off = self.arena.len() as u32;
        let src = self.shape.node_coord(src_node as usize);
        let dst = self.shape.node_coord(dst_node as usize);
        let shape = self.shape;
        let arena = &mut self.arena;
        route_with(&shape, src, dst, |link| arena.push(intern(&shape, link)));
        let len = (self.arena.len() as u32 - off) as u16;
        debug_assert_eq!(
            u32::from(len),
            self.shape.torus_distance(src, dst),
            "cached route length must equal the torus distance"
        );
        *entry_retiring(&mut self.spans, key, |_| false) = SpanSlot { off, len, epoch: 0 };
        self.routes_cached += 1;
        (off, len)
    }

    #[cold]
    fn fill_route_live<F: Fn(LinkId) -> bool>(
        &mut self,
        key: u64,
        src_node: u32,
        dst_node: u32,
        epoch: u32,
        live: F,
    ) -> Option<(u32, u16)> {
        let _mem = memprof::scope(&ROUTES_TAG);
        let shape = self.shape;
        let src = shape.node_coord(src_node as usize);
        let dst = shape.node_coord(dst_node as usize);
        let fresh = route_avoiding(&shape, src, dst, |l| live(intern(&shape, l)));
        let old = self.spans.get(&key).copied();
        let slot = entry_retiring(&mut self.spans, key, |_| false);
        let Some(links) = fresh else {
            *slot = SpanSlot {
                off: NO_ROUTE,
                len: 0,
                epoch,
            };
            return None;
        };
        if let Some(old) = old.filter(|old| old.off != NO_ROUTE) {
            // Re-validate: if the degraded walk reproduces the cached links
            // exactly, keep the old span (the cache stays *exact* without
            // duplicating arena storage on every epoch bump).
            let (off, len) = (old.off as usize, old.len as usize);
            if len == links.len()
                && self.arena[off..off + len]
                    .iter()
                    .zip(&links)
                    .all(|(id, l)| *id == intern(&shape, *l))
            {
                *slot = SpanSlot { epoch, ..old };
                return Some((old.off, old.len));
            }
        }
        let off = self.arena.len() as u32;
        self.arena.extend(links.iter().map(|l| intern(&shape, *l)));
        *slot = SpanSlot {
            off,
            len: links.len() as u16,
            epoch,
        };
        self.routes_cached += 1;
        Some((slot.off, slot.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::route;
    use crate::Mapping;

    fn table(nodes: usize, ppn: usize) -> (Topology, RouteTable) {
        let topo = Topology {
            shape: TorusShape::for_nodes(nodes),
            procs_per_node: ppn,
            mapping: Mapping::abcdet(),
        };
        let rt = RouteTable::new(&topo);
        (topo, rt)
    }

    #[test]
    fn link_id_is_a_bijection() {
        let (_, rt) = table(128, 1);
        for id in 0..rt.num_link_ids() as u32 {
            let link = rt.link_of(LinkId(id));
            assert_eq!(rt.link_id(link), LinkId(id));
            assert!(link.dim < 5);
        }
    }

    #[test]
    fn link_id_order_matches_link_order() {
        // Dense id order must equal the lexicographic Link order the old
        // HashMap-based utilization view sorted by.
        let (_, rt) = table(32, 1);
        let links: Vec<Link> = (0..rt.num_link_ids() as u32)
            .map(|i| rt.link_of(LinkId(i)))
            .collect();
        let mut sorted = links.clone();
        sorted.sort_unstable();
        assert_eq!(links, sorted);
    }

    #[test]
    fn cached_routes_match_fresh_routes() {
        let (topo, mut rt) = table(64, 1);
        let shape = topo.shape;
        for a in 0..shape.num_nodes() as u32 {
            for b in 0..shape.num_nodes() as u32 {
                let (off, len) = rt.route_span(a, b);
                let cached: Vec<Link> = (off..off + u32::from(len))
                    .map(|i| rt.link_of(rt.link_at(i)))
                    .collect();
                let fresh = route(
                    &shape,
                    shape.node_coord(a as usize),
                    shape.node_coord(b as usize),
                );
                assert_eq!(cached, fresh, "route {a}->{b}");
            }
        }
        let n = shape.num_nodes() as u64;
        assert_eq!(rt.routes_cached(), n * n);
    }

    #[test]
    fn live_span_revalidates_without_arena_growth() {
        let (_, mut rt) = table(64, 1);
        let all_live = |_: LinkId| true;
        let span0 = rt.route_span_live(0, 9, 0, all_live).unwrap();
        assert_eq!(
            span0,
            rt.route_span(0, 9),
            "all-live walk is the exact route"
        );
        let arena = rt.arena_len();
        let cached = rt.routes_cached();
        // Epoch bump with nothing dead: same links -> re-stamp, no growth.
        let span1 = rt.route_span_live(0, 9, 1, all_live).unwrap();
        assert_eq!(span1, span0);
        assert_eq!(rt.arena_len(), arena);
        assert_eq!(rt.routes_cached(), cached);
        // Same epoch again: pure cache hit.
        assert_eq!(rt.route_span_live(0, 9, 1, all_live), Some(span0));
    }

    #[test]
    fn live_span_detours_and_caches_the_detour() {
        let (_, mut rt) = table(64, 1);
        let (off, len) = rt.route_span_live(0, 9, 0, |_| true).unwrap();
        assert!(len > 0);
        let dead = rt.link_at(off);
        let (off2, len2) = rt.route_span_live(0, 9, 1, |l| l != dead).unwrap();
        let detour: Vec<LinkId> = (off2..off2 + u32::from(len2))
            .map(|i| rt.link_at(i))
            .collect();
        assert!(!detour.contains(&dead), "detour must avoid the dead link");
        // The detour is itself cached: same epoch, no recompute drift.
        assert_eq!(
            rt.route_span_live(0, 9, 1, |l| l != dead),
            Some((off2, len2))
        );
        // Recovery epoch: walker returns to the original exact route, which
        // re-validates against the *original* span (but a new span entry is
        // appended only if links differ from the detour currently stored).
        let (off3, len3) = rt.route_span_live(0, 9, 2, |_| true).unwrap();
        let back: Vec<LinkId> = (off3..off3 + u32::from(len3))
            .map(|i| rt.link_at(i))
            .collect();
        assert!(back.contains(&dead));
        assert_eq!(back.len(), len as usize);
    }

    #[test]
    fn live_span_reports_unreachable_and_recovers() {
        let (_, mut rt) = table(32, 1);
        let src_node = 0u32;
        // Kill every link leaving node 0: unreachable.
        assert_eq!(
            rt.route_span_live(src_node, 3, 5, |l| l.0 / 10 != src_node),
            None
        );
        // The NO_ROUTE verdict is cached at that epoch.
        assert_eq!(
            rt.route_span_live(src_node, 3, 5, |l| l.0 / 10 != src_node),
            None
        );
        // Next epoch with links back: route again.
        assert!(rt.route_span_live(src_node, 3, 6, |_| true).is_some());
    }

    #[test]
    fn route_cache_is_lazy_and_stable() {
        let (_, mut rt) = table(32, 1);
        assert_eq!(rt.routes_cached(), 0);
        assert_eq!(rt.arena_len(), 0);
        let first = rt.route_span(0, 7);
        let len_after = rt.arena_len();
        // Second lookup: cache hit, no arena growth.
        assert_eq!(rt.route_span(0, 7), first);
        assert_eq!(rt.arena_len(), len_after);
        // Self-route caches an empty span.
        assert_eq!(rt.route_span(5, 5).1, 0);
    }
}
