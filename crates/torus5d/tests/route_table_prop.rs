//! Property tests for `RouteTable`: cached routes must be *identical* to
//! freshly computed `route()` output, and `LinkId` interning must be a
//! bijection — across randomized shapes and rank pairs (seeded `SimRng`, so
//! failures reproduce deterministically; no external property-test dep).

use desim::SimRng;
use torus5d::routing::route;
use torus5d::{Coord, Link, LinkId, Mapping, RouteTable, Topology, TorusShape};

/// The cached route between two node indices, link by link.
fn cached_route(rt: &mut RouteTable, src_node: u32, dst_node: u32) -> Vec<Link> {
    let (off, len) = rt.route_span(src_node, dst_node);
    (off..off + u32::from(len))
        .map(|i| rt.link_of(rt.link_at(i)))
        .collect()
}

/// Random shapes mixing the standard partition tables with hand-picked
/// degenerate ones (size-1 dims, even dims with wrap ties, long thin dims).
fn random_shapes(rng: &mut SimRng) -> Vec<TorusShape> {
    let mut shapes = vec![
        TorusShape::new([1, 1, 1, 1, 1]),
        TorusShape::new([8, 1, 1, 1, 1]),  // wrap both directions
        TorusShape::new([4, 4, 4, 4, 2]),  // all-even: every tie case
        TorusShape::new([2, 3, 5, 2, 2]),  // odd dims: no ties
        TorusShape::new([16, 1, 2, 1, 1]), // long + degenerate
    ];
    for _ in 0..6 {
        let dims = [
            1 + rng.next_below(6) as u16,
            1 + rng.next_below(6) as u16,
            1 + rng.next_below(4) as u16,
            1 + rng.next_below(4) as u16,
            1 + rng.next_below(2) as u16,
        ];
        shapes.push(TorusShape::new(dims));
    }
    for nodes in [32, 128, 512] {
        shapes.push(TorusShape::for_nodes(nodes));
    }
    shapes
}

fn topo(shape: TorusShape, ppn: usize) -> Topology {
    Topology {
        shape,
        procs_per_node: ppn,
        mapping: Mapping::abcdet(),
    }
}

#[test]
fn cached_routes_equal_fresh_routes_on_random_pairs() {
    let mut rng = SimRng::new(0x5EED_0001);
    for shape in random_shapes(&mut rng.derive(0)) {
        let ppn = 1 + rng.next_below(16) as usize;
        let t = topo(shape, ppn);
        let mut rt = RouteTable::new(&t);
        let nodes = shape.num_nodes() as u64;
        // Random node pairs, plus forced wrap-around pairs (first<->last
        // along each dim) and self-routes.
        let mut pairs: Vec<(u32, u32)> = (0..200)
            .map(|_| (rng.next_below(nodes) as u32, rng.next_below(nodes) as u32))
            .collect();
        pairs.push((0, 0));
        pairs.push((0, nodes as u32 - 1));
        pairs.push((nodes as u32 - 1, 0));
        for (a, b) in pairs {
            let fresh = route(
                &shape,
                shape.node_coord(a as usize),
                shape.node_coord(b as usize),
            );
            let cached = cached_route(&mut rt, a, b);
            assert_eq!(cached, fresh, "shape {shape} route {a}->{b}");
            // Cached again: identical (stability).
            let again = cached_route(&mut rt, a, b);
            assert_eq!(again, fresh);
        }
    }
}

#[test]
fn wrap_ties_resolve_identically_in_cache_and_fresh() {
    // Even-sized dims: distance n/2 ties between the two wrap directions
    // and must resolve to `plus` in both the fresh and the cached route.
    let shape = TorusShape::new([4, 4, 4, 4, 2]);
    let t = topo(shape, 1);
    let mut rt = RouteTable::new(&t);
    let n = shape.num_nodes();
    for a in 0..n {
        let ca = shape.node_coord(a);
        // The antipodal node ties in every dimension.
        let cb = Coord([
            (ca.0[0] + 2) % 4,
            (ca.0[1] + 2) % 4,
            (ca.0[2] + 2) % 4,
            (ca.0[3] + 2) % 4,
            (ca.0[4] + 1) % 2,
        ]);
        let b = shape.node_index(cb);
        let fresh = route(&shape, ca, cb);
        assert!(fresh.iter().all(|l| l.plus), "ties must resolve positive");
        let cached = cached_route(&mut rt, a as u32, b as u32);
        assert_eq!(cached, fresh, "antipodal route {a}->{b}");
    }
}

#[test]
fn link_interning_is_a_bijection_on_random_shapes() {
    let rng = SimRng::new(0x5EED_0002);
    for shape in random_shapes(&mut rng.derive(0)) {
        let t = topo(shape, 1);
        let rt = RouteTable::new(&t);
        let mut seen = vec![false; rt.num_link_ids()];
        // Decode every id and re-encode: must round-trip and be unique.
        for raw in 0..rt.num_link_ids() as u32 {
            let link = rt.link_of(LinkId(raw));
            assert!(link.dim < 5, "shape {shape} id {raw}");
            let back = rt.link_id(link);
            assert_eq!(back, LinkId(raw), "shape {shape} id {raw}");
            assert!(!seen[raw as usize]);
            seen[raw as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn rank_table_agrees_with_mapping_on_random_ranks() {
    let mut rng = SimRng::new(0x5EED_0003);
    for shape in random_shapes(&mut rng.derive(0)) {
        let ppn = 1 + rng.next_below(16) as usize;
        let t = topo(shape, ppn);
        let rt = RouteTable::new(&t);
        let cap = t.capacity() as u64;
        for _ in 0..100 {
            let a = rng.next_below(cap) as usize;
            let b = rng.next_below(cap) as usize;
            let ranks = rt.ranks();
            assert_eq!(ranks.coord_of(a), t.coord_of(a));
            assert_eq!(ranks.hops(a, b), t.hops(a, b), "shape {shape} {a},{b}");
            assert_eq!(ranks.same_node(a, b), t.same_node(a, b));
        }
    }
}
