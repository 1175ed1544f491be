//! Randomized tests of the interconnect model's invariants, driven by the
//! deterministic [`SimRng`] (fixed seeds — every run checks the same cases).

use desim::SimRng;
use torus5d::{coords, routing, Mapping, Topology, TorusShape};

/// A random well-formed torus shape: dims in 1..=6, E in 1..=2.
fn arb_shape(rng: &mut SimRng) -> TorusShape {
    TorusShape::new([
        rng.range(1, 7) as u16,
        rng.range(1, 7) as u16,
        rng.range(1, 7) as u16,
        rng.range(1, 7) as u16,
        rng.range(1, 3) as u16,
    ])
}

#[test]
fn route_length_equals_wraparound_manhattan() {
    let mut rng = SimRng::new(1);
    for _ in 0..64 {
        let shape = arb_shape(&mut rng);
        let n = shape.num_nodes() as u64;
        let a = shape.node_coord(rng.next_below(n) as usize);
        let b = shape.node_coord(rng.next_below(n) as usize);
        let r = routing::route(&shape, a, b);
        assert_eq!(r.len() as u32, shape.torus_distance(a, b));
    }
}

#[test]
fn route_is_minimal_and_within_diameter() {
    let mut rng = SimRng::new(2);
    for _ in 0..64 {
        let shape = arb_shape(&mut rng);
        let n = shape.num_nodes() as u64;
        let a = shape.node_coord(0);
        let b = shape.node_coord(rng.next_below(n) as usize);
        assert!(shape.torus_distance(a, b) <= shape.diameter());
    }
}

#[test]
fn distance_is_a_metric() {
    let mut rng = SimRng::new(3);
    for _ in 0..64 {
        let shape = arb_shape(&mut rng);
        let n = shape.num_nodes() as u64;
        let a = shape.node_coord(rng.next_below(n) as usize);
        let b = shape.node_coord(rng.next_below(n) as usize);
        let c = shape.node_coord(rng.next_below(n) as usize);
        let dab = shape.torus_distance(a, b);
        let dba = shape.torus_distance(b, a);
        assert_eq!(dab, dba);
        assert_eq!(shape.torus_distance(a, a), 0);
        // Triangle inequality.
        assert!(shape.torus_distance(a, c) <= dab + shape.torus_distance(b, c));
    }
}

#[test]
fn node_index_bijection() {
    let mut rng = SimRng::new(4);
    for _ in 0..16 {
        let shape = arb_shape(&mut rng);
        let n = shape.num_nodes();
        let mut seen = vec![false; n];
        for c in shape.iter_coords() {
            let idx = shape.node_index(c);
            assert!(!seen[idx]);
            seen[idx] = true;
            assert_eq!(shape.node_coord(idx), c);
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
#[allow(clippy::disallowed_methods)] // membership only: order never read
fn abcdet_mapping_is_a_bijection() {
    let mut rng = SimRng::new(5);
    for _ in 0..16 {
        let shape = arb_shape(&mut rng);
        let c = rng.range(1, 17) as usize;
        let m = Mapping::abcdet();
        let cap = shape.num_nodes() * c;
        let mut seen = std::collections::HashSet::new();
        for r in 0..cap.min(4096) {
            let (coord, slot) = m.rank_to_coord(r, &shape, c);
            assert!(seen.insert((coord, slot)), "duplicate placement");
            assert_eq!(m.coord_to_rank(coord, slot, &shape, c), r);
        }
    }
}

#[test]
fn wrap_delta_magnitude_is_min_distance() {
    let mut rng = SimRng::new(6);
    for _ in 0..256 {
        let size = rng.range(1, 32) as u16;
        let a = (rng.next_below(32) as u16) % size;
        let b = (rng.next_below(32) as u16) % size;
        let d = coords::wrap_delta(a, b, size);
        let fwd = (b as i32 - a as i32).rem_euclid(size as i32) as u32;
        let bwd = (a as i32 - b as i32).rem_euclid(size as i32) as u32;
        assert_eq!(d.unsigned_abs(), fwd.min(bwd));
    }
}

#[test]
fn topology_hops_zero_iff_same_node() {
    let mut rng = SimRng::new(7);
    for _ in 0..16 {
        let p = rng.range(2, 128) as usize;
        let c = rng.range(1, 8) as usize;
        let topo = Topology::for_procs(p, c);
        for a in 0..p.min(64) {
            for b in 0..p.min(64) {
                let same = topo.same_node(a, b);
                assert_eq!(topo.hops(a, b) == 0, same, "ranks {a} {b}");
            }
        }
    }
}
