//! `RankMap` proved against the oracle, not sampled: for all 720 mappings,
//! a spread of shapes (one node, power-of-two partitions, a greedy-factored
//! 96, an explicit shape with a size-1 axis) and three slot counts, **every**
//! rank's node, coordinate, co-location and hop count must equal what
//! `Mapping::rank_to_coord` / `Topology` compute with plain `%` and `/`.

use torus5d::{Coord, Mapping, RankMap, Topology, TorusShape};

/// All permutations of `ABCDET`, in lexicographic order.
fn all_mappings() -> Vec<Mapping> {
    fn rec(left: &mut Vec<char>, cur: &mut String, out: &mut Vec<Mapping>) {
        if left.is_empty() {
            out.push(cur.parse().unwrap());
            return;
        }
        for i in 0..left.len() {
            let c = left.remove(i);
            cur.push(c);
            rec(left, cur, out);
            cur.pop();
            left.insert(i, c);
        }
    }
    let mut out = Vec::new();
    rec(
        &mut "ABCDET".chars().collect(),
        &mut String::new(),
        &mut out,
    );
    assert_eq!(out.len(), 720);
    out
}

fn prove(shape: TorusShape) {
    prove_with(shape, &[1, 3, 16]);
}

fn prove_with(shape: TorusShape, slot_counts: &[usize]) {
    for mapping in all_mappings() {
        for &ppn in slot_counts {
            let topo = Topology {
                shape,
                procs_per_node: ppn,
                mapping: mapping.clone(),
            };
            let map = RankMap::new(&mapping, &shape, ppn);
            let cap = topo.capacity();
            // The oracle's coordinate of every rank: `Topology::same_node`
            // and `Topology::hops` are coordinate equality and torus
            // distance over exactly these, so they are evaluated once here
            // and compared as such below (a debug build makes the oracle
            // the expensive side).
            let coords: Vec<Coord> = (0..cap).map(|r| topo.coord_of(r)).collect();
            for r in 0..cap {
                let node = map.node_of(r);
                // One partner per rank, striding through the partition so
                // same-node, neighbour and far pairs all occur.
                let other = (r * 7 + 3) % cap;
                let ok = node as usize == shape.node_index(coords[r])
                    && map.coord_of(r) == coords[r]
                    && map.same_node(r, other) == (coords[r] == coords[other])
                    && map.hops(r, other) == shape.torus_distance(coords[r], coords[other]);
                assert!(ok, "{mapping} on {shape} ppn {ppn}: rank {r} disagrees");
            }
            // And the two `Topology` methods themselves, on a sample.
            for r in (0..cap).step_by(17) {
                let other = (r * 7 + 3) % cap;
                assert_eq!(map.same_node(r, other), topo.same_node(r, other));
                assert_eq!(map.hops(r, other), topo.hops(r, other));
            }
        }
    }
}

#[test]
fn tiny_partitions() {
    prove(TorusShape::for_nodes(1));
    prove(TorusShape::for_nodes(2));
}

#[test]
fn nodes_32() {
    prove(TorusShape::for_nodes(32));
}

#[test]
fn nodes_96_greedy_factored() {
    prove(TorusShape::for_nodes(96));
}

#[test]
fn nodes_128() {
    prove(TorusShape::for_nodes(128));
}

// The midplane is most of the ranks of this suite: two tests, so that two
// test threads share it.
#[test]
fn nodes_512_one_and_three_slots() {
    prove_with(TorusShape::for_nodes(512), &[1, 3]);
}

#[test]
fn nodes_512_sixteen_slots() {
    prove_with(TorusShape::for_nodes(512), &[16]);
}

#[test]
fn explicit_shape_with_a_size_one_axis() {
    prove(TorusShape::new([3, 1, 5, 2, 2]));
}

#[test]
#[should_panic(expected = "rank 512 out of range (512)")]
fn rank_at_capacity_panics() {
    RankMap::new(&Mapping::abcdet(), &TorusShape::for_nodes(32), 16).node_of(512);
}

#[test]
#[should_panic(expected = "rank 99 out of range (96)")]
fn net_state_rejects_out_of_range_ranks() {
    use desim::SimTime;
    use torus5d::{BgqParams, MsgClass, NetState};
    let topo = Topology {
        shape: TorusShape::for_nodes(32),
        procs_per_node: 3,
        mapping: Mapping::tabcde(),
    };
    NetState::new(topo, BgqParams::default(), false).deliver(
        SimTime::ZERO,
        0,
        99,
        8,
        MsgClass::Ordered,
    );
}
