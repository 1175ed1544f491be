//! Torus shapes and standard BG/Q partition geometries.

use crate::coords::{wrap_distance, Coord};
use std::fmt;

/// Dimensions of a 5D torus `[A, B, C, D, E]`.
///
/// On Blue Gene/Q the E dimension is fixed at 2 for partitions of 32 nodes
/// and up; smaller sub-block shapes use meshes of 1s and 2s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusShape {
    dims: [u16; 5],
}

impl TorusShape {
    /// Create a shape from explicit dimensions (each ≥ 1).
    pub fn new(dims: [u16; 5]) -> TorusShape {
        assert!(dims.iter().all(|&d| d >= 1), "dimensions must be >= 1");
        TorusShape { dims }
    }

    /// The standard BG/Q partition shape for a node count.
    ///
    /// Shapes for power-of-two counts follow the machine's sub-block
    /// allocation table (e.g. 128 = 2×2×4×4×2, the paper's Eq. 10; a
    /// midplane is 512 = 4×4×4×4×2). Other counts get a balanced greedy
    /// factorization.
    ///
    /// # Panics
    /// When no shape has exactly `nodes` nodes ([`TorusShape::try_for_nodes`]).
    pub fn for_nodes(nodes: usize) -> TorusShape {
        TorusShape::try_for_nodes(nodes)
            .unwrap_or_else(|| panic!("no 5D torus of 16-bit dimensions has {nodes} nodes"))
    }

    /// [`TorusShape::for_nodes`], or `None` when no shape of five 16-bit
    /// dimensions has exactly `nodes` nodes: zero nodes, a prime factor
    /// above 65535, or a dimension the factorization would push past it.
    pub fn try_for_nodes(nodes: usize) -> Option<TorusShape> {
        let table: &[(usize, [u16; 5])] = &[
            (1, [1, 1, 1, 1, 1]),
            (2, [1, 1, 1, 1, 2]),
            (4, [1, 1, 1, 2, 2]),
            (8, [1, 1, 2, 2, 2]),
            (16, [1, 2, 2, 2, 2]),
            (32, [2, 2, 2, 2, 2]),
            (64, [2, 2, 4, 2, 2]),
            (128, [2, 2, 4, 4, 2]),
            (256, [4, 2, 4, 4, 2]),
            (512, [4, 4, 4, 4, 2]),
            (1024, [4, 4, 4, 8, 2]),
            (2048, [4, 4, 8, 8, 2]),
            (4096, [8, 4, 8, 8, 2]),
        ];
        if let Some(&(_, dims)) = table.iter().find(|(n, _)| *n == nodes) {
            return Some(TorusShape::new(dims));
        }
        if nodes == 0 {
            return None;
        }
        // Greedy balanced factorization for unusual counts: repeatedly give
        // the smallest prime factor to the currently smallest dimension
        // (E last, matching BG/Q's preference for E=2).
        let mut dims = [1u16; 5];
        let mut rest = nodes;
        let mut p = 2u16;
        while rest > 1 {
            while !rest.is_multiple_of(usize::from(p)) {
                p = p.checked_add(1)?;
            }
            let idx = (0..5)
                .min_by_key(|&i| (dims[i], i))
                .expect("five dimensions");
            dims[idx] = dims[idx].checked_mul(p)?;
            rest /= usize::from(p);
        }
        dims.sort_unstable_by(|a, b| b.cmp(a));
        // Keep E smallest, as on the real machine.
        Some(TorusShape::new(dims))
    }

    /// The dimension sizes `[A, B, C, D, E]`.
    pub fn dims(&self) -> [u16; 5] {
        self.dims
    }

    /// Size of dimension `dim` (0=A … 4=E).
    pub fn dim(&self, dim: usize) -> u16 {
        self.dims[dim]
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.dims.iter().map(|&d| d as usize).product()
    }

    /// Longest possible shortest-path distance in this torus
    /// (`Σ floor(dim/2)`, the paper's Eq. 10 discussion).
    pub fn diameter(&self) -> u32 {
        self.dims.iter().map(|&d| u32::from(d) / 2).sum()
    }

    /// Shortest-path (wrap-around Manhattan) distance between two nodes.
    #[inline]
    pub fn torus_distance(&self, a: Coord, b: Coord) -> u32 {
        (0..5)
            .map(|i| wrap_distance(a.get(i), b.get(i), self.dims[i]))
            .sum()
    }

    /// Linearize a coordinate to a node index (A slowest, E fastest).
    pub fn node_index(&self, c: Coord) -> usize {
        let mut idx = 0usize;
        for i in 0..5 {
            debug_assert!(c.get(i) < self.dims[i]);
            idx = idx * self.dims[i] as usize + c.get(i) as usize;
        }
        idx
    }

    /// Inverse of [`TorusShape::node_index`].
    pub fn node_coord(&self, mut idx: usize) -> Coord {
        debug_assert!(idx < self.num_nodes());
        let mut c = [0u16; 5];
        for i in (0..5).rev() {
            c[i] = (idx % self.dims[i] as usize) as u16;
            idx /= self.dims[i] as usize;
        }
        Coord(c)
    }

    /// Iterate over every coordinate in index order.
    pub fn iter_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.num_nodes()).map(|i| self.node_coord(i))
    }
}

impl fmt::Display for TorusShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}x{}",
            self.dims[0], self.dims[1], self.dims[2], self.dims[3], self.dims[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_partition_shapes() {
        assert_eq!(TorusShape::for_nodes(128).dims(), [2, 2, 4, 4, 2]);
        assert_eq!(TorusShape::for_nodes(512).dims(), [4, 4, 4, 4, 2]);
        assert_eq!(TorusShape::for_nodes(128).diameter(), 7); // paper Eq. 10
    }

    #[test]
    fn node_count_matches_product() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            assert_eq!(TorusShape::for_nodes(n).num_nodes(), n, "n={n}");
        }
    }

    #[test]
    fn odd_node_counts_factor() {
        for n in [3usize, 6, 12, 24, 48, 96, 100, 384] {
            assert_eq!(TorusShape::for_nodes(n).num_nodes(), n, "n={n}");
        }
    }

    #[test]
    fn node_counts_past_16_bit_factors_are_refused() {
        // 65521 is the largest 16-bit prime; 65537 is prime, 131074 twice it.
        for n in [65521usize, 65536] {
            assert_eq!(TorusShape::try_for_nodes(n).map(|s| s.num_nodes()), Some(n));
        }
        for n in [0usize, 65537, 131074] {
            assert_eq!(TorusShape::try_for_nodes(n), None, "n={n}");
        }
    }

    #[test]
    fn index_coord_round_trip() {
        let s = TorusShape::for_nodes(128);
        for i in 0..s.num_nodes() {
            assert_eq!(s.node_index(s.node_coord(i)), i);
        }
    }

    #[test]
    fn distance_properties() {
        let s = TorusShape::for_nodes(64);
        let a = s.node_coord(0);
        for i in 0..s.num_nodes() {
            let b = s.node_coord(i);
            let d = s.torus_distance(a, b);
            assert_eq!(d, s.torus_distance(b, a));
            assert!(d <= s.diameter());
            if i == 0 {
                assert_eq!(d, 0);
            } else {
                assert!(d >= 1);
            }
        }
    }

    #[test]
    fn iter_coords_covers_all() {
        let s = TorusShape::for_nodes(32);
        let coords: Vec<_> = s.iter_coords().collect();
        assert_eq!(coords.len(), 32);
        let mut dedup = coords.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 32);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", TorusShape::for_nodes(128)), "2x2x4x4x2");
    }
}
