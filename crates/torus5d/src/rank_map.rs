//! Rank → node → coordinate resolution without runtime division.
//!
//! A mapping is a mixed-radix numeral: the rank's six digits (one per
//! placement axis, rightmost fastest) are the torus coordinates and the
//! on-node slot. [`Mapping::rank_to_coord`] extracts all six with
//! runtime-divisor `%`/`/` pairs — the obviously-right reference. The
//! delivery path only needs the *node index*, and most of the digits are
//! already laid out the way the node index wants them, so [`RankMap`] folds
//! them once, at construction:
//!
//! * every axis contributes `((rank / divisor) % modulus) * node_stride`;
//! * two axes that are neighbours in the rank's digit order **and** in
//!   node-index order (`A B C D E`, `A` slowest) are one wider digit, so
//!   they share a term; size-1 axes and the `T` digit contribute nothing.
//!
//! `ABCDET` folds to the single term `(ppn, nodes, 1)` — `rank / ppn`;
//! `TABCDE` to `(1, nodes, 1)` — `rank % nodes`; a scrambled mapping such as
//! `DTBEAC` keeps up to five terms. One loop evaluates them all, and each
//! division is a multiplication by a reciprocal fixed at construction
//! (`Recip`), exact for every 32-bit operand. The same reciprocals split a
//! node index back into its [`Coord`] (needed for hop counts and route
//! fills), so the map is O(1) in size and construction whatever the
//! partition.

use crate::coords::Coord;
use crate::mapping::{Axis, Mapping};
use crate::shape::TorusShape;

/// Exact `u32` division by a divisor fixed at construction: the high half
/// of one widening multiply by `mul = ceil(2^64 / d)`. Sixty-four fractional
/// bits are enough for `floor(n * mul / 2^64) == n / d` whenever
/// `n, d < 2^32` (Lemire, Kaser and Kurz, "Faster remainder by direct
/// computation", Theorem 1 with N = 32, F = 64).
#[derive(Debug, Clone, Copy)]
struct Recip {
    mul: u64,
    /// All ones for `d == 1`, whose reciprocal `2^64` does not fit `mul`
    /// (stored as 0): the operand is passed through instead. Zero otherwise.
    pass: u32,
    d: u32,
}

impl Recip {
    fn new(d: u32) -> Recip {
        assert!(d >= 1, "division by zero");
        Recip {
            mul: (u64::MAX / u64::from(d)).wrapping_add(1),
            pass: if d == 1 { u32::MAX } else { 0 },
            d,
        }
    }

    #[inline]
    fn div(self, n: u32) -> u32 {
        ((u128::from(n) * u128::from(self.mul)) >> 64) as u32 + (n & self.pass)
    }

    #[inline]
    fn rem(self, n: u32) -> u32 {
        n - self.div(n) * self.d
    }
}

/// One folded digit of the rank and the node-index stride it carries:
/// `((rank / div) % modulus) * stride`.
#[derive(Debug, Clone, Copy)]
struct Term {
    div: Recip,
    modulus: Recip,
    stride: u32,
}

/// Rank → node index and node index → coordinate for one partition. See the
/// module docs for the folding rule.
#[derive(Debug, Clone)]
pub struct RankMap {
    shape: TorusShape,
    capacity: usize,
    /// The folded rank digits; the first `nterms` are live.
    terms: [Term; 5],
    nterms: usize,
    /// Reciprocals of the five dimension sizes.
    dims: [Recip; 5],
}

impl RankMap {
    /// Fold `mapping` over `shape` with `procs_per_node` slots per node.
    pub fn new(mapping: &Mapping, shape: &TorusShape, procs_per_node: usize) -> RankMap {
        let capacity = shape.num_nodes() * procs_per_node;
        assert!(
            procs_per_node >= 1 && capacity <= u32::MAX as usize,
            "partition of {capacity} ranks does not fit 32-bit ranks"
        );
        // Node-index stride of each torus axis: the product of the faster ones.
        let mut node_stride = [1u32; 5];
        for i in (0..4).rev() {
            node_stride[i] = node_stride[i + 1] * u32::from(shape.dim(i + 1));
        }
        let mut nterms = 0;
        // Raw `(divisor, modulus, stride)` of the terms, fastest digit first.
        let mut raw = [(1u32, 1u32, 0u32); 5];
        let mut rank_stride = 1u32;
        for &axis in mapping.order().iter().rev() {
            if axis == Axis::T {
                rank_stride *= procs_per_node as u32;
                continue;
            }
            let (size, stride) = (
                u32::from(shape.dim(axis as usize)),
                node_stride[axis as usize],
            );
            if size == 1 {
                continue;
            }
            match raw[..nterms].last_mut() {
                // The previous (faster) digit ends where this one starts, in
                // the rank and in the node index: one wider digit.
                Some((div, modulus, s))
                    if *div * *modulus == rank_stride && *s * *modulus == stride =>
                {
                    *modulus *= size
                }
                _ => {
                    raw[nterms] = (rank_stride, size, stride);
                    nterms += 1;
                }
            }
            rank_stride *= size;
        }
        RankMap {
            shape: *shape,
            capacity,
            terms: raw.map(|(div, modulus, stride)| Term {
                div: Recip::new(div),
                modulus: Recip::new(modulus),
                stride,
            }),
            nterms,
            dims: shape.dims().map(|d| Recip::new(u32::from(d))),
        }
    }

    /// Node index of the node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> u32 {
        assert!(
            rank < self.capacity,
            "rank {rank} out of range ({})",
            self.capacity
        );
        let rank = rank as u32;
        let mut node = 0;
        for t in &self.terms[..self.nterms] {
            node += t.modulus.rem(t.div.div(rank)) * t.stride;
        }
        node
    }

    /// Torus coordinate of node `node`: [`TorusShape::node_coord`], its
    /// divisions replaced by reciprocal multiplications.
    #[inline]
    pub fn node_coord(&self, node: u32) -> Coord {
        debug_assert!((node as usize) < self.shape.num_nodes());
        let mut c = [0u16; 5];
        let mut rest = node;
        for i in (1..5).rev() {
            let q = self.dims[i].div(rest);
            c[i] = (rest - q * self.dims[i].d) as u16;
            rest = q;
        }
        c[0] = rest as u16;
        Coord(c)
    }

    /// Torus coordinate of the node hosting `rank`.
    #[inline]
    pub fn coord_of(&self, rank: usize) -> Coord {
        self.node_coord(self.node_of(rank))
    }

    /// True when both ranks live on the same node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Hop count between two nodes (0 for the same node).
    #[inline]
    pub fn node_hops(&self, a: u32, b: u32) -> u32 {
        self.shape
            .torus_distance(self.node_coord(a), self.node_coord(b))
    }

    /// Hop count between the nodes hosting two ranks (0 if co-located).
    #[inline]
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        self.node_hops(self.node_of(a), self.node_of(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recip_is_exact_at_every_boundary() {
        let mut divisors: Vec<u32> = (1..=600).collect();
        for bits in 10..32 {
            divisors.extend([(1 << bits) - 1, 1 << bits, (1 << bits) + 1]);
        }
        divisors.extend([u32::MAX - 1, u32::MAX]);
        for d in divisors {
            let r = Recip::new(d);
            // Multiples of d and their neighbours are where a rounded
            // reciprocal goes wrong first; also both ends of the range.
            let multiples = (0..64u64)
                .chain((0..64).map(|k| (u64::from(u32::MAX) / u64::from(d)).saturating_sub(k)))
                .map(|k| k * u64::from(d));
            for m in multiples {
                for n in [m.saturating_sub(1), m, m + 1] {
                    let Ok(n) = u32::try_from(n) else { continue };
                    assert_eq!(r.div(n), n / d, "{n} / {d}");
                    assert_eq!(r.rem(n), n % d, "{n} % {d}");
                }
            }
            assert_eq!(r.div(u32::MAX), u32::MAX / d, "u32::MAX / {d}");
        }
    }

    #[test]
    fn recip_is_exact_for_every_small_operand() {
        for d in 1..=97u32 {
            let r = Recip::new(d);
            for n in 0..=20_000u32 {
                assert_eq!(r.div(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    fn folding_examples() {
        let shape = TorusShape::for_nodes(512);
        let terms = |m: &str, ppn| RankMap::new(&m.parse().unwrap(), &shape, ppn).nterms;
        assert_eq!(terms("ABCDET", 16), 1, "rank / ppn");
        assert_eq!(terms("TABCDE", 16), 1, "rank % nodes");
        assert_eq!(terms("ABTCDE", 16), 2, "T splits the torus digits");
        assert_eq!(terms("ABTCDE", 1), 1, "a one-slot T splits nothing");
        assert_eq!(terms("DTBEAC", 16), 5, "no two neighbours in node order");
        // Size-1 axes vanish: 1x1x1x2x2 under any order of A, B, C.
        let small = TorusShape::for_nodes(4);
        let m = RankMap::new(&"CBADET".parse().unwrap(), &small, 4);
        assert_eq!(m.nterms, 1);
    }
}
