//! Process→torus mappings.
//!
//! A mapping is a permutation of the six placement dimensions
//! `A B C D E T` (T = processor slot within a node). The **rightmost**
//! letter varies fastest as the rank increases, matching the `BG_MAPPING`
//! convention on Blue Gene/Q. The paper's evaluation uses `ABCDET`: ranks
//! fill a node's 16 slots first, then walk E, then D, and so on.

use crate::coords::Coord;
use crate::shape::TorusShape;
use std::fmt;
use std::str::FromStr;

/// One of the six placement dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Torus dimension A.
    A,
    /// Torus dimension B.
    B,
    /// Torus dimension C.
    C,
    /// Torus dimension D.
    D,
    /// Torus dimension E.
    E,
    /// Processor slot within a node.
    T,
}

impl Axis {
    fn from_char(c: char) -> Option<Axis> {
        Some(match c.to_ascii_uppercase() {
            'A' => Axis::A,
            'B' => Axis::B,
            'C' => Axis::C,
            'D' => Axis::D,
            'E' => Axis::E,
            'T' => Axis::T,
            _ => return None,
        })
    }

    fn as_char(self) -> char {
        match self {
            Axis::A => 'A',
            Axis::B => 'B',
            Axis::C => 'C',
            Axis::D => 'D',
            Axis::E => 'E',
            Axis::T => 'T',
        }
    }
}

/// A rank→(coordinate, slot) mapping: a permutation of `A B C D E T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    order: [Axis; 6],
}

/// Error returned when parsing an invalid mapping string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingParseError(pub String);

impl fmt::Display for MappingParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid mapping string: {}", self.0)
    }
}

impl std::error::Error for MappingParseError {}

impl Mapping {
    /// The default BG/Q mapping `ABCDET` used throughout the paper.
    pub fn abcdet() -> Mapping {
        Mapping {
            order: [Axis::A, Axis::B, Axis::C, Axis::D, Axis::E, Axis::T],
        }
    }

    /// `TABCDE`: spread consecutive ranks across nodes first.
    pub fn tabcde() -> Mapping {
        Mapping {
            order: [Axis::T, Axis::A, Axis::B, Axis::C, Axis::D, Axis::E],
        }
    }

    /// The permutation, slowest-varying axis first.
    pub fn order(&self) -> &[Axis; 6] {
        &self.order
    }

    fn axis_size(axis: Axis, shape: &TorusShape, procs_per_node: usize) -> usize {
        match axis {
            Axis::A => shape.dim(0) as usize,
            Axis::B => shape.dim(1) as usize,
            Axis::C => shape.dim(2) as usize,
            Axis::D => shape.dim(3) as usize,
            Axis::E => shape.dim(4) as usize,
            Axis::T => procs_per_node,
        }
    }

    /// Map a rank to its node coordinate and on-node slot.
    ///
    /// The rightmost axis in the permutation varies fastest.
    pub fn rank_to_coord(
        &self,
        rank: usize,
        shape: &TorusShape,
        procs_per_node: usize,
    ) -> (Coord, usize) {
        let capacity = shape.num_nodes() * procs_per_node;
        assert!(rank < capacity, "rank {rank} out of range ({capacity})");
        let mut digits = [0usize; 6];
        let mut rest = rank;
        for (i, &axis) in self.order.iter().enumerate().rev() {
            let size = Self::axis_size(axis, shape, procs_per_node);
            digits[i] = rest % size;
            rest /= size;
        }
        let mut coord = [0u16; 5];
        let mut slot = 0usize;
        for (i, &axis) in self.order.iter().enumerate() {
            match axis {
                Axis::A => coord[0] = digits[i] as u16,
                Axis::B => coord[1] = digits[i] as u16,
                Axis::C => coord[2] = digits[i] as u16,
                Axis::D => coord[3] = digits[i] as u16,
                Axis::E => coord[4] = digits[i] as u16,
                Axis::T => slot = digits[i],
            }
        }
        (Coord(coord), slot)
    }

    /// Inverse of [`Mapping::rank_to_coord`].
    pub fn coord_to_rank(
        &self,
        coord: Coord,
        slot: usize,
        shape: &TorusShape,
        procs_per_node: usize,
    ) -> usize {
        let mut rank = 0usize;
        for &axis in self.order.iter() {
            let size = Self::axis_size(axis, shape, procs_per_node);
            let digit = match axis {
                Axis::A => coord.get(0) as usize,
                Axis::B => coord.get(1) as usize,
                Axis::C => coord.get(2) as usize,
                Axis::D => coord.get(3) as usize,
                Axis::E => coord.get(4) as usize,
                Axis::T => slot,
            };
            debug_assert!(digit < size);
            rank = rank * size + digit;
        }
        rank
    }
}

impl FromStr for Mapping {
    type Err = MappingParseError;

    fn from_str(s: &str) -> Result<Mapping, MappingParseError> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() != 6 {
            return Err(MappingParseError(s.to_string()));
        }
        let mut order = [Axis::A; 6];
        let mut seen = [false; 6];
        for (i, &c) in chars.iter().enumerate() {
            let axis = Axis::from_char(c).ok_or_else(|| MappingParseError(s.to_string()))?;
            let idx = axis as usize;
            if seen[idx] {
                return Err(MappingParseError(s.to_string()));
            }
            seen[idx] = true;
            order[i] = axis;
        }
        Ok(Mapping { order })
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for axis in self.order {
            write!(f, "{}", axis.as_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abcdet_fills_node_first() {
        let shape = TorusShape::for_nodes(128);
        let m = Mapping::abcdet();
        for r in 0..16 {
            let (c, slot) = m.rank_to_coord(r, &shape, 16);
            assert_eq!(c, Coord([0; 5]));
            assert_eq!(slot, r);
        }
        let (c, slot) = m.rank_to_coord(16, &shape, 16);
        assert_eq!(c, Coord([0, 0, 0, 0, 1])); // E varies next-fastest
        assert_eq!(slot, 0);
    }

    #[test]
    fn tabcde_spreads_across_nodes() {
        let shape = TorusShape::for_nodes(4);
        let m = Mapping::tabcde();
        // With T slowest, consecutive ranks land on different nodes.
        let (c0, _) = m.rank_to_coord(0, &shape, 2);
        let (c1, _) = m.rank_to_coord(1, &shape, 2);
        assert_ne!(c0, c1);
    }

    #[test]
    fn round_trip_bijection_abcdet() {
        let shape = TorusShape::for_nodes(64);
        let m = Mapping::abcdet();
        let c = 4;
        for rank in 0..shape.num_nodes() * c {
            let (coord, slot) = m.rank_to_coord(rank, &shape, c);
            assert_eq!(m.coord_to_rank(coord, slot, &shape, c), rank);
        }
    }

    #[test]
    fn parse_and_display() {
        let m: Mapping = "ABCDET".parse().unwrap();
        assert_eq!(m, Mapping::abcdet());
        assert_eq!(m.to_string(), "ABCDET");
        let m2: Mapping = "tabcde".parse().unwrap();
        assert_eq!(m2, Mapping::tabcde());
        assert!("ABCDEE".parse::<Mapping>().is_err());
        assert!("ABCDE".parse::<Mapping>().is_err());
        assert!("ABCDEX".parse::<Mapping>().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_panics() {
        let shape = TorusShape::for_nodes(2);
        Mapping::abcdet().rank_to_coord(64, &shape, 16);
    }
}
