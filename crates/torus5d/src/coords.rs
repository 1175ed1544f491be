//! 5D torus coordinates.

use std::fmt;

/// A node coordinate in the 5D torus: `(a, b, c, d, e)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Coord(pub [u16; 5]);

impl Coord {
    /// Coordinate along dimension `dim` (0=A … 4=E).
    #[inline]
    pub fn get(&self, dim: usize) -> u16 {
        self.0[dim]
    }

    /// Replace the coordinate along `dim`.
    #[inline]
    pub fn with(mut self, dim: usize, v: u16) -> Coord {
        self.0[dim] = v;
        self
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{},{},{})",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }
}

/// Hops from `from` to `to` going in the `+` direction. `from, to < size`,
/// so the wrapped difference needs no division.
#[inline]
fn wrap_fwd(from: u16, to: u16, size: u16) -> u16 {
    debug_assert!(from < size && to < size);
    if to >= from {
        to - from
    } else {
        to + (size - from)
    }
}

/// Signed hop count along a single wrapped dimension of size `size`:
/// magnitude is the shortest distance; sign is the travel direction
/// (+1 = increasing coordinate). Ties (exactly half-way) resolve to `+`,
/// matching deterministic dimension-ordered routing.
#[inline]
pub fn wrap_delta(from: u16, to: u16, size: u16) -> i32 {
    let fwd = wrap_fwd(from, to, size);
    let bwd = size - fwd; // hops going - (when fwd != 0)
    if fwd == 0 {
        0
    } else if fwd <= bwd {
        fwd as i32
    } else {
        -(bwd as i32)
    }
}

/// Shortest wrapped distance along one dimension: the smaller of the two
/// ways round (`|wrap_delta|`, without its data-dependent branches — one
/// hop count costs five of these on unpredictable coordinates).
#[inline]
pub fn wrap_distance(from: u16, to: u16, size: u16) -> u32 {
    let fwd = wrap_fwd(from, to, size);
    u32::from(fwd.min(size - fwd))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_delta_basic() {
        assert_eq!(wrap_delta(0, 1, 4), 1);
        assert_eq!(wrap_delta(1, 0, 4), -1);
        assert_eq!(wrap_delta(0, 3, 4), -1); // shorter going backwards
        assert_eq!(wrap_delta(3, 0, 4), 1);
        assert_eq!(wrap_delta(0, 2, 4), 2); // tie -> positive
        assert_eq!(wrap_delta(2, 0, 4), 2); // tie -> positive
        assert_eq!(wrap_delta(1, 1, 4), 0);
    }

    #[test]
    fn wrap_delta_degenerate_dims() {
        assert_eq!(wrap_delta(0, 0, 1), 0);
        assert_eq!(wrap_delta(0, 1, 2), 1);
        assert_eq!(wrap_delta(1, 0, 2), 1); // tie in size-2 -> positive
    }

    #[test]
    fn wrap_delta_matches_rem_euclid_formula() {
        // The pre-rework formula, kept as the oracle: every size up to 33
        // (degenerate 1 and 2, odd, even with ties) and every (from, to).
        fn old(from: u16, to: u16, size: u16) -> i32 {
            if size <= 1 {
                return 0;
            }
            let fwd = (to as i32 - from as i32).rem_euclid(size as i32) as u16;
            let bwd = size - fwd;
            if fwd == 0 {
                0
            } else if fwd <= bwd {
                fwd as i32
            } else {
                -(bwd as i32)
            }
        }
        for size in 1..=33u16 {
            for from in 0..size {
                for to in 0..size {
                    let want = old(from, to, size);
                    let what = format!("size={size} from={from} to={to}");
                    assert_eq!(wrap_delta(from, to, size), want, "{what}");
                    assert_eq!(wrap_distance(from, to, size), want.unsigned_abs(), "{what}");
                }
            }
        }
        // No overflow at the top of the coordinate range either.
        assert_eq!(wrap_delta(u16::MAX - 1, 0, u16::MAX), 1);
        assert_eq!(wrap_delta(0, u16::MAX - 1, u16::MAX), -1);
    }

    #[test]
    fn wrap_distance_symmetric() {
        for size in [2u16, 3, 4, 5, 8] {
            for a in 0..size {
                for b in 0..size {
                    assert_eq!(
                        wrap_distance(a, b, size),
                        wrap_distance(b, a, size),
                        "size={size} a={a} b={b}"
                    );
                    assert!(wrap_distance(a, b, size) <= u32::from(size) / 2);
                }
            }
        }
    }

    #[test]
    fn coord_accessors() {
        let c = Coord([1, 2, 3, 4, 1]);
        assert_eq!(c.get(2), 3);
        assert_eq!(c.with(2, 9).get(2), 9);
        assert_eq!(format!("{c}"), "(1,2,3,4,1)");
    }
}
