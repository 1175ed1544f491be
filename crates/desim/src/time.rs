//! Virtual time types: [`SimTime`] (absolute instant) and [`SimDuration`].
//!
//! Both are thin wrappers over a `u64` count of **picoseconds**. Picosecond
//! resolution keeps per-byte bandwidth costs (fractions of a nanosecond)
//! exactly representable while still covering hundreds of simulated days.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant of virtual time, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Raw picosecond count.
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in nanoseconds (lossy).
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// Value in microseconds (lossy).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Value in milliseconds (lossy).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    /// Value in seconds (lossy).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    /// Duration elapsed since `earlier`; saturates at zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
    /// Later of the two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
    /// Earlier of the two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> SimDuration {
        SimDuration(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> SimDuration {
        SimDuration(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> SimDuration {
        SimDuration(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> SimDuration {
        SimDuration(ms * PS_PER_MS)
    }
    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * PS_PER_S)
    }
    /// Construct from fractional microseconds, rounding to the nearest picosecond.
    #[inline]
    pub fn from_us_f64(us: f64) -> SimDuration {
        SimDuration((us * PS_PER_US as f64).round().max(0.0) as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in nanoseconds (lossy).
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// Value in microseconds (lossy).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Value in milliseconds (lossy).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    /// Value in seconds (lossy).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    /// True when the span is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    /// Larger of the two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
    /// Smaller of the two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&SimDuration(self.0), f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_S {
            write!(f, "{:.3}s", self.as_secs())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us())
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_ns(35).as_ps(), 35_000);
        assert_eq!(SimDuration::from_us(3).as_ns(), 3_000.0);
        assert_eq!(SimDuration::from_ms(2).as_us(), 2_000.0);
        assert_eq!(SimDuration::from_secs(1).as_ms(), 1_000.0);
    }

    #[test]
    fn fractional_construction_rounds() {
        // 0.0005556 us -> 556 ps (rounded)
        assert_eq!(SimDuration::from_us_f64(0.000_555_6).as_ps(), 556);
        assert_eq!(SimDuration::from_us_f64(2.89).as_ns(), 2890.0);
        // negative clamps to zero
        assert_eq!(SimDuration::from_us_f64(-1.0).as_ps(), 0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_us(10);
        let u = t + SimDuration::from_us(5);
        assert_eq!((u - t).as_us(), 5.0);
        assert_eq!(u.since(t).as_us(), 5.0);
        assert_eq!(t.since(u), SimDuration::ZERO); // saturating
        assert_eq!((SimDuration::from_us(4) * 3).as_us(), 12.0);
        assert_eq!((SimDuration::from_us(12) / 4).as_us(), 3.0);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimDuration(7).max(SimDuration(3)), SimDuration(7));
        assert_eq!(SimDuration(7).min(SimDuration(3)), SimDuration(3));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_ns(35)), "35.000ns");
        assert_eq!(format!("{}", SimDuration::from_us_f64(2.89)), "2.890us");
        assert_eq!(format!("{}", SimDuration(500)), "500ps");
        assert_eq!(format!("{}", SimDuration::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_us).sum();
        assert_eq!(total.as_us(), 10.0);
    }
}
