//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration (or instant offset) on the virtual device timeline, in
/// seconds. Wrapping `f64` keeps arithmetic cheap while preventing
/// accidental mixing with wall-clock `std::time::Duration`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// From seconds.
    pub fn from_secs(s: f64) -> Self {
        SimTime(s)
    }

    /// From microseconds.
    pub fn from_us(us: f64) -> Self {
        SimTime(us * 1e-6)
    }

    /// Seconds as `f64`.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// Microseconds as `f64`.
    pub fn us(self) -> f64 {
        self.0 * 1e6
    }

    /// Larger of two durations.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Smaller of two durations.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{:.1} ns", s * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert!((SimTime::from_us(1500.0).secs() - 1.5e-3).abs() < 1e-15);
        assert_eq!(SimTime::from_secs(2.0).secs(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime(1.0) + SimTime(0.5);
        assert_eq!(t.secs(), 1.5);
        assert_eq!((t - SimTime(0.5)).secs(), 1.0);
        assert_eq!((t * 2.0).secs(), 3.0);
        assert_eq!((t / 3.0).secs(), 0.5);
        assert_eq!(SimTime(3.0) / SimTime(1.5), 2.0);
        let s: SimTime = [SimTime(1.0), SimTime(2.0)].into_iter().sum();
        assert_eq!(s.secs(), 3.0);
    }

    #[test]
    fn max_min_and_ordering() {
        assert_eq!(SimTime(1.0).max(SimTime(2.0)), SimTime(2.0));
        assert_eq!(SimTime(1.0).min(SimTime(2.0)), SimTime(1.0));
        assert!(SimTime(1.0) < SimTime(2.0));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime(2.5)), "2.500 s");
        assert_eq!(format!("{}", SimTime(2.5e-3)), "2.500 ms");
        assert_eq!(format!("{}", SimTime(2.5e-6)), "2.500 us");
        assert_eq!(format!("{}", SimTime(2.5e-9)), "2.5 ns");
    }
}
