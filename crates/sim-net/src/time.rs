//! Virtual time: a nanosecond-resolution simulated timestamp.
//!
//! All protocol and workload costs in this reproduction are expressed in
//! [`SimTime`] rather than wall-clock time, so that experiment results are
//! deterministic and independent of the host machine's load, core count or
//! scheduler. `SimTime` is a thin newtype over `u64` nanoseconds with
//! saturating arithmetic (virtual time never goes negative and never wraps).
//!
//! `SimTime`'s `Ord` is plain numeric order on the nanosecond value; the
//! fabric's arrival sort and the scheduler's ready heap (as `(SimTime,
//! sequence)` pairs) both key on it directly, so the total order of
//! timestamps — and therefore pop order everywhere — is exactly the total
//! order of `u64`. See `sim_net::model` for the arrival-ordering contract
//! built on top of this.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero timestamp — the beginning of every simulated execution.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable virtual time; used as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (lossy).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in milliseconds (lossy).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in seconds (lossy).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// The later of two timestamps.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// True iff this is the zero timestamp.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::MAX + SimTime::from_nanos(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_nanos(1), SimTime::ZERO);
    }

    #[test]
    fn max() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(b), b);
    }

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_nanos(1_234_567);
        assert!((t.as_micros_f64() - 1234.567).abs() < 1e-9);
        assert!((t.as_millis_f64() - 1.234567).abs() < 1e-12);
        assert!((t.as_secs_f64() - 0.001234567).abs() < 1e-15);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(500)), "500ns");
        assert_eq!(format!("{}", SimTime::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimTime::from_micros(3_000)), "3.000ms");
        assert_eq!(format!("{}", SimTime::from_micros(4_000_000)), "4.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4u64).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(10));
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = vec![
            SimTime::from_nanos(30),
            SimTime::from_nanos(10),
            SimTime::from_nanos(20),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::from_nanos(10),
                SimTime::from_nanos(20),
                SimTime::from_nanos(30)
            ]
        );
    }
}
