//! Simulated time.
//!
//! The whole workspace measures time in *simulated seconds* on a single
//! monotone axis starting at `0.0`. [`SimTime`] is a thin wrapper around
//! `f64` that provides a **total order** (NaN is rejected at construction),
//! saturating subtraction, and the arithmetic the discrete-event simulator
//! and the scheduler need.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point on (or span of) the simulated time axis, in seconds.
///
/// `SimTime` doubles as both an instant and a duration, mirroring how the
/// paper treats latency values (`l_i`, `t_j`) as interchangeable scalars.
/// Values are never NaN and never negative — not even negative zero, so
/// `a == b` exactly when `a.cmp(&b)` is `Equal` and the bit pattern of the
/// seconds orders like the value. [`SimTime::saturating_sub`] clamps at
/// zero; reading one back from JSON goes through the same checks as
/// [`SimTime::from_secs`].
///
/// # Example
///
/// ```
/// use mvcom_types::SimTime;
///
/// let formation = SimTime::from_secs(800.0);
/// let consensus = SimTime::from_secs(54.5);
/// assert_eq!((formation + consensus).as_secs(), 854.5);
/// assert!(formation > consensus);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A value greater than every finite instant; used as "never" / "∞"
    /// (e.g. the observed ping latency of a failed committee).
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Creates a time value from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative; simulated time is a monotone
    /// non-negative axis. `-0.0` is accepted and stored as `0.0`.
    #[inline]
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        assert!(secs >= 0.0, "SimTime cannot be negative (got {secs})");
        // `-0.0 + 0.0` is `+0.0`; every other admitted value is unchanged.
        SimTime(secs + 0.0)
    }

    /// Creates a time value from milliseconds.
    #[inline]
    pub fn from_millis(millis: f64) -> SimTime {
        SimTime::from_secs(millis / 1000.0)
    }

    /// Returns the value in seconds.
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the value in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1000.0
    }

    /// Returns `true` if this value is the [`SimTime::INFINITY`] sentinel.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// Subtraction that clamps at zero instead of going negative.
    ///
    /// Used for the cross-epoch DDL carry-over of paper Fig. 3: a refused
    /// committee re-enters the next epoch with latency
    /// `l' = saturating_sub(l, previous DDL)`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Deserialize for SimTime {
    /// The checks of [`SimTime::from_secs`] as an error: a number read from
    /// a file must not be able to build what the constructor refuses.
    fn from_value(value: &serde::Value) -> Result<SimTime, serde::Error> {
        let secs = f64::from_value(value)?;
        if secs.is_nan() || secs < 0.0 {
            return Err(serde::Error::custom(format!(
                "SimTime must be a non-negative number of seconds, got {secs}"
            )));
        }
        Ok(SimTime::from_secs(secs))
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Construction forbids NaN, so total_cmp agrees with the numeric
        // order while keeping the impl panic-free.
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "∞s")
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative; use
    /// [`SimTime::saturating_sub`] when the operands may be unordered.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(
            self.0 >= rhs.0,
            "SimTime subtraction underflow: {} - {}",
            self.0,
            rhs.0
        );
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_secs(1.5);
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(t.as_millis(), 1500.0);
        assert_eq!(SimTime::from_millis(250.0).as_secs(), 0.25);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn ordering_is_total_and_numeric() {
        let mut v = vec![
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::INFINITY,
            SimTime::from_secs(1.0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1.0),
                SimTime::from_secs(3.0),
                SimTime::INFINITY
            ]
        );
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(10.0);
        let b = SimTime::from_secs(4.0);
        assert_eq!((a + b).as_secs(), 14.0);
        assert_eq!((a - b).as_secs(), 6.0);
        assert_eq!((a * 2.0).as_secs(), 20.0);
        assert_eq!((a / 2.0).as_secs(), 5.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 14.0);
        c -= b;
        assert_eq!(c.as_secs(), 10.0);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(5.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs(), 2.0);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn infinity_sentinel() {
        assert!(SimTime::INFINITY.is_infinite());
        assert!(!SimTime::from_secs(1e300).is_infinite());
        assert!(SimTime::INFINITY > SimTime::from_secs(1e300));
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn negative_zero_is_stored_as_zero() {
        let z = SimTime::from_secs(-0.0);
        assert_eq!(z.as_secs().to_bits(), 0.0f64.to_bits());
        assert_eq!(z.cmp(&SimTime::ZERO), std::cmp::Ordering::Equal);
        assert_eq!(SimTime::ZERO.min(z).as_secs().to_bits(), 0);
        assert_eq!((SimTime::ZERO * -0.0).as_secs().to_bits(), 0);
        assert_eq!(SimTime::from_millis(-0.0).as_secs().to_bits(), 0);
    }

    #[test]
    fn deserialize_runs_the_constructor_checks() {
        for bad in ["-5.0", "-1e-300", "-1e999", "null", "\"1.0\"", "[1.0]"] {
            assert!(
                serde_json::from_str::<SimTime>(bad).is_err(),
                "{bad} must not build a SimTime"
            );
        }
        let z: SimTime = serde_json::from_str("-0.0").unwrap();
        assert_eq!(z.as_secs().to_bits(), 0);
        let whole: SimTime = serde_json::from_str("7").unwrap();
        assert_eq!(whole, SimTime::from_secs(7.0));
    }

    #[test]
    fn everything_the_writer_emits_reads_back() {
        for t in [
            SimTime::ZERO,
            SimTime::from_secs(f64::MIN_POSITIVE),
            SimTime::from_secs(5e-324),
            SimTime::from_secs(854.5),
            SimTime::from_secs(f64::MAX),
            SimTime::INFINITY,
        ] {
            let json = serde_json::to_string(&t).unwrap();
            let back: SimTime = serde_json::from_str(&json).unwrap();
            assert_eq!(back.as_secs().to_bits(), t.as_secs().to_bits(), "{json}");
        }
        assert_eq!(serde_json::to_string(&SimTime::INFINITY).unwrap(), "1e999");
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500s");
        assert_eq!(SimTime::INFINITY.to_string(), "∞s");
    }
}
