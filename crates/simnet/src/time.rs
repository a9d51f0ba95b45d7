//! Virtual time of the simulated network.
//!
//! Time is counted in integer **microseconds** since the start of the
//! simulation. Integer time keeps event ordering exact (no floating-point
//! tie ambiguity) which is a prerequisite for deterministic replay.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since simulation start.
///
/// ```
/// use tsn_simnet::{SimTime, SimDuration};
/// let t = SimTime::from_millis(3) + SimDuration::from_micros(500);
/// assert_eq!(t.as_micros(), 3_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a time from whole milliseconds, saturating at the
    /// [`SimTime::MAX`] horizon instead of wrapping.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Builds a time from whole seconds, saturating at the
    /// [`SimTime::MAX`] horizon instead of wrapping.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000))
    }

    /// This time in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is later than `self` (clock skew
    /// cannot happen inside one simulation, but callers comparing times
    /// from different runs should not panic).
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span; adding it to any time saturates
    /// at the [`SimTime::MAX`] horizon.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from whole milliseconds, saturating instead of
    /// wrapping.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// Builds a duration from whole seconds, saturating instead of
    /// wrapping.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000))
    }

    /// Builds a duration from fractional seconds, rounding to microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1_000_000.0).round() as u64)
    }

    /// The duration in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scales the duration by a non-negative factor, rounding to
    /// microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// Saturating: [`SimTime::MAX`] is the "infinite horizon", so any
    /// time at (or pushed past) the horizon stays there instead of
    /// wrapping in release builds or panicking in debug builds.
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    /// Saturating, mirroring `SimTime + SimDuration`: an effectively
    /// infinite span stays infinite instead of wrapping.
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_micros(2).as_micros(), 2);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        // saturating: earlier.duration_since(later) == 0
        assert_eq!(SimTime::ZERO.duration_since(t), SimDuration::ZERO);
    }

    #[test]
    fn fractional_seconds_roundtrip() {
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!(d.as_micros(), 250_000);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_scales_and_rounds() {
        let d = SimDuration::from_micros(3).mul_f64(1.5);
        assert_eq!(d.as_micros(), 5); // 4.5 rounds to 5 (round-half-up away from zero)
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn arithmetic_saturates_at_the_horizon() {
        // `+` must not wrap (release) or panic (debug) at SimTime::MAX.
        assert_eq!(SimTime::MAX + SimDuration::from_millis(1), SimTime::MAX);
        assert_eq!(SimTime::MAX + SimDuration::MAX, SimTime::MAX);
        assert_eq!(SimTime::ZERO + SimDuration::MAX, SimTime::MAX);
        let near = SimTime::from_micros(u64::MAX - 1);
        assert_eq!(near + SimDuration::from_micros(5), SimTime::MAX);
        let mut t = near;
        t += SimDuration::MAX;
        assert_eq!(t, SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
    }

    #[test]
    fn constructors_saturate_instead_of_wrapping() {
        // u64::MAX ms * 1000 would wrap; the constructors clamp to the
        // horizon so "infinite" inputs stay infinite.
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration::MAX);
        // In-range values are unaffected.
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
    }
}
