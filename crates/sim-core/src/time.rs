//! Simulated time and clock-domain arithmetic.
//!
//! All simulator components express time as [`Time`], a picosecond-precision
//! instant, and durations as [`Duration`]. Picosecond resolution lets the
//! 2.2 GHz host clock (454.5… ps/cycle) and the 400 MHz device fabric clock
//! (2500 ps/cycle) coexist without rounding drift over realistic runs.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with picosecond resolution.
///
/// # Examples
///
/// ```
/// use sim_core::time::Duration;
///
/// let total = Duration::from_nanos(80) + Duration::from_ns_f64(0.5);
/// assert_eq!(total.as_picos(), 80_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from whole picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000_000)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond.
    ///
    /// On baseline x86-64 (no SSE4.1) the rounding is a call into a
    /// software `round`. On a per-line or per-message path, compute the
    /// duration once per message size at construction (as `Link` and
    /// `MemoryController` do) rather than converting per line.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "duration must be finite and non-negative"
        );
        Duration((ns * 1_000.0).round() as u64)
    }

    /// Returns the duration in whole picoseconds.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies by a non-negative floating factor, rounding to the nearest
    /// picosecond.
    ///
    /// Rounds through the same software `round` as
    /// [`Duration::from_ns_f64`]: precompute products with constant
    /// factors rather than multiplying per line.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_nanos_f64();
        if ns >= 1e6 {
            write!(f, "{:.3}ms", ns / 1e6)
        } else if ns >= 1e3 {
            write!(f, "{:.3}us", ns / 1e3)
        } else {
            write!(f, "{ns:.3}ns")
        }
    }
}

/// An instant in simulated time, measured in picoseconds from simulation
/// start.
///
/// # Examples
///
/// ```
/// use sim_core::time::{Duration, Time};
///
/// let t = Time::ZERO + Duration::from_nanos(100);
/// assert_eq!(t.duration_since(Time::ZERO), Duration::from_nanos(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Creates an instant from picoseconds since simulation start.
    pub const fn from_picos(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Picoseconds since simulation start.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: Time) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier instant is after self"
        );
        Duration(self.0 - earlier.0)
    }

    /// Elapsed duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.as_picos())
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_picos();
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.as_picos())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

/// A fixed-frequency clock domain; its [`period`](Self::period) turns cycle
/// counts into time.
///
/// # Examples
///
/// ```
/// use sim_core::time::DEVICE_CLOCK;
///
/// // Four cycles of the 400 MHz fabric clock.
/// assert_eq!((DEVICE_CLOCK.period() * 4).as_picos(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    /// Period of one cycle in picoseconds.
    period_ps: u64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub(crate) const fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be non-zero");
        ClockDomain {
            period_ps: 1_000_000 / mhz,
        }
    }

    /// The period of one cycle.
    pub const fn period(self) -> Duration {
        Duration::from_picos(self.period_ps)
    }
}

/// The device fabric clock (400 MHz, the Agilex-7 FPGA LSU/ACC frequency).
pub const DEVICE_CLOCK: ClockDomain = ClockDomain::from_mhz(400);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_roundtrip() {
        assert_eq!(Duration::from_nanos(3).as_picos(), 3_000);
        assert_eq!(Duration::from_micros(2).as_nanos_f64(), 2_000.0);
        assert_eq!(Duration::from_millis(1).as_micros_f64(), 1_000.0);
        assert_eq!(Duration::from_ns_f64(1.5).as_picos(), 1_500);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_nanos(10);
        let b = Duration::from_nanos(4);
        assert_eq!((a + b).as_picos(), 14_000);
        assert_eq!((a - b).as_picos(), 6_000);
        assert_eq!((a * 3).as_picos(), 30_000);
        assert_eq!((a / 2).as_picos(), 5_000);
        assert_eq!(a.mul_f64(0.5).as_picos(), 5_000);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_sum_and_display() {
        let total: Duration = [Duration::from_nanos(1), Duration::from_nanos(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Duration::from_nanos(3));
        assert_eq!(format!("{}", Duration::from_nanos(1)), "1.000ns");
        assert_eq!(format!("{}", Duration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", Duration::from_millis(3)), "3.000ms");
    }

    #[test]
    fn time_ordering_and_elapsed() {
        let t0 = Time::ZERO;
        let t1 = t0 + Duration::from_nanos(5);
        assert!(t1 > t0);
        assert_eq!(t1.duration_since(t0), Duration::from_nanos(5));
        assert_eq!(t0.saturating_duration_since(t1), Duration::ZERO);
        assert_eq!(t1.max(t0), t1);
        assert_eq!(t1.min(t0), t0);
    }

    #[test]
    #[should_panic(expected = "earlier instant is after self")]
    fn time_duration_since_panics_on_reversed_order() {
        let t1 = Time::from_nanos(5);
        let _ = Time::ZERO.duration_since(t1);
    }
}
