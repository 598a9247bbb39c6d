//! Simulated time.
//!
//! The Nectar hardware is specified in nanoseconds (the HUB cycle is
//! 70 ns), so the simulation clock counts integer nanoseconds. Two
//! newtypes keep instants and durations apart:
//!
//! * [`Time`] — an absolute instant on the simulation clock.
//! * [`Dur`] — a span between two instants.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::time::{Time, Dur};
//!
//! let start = Time::ZERO;
//! let cycle = Dur::from_nanos(70);
//! let after_ten = start + cycle * 10;
//! assert_eq!(after_ten - start, Dur::from_nanos(700));
//! assert_eq!(after_ten.nanos(), 700);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since
/// the start of the simulation.
///
/// # Examples
///
/// ```
/// use nectar_sim::time::{Time, Dur};
/// let t = Time::from_micros(3) + Dur::from_nanos(500);
/// assert_eq!(t.nanos(), 3_500);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use nectar_sim::time::Dur;
/// assert_eq!(Dur::from_micros(2) + Dur::from_nanos(5), Dur::from_nanos(2_005));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dur(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant `ns` nanoseconds after simulation start.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Creates an instant `us` microseconds after simulation start.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Creates an instant `ms` milliseconds after simulation start.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span since `earlier`, or [`Dur::ZERO`] if `earlier` is later
    /// than `self` (saturating).
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: Dur) -> Option<Time> {
        self.0.checked_add(d.0).map(Time)
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// Creates a span of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// The span in whole nanoseconds.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// The span in microseconds, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// `true` if this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - other`, or zero.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0 + d.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, d: Dur) -> Time {
        Time(self.0 - d.0)
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    /// The span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, n: u64) -> Dur {
        Dur(self.0 * n)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, n: u64) -> Dur {
        Dur(self.0 / n)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

fn fmt_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3} us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns} ns")
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Time::from_micros(1).nanos(), 1_000);
        assert_eq!(Time::from_millis(2).nanos(), 2_000_000);
        assert_eq!(Dur::from_secs(1).nanos(), 1_000_000_000);
        assert_eq!(Dur::from_micros(30).as_micros_f64(), 30.0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_nanos(100);
        let d = Dur::from_nanos(70);
        assert_eq!((t + d).nanos(), 170);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 10, Dur::from_nanos(700));
        assert_eq!(Dur::from_nanos(700) / 10, d);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2.nanos(), 170);
    }

    #[test]
    fn saturating_and_checked() {
        let a = Time::from_nanos(50);
        let b = Time::from_nanos(80);
        assert_eq!(a.saturating_since(b), Dur::ZERO);
        assert_eq!(b.saturating_since(a), Dur::from_nanos(30));
        assert!(Time::MAX.checked_add(Dur::from_nanos(1)).is_none());
        assert_eq!(Dur::from_nanos(5).saturating_sub(Dur::from_nanos(9)), Dur::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Dur::from_nanos(700).to_string(), "700 ns");
        assert_eq!(Dur::from_micros(30).to_string(), "30.000 us");
        assert_eq!(Dur::from_millis(5).to_string(), "5.000 ms");
        assert_eq!(Dur::from_secs(2).to_string(), "2.000 s");
        assert_eq!(Time::from_nanos(700).to_string(), "t=700 ns");
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = (1..=4).map(Dur::from_nanos).sum();
        assert_eq!(total, Dur::from_nanos(10));
    }

    #[test]
    fn ordering() {
        assert!(Time::from_nanos(1) < Time::from_nanos(2));
        assert_eq!(Dur::from_nanos(3).max(Dur::from_nanos(7)), Dur::from_nanos(7));
        assert_eq!(Dur::from_nanos(3).min(Dur::from_nanos(7)), Dur::from_nanos(3));
    }
}
