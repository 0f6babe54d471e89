//! Virtual time with the 100 ns granularity of the original trace records.
//!
//! The paper (§3.2) records two timestamps per trace record "with a 100
//! nanosecond granularity" — the native Windows NT `FILETIME` unit. All
//! simulated clocks use the same tick so recorded latencies and
//! inter-arrival periods can be analysed exactly as the paper does.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of 100 ns ticks in one microsecond.
pub(crate) const TICKS_PER_MICRO: u64 = 10;
/// Number of 100 ns ticks in one millisecond.
pub(crate) const TICKS_PER_MILLI: u64 = 10_000;
/// Number of 100 ns ticks in one second.
pub const TICKS_PER_SEC: u64 = 10_000_000;

/// An instant on the virtual clock, counted in 100 ns ticks since boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, counted in 100 ns ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The instant of simulated boot.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw 100 ns ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Creates an instant `secs` seconds after boot.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SEC)
    }

    /// Creates an instant `ms` milliseconds after boot.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * TICKS_PER_MILLI)
    }

    /// Creates an instant `us` microseconds after boot.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * TICKS_PER_MICRO)
    }

    /// Raw tick count since boot.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since boot (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / TICKS_PER_MILLI
    }

    /// Whole seconds since boot (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / TICKS_PER_SEC
    }

    /// Seconds since boot as a float, for statistics.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw 100 ns ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SEC)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * TICKS_PER_MILLI)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * TICKS_PER_MICRO)
    }

    /// Creates a span from fractional seconds, saturating at the range ends.
    ///
    /// Negative and NaN inputs clamp to zero; this is the natural behaviour
    /// for sampled inter-arrival gaps where a distribution can produce
    /// slightly negative values.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let ticks = secs * TICKS_PER_SEC as f64;
        if ticks >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ticks as u64)
        }
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / TICKS_PER_MILLI
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / TICKS_PER_SEC
    }

    /// Seconds as a float, for statistics.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// Panics in debug builds when `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] for possibly-unordered pairs.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    /// Renders with the most natural unit, e.g. `1.5ms` or `2.3s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.0;
        if t < TICKS_PER_MICRO {
            write!(f, "{}00ns", t)
        } else if t < TICKS_PER_MILLI {
            write!(f, "{:.1}us", t as f64 / TICKS_PER_MICRO as f64)
        } else if t < TICKS_PER_SEC {
            write!(f, "{:.1}ms", t as f64 / TICKS_PER_MILLI as f64)
        } else {
            write!(f, "{:.1}s", t as f64 / TICKS_PER_SEC as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).ticks(), 3 * TICKS_PER_SEC);
        assert_eq!(SimTime::from_millis(3).as_millis(), 3);
        assert_eq!(SimTime::from_micros(7).ticks(), 70);
        assert_eq!(SimDuration::from_secs(2).as_secs(), 2);
        assert_eq!(SimDuration::from_millis(1500).as_secs(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - SimTime::from_millis(10)).as_millis(), 5);
        assert_eq!(
            SimDuration::from_millis(4) * 3,
            SimDuration::from_millis(12)
        );
        assert_eq!(SimDuration::from_millis(9) / 3, SimDuration::from_millis(3));
    }

    #[test]
    fn saturating_since_is_zero_for_reversed_pair() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_ticks(5).to_string(), "500ns");
        assert_eq!(SimDuration::from_micros(15).to_string(), "15.0us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.0ms");
        assert_eq!(SimDuration::from_secs(90).to_string(), "90.0s");
    }

    #[test]
    fn float_seconds_are_consistent() {
        let d = SimDuration::from_millis(2500);
        assert!((d.as_secs_f64() - 2.5).abs() < 1e-12);
    }
}
