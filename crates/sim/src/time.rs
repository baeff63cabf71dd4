//! Simulation time.
//!
//! All simulation timing is integer nanoseconds. 802.11 timing parameters
//! (4 µs OFDM symbols, 16 µs SIFS, 9 µs slots, …) are exact multiples of a
//! nanosecond, so airtime arithmetic never accumulates floating-point error
//! and event ordering is fully deterministic.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulation time, measured in nanoseconds since simulation
/// start.
///
/// `Instant` is ordered and supports arithmetic with [`Duration`]:
///
/// ```
/// use witag_sim::time::{Duration, Instant};
/// let t = Instant::ZERO + Duration::micros(16);
/// assert_eq!(t.nanos(), 16_000);
/// assert!(t > Instant::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A span of simulation time in nanoseconds.
///
/// Durations are unsigned: the simulator never needs negative spans, and
/// keeping them unsigned catches ordering bugs (subtracting a later instant
/// from an earlier one panics in debug builds via `checked_sub` semantics).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Instant {
    /// The simulation epoch.
    pub const ZERO: Instant = Instant(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Instant(us * 1_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncated).
    pub const fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: Instant) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                // Documented misuse guard (see `# Panics` above); callers that
                // cannot prove ordering use `saturating_since`.
                .expect("Instant::since: `earlier` is in the future"), // lint:allow(panic_path)
        )
    }

    /// Saturating version of [`Instant::since`]: returns zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    pub const fn nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    pub const fn micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from floating-point seconds, rounding to the nearest
    /// nanosecond. Intended for configuration values like coherence time.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative"
        );
        Duration((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float (for reporting and rate computation).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_sub(rhs.0).map(Duration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Integer ceiling division: number of `unit`-sized slots needed to
    /// cover this duration. Used for "round airtime up to whole OFDM
    /// symbols" per 802.11 duration rules.
    ///
    /// # Panics
    /// Panics if `unit` is zero.
    pub fn div_ceil(self, unit: Duration) -> u64 {
        assert!(unit.0 > 0, "div_ceil by zero duration");
        self.0.div_ceil(unit.0)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(
            self.0
                .checked_sub(rhs.0)
                .expect("Instant - Duration underflowed simulation epoch"),
        )
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.since(rhs)
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
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("Duration subtraction underflowed"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
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

impl Rem for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_roundtrips() {
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::micros(36); // 802.11n preamble-ish
        assert_eq!(t1.nanos(), 36_000);
        assert_eq!(t1 - t0, Duration::micros(36));
        assert_eq!(t1 - Duration::micros(36), t0);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::secs(1), Duration::millis(1000));
        assert_eq!(Duration::millis(1), Duration::micros(1000));
        assert_eq!(Duration::micros(1), Duration::nanos(1000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::millis(500));
    }

    #[test]
    fn div_ceil_rounds_up_to_symbols() {
        let sym = Duration::micros(4);
        assert_eq!(Duration::micros(0).div_ceil(sym), 0);
        assert_eq!(Duration::micros(1).div_ceil(sym), 1);
        assert_eq!(Duration::micros(4).div_ceil(sym), 1);
        assert_eq!(Duration::micros(5).div_ceil(sym), 2);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_reversed_order() {
        let _ = Instant::ZERO.since(Instant::from_nanos(1));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            Instant::ZERO.saturating_since(Instant::from_nanos(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(format!("{}", Duration::secs(2)), "2s");
        assert_eq!(format!("{}", Duration::millis(3)), "3ms");
        assert_eq!(format!("{}", Duration::micros(9)), "9us");
        assert_eq!(format!("{}", Duration::nanos(7)), "7ns");
        assert_eq!(format!("{}", Duration::ZERO), "0ns");
    }

    #[test]
    fn ordering_is_total() {
        let a = Instant::from_nanos(10);
        let b = Instant::from_nanos(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
