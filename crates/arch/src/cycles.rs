//! Simulated time in CPU cycles.
//!
//! All time in the simulator is expressed in [`Cycles`], a newtype over
//! `u64`. There is no wall-clock time anywhere in the simulation core,
//! which makes every experiment deterministic and reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or point in simulated time, measured in CPU cycles.
///
/// Arithmetic is saturating: the simulator never panics on overflow, it
/// pins at `u64::MAX` (which, at the modelled 2.2 GHz, is roughly 266
/// years — effectively "forever" for any experiment).
///
/// # Example
///
/// ```
/// use dvh_arch::Cycles;
///
/// let exit = Cycles::new(700);
/// let entry = Cycles::new(600);
/// assert_eq!((exit + entry).as_u64(), 1300);
/// assert_eq!(exit * 3, Cycles::new(2100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The maximum representable duration.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// The clock frequency the calibrated cost model assumes, in Hz.
    ///
    /// This matches the paper's evaluation hardware: Intel Xeon Silver
    /// 4114 at 2.2 GHz.
    pub const FREQ_HZ: u64 = 2_200_000_000;

    /// Creates a duration of `n` cycles.
    pub const fn new(n: u64) -> Cycles {
        Cycles(n)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts a duration in nanoseconds to cycles at [`Cycles::FREQ_HZ`].
    ///
    /// ```
    /// use dvh_arch::Cycles;
    /// assert_eq!(Cycles::from_nanos(1000).as_u64(), 2200);
    /// ```
    pub const fn from_nanos(ns: u64) -> Cycles {
        Cycles(ns.saturating_mul(Self::FREQ_HZ / 1_000_000) / 1_000)
    }

    /// Converts this duration to nanoseconds at [`Cycles::FREQ_HZ`].
    pub const fn as_nanos(self) -> u64 {
        // cycles / 2.2 = ns; compute as cycles * 10 / 22 to stay integral.
        self.0.saturating_mul(10) / 22
    }

    /// Converts this duration to (fractional) seconds at [`Cycles::FREQ_HZ`].
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / Self::FREQ_HZ as f64
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns `self` unless it is less than `other`, in which case
    /// `other` is returned. Used to synchronize per-CPU clocks at
    /// interaction points (IPI delivery, interrupt arrival).
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }
}

/// Upper bounds (inclusive) of the fixed histogram buckets every
/// cycle-valued metric shares: powers of two from 256 cycles (~116 ns,
/// below any single world switch) to 8M cycles (~3.8 ms, past a whole
/// pre-copy round). A fixed geometric ladder keeps histograms from
/// different runs, levels, and sweep cells directly comparable and
/// mergeable bucket by bucket.
pub const CYCLE_BUCKET_BOUNDS: [u64; 16] = [
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
];

/// The bucket index a value falls in: the first bound it does not
/// exceed, or the overflow bucket `CYCLE_BUCKET_BOUNDS.len()` past the
/// last bound. Total bucket count is `CYCLE_BUCKET_BOUNDS.len() + 1`.
pub fn cycle_bucket_index(value: u64) -> usize {
    CYCLE_BUCKET_BOUNDS
        .iter()
        .position(|&bound| value <= bound)
        .unwrap_or(CYCLE_BUCKET_BOUNDS.len())
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics if `rhs` is zero, like integer division.
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl From<u64> for Cycles {
    fn from(n: u64) -> Cycles {
        Cycles(n)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_saturating() {
        assert_eq!(Cycles::MAX + Cycles::new(1), Cycles::MAX);
        assert_eq!(Cycles::new(1) + Cycles::new(2), Cycles::new(3));
    }

    #[test]
    fn sub_clamps_at_zero() {
        assert_eq!(Cycles::new(1) - Cycles::new(5), Cycles::ZERO);
        assert_eq!(Cycles::new(5) - Cycles::new(1), Cycles::new(4));
    }

    #[test]
    fn mul_and_div() {
        assert_eq!(Cycles::new(100) * 3, Cycles::new(300));
        assert_eq!(Cycles::new(100) / 4, Cycles::new(25));
    }

    #[test]
    fn nanos_round_trip_approximately() {
        let c = Cycles::from_nanos(1_000_000); // 1 ms
        assert_eq!(c.as_u64(), 2_200_000);
        let back = c.as_nanos();
        assert!((back as i64 - 1_000_000i64).abs() <= 1);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cycles = (1..=4u64).map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(10));
    }

    #[test]
    fn max_synchronizes() {
        assert_eq!(Cycles::new(5).max(Cycles::new(9)), Cycles::new(9));
        assert_eq!(Cycles::new(9).max(Cycles::new(5)), Cycles::new(9));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycles::new(7).to_string(), "7 cycles");
    }

    #[test]
    fn secs_conversion() {
        let one_sec = Cycles::new(Cycles::FREQ_HZ);
        assert!((one_sec.as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(cycle_bucket_index(0), 0);
        assert_eq!(cycle_bucket_index(256), 0);
        assert_eq!(cycle_bucket_index(257), 1);
        assert_eq!(cycle_bucket_index(1 << 23), CYCLE_BUCKET_BOUNDS.len() - 1);
        // Past the last bound: the overflow bucket.
        assert_eq!(cycle_bucket_index((1 << 23) + 1), CYCLE_BUCKET_BOUNDS.len());
        assert_eq!(cycle_bucket_index(u64::MAX), CYCLE_BUCKET_BOUNDS.len());
        // Bounds are strictly increasing (histograms rely on it).
        for pair in CYCLE_BUCKET_BOUNDS.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
