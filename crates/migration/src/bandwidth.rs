//! The migration transfer-bandwidth model.
//!
//! The paper's setup uses QEMU's default migration bandwidth cap of
//! 268 Mbps "to avoid interference with the running workload" (§4).

use dvh_arch::Cycles;
use std::fmt;

/// A transfer-rate model in megabits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bandwidth {
    mbps: u64,
}

impl Bandwidth {
    /// QEMU's default migration bandwidth cap.
    pub const QEMU_DEFAULT: Bandwidth = Bandwidth { mbps: 268 };

    /// Creates a bandwidth of `mbps` megabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is zero.
    pub fn mbps(mbps: u64) -> Bandwidth {
        assert!(mbps > 0, "bandwidth must be positive");
        Bandwidth { mbps }
    }

    /// Simulated time to transfer `bytes` at this rate.
    pub fn transfer_time(self, bytes: u64) -> Cycles {
        // bits / (mbps * 1e6) seconds; in nanoseconds:
        // bytes*8*1000 / mbps.
        Cycles::from_nanos(bytes.saturating_mul(8).saturating_mul(1000) / self.mbps)
    }
}

impl Default for Bandwidth {
    fn default() -> Bandwidth {
        Bandwidth::QEMU_DEFAULT
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Mb/s", self.mbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qemu_default_rate() {
        assert_eq!(Bandwidth::default().to_string(), "268 Mb/s");
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let bw = Bandwidth::mbps(268);
        let one = bw.transfer_time(1 << 20);
        let two = bw.transfer_time(2 << 20);
        let ratio = two.as_u64() as f64 / one.as_u64() as f64;
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn a_megabyte_at_268mbps_is_about_31ms() {
        let t = Bandwidth::mbps(268).transfer_time(1 << 20);
        let ms = t.as_secs_f64() * 1e3;
        assert!((ms - 31.3).abs() < 1.0, "got {ms} ms");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        Bandwidth::mbps(0);
    }
}
