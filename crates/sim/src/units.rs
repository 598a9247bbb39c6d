//! Bandwidth and data-size units.
//!
//! The paper quotes link and bus speeds in two unit families:
//! fibers in megabits per second (100 Mbit/s per TAXI-driven fiber) and
//! memories/buses in megabytes per second (66 MB/s CAB data memory,
//! 10 MB/s VME). [`Bandwidth`] stores bits per second and converts a
//! byte count into the [`Dur`] the transfer occupies the medium.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::units::Bandwidth;
//!
//! let fiber = Bandwidth::from_mbit_per_sec(100);
//! // 1 byte = 8 bits at 100 Mbit/s = 80 ns on the wire.
//! assert_eq!(fiber.transfer_time(1).nanos(), 80);
//! assert_eq!(fiber.transfer_time(1024).nanos(), 81_920);
//! ```

use crate::time::Dur;
use core::fmt;

/// A transfer rate in bits per second.
///
/// # Examples
///
/// ```
/// use nectar_sim::units::Bandwidth;
/// let vme = Bandwidth::from_mbyte_per_sec(10);
/// assert_eq!(vme.bits_per_sec(), 80_000_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth of `bps` bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero: a zero-rate medium would imply infinite
    /// transfer times.
    pub fn from_bits_per_sec(bps: u64) -> Bandwidth {
        assert!(bps > 0, "bandwidth must be positive");
        Bandwidth(bps)
    }

    /// Creates a bandwidth of `mbps` megabits per second (10^6 bits).
    pub fn from_mbit_per_sec(mbps: u64) -> Bandwidth {
        Bandwidth::from_bits_per_sec(mbps * 1_000_000)
    }

    /// Creates a bandwidth of `mbs` megabytes per second (10^6 bytes).
    pub fn from_mbyte_per_sec(mbs: u64) -> Bandwidth {
        Bandwidth::from_bits_per_sec(mbs * 8_000_000)
    }

    /// The rate in bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.0
    }

    /// The rate in megabits per second, as a float (for reporting).
    pub fn as_mbit_per_sec_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time this medium is occupied transferring `bytes` bytes, rounded
    /// up to the next nanosecond (a transfer never completes early).
    ///
    /// # Examples
    ///
    /// ```
    /// use nectar_sim::units::Bandwidth;
    /// let bw = Bandwidth::from_mbit_per_sec(100);
    /// assert_eq!(bw.transfer_time(0).nanos(), 0);
    /// assert_eq!(bw.transfer_time(125).nanos(), 10_000); // 1000 bits
    /// ```
    pub fn transfer_time(self, bytes: usize) -> Dur {
        // ceil(bytes * 8e9 / bps). The product fits u64 below 2.3 GB,
        // so every packet and DMA transfer divides in one machine word;
        // only larger counts take the 128-bit path.
        match (bytes as u64).checked_mul(8_000_000_000) {
            Some(bit_ns) => Dur::from_nanos(bit_ns.div_ceil(self.0)),
            None => {
                let ns = (bytes as u128 * 8_000_000_000).div_ceil(self.0 as u128);
                Dur::from_nanos(u64::try_from(ns).expect("transfer time overflows u64 nanoseconds"))
            }
        }
    }

    /// Splits this bandwidth evenly across `n` concurrent consumers.
    ///
    /// Used by the CAB memory model when several DMA channels contend
    /// for the 66 MB/s data memory.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shared_by(self, n: usize) -> Bandwidth {
        assert!(n > 0, "cannot share bandwidth among zero consumers");
        Bandwidth((self.0 / n as u64).max(1))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} Gbit/s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2} Mbit/s", self.0 as f64 / 1e6)
        } else {
            write!(f, "{} bit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fiber_rate_matches_paper() {
        // 100 Mbit/s fiber: a 1 KB packet occupies the wire for 81.92 us.
        let fiber = Bandwidth::from_mbit_per_sec(100);
        assert_eq!(fiber.transfer_time(1024), Dur::from_nanos(81_920));
    }

    #[test]
    fn aggregate_backplane_rate() {
        // 16 ports x 100 Mbit/s = 1.6 Gbit/s aggregate (paper abstract).
        let agg = Bandwidth::from_bits_per_sec(16 * 100_000_000);
        assert_eq!(agg.as_mbit_per_sec_f64(), 1600.0);
    }

    #[test]
    fn byte_units() {
        let vme = Bandwidth::from_mbyte_per_sec(10);
        // 10 MB/s = 100 ns per byte.
        assert_eq!(vme.transfer_time(1), Dur::from_nanos(100));
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 3 bytes at 7 bit/ns-ish rates must round up, never down.
        let bw = Bandwidth::from_bits_per_sec(3_000_000_000);
        // 24 bits / 3e9 bps = 8 ns exactly.
        assert_eq!(bw.transfer_time(3), Dur::from_nanos(8));
        let odd = Bandwidth::from_bits_per_sec(7_000_000_000);
        // 24 / 7 ns = 3.43 -> 4 ns.
        assert_eq!(odd.transfer_time(3), Dur::from_nanos(4));
    }

    proptest! {
        /// The one-word path answers exactly as the 128-bit formula,
        /// over random counts and rates and around the count where
        /// `bytes * 8e9` stops fitting u64.
        #[test]
        fn transfer_time_equals_the_128_bit_formula(
            small in 0u64..100_000,
            large in any::<u64>(),
            edge in 0u64..2_000,
            slow in 1u64..10_000_000_000,
            fast in 1u64..u64::MAX,
            pick in (0u8..3, any::<bool>()),
        ) {
            let limit = u64::MAX / 8_000_000_000;
            let bytes = match pick.0 {
                0 => small,
                1 => large % (limit * 4),
                _ => limit + 1_000 - edge,
            } as usize;
            let bps = if pick.1 { slow } else { fast };
            let bw = Bandwidth::from_bits_per_sec(bps);
            let wide = (bytes as u128 * 8_000_000_000).div_ceil(bps as u128);
            if let Ok(ns) = u64::try_from(wide) {
                prop_assert_eq!(bw.transfer_time(bytes), Dur::from_nanos(ns));
            }
        }
    }

    #[test]
    fn sharing_divides_rate() {
        let mem = Bandwidth::from_mbyte_per_sec(66);
        assert_eq!(mem.shared_by(2).bits_per_sec(), mem.bits_per_sec() / 2);
        assert_eq!(mem.shared_by(1), mem);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_bits_per_sec(0);
    }

    #[test]
    fn display() {
        assert_eq!(Bandwidth::from_mbit_per_sec(100).to_string(), "100.00 Mbit/s");
        assert_eq!(Bandwidth::from_mbit_per_sec(2_000).to_string(), "2.00 Gbit/s");
    }

    #[test]
    fn zero_bytes_is_instant() {
        assert_eq!(Bandwidth::from_mbit_per_sec(1).transfer_time(0), Dur::ZERO);
    }
}
