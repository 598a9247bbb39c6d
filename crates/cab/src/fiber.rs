//! The CAB's fiber interface.
//!
//! "The fiber interface uses the same circuit as the HUB I/O port"
//! (§5.2): a 1 KB input queue and an output queue per direction. The
//! critical real-time constraint it imposes is §6.2.1's: "the transport
//! layer upcalls must determine the destination mailbox and return to
//! the datalink layer before incoming data overflows the CAB input
//! queue". [`FiberPort::drain_deadline`] computes exactly that budget,
//! and the datalink model checks it when a packet arrives.

use nectar_sim::time::Time;
use nectar_sim::units::Bandwidth;

/// One direction pair of the CAB's fiber interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiberPort {
    capacity: usize,
    bandwidth: Bandwidth,
}

impl FiberPort {
    /// The prototype interface: 1 KB queues at 100 Mbit/s.
    fn prototype() -> FiberPort {
        FiberPort::new(1024, Bandwidth::from_mbit_per_sec(100))
    }

    /// A port with explicit queue capacity and fiber rate.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, bandwidth: Bandwidth) -> FiberPort {
        assert!(capacity > 0, "fiber queue capacity must be positive");
        FiberPort { capacity, bandwidth }
    }

    /// Queue capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The fiber's serialization rate.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Latest time the receive DMA may start draining a packet of
    /// `bytes` whose head arrived at `head_at`, before the input queue
    /// overruns. Packets no larger than the queue can always buffer
    /// fully, so their deadline is unbounded ([`Time::MAX`]).
    pub fn drain_deadline(&self, head_at: Time, bytes: usize) -> Time {
        if bytes <= self.capacity {
            Time::MAX
        } else {
            head_at + self.bandwidth.transfer_time(self.capacity)
        }
    }
}

impl Default for FiberPort {
    fn default() -> FiberPort {
        FiberPort::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_sim::time::Dur;

    #[test]
    fn prototype_matches_hub_port_circuit() {
        let p = FiberPort::prototype();
        assert_eq!(p.capacity(), 1024);
        assert_eq!(p.bandwidth().as_mbit_per_sec_f64(), 100.0);
    }

    #[test]
    fn small_packets_buffer_fully() {
        let p = FiberPort::prototype();
        assert_eq!(p.drain_deadline(Time::from_micros(5), 1024), Time::MAX);
    }

    #[test]
    fn large_packets_must_cut_through() {
        let p = FiberPort::prototype();
        // A 4 KB packet fills the 1 KB queue 81.92 us after its head.
        let deadline = p.drain_deadline(Time::ZERO, 4096);
        assert_eq!(deadline, Time::ZERO + Dur::from_nanos(81_920));
    }
}
