//! The CAB DMA controller.
//!
//! "The DMA controller is able to manage simultaneous data transfers
//! between the incoming and outgoing fibers and CAB memory, as well as
//! between VME and CAB memory, leaving the CAB CPU free for protocol
//! and application processing" (§5.1). Four channels exist; each is
//! paced by its medium (fiber 100 Mbit/s, VME 10 MB/s) and all share
//! the 66 MB/s data memory. "The DMA controller also handles flow
//! control during a transfer" (§5.2) — a channel simply stays busy
//! until its bytes have moved at the effective rate.

use crate::timings::CabTimings;
use core::fmt;
use nectar_sim::time::Time;
use nectar_sim::units::Bandwidth;

/// One of the four DMA channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Incoming fiber → data memory.
    FiberIn,
    /// Data memory → outgoing fiber.
    FiberOut,
    /// VME (node memory) → data memory.
    VmeIn,
    /// Data memory → VME (node memory).
    VmeOut,
}

impl Channel {
    /// All four channels.
    pub const ALL: [Channel; 4] =
        [Channel::FiberIn, Channel::FiberOut, Channel::VmeIn, Channel::VmeOut];

    const fn index(self) -> usize {
        match self {
            Channel::FiberIn => 0,
            Channel::FiberOut => 1,
            Channel::VmeIn => 2,
            Channel::VmeOut => 3,
        }
    }

    /// The channel number (0–3), for telemetry and display.
    pub const fn number(self) -> u8 {
        self.index() as u8
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Channel::FiberIn => "fiber-in",
            Channel::FiberOut => "fiber-out",
            Channel::VmeIn => "vme-in",
            Channel::VmeOut => "vme-out",
        };
        f.write_str(s)
    }
}

/// A scheduled DMA transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// The channel used.
    pub channel: Channel,
    /// Bytes moved.
    pub bytes: usize,
    /// When the transfer began moving data (after queueing behind any
    /// earlier transfer on the same channel).
    pub start: Time,
    /// When the last byte lands.
    pub complete: Time,
}

/// The four-channel DMA engine with shared-memory arbitration.
///
/// # Examples
///
/// ```
/// use nectar_cab::dma::{Channel, DmaController};
/// use nectar_cab::timings::CabTimings;
/// use nectar_sim::time::Time;
///
/// let mut dma = DmaController::new(CabTimings::prototype());
/// let t = dma.start(Time::ZERO, Channel::FiberOut, 1024);
/// // 1 KB at 100 Mbit/s = 81.92 us on the outgoing fiber.
/// assert_eq!((t.complete - t.start).nanos(), 81_920);
/// ```
#[derive(Clone, Debug)]
pub struct DmaController {
    timings: CabTimings,
    busy_until: [Time; 4],
    transfers_started: u64,
    bytes_moved: u64,
}

impl DmaController {
    /// A controller with all channels idle.
    pub fn new(timings: CabTimings) -> DmaController {
        DmaController { timings, busy_until: [Time::ZERO; 4], transfers_started: 0, bytes_moved: 0 }
    }

    /// The medium rate of a channel.
    fn channel_rate(&self, channel: Channel) -> Bandwidth {
        match channel {
            Channel::FiberIn | Channel::FiberOut => self.timings.fiber_bw,
            Channel::VmeIn | Channel::VmeOut => self.timings.vme_bw,
        }
    }

    /// Channels still moving data at `now` (used for memory-bandwidth
    /// arbitration).
    fn active_channels(&self, now: Time) -> usize {
        self.busy_until.iter().filter(|&&t| t > now).count()
    }

    /// Starts a transfer of `bytes` on `channel`; it queues behind any
    /// in-flight transfer on the same channel.
    ///
    /// The effective rate is the channel's medium rate capped by a fair
    /// share of data-memory bandwidth over the channels active at start
    /// (a start-time approximation of the hardware's cycle-by-cycle
    /// arbitration; the 66 MB/s memory exceeds the sum of both fibers
    /// plus VME, so the cap binds only in deliberate overload tests).
    pub fn start(&mut self, now: Time, channel: Channel, bytes: usize) -> Transfer {
        let start = now.max(self.busy_until[channel.index()]);
        let concurrent = (self.active_channels(start) + 1).max(1);
        let share = self.timings.data_memory_bw.shared_by(concurrent);
        let media = self.channel_rate(channel);
        let rate = if share.bits_per_sec() < media.bits_per_sec() { share } else { media };
        let complete = start + rate.transfer_time(bytes);
        self.busy_until[channel.index()] = complete;
        self.transfers_started += 1;
        self.bytes_moved += bytes as u64;
        Transfer { channel, bytes, start, complete }
    }

    /// Total transfers started since power-on.
    pub fn transfers_started(&self) -> u64 {
        self.transfers_started
    }

    /// Total bytes moved since power-on.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Registers the controller's counters into `reg` under `prefix`
    /// (e.g. `cab0.dma.`).
    pub fn register_into(&self, reg: &mut nectar_sim::metrics::MetricsRegistry, prefix: &str) {
        reg.counter_add(&format!("{prefix}transfers"), self.transfers_started);
        reg.counter_add(&format!("{prefix}bytes_moved"), self.bytes_moved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_sim::time::Dur;

    fn dma() -> DmaController {
        DmaController::new(CabTimings::prototype())
    }

    #[test]
    fn fiber_transfer_paced_at_fiber_rate() {
        let mut d = dma();
        let t = d.start(Time::ZERO, Channel::FiberOut, 1024);
        assert_eq!(t.complete - t.start, Dur::from_nanos(81_920));
    }

    #[test]
    fn vme_transfer_paced_at_10_mb_per_sec() {
        let mut d = dma();
        let t = d.start(Time::ZERO, Channel::VmeOut, 1_000_000);
        // 1 MB at 10 MB/s = 100 ms.
        assert_eq!(t.complete - t.start, Dur::from_millis(100));
    }

    #[test]
    fn same_channel_transfers_queue() {
        let mut d = dma();
        let a = d.start(Time::ZERO, Channel::FiberOut, 1000);
        let b = d.start(Time::ZERO, Channel::FiberOut, 1000);
        assert_eq!(b.start, a.complete, "second transfer waits for the channel");
    }

    #[test]
    fn different_channels_run_concurrently() {
        let mut d = dma();
        let a = d.start(Time::ZERO, Channel::FiberIn, 10_000);
        let b = d.start(Time::ZERO, Channel::FiberOut, 10_000);
        let c = d.start(Time::ZERO, Channel::VmeOut, 10_000);
        assert_eq!(a.start, Time::ZERO);
        assert_eq!(b.start, Time::ZERO);
        assert_eq!(c.start, Time::ZERO);
        // Memory (66 MB/s) exceeds 12.5 + 12.5 + 10 MB/s: media rates hold.
        assert_eq!(a.complete, b.complete);
        assert!(d.active_channels(Time::from_nanos(1)) == 3);
    }

    #[test]
    fn memory_bandwidth_caps_overload() {
        // Shrink memory bandwidth so sharing binds: 20 MB/s across two
        // active fibers -> 10 MB/s each, below the 12.5 MB/s fiber rate.
        let timings = CabTimings {
            data_memory_bw: Bandwidth::from_mbyte_per_sec(20),
            ..CabTimings::prototype()
        };
        let mut d = DmaController::new(timings);
        let _a = d.start(Time::ZERO, Channel::FiberIn, 100_000);
        let b = d.start(Time::ZERO, Channel::FiberOut, 100_000);
        // 100 KB at 10 MB/s = 10 ms (not 8 ms at full fiber rate).
        assert_eq!(b.complete - b.start, Dur::from_millis(10));
    }

    #[test]
    fn accounting() {
        let mut d = dma();
        d.start(Time::ZERO, Channel::FiberOut, 100);
        d.start(Time::ZERO, Channel::VmeIn, 200);
        assert_eq!(d.transfers_started(), 2);
        assert_eq!(d.bytes_moved(), 300);
        let mut reg = nectar_sim::metrics::MetricsRegistry::new();
        d.register_into(&mut reg, "cab0.dma.");
        assert_eq!(reg.counter("cab0.dma.transfers"), 2);
        assert_eq!(reg.counter("cab0.dma.bytes_moved"), 300);
    }
}
