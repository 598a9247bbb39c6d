//! The packet-pipeline planner for large node-to-node messages.
//!
//! "When sending large messages between nodes, it is important to
//! overlap packet transfers over the Nectar-net and over the VME bus at
//! each end, in order to reduce latency and increase throughput. The
//! CABs at the sender and receiver sides are well suited for setting up
//! this 'packet pipeline': they can select an optimal packet size,
//! synchronize the various DMAs, and manage the buffers" (§6.2.2).
//!
//! This module is that selection logic: an analytic model of the
//! three-stage pipeline (sender VME → fiber → receiver VME) that
//! predicts transfer time for a candidate packet size and picks the
//! best one. Experiment E11 compares its predictions against the full
//! simulation.

use nectar_sim::time::Dur;
use nectar_sim::units::Bandwidth;

/// The three-stage pipeline model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineModel {
    /// VME bandwidth at each end (10 MB/s in the prototype).
    pub vme_bw: Bandwidth,
    /// Fiber bandwidth (100 Mbit/s).
    pub fiber_bw: Bandwidth,
    /// Fixed per-packet cost on the bottleneck stage (DMA setup,
    /// datalink bookkeeping).
    pub per_packet_overhead: Dur,
    /// One-time setup cost (route open, first DMA programming).
    pub setup: Dur,
}

impl PipelineModel {
    /// The prototype's constants with a 2.5 µs per-packet overhead
    /// (DMA setup + datalink bookkeeping from
    /// [`CabTimings`](nectar_cab::timings::CabTimings)).
    pub fn prototype() -> PipelineModel {
        PipelineModel {
            vme_bw: Bandwidth::from_mbyte_per_sec(10),
            fiber_bw: Bandwidth::from_mbit_per_sec(100),
            per_packet_overhead: Dur::from_nanos(2_500),
            setup: Dur::from_micros(10),
        }
    }

    /// Time one stage spends on one packet of `size` bytes.
    fn stage_time(&self, bw: Bandwidth, size: usize) -> Dur {
        bw.transfer_time(size) + self.per_packet_overhead
    }

    /// Predicted end-to-end time for `message` bytes moved in packets
    /// of `packet` bytes with full overlap: the first packet flows
    /// through all three stages, then the pipeline advances at the
    /// bottleneck stage's pace.
    ///
    /// # Panics
    ///
    /// Panics if `message` or `packet` is zero.
    pub fn transfer_time(&self, message: usize, packet: usize) -> Dur {
        assert!(message > 0 && packet > 0, "sizes must be positive");
        let packets = message.div_ceil(packet) as u64;
        let last = message - (packets as usize - 1) * packet.min(message);
        let vme = self.stage_time(self.vme_bw, packet);
        let fiber = self.stage_time(self.fiber_bw, packet);
        let bottleneck = vme.max(fiber);
        // First packet fills the pipeline; the rest arrive at the
        // bottleneck rate; the final (possibly short) packet drains.
        let fill = vme + fiber;
        let steady = bottleneck * (packets.saturating_sub(1));
        let drain = self.stage_time(self.vme_bw, last);
        self.setup + fill + steady + drain
    }

    /// Time with *no* overlap: the whole message crosses the sender
    /// VME, then the fiber, then the receiver VME (what a node without
    /// a CAB-managed pipeline would get).
    pub fn store_and_forward_time(&self, message: usize) -> Dur {
        assert!(message > 0, "size must be positive");
        self.setup
            + self.stage_time(self.vme_bw, message)
            + self.stage_time(self.fiber_bw, message)
            + self.stage_time(self.vme_bw, message)
    }

    /// Sweeps candidate packet sizes (powers of two from 128 B to
    /// 64 KB, clamped to the message) and returns `(best_size,
    /// predicted_time)`.
    pub fn optimal_packet_size(&self, message: usize) -> (usize, Dur) {
        assert!(message > 0, "size must be positive");
        let mut best = (message, self.transfer_time(message, message));
        let mut size = 128usize;
        while size <= 65_536 {
            let candidate = size.min(message);
            let t = self.transfer_time(message, candidate);
            if t < best.1 {
                best = (candidate, t);
            }
            size *= 2;
        }
        best
    }

    /// Steady-state throughput for `message` bytes at packet size
    /// `packet`.
    pub fn throughput(&self, message: usize, packet: usize) -> Bandwidth {
        let t = self.transfer_time(message, packet);
        let bps = (message as u128 * 8 * 1_000_000_000 / t.nanos().max(1) as u128) as u64;
        Bandwidth::from_bits_per_sec(bps.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_beats_store_and_forward_for_large_messages() {
        let m = PipelineModel::prototype();
        let message = 1 << 20; // 1 MB
        let (size, piped) = m.optimal_packet_size(message);
        let sf = m.store_and_forward_time(message);
        assert!(
            piped.nanos() * 2 < sf.nanos(),
            "overlap should cut large-message latency roughly in half \
             (piped={piped}, store-and-forward={sf}, packet={size})"
        );
    }

    #[test]
    fn vme_is_the_bottleneck_stage() {
        // At 10 MB/s VME vs 12.5 MB/s fiber, throughput approaches VME rate.
        let m = PipelineModel::prototype();
        let tp = m.throughput(1 << 20, 8192);
        let mbs = tp.bits_per_sec() as f64 / 8e6;
        assert!(
            mbs > 8.0 && mbs <= 10.0,
            "throughput {mbs:.1} MB/s should approach the 10 MB/s VME"
        );
    }

    #[test]
    fn tiny_packets_lose_to_overhead() {
        let m = PipelineModel::prototype();
        let small = m.transfer_time(1 << 20, 128);
        let right = m.transfer_time(1 << 20, 8192);
        assert!(small > right, "128 B packets pay 8192 overheads");
    }

    #[test]
    fn huge_packets_lose_overlap() {
        let m = PipelineModel::prototype();
        let whole = m.transfer_time(1 << 20, 1 << 20);
        let (best_size, best) = m.optimal_packet_size(1 << 20);
        assert!(whole > best);
        assert!(best_size < 1 << 20, "optimal size is an interior point");
        assert!(best_size >= 1024, "but not absurdly small");
    }

    #[test]
    fn single_packet_message_degenerates_gracefully() {
        let m = PipelineModel::prototype();
        let t = m.transfer_time(100, 1024);
        assert!(t > Dur::ZERO);
        let (size, _) = m.optimal_packet_size(100);
        assert!(size <= 128, "messages smaller than a packet use one packet (got {size})");
    }

    #[test]
    #[should_panic]
    fn zero_message_rejected() {
        PipelineModel::prototype().transfer_time(0, 1024);
    }
}
