//! CAB cost-model constants.
//!
//! The paper gives hard numbers for some CAB costs (thread switch
//! "between 10 and 15 microseconds", 16 MHz SPARC, 66 MB/s data
//! memory, 10 MB/s VME) and end-to-end *goals* for the rest
//! (CAB-to-CAB process latency under 30 µs). [`CabTimings`] collects
//! every per-operation cost the software model charges; the defaults
//! are the published numbers where they exist and calibrated estimates
//! elsewhere, chosen so the end-to-end budgets land where the paper
//! says they should. EXPERIMENTS.md records the calibration.

use nectar_sim::time::Dur;
use nectar_sim::units::Bandwidth;

/// Per-operation costs charged by the CAB software model.
///
/// # Examples
///
/// ```
/// use nectar_cab::timings::CabTimings;
///
/// let t = CabTimings::prototype();
/// // Paper §6.1: "thread switching takes between 10 and 15 us".
/// assert!(t.thread_switch.as_micros_f64() >= 10.0);
/// assert!(t.thread_switch.as_micros_f64() <= 15.0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CabTimings {
    /// Coroutine thread switch — "almost all of this time is spent
    /// saving and restoring the SPARC register windows" (§6.1).
    pub thread_switch: Dur,
    /// Entering an interrupt handler; "the SPARC architecture helps
    /// reduce the overhead for critical interrupts by reserving a
    /// register window for trap handling" (§6.2.1).
    pub interrupt_entry: Dur,
    /// One upcall from the datalink interrupt handler into a transport
    /// routine (§6.2.1, after Clark's structuring-with-upcalls).
    pub upcall: Dur,
    /// Building or checking one transport-protocol header.
    pub transport_header: Dur,
    /// Datalink bookkeeping per packet (connection cache lookup,
    /// command-packet construction).
    pub datalink_packet: Dur,
    /// Programming one DMA channel descriptor.
    pub dma_setup: Dur,
    /// One mailbox operation (append or consume a message descriptor).
    pub mailbox_op: Dur,
    /// Arming or cancelling a hardware timer ("hardware timers allow
    /// time-outs to be set by the software with low overhead", §5.1).
    pub timer_op: Dur,
    /// Data-memory bandwidth: 66 MB/s of fast static RAM (§5.2).
    pub data_memory_bw: Bandwidth,
    /// VME bandwidth to/from the node: 10 MB/s (§5.2).
    pub vme_bw: Bandwidth,
    /// Fiber rate the CAB must keep up with, each direction (§5.1).
    pub fiber_bw: Bandwidth,
}

impl CabTimings {
    /// The prototype CAB as published, with calibrated software costs.
    pub fn prototype() -> CabTimings {
        CabTimings {
            thread_switch: Dur::from_nanos(12_000),
            interrupt_entry: Dur::from_nanos(1_500),
            upcall: Dur::from_nanos(500),
            transport_header: Dur::from_nanos(1_500),
            datalink_packet: Dur::from_nanos(1_000),
            dma_setup: Dur::from_nanos(1_000),
            mailbox_op: Dur::from_nanos(1_000),
            timer_op: Dur::from_nanos(500),
            data_memory_bw: Bandwidth::from_mbyte_per_sec(66),
            vme_bw: Bandwidth::from_mbyte_per_sec(10),
            fiber_bw: Bandwidth::from_mbit_per_sec(100),
        }
    }

    /// The send-side software path for one packet on the CAB:
    /// transport header + datalink + DMA setup (no context switch —
    /// the sender runs in the calling thread, §6.2.1).
    pub fn send_path(&self) -> Dur {
        self.transport_header + self.datalink_packet + self.dma_setup
    }

    /// The receive-side software path for one packet on the CAB:
    /// interrupt entry + upcall + header check + DMA setup to the
    /// destination mailbox.
    pub fn recv_path(&self) -> Dur {
        self.interrupt_entry + self.upcall + self.transport_header + self.dma_setup
    }
}

impl Default for CabTimings {
    fn default() -> CabTimings {
        CabTimings::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_constants() {
        let t = CabTimings::prototype();
        assert_eq!(t.data_memory_bw, Bandwidth::from_mbyte_per_sec(66));
        assert_eq!(t.vme_bw, Bandwidth::from_mbyte_per_sec(10));
        assert_eq!(t.fiber_bw.as_mbit_per_sec_f64(), 100.0);
        assert_eq!(t.thread_switch, Dur::from_micros(12));
    }

    #[test]
    fn software_paths_fit_the_30us_budget() {
        // Send path + receive path + a thread switch to the receiving
        // process must leave room under the paper's 30 us CAB-to-CAB
        // goal once ~1.7 us of wire/HUB time for a small packet is added.
        let t = CabTimings::prototype();
        let software = t.send_path() + t.recv_path() + t.thread_switch + t.mailbox_op * 2;
        assert!(
            software.as_micros_f64() < 28.0,
            "software path {} must leave room for wire time",
            software
        );
    }
}
