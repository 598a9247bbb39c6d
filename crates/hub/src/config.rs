//! HUB timing and sizing parameters.
//!
//! Defaults are the published numbers of the 1989 prototype; every
//! field can be overridden to model the planned VLSI re-implementation
//! ("128 × 128 crossbars are possible with custom VLSI", §3.1) or for
//! ablation studies.

use nectar_sim::time::Dur;
use nectar_sim::units::Bandwidth;

/// Configuration of one HUB.
///
/// # Examples
///
/// ```
/// use nectar_hub::config::HubConfig;
///
/// let cfg = HubConfig::default();
/// assert_eq!(cfg.ports, 16);
/// assert_eq!(cfg.cycle.nanos(), 70);
/// // Setup + first byte through one HUB: ten cycles (paper §4).
/// assert_eq!((cfg.connect_latency() + cfg.transit).nanos(), 700);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubConfig {
    /// I/O ports on the backplane. Prototype: 16 (two 8-port boards).
    pub ports: usize,
    /// Central-controller cycle: a new connection can be set up every
    /// cycle. Prototype: 70 ns.
    pub cycle: Dur,
    /// Input-queue capacity, which is also the maximum packet size for
    /// packet switching. Prototype: 1 KB.
    pub queue_capacity: usize,
    /// Latency from an item reaching the head of an input queue to its
    /// first byte leaving the output register: five cycles (350 ns).
    pub transit: Dur,
    /// Latency from a fully received command to its effect inside the
    /// controller, beyond the serialization cycle. Calibrated so that
    /// connection setup + first data byte totals ten cycles (700 ns):
    /// 240 ns command wire time + 110 ns controller + 350 ns transit.
    pub controller_latency: Dur,
    /// Effective bandwidth of each fiber (TAXI limit: 100 Mbit/s).
    pub fiber_bandwidth: Bandwidth,
    /// Per-hop latency of a reply symbol stealing cycles on the reverse
    /// path. Replies are never blocked (§4.2.1); this bounds their
    /// per-HUB cost: transit plus its own wire time.
    pub reply_hop_latency: Dur,
    /// When `false`, ready bits are ignored by `test open` commands —
    /// the flow-control ablation of DESIGN.md §5.
    pub flow_control: bool,
    /// How long a queued item may wait for a crossbar connection that
    /// never comes (e.g. its `test open` command was lost) before the
    /// port discards it so the datalink can recover (§6.2.1: the
    /// datalink "recovers from framing errors and lost HUB commands").
    pub stuck_timeout: Dur,
}

impl HubConfig {
    /// The prototype HUB exactly as published.
    pub fn prototype() -> HubConfig {
        let cycle = Dur::from_nanos(70);
        HubConfig {
            ports: 16,
            cycle,
            queue_capacity: 1024,
            transit: cycle * 5,
            controller_latency: Dur::from_nanos(110),
            fiber_bandwidth: Bandwidth::from_mbit_per_sec(100),
            reply_hop_latency: cycle * 5 + Dur::from_nanos(240),
            flow_control: true,
            stuck_timeout: Dur::from_millis(1),
        }
    }

    /// The planned VLSI re-implementation (§3.1: "128 × 128 crossbars
    /// are possible with custom VLSI", §3.2: "this will lead to larger
    /// systems with higher performance and lower cost"). A projection,
    /// not a published artifact: twice the clock, eight times the
    /// ports, four times the queue, and 200 Mbit/s links.
    pub fn vlsi() -> HubConfig {
        let cycle = Dur::from_nanos(35);
        HubConfig {
            ports: 128,
            cycle,
            queue_capacity: 4096,
            transit: cycle * 5,
            controller_latency: Dur::from_nanos(55),
            fiber_bandwidth: Bandwidth::from_mbit_per_sec(200),
            reply_hop_latency: cycle * 5 + Dur::from_nanos(120),
            flow_control: true,
            stuck_timeout: Dur::from_millis(1),
        }
    }

    /// Time for `bytes` to serialize onto a fiber.
    pub fn wire_time(&self, bytes: usize) -> Dur {
        self.fiber_bandwidth.transfer_time(bytes)
    }

    /// Latency from a command's *first* byte arriving at a port to the
    /// connection existing (command wire time + controller latency),
    /// assuming an idle controller.
    pub fn connect_latency(&self) -> Dur {
        self.wire_time(crate::command::COMMAND_WIRE_BYTES) + self.controller_latency
    }

    /// Conservative-parallel lookahead: a hard lower bound on the
    /// delay between any event inside one HUB and its earliest
    /// possible output on an inter-HUB fiber. Every forwarded item
    /// pays at least [`transit`](HubConfig::transit) from queue head
    /// to output register, every reply symbol at least
    /// [`reply_hop_latency`](HubConfig::reply_hop_latency), and every
    /// freshly commanded connection at least
    /// [`connect_latency`](HubConfig::connect_latency) on top of
    /// transit — so the minimum of the three bounds them all. A
    /// sharded simulation may execute `lookahead` beyond the global
    /// minimum event time without ever missing a cross-shard arrival
    /// (prototype: 350 ns).
    pub fn lookahead(&self) -> Dur {
        self.transit.min(self.reply_hop_latency).min(self.connect_latency())
    }
}

impl Default for HubConfig {
    fn default() -> HubConfig {
        HubConfig::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_constants_match_paper() {
        let cfg = HubConfig::prototype();
        assert_eq!(cfg.ports, 16);
        assert_eq!(cfg.cycle, Dur::from_nanos(70));
        assert_eq!(cfg.queue_capacity, 1024);
        // Established-connection per-item latency: five cycles = 350 ns.
        assert_eq!(cfg.transit, Dur::from_nanos(350));
        // One byte at 100 Mbit/s = 80 ns.
        assert_eq!(cfg.wire_time(1), Dur::from_nanos(80));
    }

    #[test]
    fn setup_plus_first_byte_is_ten_cycles() {
        let cfg = HubConfig::prototype();
        // Command (3 B = 240 ns) + controller (110 ns) + transit (350 ns)
        // = 700 ns = 10 cycles of 70 ns.
        let total = cfg.connect_latency() + cfg.transit;
        assert_eq!(total, cfg.cycle * 10);
    }

    #[test]
    fn config_is_overridable() {
        let cfg = HubConfig { ports: 128, ..HubConfig::prototype() };
        assert_eq!(cfg.ports, 128);
        assert_eq!(cfg.queue_capacity, 1024);
    }
}
