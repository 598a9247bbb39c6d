//! Typed telemetry events — the flight recorder.
//!
//! The HUB's plug-in instrumentation board "can monitor and record
//! events related to the crossbar and its controller" (paper §4.1).
//! This module models that board, and extends it past the HUB: a fixed
//! set of [`EventKind`]s carrying component ids and a [`FlightId`], so
//! a message can be followed causally from the sending application
//! through CAB DMA, every HUB hop, and delivery on the far side.
//!
//! Events are `Copy` and recording while disabled costs exactly one
//! branch — no formatting, no allocation — so instrumentation can stay
//! compiled into the hot paths.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::telemetry::{EventKind, FlightId, Telemetry};
//! use nectar_sim::time::Time;
//!
//! let mut tel = Telemetry::with_capacity(16);
//! tel.record(
//!     Time::from_nanos(700),
//!     FlightId(42),
//!     EventKind::CrossbarForward { hub: 0, input: 3, output: 8, bytes: 96 },
//! );
//! assert_eq!(tel.len(), 1);
//! assert!(tel.events().next().unwrap().flight.is_some());
//! ```

use crate::time::Time;
use std::collections::VecDeque;
use std::fmt;

/// Identity of one message end-to-end: the packet id minted by the
/// sending CAB. Events not tied to any particular message carry
/// [`FlightId::NONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlightId(pub u64);

impl FlightId {
    /// Sentinel for events with no associated flight.
    pub const NONE: FlightId = FlightId(u64::MAX);

    /// `true` unless this is the [`NONE`](FlightId::NONE) sentinel.
    pub fn is_some(self) -> bool {
        self != FlightId::NONE
    }
}

impl fmt::Display for FlightId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_some() {
            write!(f, "f{}", self.0)
        } else {
            f.write_str("f-")
        }
    }
}

/// What happened. Component ids are raw indices (HUB number, CAB
/// number, port number) so the variants stay `Copy` and crate-neutral.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// HUB controller established an input→output circuit.
    ConnectionOpen {
        /// HUB number.
        hub: u8,
        /// Input port.
        input: u8,
        /// Output port.
        output: u8,
    },
    /// HUB controller tore an input→output circuit down.
    ConnectionClose {
        /// HUB number.
        hub: u8,
        /// Input port.
        input: u8,
        /// Output port.
        output: u8,
    },
    /// A packet's head byte entered a HUB input queue. Paired with the
    /// same flight's [`CrossbarForward`](EventKind::CrossbarForward) on
    /// the same HUB, the gap is that hop's **queue wait** — the edge
    /// the doctor's head-of-line detector measures.
    CrossbarEnqueue {
        /// HUB number.
        hub: u8,
        /// Input port.
        input: u8,
        /// Wire bytes queued.
        bytes: u32,
    },
    /// The crossbar moved an item from an input queue to an output
    /// queue (one HUB hop of a flight, or a command/reply).
    CrossbarForward {
        /// HUB number.
        hub: u8,
        /// Input port.
        input: u8,
        /// Output port.
        output: u8,
        /// Wire bytes forwarded.
        bytes: u32,
    },
    /// A CAB DMA channel began a transfer.
    DmaStart {
        /// CAB number.
        cab: u16,
        /// DMA channel index.
        channel: u8,
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// A CAB DMA transfer finished.
    DmaComplete {
        /// CAB number.
        cab: u16,
        /// DMA channel index.
        channel: u8,
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// The CAB kernel switched threads.
    ThreadSwitch {
        /// CAB number.
        cab: u16,
        /// Outgoing thread id (`u32::MAX` when none was running).
        from: u32,
        /// Incoming thread id.
        to: u32,
    },
    /// The datalink re-drove a transmission after a missed
    /// ready-signal (flow-control recovery).
    DatalinkRetry {
        /// CAB number.
        cab: u16,
    },
    /// A packet began serializing onto a CAB's outgoing fiber — the
    /// edge between datalink **transmit queueing** (flow-control and
    /// burst-FIFO wait after `transport_send`) and **fiber
    /// serialization**.
    FiberTx {
        /// Transmitting CAB.
        cab: u16,
        /// Wire bytes put on the fiber.
        bytes: u32,
    },
    /// A transport handed a packet to the datalink.
    TransportSend {
        /// Sending CAB.
        cab: u16,
        /// Destination CAB.
        peer: u16,
        /// Transport sequence number.
        seq: u32,
        /// Payload bytes (0 for control packets such as bare acks).
        bytes: u32,
        /// `true` when this is a retransmission.
        retransmit: bool,
    },
    /// A transport received an acknowledgment.
    TransportAck {
        /// Receiving CAB.
        cab: u16,
        /// The acknowledging peer.
        peer: u16,
        /// Cumulative ack value.
        ack: u32,
    },
    /// A transport retransmission/response timer fired.
    TransportTimeout {
        /// CAB whose timer expired.
        cab: u16,
        /// Peer the timed-out protocol instance talks to
        /// ([`u16::MAX`] when the protocol is not peer-scoped).
        peer: u16,
    },
    /// An application asked a transport to send a message.
    AppSend {
        /// Sending CAB.
        cab: u16,
        /// Destination CAB.
        dst: u16,
        /// Message size in bytes.
        bytes: u32,
    },
    /// A complete message was delivered into a mailbox.
    AppRecv {
        /// Receiving CAB.
        cab: u16,
        /// Destination mailbox.
        mailbox: u16,
        /// Message size in bytes.
        bytes: u32,
    },
}

impl EventKind {
    /// A total order over event content: the variant's rank followed by
    /// its fields in declaration order, packed into a fixed tuple. Used
    /// as the kind component of the canonical telemetry order (see
    /// `nectar-core`'s `canonical_telemetry_sort`), so same-instant
    /// events from different recorder rings compare identically no
    /// matter which ring — or which shard — recorded them. Also the
    /// tie-break of flight order: both doctors read one flight's
    /// same-instant events in this order.
    pub(crate) fn canonical_key(&self) -> (u8, u64, u64, u64) {
        match *self {
            EventKind::AppRecv { cab, mailbox, bytes } => {
                (0, cab as u64, mailbox as u64, bytes as u64)
            }
            EventKind::AppSend { cab, dst, bytes } => (1, cab as u64, dst as u64, bytes as u64),
            EventKind::ConnectionClose { hub, input, output } => {
                (2, hub as u64, input as u64, output as u64)
            }
            EventKind::ConnectionOpen { hub, input, output } => {
                (3, hub as u64, input as u64, output as u64)
            }
            EventKind::CrossbarEnqueue { hub, input, bytes } => {
                (4, hub as u64, input as u64, bytes as u64)
            }
            EventKind::CrossbarForward { hub, input, output, bytes } => {
                (5, hub as u64, (input as u64) << 32 | output as u64, bytes as u64)
            }
            EventKind::DatalinkRetry { cab } => (6, cab as u64, 0, 0),
            EventKind::DmaComplete { cab, channel, bytes } => {
                (7, cab as u64, channel as u64, bytes as u64)
            }
            EventKind::DmaStart { cab, channel, bytes } => {
                (8, cab as u64, channel as u64, bytes as u64)
            }
            EventKind::FiberTx { cab, bytes } => (9, cab as u64, bytes as u64, 0),
            EventKind::ThreadSwitch { cab, from, to } => (10, cab as u64, from as u64, to as u64),
            EventKind::TransportAck { cab, peer, ack } => (11, cab as u64, peer as u64, ack as u64),
            EventKind::TransportSend { cab, peer, seq, bytes, retransmit } => (
                12,
                (cab as u64) << 32 | peer as u64,
                (seq as u64) << 1 | retransmit as u64,
                bytes as u64,
            ),
            EventKind::TransportTimeout { cab, peer } => (13, cab as u64, peer as u64, 0),
        }
    }

    /// Short stable name, used by exporters and trace dumps.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            EventKind::ConnectionOpen { .. } => "connection_open",
            EventKind::ConnectionClose { .. } => "connection_close",
            EventKind::CrossbarEnqueue { .. } => "crossbar_enqueue",
            EventKind::CrossbarForward { .. } => "crossbar_forward",
            EventKind::FiberTx { .. } => "fiber_tx",
            EventKind::DmaStart { .. } => "dma_start",
            EventKind::DmaComplete { .. } => "dma_complete",
            EventKind::ThreadSwitch { .. } => "thread_switch",
            EventKind::DatalinkRetry { .. } => "datalink_retry",
            EventKind::TransportSend { .. } => "transport_send",
            EventKind::TransportAck { .. } => "transport_ack",
            EventKind::TransportTimeout { .. } => "transport_timeout",
            EventKind::AppSend { .. } => "app_send",
            EventKind::AppRecv { .. } => "app_recv",
        }
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Simulation time of the event.
    pub at: Time,
    /// The flight this event belongs to, or [`FlightId::NONE`].
    pub flight: FlightId,
    /// What happened.
    pub kind: EventKind,
}

impl TelemetryEvent {
    /// The canonical total order over events: `(at, flight, kind
    /// content)`. Merging per-ring (or per-shard) event streams and
    /// sorting by this key yields the same sequence regardless of how
    /// the run was partitioned — the property the sharded determinism
    /// tests rely on.
    pub fn canonical_key(&self) -> (Time, u64, (u8, u64, u64, u64)) {
        (self.at, self.flight.0, self.kind.canonical_key())
    }
}

impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {} {:?}", self.at, self.flight, self.kind.label(), self.kind)
    }
}

/// A bounded ring of [`TelemetryEvent`]s, disabled by default.
///
/// Like the instrumentation board it is a plug-in: every component owns
/// one, and unless an experiment enables it, [`record`](Telemetry::record)
/// is a single branch. `subject` lets a shared component (the kernel
/// scheduler, say) be stamped with the CAB it belongs to without
/// threading ids through every call site.
#[derive(Clone, Debug)]
pub struct Telemetry {
    ring: VecDeque<TelemetryEvent>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
    hwm: usize,
    subject: u16,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            ring: VecDeque::new(),
            capacity: 1 << 16,
            enabled: false,
            dropped: 0,
            hwm: 0,
            subject: 0,
        }
    }
}

impl Telemetry {
    /// Creates an **enabled** recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Telemetry {
        assert!(capacity > 0, "telemetry capacity must be positive");
        Telemetry { capacity, enabled: true, ..Telemetry::default() }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The owner id stamped on events recorded through this instance
    /// (e.g. the CAB number for a kernel scheduler's recorder).
    pub fn subject(&self) -> u16 {
        self.subject
    }

    /// Sets the owner id (see [`subject`](Telemetry::subject)).
    pub fn set_subject(&mut self, subject: u16) {
        self.subject = subject;
    }

    /// Appends an event (dropping the oldest at capacity). One branch
    /// when disabled.
    #[inline]
    pub fn record(&mut self, at: Time, flight: FlightId, kind: EventKind) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TelemetryEvent { at, flight, kind });
        self.hwm = self.hwm.max(self.ring.len());
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events lost to capacity since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Most events ever resident at once (survives drains).
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Resizes the ring. Shrinking below the current occupancy drops
    /// the oldest events (they count as dropped).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "telemetry capacity must be positive");
        while self.ring.len() > capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.capacity = capacity;
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates oldest-to-newest.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.ring.iter()
    }

    /// Moves all retained events (oldest first) onto the end of `out`
    /// without allocating a fresh vector — the streaming drain path.
    pub fn drain_into(&mut self, out: &mut Vec<TelemetryEvent>) {
        let (older, newer) = self.ring.as_slices();
        out.extend_from_slice(older);
        out.extend_from_slice(newer);
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    fn fwd(hub: u8) -> EventKind {
        EventKind::CrossbarForward { hub, input: 0, output: 1, bytes: 8 }
    }

    #[test]
    fn disabled_by_default_and_costs_nothing() {
        let mut tel = Telemetry::default();
        tel.record(t(1), FlightId(1), fwd(0));
        assert!(tel.is_empty());
        tel.set_enabled(true);
        tel.record(t(2), FlightId(1), fwd(0));
        assert_eq!(tel.len(), 1);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut tel = Telemetry::with_capacity(2);
        for i in 0..3 {
            tel.record(t(i), FlightId(i), fwd(0));
        }
        assert_eq!(tel.len(), 2);
        assert_eq!(tel.dropped(), 1);
        assert_eq!(tel.events().next().unwrap().flight, FlightId(1));
    }

    #[test]
    fn drain_empties_in_order() {
        let mut tel = Telemetry::with_capacity(8);
        tel.record(t(5), FlightId::NONE, fwd(1));
        tel.record(t(9), FlightId(3), fwd(2));
        let mut out = Vec::new();
        tel.drain_into(&mut out);
        assert!(tel.is_empty());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].at, t(5));
        assert_eq!(out[1].flight, FlightId(3));
    }

    #[test]
    fn high_water_mark_survives_drain() {
        let mut tel = Telemetry::with_capacity(4);
        for i in 0..3 {
            tel.record(t(i), FlightId(i), fwd(0));
        }
        assert_eq!(tel.high_water_mark(), 3);
        let mut out = Vec::new();
        tel.drain_into(&mut out);
        assert_eq!(out.len(), 3);
        assert!(tel.is_empty());
        assert_eq!(tel.high_water_mark(), 3);
        tel.record(t(9), FlightId(9), fwd(0));
        assert_eq!(tel.high_water_mark(), 3);
    }

    #[test]
    fn set_capacity_shrink_drops_oldest() {
        let mut tel = Telemetry::with_capacity(4);
        for i in 0..4 {
            tel.record(t(i), FlightId(i), fwd(0));
        }
        tel.set_capacity(2);
        assert_eq!(tel.capacity(), 2);
        assert_eq!(tel.len(), 2);
        assert_eq!(tel.dropped(), 2);
        assert_eq!(tel.events().next().unwrap().flight, FlightId(2));
    }

    #[test]
    fn canonical_key_orders_by_content() {
        let a = TelemetryEvent { at: t(5), flight: FlightId(1), kind: fwd(0) };
        let b = TelemetryEvent { at: t(5), flight: FlightId(1), kind: fwd(1) };
        let c = TelemetryEvent { at: t(4), flight: FlightId(9), kind: fwd(7) };
        assert!(c.canonical_key() < a.canonical_key());
        assert!(a.canonical_key() < b.canonical_key());
        assert_eq!(a.canonical_key(), a.canonical_key());
    }

    #[test]
    fn flight_sentinel() {
        assert!(!FlightId::NONE.is_some());
        assert!(FlightId(0).is_some());
        assert_eq!(FlightId(7).to_string(), "f7");
        assert_eq!(FlightId::NONE.to_string(), "f-");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(fwd(0).label(), "crossbar_forward");
        assert_eq!(EventKind::DatalinkRetry { cab: 1 }.label(), "datalink_retry");
    }

    #[test]
    fn display_mentions_label() {
        let ev = TelemetryEvent { at: t(700), flight: FlightId(4), kind: fwd(2) };
        let s = ev.to_string();
        assert!(s.contains("crossbar_forward") && s.contains("f4"), "{s}");
    }
}
