//! Critical-path attribution: where did each flight's time go?
//!
//! For every delivered unicast flight, the breakdown walks the flight's
//! time-sorted events and classifies each inter-event gap by the kind of
//! the **later** event. Because the gaps telescope from `transport_send`
//! to `app_recv`, the per-segment durations sum *exactly* to the
//! flight's end-to-end latency — an invariant the property tests pin.
//! Time a message lost to go-back-N resends (the gap between the stream
//! slot's first transmission and the delivered copy's send) is charged
//! to [`Segment::Retransmit`].

use super::flights::{Flight, FlightFacts, FlightTable};
use crate::metrics::Histogram;
use crate::telemetry::{EventKind, TelemetryEvent};
use crate::time::{Dur, Time};
use std::fmt::Write as _;

/// One slice of a flight's end-to-end latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Segment {
    /// Earlier transmissions of the same stream slot that were lost:
    /// first send of the `(cab, peer, seq)` slot → this flight's send.
    Retransmit,
    /// Datalink transmit queueing: `transport_send` → `fiber_tx`
    /// (flow-control stalls and burst-FIFO wait at the sending CAB).
    TransportQueue,
    /// Fiber serialization and propagation: `fiber_tx` → first HUB
    /// arrival, each `crossbar_forward` → next hop's arrival, and the
    /// final hop into the receiving CAB's `dma` start.
    Fiber,
    /// Crossbar queue wait, summed over every HUB on the path:
    /// `crossbar_enqueue` → `crossbar_forward`.
    HubQueue,
    /// Receive-side DMA drain: `dma` start → `dma` complete.
    Dma,
    /// Kernel delivery: `dma` complete → `app_recv` (interrupt upcall,
    /// checksum, thread wait, mailbox append).
    Delivery,
    /// Gaps whose later event is none of the known span boundaries.
    /// A catch-all so the sum invariant survives new event kinds.
    Other,
}

impl Segment {
    /// Every segment, in pipeline order.
    pub const ALL: [Segment; 7] = [
        Segment::Retransmit,
        Segment::TransportQueue,
        Segment::Fiber,
        Segment::HubQueue,
        Segment::Dma,
        Segment::Delivery,
        Segment::Other,
    ];

    /// Stable human-readable name (also the metrics key suffix).
    pub const fn label(self) -> &'static str {
        match self {
            Segment::Retransmit => "retransmit",
            Segment::TransportQueue => "transport_queue",
            Segment::Fiber => "fiber",
            Segment::HubQueue => "hub_queue",
            Segment::Dma => "dma",
            Segment::Delivery => "delivery",
            Segment::Other => "other",
        }
    }

    const fn index(self) -> usize {
        match self {
            Segment::Retransmit => 0,
            Segment::TransportQueue => 1,
            Segment::Fiber => 2,
            Segment::HubQueue => 3,
            Segment::Dma => 4,
            Segment::Delivery => 5,
            Segment::Other => 6,
        }
    }

    /// Which segment a gap ending in `kind` belongs to, or `None` when
    /// the event is not on the packet's datapath (it contributes to
    /// [`Segment::Other`]).
    fn for_gap_ending_in(kind: &EventKind) -> Segment {
        match kind {
            EventKind::FiberTx { .. } => Segment::TransportQueue,
            EventKind::CrossbarEnqueue { .. } => Segment::Fiber,
            EventKind::CrossbarForward { .. } => Segment::HubQueue,
            EventKind::DmaStart { .. } => Segment::Fiber,
            EventKind::DmaComplete { .. } => Segment::Dma,
            EventKind::AppRecv { .. } => Segment::Delivery,
            _ => Segment::Other,
        }
    }
}

/// One delivered flight's latency, attributed segment by segment.
#[derive(Clone, Copy, Debug)]
pub struct Breakdown {
    /// The flight this breakdown describes.
    pub flight: u64,
    /// End-to-end latency: first transmission of the stream slot to
    /// delivery. Always equals the sum of all segments.
    pub total: Dur,
    segs: [Dur; Segment::ALL.len()],
}

impl Breakdown {
    /// Time attributed to one segment.
    fn segment(&self, s: Segment) -> Dur {
        self.segs[s.index()]
    }

    /// Sum over all segments (equals [`Breakdown::total`] by
    /// construction; exposed so tests can assert the invariant).
    pub fn segment_sum(&self) -> Dur {
        self.segs.iter().copied().sum()
    }
}

/// Attributes one flight's latency, or `None` when the flight is not a
/// delivered unicast data flight with a recorded send (multicast,
/// control, undelivered, and malformed flights are skipped).
///
/// `first_send` is the stream slot's first transmission time from
/// [`FlightTable::first_send_of`]; pass `None` for transports without
/// retransmission (the flight's own send is used).
pub fn breakdown(flight: &Flight, first_send: Option<Time>) -> Option<Breakdown> {
    breakdown_with(flight, &flight.facts(), first_send)
}

/// [`breakdown`] for a caller that already holds the flight's facts.
pub(crate) fn breakdown_with(
    flight: &Flight,
    facts: &FlightFacts,
    first_send: Option<Time>,
) -> Option<Breakdown> {
    if facts.malformed() || facts.recvs != 1 || !facts.is_data() {
        return None;
    }
    let (send_at, _) = facts.send()?;
    let start =
        flight.events.iter().position(|e| matches!(e.kind, EventKind::TransportSend { .. }))?;
    let origin = first_send.unwrap_or(send_at).min(send_at);
    let mut segs = [Dur::ZERO; Segment::ALL.len()];
    segs[Segment::Retransmit.index()] = send_at - origin;
    let mut prev = send_at;
    for ev in &flight.events[start + 1..] {
        segs[Segment::for_gap_ending_in(&ev.kind).index()] += ev.at.saturating_since(prev);
        prev = prev.max(ev.at);
        if matches!(ev.kind, EventKind::AppRecv { .. }) {
            break;
        }
    }
    Some(Breakdown { flight: flight.id, total: prev - origin, segs })
}

/// The [`breakdown_with`] walk run one event at a time, for a fold that
/// keeps no events: fed a flight's events in flight order, it charges
/// each gap after the first `transport_send` up to and including the
/// first `app_recv`, and holds nothing else.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PathFold {
    walk: Walk,
    /// Time of the latest walked event.
    prev: Time,
    /// The segments between [`Segment::Retransmit`], charged once at
    /// the end, and [`Segment::Other`], which is what the walk's span
    /// leaves over: the gaps telescope.
    segs: [Dur; Segment::ALL.len() - 2],
}

const _: () = assert!(Segment::Retransmit.index() == 0 && Segment::Other.index() == 6);

/// Where a [`PathFold`] is along its flight.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Walk {
    #[default]
    BeforeSend,
    Walking,
    Done,
}

impl PathFold {
    /// Walks the flight's next event in flight order.
    pub(crate) fn step(&mut self, ev: &TelemetryEvent) {
        match self.walk {
            Walk::Done => {}
            Walk::BeforeSend => {
                if matches!(ev.kind, EventKind::TransportSend { .. }) {
                    self.walk = Walk::Walking;
                    self.prev = ev.at;
                }
            }
            Walk::Walking => {
                let seg = Segment::for_gap_ending_in(&ev.kind);
                if seg != Segment::Other {
                    self.segs[seg.index() - 1] += ev.at.saturating_since(self.prev);
                }
                self.prev = self.prev.max(ev.at);
                if matches!(ev.kind, EventKind::AppRecv { .. }) {
                    self.walk = Walk::Done;
                }
            }
        }
    }

    /// The breakdown [`breakdown_with`] gives over the same events.
    pub(crate) fn breakdown(
        &self,
        flight: u64,
        facts: &FlightFacts,
        first_send: Option<Time>,
    ) -> Option<Breakdown> {
        if facts.malformed() || facts.recvs != 1 || !facts.is_data() {
            return None;
        }
        let (send_at, _) = facts.send()?;
        if self.walk == Walk::BeforeSend {
            return None;
        }
        let origin = first_send.unwrap_or(send_at).min(send_at);
        let mut segs = [send_at - origin; Segment::ALL.len()];
        segs[1..6].copy_from_slice(&self.segs);
        segs[6] = (self.prev - send_at) - self.segs.iter().copied().sum();
        Some(Breakdown { flight, total: self.prev - origin, segs })
    }
}

/// Per-segment latency distributions over every attributable flight in
/// a capture — the "where did the time go" table.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    hists: Vec<Histogram>,
    total: Histogram,
    /// Flights that produced a breakdown.
    pub attributed: u64,
    /// Flights skipped (control, multicast, undelivered, malformed).
    pub skipped: u64,
}

impl CriticalPath {
    /// Builds the aggregate from every flight in a table.
    pub(crate) fn from_table(table: &FlightTable) -> CriticalPath {
        let mut cp = CriticalPath::default();
        for f in table.flights() {
            let facts = f.facts();
            let first = facts.slot().and_then(|k| table.first_send_of(k));
            match breakdown_with(f, &facts, first) {
                Some(b) => cp.add(&b),
                None => cp.skipped += 1,
            }
        }
        cp
    }

    /// Folds one flight's breakdown into the per-segment histograms.
    pub(crate) fn add(&mut self, b: &Breakdown) {
        if self.hists.is_empty() {
            self.hists = vec![Histogram::new(); Segment::ALL.len()];
        }
        for s in Segment::ALL {
            self.hists[s.index()].observe(b.segment(s).nanos());
        }
        self.total.observe(b.total.nanos());
        self.attributed += 1;
    }

    /// The distribution of one segment's per-flight durations, or
    /// `None` before any flight was added.
    pub fn segment_hist(&self, s: Segment) -> Option<&Histogram> {
        self.hists.get(s.index())
    }

    /// The distribution of end-to-end latencies.
    pub fn total_hist(&self) -> &Histogram {
        &self.total
    }

    /// Renders the per-segment table: one row per segment with mean,
    /// p50/p90/p99 and share of total mean time.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        if self.attributed == 0 {
            let _ = writeln!(
                out,
                "  no attributable flights ({} skipped: control/multicast/undelivered)",
                self.skipped
            );
            return out;
        }
        let total_mean = self.total.mean().max(1.0);
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "segment", "mean us", "p50 us", "p90 us", "p99 us", "share"
        );
        for s in Segment::ALL {
            let h = &self.hists[s.index()];
            if h.max() == 0 {
                continue; // segment never charged in this capture
            }
            let _ = writeln!(
                out,
                "  {:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}%",
                s.label(),
                h.mean() / 1e3,
                h.quantile(0.50) / 1e3,
                h.quantile(0.90) / 1e3,
                h.quantile(0.99) / 1e3,
                100.0 * h.mean() / total_mean,
            );
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}%",
            "end-to-end",
            self.total.mean() / 1e3,
            self.total.quantile(0.50) / 1e3,
            self.total.quantile(0.90) / 1e3,
            self.total.quantile(0.99) / 1e3,
            100.0,
        );
        let _ = writeln!(
            out,
            "  flights: {} attributed, {} skipped (control/multicast/undelivered)",
            self.attributed, self.skipped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{FlightId, TelemetryEvent};

    fn ev(ns: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(7), kind }
    }

    fn datapath_flight() -> Flight {
        Flight {
            id: 7,
            events: vec![
                ev(
                    1_000,
                    EventKind::TransportSend {
                        cab: 0,
                        peer: 1,
                        seq: 0,
                        bytes: 64,
                        retransmit: false,
                    },
                ),
                ev(1_400, EventKind::FiberTx { cab: 0, bytes: 98 }),
                ev(2_000, EventKind::CrossbarEnqueue { hub: 0, input: 2, bytes: 98 }),
                ev(2_300, EventKind::CrossbarForward { hub: 0, input: 2, output: 5, bytes: 98 }),
                ev(2_900, EventKind::DmaStart { cab: 1, channel: 0, bytes: 96 }),
                ev(4_000, EventKind::DmaComplete { cab: 1, channel: 0, bytes: 96 }),
                ev(9_000, EventKind::AppRecv { cab: 1, mailbox: 2, bytes: 64 }),
            ],
        }
    }

    #[test]
    fn segments_cover_the_pipeline() {
        let b = breakdown(&datapath_flight(), None).unwrap();
        assert_eq!(b.segment(Segment::TransportQueue), Dur::from_nanos(400));
        assert_eq!(b.segment(Segment::Fiber), Dur::from_nanos(600 + 600));
        assert_eq!(b.segment(Segment::HubQueue), Dur::from_nanos(300));
        assert_eq!(b.segment(Segment::Dma), Dur::from_nanos(1_100));
        assert_eq!(b.segment(Segment::Delivery), Dur::from_nanos(5_000));
        assert_eq!(b.segment(Segment::Retransmit), Dur::ZERO);
        assert_eq!(b.total, Dur::from_nanos(8_000));
        assert_eq!(b.segment_sum(), b.total);
    }

    #[test]
    fn retransmit_time_charged_to_delivered_copy() {
        let b = breakdown(&datapath_flight(), Some(Time::from_nanos(200))).unwrap();
        assert_eq!(b.segment(Segment::Retransmit), Dur::from_nanos(800));
        assert_eq!(b.total, Dur::from_nanos(8_800));
        assert_eq!(b.segment_sum(), b.total);
    }

    #[test]
    fn non_data_and_undelivered_are_skipped() {
        let mut control = datapath_flight();
        if let EventKind::TransportSend { bytes, .. } = &mut control.events[0].kind {
            *bytes = 0;
        }
        assert!(breakdown(&control, None).is_none());
        let mut undelivered = datapath_flight();
        undelivered.events.pop();
        assert!(breakdown(&undelivered, None).is_none());
    }

    #[test]
    fn render_lists_active_segments() {
        let mut cp = CriticalPath::default();
        cp.add(&breakdown(&datapath_flight(), None).unwrap());
        let s = cp.render();
        assert!(s.contains("delivery"));
        assert!(s.contains("end-to-end"));
        assert!(!s.contains("retransmit")); // never charged here
    }
}
