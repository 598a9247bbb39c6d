//! Flight reconstruction: grouping the flat telemetry stream back into
//! per-packet causal histories.
//!
//! The flight recorder emits one flat stream of [`TelemetryEvent`]s.
//! Every analysis in this family starts by folding that stream into a
//! [`FlightTable`]: one [`Flight`] per packet id, holding the packet's
//! events in flight order, plus a side index of the *first*
//! transmission time of every `(cab, peer, seq)` stream slot so
//! retransmission overhead can be attributed to the delivered copy.
//!
//! Flight order — `(at, kind.canonical_key())` within one packet id —
//! is the only ordering any analysis reads. Everything folded *across*
//! flights (first-send minimum, cumulative-ack maximum, capture end)
//! commutes, so neither the post-hoc table nor the streaming doctor
//! cares how the capture as a whole was ordered.

use crate::telemetry::{EventKind, TelemetryEvent};
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// Identifies one slot of one transport instance: the sending CAB, the
/// peer it talks to, and the transport sequence number.
pub type StreamKey = (u16, u16, u32);

/// One packet's recorded life, oldest event first.
#[derive(Clone, Debug)]
pub struct Flight {
    /// The packet id minted by the sending CAB.
    pub id: u64,
    /// This flight's events, in flight order: by timestamp, same-instant
    /// ties by `EventKind::canonical_key`.
    pub events: Vec<TelemetryEvent>,
}

/// Flight order of two events of one flight: by timestamp, same-instant
/// ties by [`EventKind::canonical_key`] (computed only on a tie). A
/// function of event content alone, so it does not depend on how the
/// capture was merged from its rings (or shards).
pub(crate) fn flight_order(a: &TelemetryEvent, b: &TelemetryEvent) -> Ordering {
    a.at.cmp(&b.at).then_with(|| a.kind.canonical_key().cmp(&b.kind.canonical_key()))
}

/// Puts one flight's events into [flight order](flight_order).
pub(crate) fn sort_flight_events(events: &mut [TelemetryEvent]) {
    // Stable merge sort: a flight's events arrive as a few time-ordered
    // runs (one per recorder ring).
    events.sort_by(flight_order);
}

/// What one pass over a flight's events establishes: the facts the
/// critical-path breakdown and the storm, head-of-line and silent-drop
/// detectors all need, gathered once instead of by a scan per question.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FlightFacts {
    /// Timestamp and `(cab, peer, seq)` slot of the first
    /// `transport_send` in flight order; see [`send`](FlightFacts::send).
    first_send: (Time, StreamKey),
    /// Payload bytes of that send (0 for control packets).
    pub payload_bytes: u32,
    /// `true` when that send was a retransmission.
    pub retransmit: bool,
    /// Number of `transport_send` events (more than one: malformed).
    pub sends: u32,
    /// Number of `app_recv` deliveries (more than one: multicast).
    pub recvs: u32,
}

impl FlightFacts {
    /// Timestamp and slot of the first send, if the flight has one.
    pub(crate) fn send(&self) -> Option<(Time, StreamKey)> {
        (self.sends > 0).then_some(self.first_send)
    }

    /// The slot of the first send.
    pub(crate) fn slot(&self) -> Option<StreamKey> {
        self.send().map(|(_, k)| k)
    }

    /// See [`Flight::is_data`].
    pub(crate) fn is_data(&self) -> bool {
        self.sends > 0 && self.payload_bytes > 0
    }

    /// A flight should have exactly one `transport_send`. More than one
    /// means event streams from unrelated worlds were merged (packet
    /// ids collide across worlds); such flights are skipped by the
    /// breakdown rather than producing nonsense spans.
    pub(crate) fn malformed(&self) -> bool {
        self.sends > 1
    }

    /// `true` when the flight reached at least one application.
    pub(crate) fn delivered(&self) -> bool {
        self.recvs > 0
    }

    /// The silent-drop test on the flight itself: the slot and send
    /// time of a well-formed data flight that no application received.
    /// Whether it was acked, superseded by a resend, or is merely still
    /// in flight is a capture-wide judgment left to the caller.
    pub(crate) fn undelivered_data(&self) -> Option<(StreamKey, Time)> {
        if !self.is_data() || self.delivered() || self.malformed() {
            return None;
        }
        self.send().map(|(at, k)| (k, at))
    }

    /// Folds one event of the flight into the facts, in *any* order:
    /// the counts are sums, and the send fields follow whichever
    /// `transport_send` seen so far comes first in flight order.
    pub(crate) fn observe(&mut self, ev: &TelemetryEvent) {
        match ev.kind {
            EventKind::TransportSend { cab, peer, seq, bytes, retransmit } => {
                let first = match self.send() {
                    Some((at, (cab, peer, seq))) => {
                        let held = TelemetryEvent {
                            at,
                            flight: ev.flight,
                            kind: EventKind::TransportSend {
                                cab,
                                peer,
                                seq,
                                bytes: self.payload_bytes,
                                retransmit: self.retransmit,
                            },
                        };
                        flight_order(ev, &held) == Ordering::Less
                    }
                    None => true,
                };
                self.sends += 1;
                if first {
                    self.first_send = (ev.at, (cab, peer, seq));
                    self.payload_bytes = bytes;
                    self.retransmit = retransmit;
                }
            }
            EventKind::AppRecv { .. } => self.recvs += 1,
            _ => {}
        }
    }
}

impl Flight {
    /// Gathers the flight's [`FlightFacts`] in one pass.
    pub(crate) fn facts(&self) -> FlightFacts {
        let mut facts = FlightFacts::default();
        for e in &self.events {
            facts.observe(e);
        }
        facts
    }

    /// The `transport_send` event that started the flight, if recorded.
    pub fn send(&self) -> Option<&TelemetryEvent> {
        self.events.iter().find(|e| matches!(e.kind, EventKind::TransportSend { .. }))
    }

    /// The first `app_recv` delivery of this flight, if any.
    pub fn recv(&self) -> Option<&TelemetryEvent> {
        self.events.iter().find(|e| matches!(e.kind, EventKind::AppRecv { .. }))
    }

    /// `true` when the flight carried payload (control packets such as
    /// bare acknowledgments carry zero bytes and never deliver).
    pub(crate) fn is_data(&self) -> bool {
        matches!(self.send().map(|e| e.kind), Some(EventKind::TransportSend { bytes, .. }) if bytes > 0)
    }

    /// The `(cab, peer, seq)` transport slot this flight occupied.
    pub fn stream_key(&self) -> Option<StreamKey> {
        match self.send().map(|e| e.kind) {
            Some(EventKind::TransportSend { cab, peer, seq, .. }) => Some((cab, peer, seq)),
            _ => None,
        }
    }
}

/// Every flight in a capture, plus stream-slot and ack indexes.
#[derive(Clone, Debug, Default)]
pub struct FlightTable {
    flights: BTreeMap<u64, Flight>,
    /// Earliest `transport_send` per stream slot (first transmission,
    /// before any retransmit).
    first_send: HashMap<StreamKey, Time>,
    /// Highest cumulative ack seen per `(sender, peer)` direction,
    /// indexed from the *sender's* point of view.
    acked: HashMap<(u16, u16), u32>,
    /// Timestamp of the last event in the capture.
    end: Time,
}

impl FlightTable {
    /// Folds a telemetry stream into per-flight histories. The input
    /// may be in any order: the table depends on event content only.
    pub fn from_events(events: &[TelemetryEvent]) -> FlightTable {
        let mut table = FlightTable::default();
        for ev in events {
            table.end = table.end.max(ev.at);
            if let EventKind::TransportAck { cab, peer, ack } = ev.kind {
                // `cab` received the ack, so it is the data sender.
                let high = table.acked.entry((cab, peer)).or_insert(0);
                *high = (*high).max(ack);
            }
            if !ev.flight.is_some() {
                continue;
            }
            if let EventKind::TransportSend { cab, peer, seq, .. } = ev.kind {
                table
                    .first_send
                    .entry((cab, peer, seq))
                    .and_modify(|t| *t = (*t).min(ev.at))
                    .or_insert(ev.at);
            }
            table
                .flights
                .entry(ev.flight.0)
                .or_insert_with(|| Flight { id: ev.flight.0, events: Vec::new() })
                .events
                .push(*ev);
        }
        for f in table.flights.values_mut() {
            sort_flight_events(&mut f.events);
        }
        table
    }

    /// Flights in packet-id order.
    pub fn flights(&self) -> impl Iterator<Item = &Flight> {
        self.flights.values()
    }

    /// The flight with this packet id.
    pub(crate) fn get(&self, id: u64) -> Option<&Flight> {
        self.flights.get(&id)
    }

    /// Number of distinct flights seen.
    pub(crate) fn len(&self) -> usize {
        self.flights.len()
    }

    /// First transmission time of a stream slot (across original send
    /// and every retransmission).
    pub fn first_send_of(&self, key: StreamKey) -> Option<Time> {
        self.first_send.get(&key).copied()
    }

    /// `true` when a cumulative ack from `peer` back to `cab` covers
    /// `seq` (the peer consumed the packet even if no delivery event
    /// was recorded, e.g. a mid-message fragment).
    pub(crate) fn acked(&self, cab: u16, peer: u16, seq: u32) -> bool {
        self.acked.get(&(cab, peer)).is_some_and(|&high| high > seq)
    }

    /// Timestamp of the last event in the capture (the observation
    /// horizon for "never delivered" judgments).
    pub(crate) fn capture_end(&self) -> Time {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::FlightId;

    fn ev(ns: u64, flight: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(flight), kind }
    }

    fn send(ns: u64, flight: u64, seq: u32, bytes: u32, retransmit: bool) -> TelemetryEvent {
        ev(ns, flight, EventKind::TransportSend { cab: 0, peer: 1, seq, bytes, retransmit })
    }

    #[test]
    fn groups_events_by_flight_and_sorts() {
        let events = vec![
            ev(900, 5, EventKind::AppRecv { cab: 1, mailbox: 2, bytes: 64 }),
            send(100, 5, 0, 64, false),
            send(150, 6, 1, 64, false),
        ];
        let t = FlightTable::from_events(&events);
        assert_eq!(t.len(), 2);
        let f = t.get(5).unwrap();
        assert_eq!(f.events.first().unwrap().at, Time::from_nanos(100));
        assert!(f.facts().delivered());
        assert!(f.is_data());
        assert!(!t.get(6).unwrap().facts().delivered());
    }

    #[test]
    fn first_send_survives_retransmission() {
        let events = vec![send(100, 5, 0, 64, false), send(900, 9, 0, 64, true)];
        let t = FlightTable::from_events(&events);
        assert_eq!(t.first_send_of((0, 1, 0)), Some(Time::from_nanos(100)));
        assert!(t.get(9).unwrap().facts().retransmit);
        assert_eq!(t.get(9).unwrap().stream_key(), Some((0, 1, 0)));
    }

    #[test]
    fn acks_cover_sequences() {
        let events = vec![
            send(100, 5, 0, 64, false),
            ev(500, 77, EventKind::TransportAck { cab: 0, peer: 1, ack: 3 }),
        ];
        let t = FlightTable::from_events(&events);
        assert!(t.acked(0, 1, 0));
        assert!(t.acked(0, 1, 2));
        assert!(!t.acked(0, 1, 3));
        assert!(!t.acked(1, 0, 0));
    }

    #[test]
    fn merged_worlds_are_flagged_malformed() {
        let events = vec![send(100, 5, 0, 64, false), send(200, 5, 4, 64, false)];
        let t = FlightTable::from_events(&events);
        assert!(t.get(5).unwrap().facts().malformed());
    }

    #[test]
    fn control_flights_are_not_data() {
        let events = vec![send(100, 5, 0, 0, false)];
        let t = FlightTable::from_events(&events);
        assert!(!t.get(5).unwrap().is_data());
        assert_eq!(t.capture_end(), Time::from_nanos(100));
    }
}
