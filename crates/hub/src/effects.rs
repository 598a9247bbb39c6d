//! Timed outputs of the HUB state machine.
//!
//! The HUB model is a *pure* state machine: the system-integration
//! layer calls it with an input and a timestamp, and it appends the
//! consequences — fiber emissions, flow-control signals, and internal
//! callbacks — to an [`Effects`] buffer. The caller owns the event
//! queue: it schedules each effect at its absolute time and routes
//! emissions/signals to whatever is at the other end of the fiber
//! (a CAB or another HUB). Internal callbacks must be fed back via
//! [`Hub::internal`](crate::hub::Hub::internal) at their timestamp;
//! events that share an instant are ordered by the wire they travel
//! ([`Hub::wire_key`](crate::hub::Hub::wire_key)). An entry point
//! defers one callback per decision point — the tail of a `close all`,
//! where a connection closes and a queue slot frees at one instant, is
//! a single [`InternalEv::HeadDone`]. A granted train leaves as one
//! [`TrainEmission`] and defers one `HeadDone`, for its `close all`.

use crate::id::PortId;
use crate::item::Item;
use crate::train::TrainEmission;
use nectar_sim::time::Time;

/// An item whose first byte leaves a port's output register at `at`;
/// its last byte follows after the item's wire time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Emission {
    /// When the first byte leaves the output register.
    pub at: Time,
    /// The port whose outgoing fiber carries the item.
    pub port: PortId,
    /// The item on the wire.
    pub item: Item,
}

/// A flow-control signal sent on a port's *outgoing* fiber to the
/// upstream peer, indicating that the start-of-packet has emerged from
/// this port's input queue (§4.2.3). The peer sets the ready bit of the
/// port the signal arrives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadySignal {
    /// When the signal leaves.
    pub at: Time,
    /// The port whose upstream peer should be notified.
    pub port: PortId,
}

/// A deferred state transition inside the HUB; the caller must invoke
/// [`Hub::internal`](crate::hub::Hub::internal) with it at its time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Internal {
    /// When the transition happens.
    pub at: Time,
    /// What happens.
    pub ev: InternalEv,
}

/// Kinds of deferred internal transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InternalEv {
    /// The central controller executes the command at the head of
    /// `port`'s input queue. An `open` or `lock` with retry gets one
    /// only for an attempt that would be granted; see
    /// [`Hub::internal`](crate::hub::Hub::internal) for the one that is
    /// deferred for the instant being processed.
    CtrlExec {
        /// Port whose head command executes.
        port: PortId,
    },
    /// The head item of `port`'s input queue has fully drained. When
    /// that item is a `close all` marker, this is also the instant the
    /// marker has passed through the output registers: the HUB breaks
    /// the connections it travelled over, wakes the commands parked on
    /// them, and only then pops the head — one event where the marker's
    /// tail decides everything.
    HeadDone {
        /// Port whose head finished.
        port: PortId,
        /// Arrival sequence number of the item (guards staleness).
        seq: u64,
    },
    /// Check whether a partially buffered item overflowed the 1 KB
    /// input queue because forwarding stayed blocked too long.
    OverflowCheck {
        /// Port to check.
        port: PortId,
        /// Arrival sequence number of the item.
        seq: u64,
    },
    /// Check whether an item is still waiting for a connection that
    /// never arrived (its open command was lost); if so, discard it so
    /// the datalink above can recover.
    StuckCheck {
        /// Port to check.
        port: PortId,
        /// Arrival sequence number of the item.
        seq: u64,
    },
}

impl InternalEv {
    /// The port the transition belongs to.
    pub fn port(&self) -> PortId {
        match *self {
            InternalEv::CtrlExec { port }
            | InternalEv::HeadDone { port, .. }
            | InternalEv::OverflowCheck { port, .. }
            | InternalEv::StuckCheck { port, .. } => port,
        }
    }

    /// Its tie-break class (see [`Wire`]).
    pub fn wire(&self) -> Wire {
        match self {
            InternalEv::CtrlExec { .. } => Wire::CtrlExec,
            InternalEv::HeadDone { .. } => Wire::HeadDone,
            InternalEv::OverflowCheck { .. } => Wire::OverflowCheck,
            InternalEv::StuckCheck { .. } => Wire::StuckCheck,
        }
    }
}

/// The class of an event a HUB causes, for ordering events that share
/// an instant. Together with the HUB and the port it names a *wire*:
/// the port's outgoing fibre (an item, a reply, a ready signal) or one
/// of the port's internal transitions. Two events of one wire never
/// share an instant — a fibre carries one item at a time, a port has
/// one head at a time — so a key built from `(HUB, port, wire)` orders
/// same-instant events by the wiring alone, whenever the HUB happened
/// to compute them. See [`Hub::wire_key`](crate::hub::Hub::wire_key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// An item on the port's outgoing fibre.
    Emission,
    /// A reply symbol on the port's outgoing fibre (replies steal
    /// cycles, so they may share an instant with an item).
    Reply,
    /// A ready signal on the port's outgoing fibre.
    Ready,
    /// [`InternalEv::CtrlExec`] of the port.
    CtrlExec,
    /// [`InternalEv::HeadDone`] of the port.
    HeadDone,
    /// [`InternalEv::OverflowCheck`] of the port.
    OverflowCheck,
    /// [`InternalEv::StuckCheck`] of the port.
    StuckCheck,
}

/// Buffer of consequences appended by HUB entry points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Effects {
    /// Items leaving output registers.
    pub emissions: Vec<Emission>,
    /// Trains leaving output registers.
    pub trains: Vec<TrainEmission>,
    /// Flow-control signals to upstream peers.
    pub ready_signals: Vec<ReadySignal>,
    /// Deferred internal transitions to feed back.
    pub internal: Vec<Internal>,
}

impl Effects {
    /// Creates an empty buffer.
    pub fn new() -> Effects {
        Effects::default()
    }

    /// `true` if no effects were produced.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
            && self.trains.is_empty()
            && self.ready_signals.is_empty()
            && self.internal.is_empty()
    }

    /// Empties the buffer (for reuse across calls).
    pub fn clear(&mut self) {
        self.emissions.clear();
        self.trains.clear();
        self.ready_signals.clear();
        self.internal.clear();
    }

    pub(crate) fn emit(&mut self, at: Time, port: PortId, item: Item) {
        self.emissions.push(Emission { at, port, item });
    }

    pub(crate) fn train(&mut self, train: TrainEmission) {
        self.trains.push(train);
    }

    pub(crate) fn ready(&mut self, at: Time, port: PortId) {
        self.ready_signals.push(ReadySignal { at, port });
    }

    pub(crate) fn defer(&mut self, at: Time, ev: InternalEv) {
        self.internal.push(Internal { at, ev });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_accumulates_and_clears() {
        let mut fx = Effects::new();
        assert!(fx.is_empty());
        fx.emit(Time::from_nanos(1), PortId::new(0), Item::CloseAll);
        fx.ready(Time::from_nanos(2), PortId::new(1));
        fx.defer(Time::from_nanos(3), InternalEv::CtrlExec { port: PortId::new(2) });
        assert!(!fx.is_empty());
        assert_eq!(fx.emissions.len(), 1);
        assert_eq!(fx.ready_signals.len(), 1);
        assert_eq!(fx.internal.len(), 1);
        fx.clear();
        assert!(fx.is_empty());
    }
}
