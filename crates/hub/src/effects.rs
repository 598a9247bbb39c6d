//! Timed outputs of the HUB state machine.
//!
//! The HUB model is a *pure* state machine: the system-integration
//! layer calls it with an input and a timestamp, and it appends the
//! consequences — fiber emissions, flow-control signals, and internal
//! callbacks — to an [`Effects`] buffer. The caller owns the event
//! queue: it schedules each effect at its absolute time and routes
//! emissions/signals to whatever is at the other end of the fiber
//! (a CAB or another HUB). Internal callbacks must be fed back via
//! [`Hub::internal`](crate::hub::Hub::internal) at their timestamp,
//! same-instant ones in the order they were appended. An entry point
//! defers one callback per decision point — the tail of a `close all`,
//! where a connection closes and a queue slot frees at one instant, is
//! a single [`InternalEv::HeadDone`].

use crate::id::PortId;
use crate::item::Item;
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
    /// `port`'s input queue.
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

/// Buffer of consequences appended by HUB entry points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Effects {
    /// Items leaving output registers.
    pub emissions: Vec<Emission>,
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
        self.emissions.is_empty() && self.ready_signals.is_empty() && self.internal.is_empty()
    }

    /// Empties the buffer (for reuse across calls).
    pub fn clear(&mut self) {
        self.emissions.clear();
        self.ready_signals.clear();
        self.internal.clear();
    }

    pub(crate) fn emit(&mut self, at: Time, port: PortId, item: Item) {
        self.emissions.push(Emission { at, port, item });
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
