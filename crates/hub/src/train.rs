//! Trains: a packet-switched unicast flow crossing a HUB as one unit.
//!
//! A packet-switched transfer is `h` `test open with retry` commands,
//! the packet and a `close all`, back to back on the fibre (§4.2.3). Of
//! those items only the opens decide anything: once a HUB has granted
//! its open, the connection belongs to that input until the `close all`
//! has passed, and every item behind the open crosses at a time fixed
//! by the grant. A [`Train`] is that flow delivered to a HUB in one
//! call ([`Hub::train_arrives`](crate::hub::Hub::train_arrives)). The
//! open goes to the controller like any command; at the grant the HUB
//! computes the rest of the hop inline and sends the remainder on as
//! one [`TrainEmission`].
//!
//! A train is an encoding, not a model change: the HUB produces the
//! same emissions, ready signals, counters, ready-bit changes, status
//! answers and telemetry, at the same instants, as it would for the
//! items one by one. State the item-by-item HUB would change *after*
//! the grant is held as a pending change and applied in the order the
//! engine would have popped the event that changes it — which is why
//! the entry points take a [`Tie`].

use crate::id::PortId;
use crate::item::Packet;
use nectar_sim::time::{Dur, Time};

/// A packet-switched unicast flow arriving at a HUB port: this HUB's
/// `test open with retry` for [`out`](Train::out), the `test open`s for
/// the HUBs after it, the packet and `close all`, each item's first
/// byte [`spacing`](Train::spacing) behind the previous item's last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Train {
    /// The output this HUB's `test open` asks for.
    pub out: PortId,
    /// `test open`s behind this HUB's, addressed to the HUBs further on.
    pub opens_behind: u8,
    /// The data packet.
    pub packet: Packet,
    /// Gap between one item's last byte and the next item's first: zero
    /// off a CAB's fibre, the upstream HUB's transit off a HUB's.
    pub spacing: Dur,
    /// The caller's handle on the route, carried downstream unchanged.
    pub route: u64,
    /// The tie-break key the train arrived with; its later items would
    /// have arrived with the same one.
    pub key: u64,
}

/// The rest of a train leaving a port: [`opens`](TrainEmission::opens)
/// `test open`s, the packet and `close all`, the first byte of the
/// first at [`at`](TrainEmission::at) and each next item's first byte
/// one [`HubConfig::transit`](crate::config::HubConfig::transit) after
/// the previous item's last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrainEmission {
    /// When the first item's first byte leaves the output register.
    pub at: Time,
    /// The port whose outgoing fibre carries the train.
    pub port: PortId,
    /// `test open`s at the front of the train.
    pub opens: u8,
    /// The data packet.
    pub packet: Packet,
    /// The route handle the train arrived with.
    pub route: u64,
}

/// Where an event stands among the events of its instant. The engine
/// pops an instant's events batch by batch — the events queued before
/// the instant began first, then those scheduled at the instant while
/// it ran (`late`) — and each batch in ascending key order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tie {
    /// Scheduled at its own instant, while that instant ran.
    pub late: bool,
    /// The event's tie-break key.
    pub key: u64,
}

impl Tie {
    /// Before every event of its instant.
    pub const FIRST: Tie = Tie { late: false, key: 0 };
    /// After every event of its instant.
    pub const LAST: Tie = Tie { late: true, key: u64::MAX };
}
