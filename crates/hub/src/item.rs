//! Wire items: the units that travel through fibers and HUB queues.
//!
//! The physical fiber carries a byte stream in which the TAXI chips
//! distinguish data bytes from control symbols (`start of packet`,
//! `end of packet`, command and reply symbols). Simulating every byte
//! would cost one event per 80 ns of wire time, so the model groups the
//! stream into [`Item`]s — a command, a reply, a framed data packet, or
//! the in-band `close all` marker — each of which knows its wire size.
//! Timing stays byte-exact: an item's tail is
//! `Bandwidth::transfer_time(wire_bytes)` behind its head.

use crate::command::{Command, Reply, COMMAND_WIRE_BYTES, REPLY_WIRE_BYTES};
use core::fmt;
use std::sync::Arc;

/// A framed data packet: `start of packet`, payload bytes, `end of
/// packet`.
///
/// The payload is shared, not copied, when a packet fans out through a
/// multicast connection, and stays shared all the way to the receiving
/// CAB: [`Packet::share`] hands out the refcounted buffer so delivery
/// needs no copy, and a [`pool`](crate::pool::BufPool) can reclaim the
/// `Vec` once the last reference drops.
///
/// # Examples
///
/// ```
/// use nectar_hub::item::Packet;
/// let p = Packet::new(7, vec![1, 2, 3]);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.wire_bytes(), 5); // SOP + 3 + EOP
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Packet {
    id: u64,
    data: Arc<Vec<u8>>,
}

/// Framing overhead of a packet on the wire: `start of packet` and
/// `end of packet` symbols.
pub const PACKET_FRAMING_BYTES: usize = 2;

impl Packet {
    /// Creates a packet carrying `data`. The `id` tags the packet for
    /// tracing and end-to-end accounting; it does not travel on the
    /// wire.
    pub fn new(id: u64, data: impl Into<Vec<u8>>) -> Packet {
        Packet { id, data: Arc::new(data.into()) }
    }

    /// The tracing id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Payload bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// A shared handle to the payload buffer: delivery without a copy.
    pub fn share(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.data)
    }

    /// Consumes the packet, yielding its buffer without bumping the
    /// refcount — the terminal-drop path (fault injection, queue
    /// overrun) hands this to the pool so destroyed packets still
    /// conserve buffers.
    pub fn into_shared(self) -> Arc<Vec<u8>> {
        self.data
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for an empty payload (legal: a bare SOP/EOP pair).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes this packet occupies on the wire, including framing.
    pub fn wire_bytes(&self) -> usize {
        self.len() + PACKET_FRAMING_BYTES
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "packet#{} ({} B)", self.id, self.len())
    }
}

/// Wire size of the in-band `close all` marker.
pub(crate) const CLOSE_ALL_WIRE_BYTES: usize = 3;

/// One unit travelling on a fiber or through a HUB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Item {
    /// A three-byte command; consumed by the addressed HUB, forwarded
    /// by every other HUB.
    Command(Command),
    /// A reply symbol travelling the reverse path; never queued.
    Reply(Reply),
    /// A framed data packet.
    Packet(Packet),
    /// The `close all` marker: travels behind the data and closes each
    /// connection as it passes through the output register (§4.2.1).
    CloseAll,
}

impl Item {
    /// Bytes this item occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Item::Command(_) => COMMAND_WIRE_BYTES,
            Item::Reply(_) => REPLY_WIRE_BYTES,
            Item::Packet(p) => p.wire_bytes(),
            Item::CloseAll => CLOSE_ALL_WIRE_BYTES,
        }
    }

    /// `true` for items that pass through input queues (replies bypass
    /// them, "stealing cycles" per §4.2.1).
    pub fn is_queued(&self) -> bool {
        !matches!(self, Item::Reply(_))
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Command(c) => write!(f, "cmd[{c}]"),
            Item::Reply(r) => write!(f, "reply[{r:?}]"),
            Item::Packet(p) => p.fmt(f),
            Item::CloseAll => f.write_str("close all"),
        }
    }
}

impl From<Command> for Item {
    fn from(c: Command) -> Item {
        Item::Command(c)
    }
}

impl From<Packet> for Item {
    fn from(p: Packet) -> Item {
        Item::Packet(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::UserOp;
    use crate::id::{HubId, PortId};

    #[test]
    fn wire_sizes() {
        let cmd = Command::user(UserOp::Nop, HubId::new(0), PortId::new(0));
        assert_eq!(Item::from(cmd).wire_bytes(), 3);
        assert_eq!(Item::CloseAll.wire_bytes(), 3);
        assert_eq!(Item::from(Packet::new(0, vec![0u8; 1024])).wire_bytes(), 1026);
        assert_eq!(
            Item::Reply(Reply::Ack { hub: HubId::new(1), port: PortId::new(2) }).wire_bytes(),
            3
        );
    }

    #[test]
    fn packet_payload_is_shared_on_clone() {
        let p = Packet::new(1, vec![9u8; 100]);
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.data, &q.data), "multicast clones must share payload");
        assert!(Arc::ptr_eq(&p.share(), &q.data), "share() hands out the same buffer");
    }

    #[test]
    fn empty_packet_is_legal() {
        let p = Packet::new(2, Vec::new());
        assert!(p.is_empty());
        assert_eq!(p.wire_bytes(), PACKET_FRAMING_BYTES);
    }

    #[test]
    fn replies_bypass_queues() {
        assert!(!Item::Reply(Reply::Ack { hub: HubId::new(0), port: PortId::new(0) }).is_queued());
        assert!(Item::CloseAll.is_queued());
        assert!(Item::from(Packet::new(0, vec![1])).is_queued());
    }

    #[test]
    fn display_forms() {
        let p = Packet::new(3, vec![0u8; 64]);
        assert_eq!(p.to_string(), "packet#3 (64 B)");
        assert_eq!(Item::CloseAll.to_string(), "close all");
    }
}
