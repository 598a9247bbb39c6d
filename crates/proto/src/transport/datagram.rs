//! The datagram protocol.
//!
//! "The datagram protocol has low overhead but does not guarantee
//! packet delivery; it is a direct interface to the datalink layer and
//! should only be used by applications that can tolerate or recover
//! from lost packets" (§6.2.2). One message = one packet; no timers, no
//! state beyond counters.

use crate::header::{Header, PacketKind, MAX_FRAGMENT_PAYLOAD};
use crate::transport::{Action, TransportError};
use nectar_cab::board::CabId;
use nectar_kernel::mailbox::Message;
use nectar_sim::bytes::Bytes;
use nectar_sim::time::Time;

/// The stateless datagram endpoint of one CAB.
///
/// # Examples
///
/// ```
/// use nectar_proto::transport::datagram::Datagram;
/// use nectar_proto::transport::sends;
/// use nectar_cab::board::CabId;
/// use nectar_sim::time::Time;
///
/// let mut dg = Datagram::new(CabId::new(0));
/// let mut out = Vec::new();
/// dg.send(Time::ZERO, CabId::new(1), 2, 3, b"fire and forget", &mut out);
/// assert_eq!(sends(&out).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Datagram {
    local: CabId,
    next_msg_id: u32,
    sent: u64,
    received: u64,
    oversize_rejected: u64,
}

impl Datagram {
    /// A datagram endpoint for `local`.
    pub fn new(local: CabId) -> Datagram {
        Datagram { local, next_msg_id: 0, sent: 0, received: 0, oversize_rejected: 0 }
    }

    /// Largest datagram payload: one packet-switched packet.
    const MAX_PAYLOAD: usize = MAX_FRAGMENT_PAYLOAD;

    /// Sends `data` to `dst_mailbox` on `dst`; returns the message id.
    /// Appends a [`Action::Send`], or [`Action::Error`] if the payload
    /// cannot fit one packet (datagrams do not fragment). The packet's
    /// payload is `data` itself: a [`Bytes`] is sent without a copy, a
    /// `&[u8]` is copied once.
    pub fn send(
        &mut self,
        _now: Time,
        dst: CabId,
        src_mailbox: u16,
        dst_mailbox: u16,
        data: impl Into<Bytes>,
        out: &mut Vec<Action>,
    ) -> u32 {
        let data = data.into();
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        if data.len() > Self::MAX_PAYLOAD {
            self.oversize_rejected += 1;
            out.push(Action::Error(TransportError::TooLarge {
                size: data.len(),
                limit: Self::MAX_PAYLOAD,
            }));
            return msg_id;
        }
        let header = Header {
            src_mailbox,
            dst_mailbox,
            msg_id,
            payload_len: data.len() as u16,
            ..Header::new(PacketKind::Datagram, self.local, dst)
        };
        self.sent += 1;
        out.push(Action::Send { header, payload: data, retransmit: false });
        msg_id
    }

    /// Handles an arriving datagram packet: deliver to the destination
    /// mailbox, no acknowledgement. The message is the packet's
    /// payload, shared.
    pub fn on_packet(
        &mut self,
        _now: Time,
        header: &Header,
        payload: &Bytes,
        out: &mut Vec<Action>,
    ) {
        debug_assert_eq!(header.kind, PacketKind::Datagram);
        self.received += 1;
        out.push(Action::Deliver {
            mailbox: header.dst_mailbox,
            msg: Message::new(header.msg_id as u64, header.src_mailbox as u32, payload.clone()),
        });
    }

    /// `(sent, received, oversize_rejected)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.sent, self.received, self.oversize_rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{deliveries, sends};

    #[test]
    fn send_produces_one_packet() {
        let mut dg = Datagram::new(CabId::new(3));
        let mut out = Vec::new();
        let id = dg.send(Time::ZERO, CabId::new(1), 10, 20, b"payload", &mut out);
        let s = sends(&out);
        assert_eq!(s.len(), 1);
        let (h, p) = s[0];
        assert_eq!(h.kind, PacketKind::Datagram);
        assert_eq!(h.src_cab, CabId::new(3));
        assert_eq!(h.dst_cab, CabId::new(1));
        assert_eq!(h.dst_mailbox, 20);
        assert_eq!(h.msg_id, id);
        assert_eq!(&p[..], b"payload");
    }

    #[test]
    fn receive_delivers_to_mailbox() {
        let mut tx = Datagram::new(CabId::new(0));
        let mut rx = Datagram::new(CabId::new(1));
        let mut out = Vec::new();
        tx.send(Time::ZERO, CabId::new(1), 4, 9, b"msg", &mut out);
        let (h, p) = {
            let s = sends(&out);
            (*s[0].0, s[0].1.clone())
        };
        let mut out2 = Vec::new();
        rx.on_packet(Time::ZERO, &h, &p, &mut out2);
        let d = deliveries(&out2);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 9);
        assert_eq!(d[0].1.data(), b"msg");
        assert_eq!(rx.stats().1, 1);
    }

    #[test]
    fn oversize_is_an_error_not_a_panic() {
        let mut dg = Datagram::new(CabId::new(0));
        let mut out = Vec::new();
        dg.send(Time::ZERO, CabId::new(1), 0, 0, vec![0u8; 5000], &mut out);
        assert!(matches!(out[0], Action::Error(TransportError::TooLarge { .. })));
        assert_eq!(dg.stats(), (0, 0, 1));
    }

    #[test]
    fn message_ids_increment() {
        let mut dg = Datagram::new(CabId::new(0));
        let mut out = Vec::new();
        let a = dg.send(Time::ZERO, CabId::new(1), 0, 0, b"a", &mut out);
        let b = dg.send(Time::ZERO, CabId::new(1), 0, 0, b"b", &mut out);
        assert_eq!(b, a + 1);
    }
}
