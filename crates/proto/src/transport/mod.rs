//! Transport protocols: message transfer between mailboxes on
//! different CABs (§6.2.2).
//!
//! Three protocols are implemented, exactly the paper's set:
//!
//! * [`datagram`] — "low overhead but does not guarantee packet
//!   delivery; a direct interface to the datalink layer".
//! * [`bytestream`] — "reliable communication using acknowledgments,
//!   retransmissions, and a sliding window for flow control".
//! * [`reqresp`] — "supports client-server interactions such as remote
//!   procedure calls".
//!
//! Every protocol is a pure state machine: entry points take the
//! current time and an event (a send request, an arriving packet, a
//! timer expiry) and append [`Action`]s for the caller to execute —
//! handing packets to the datalink, delivering messages to mailboxes,
//! and arming timers. The CAB model in `nectar-core` charges the CPU
//! costs and owns the event queue.

pub mod bytestream;
pub mod datagram;
pub mod frag;
pub mod reqresp;

use crate::header::Header;
use core::fmt;
use nectar_kernel::mailbox::Message;
use nectar_sim::time::Dur;
use std::sync::Arc;

/// Opaque handle tying a [`Action::SetTimer`] to a later
/// `on_timer` call. Protocols mint fresh tokens to invalidate stale
/// expirations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// Errors a transport reports to its user.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The message exceeds what the protocol can carry.
    TooLarge {
        /// Bytes requested.
        size: usize,
        /// The protocol's limit.
        limit: usize,
    },
    /// A request-response call exhausted its retries.
    Timeout {
        /// The transaction that timed out.
        msg_id: u32,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::TooLarge { size, limit } => {
                write!(f, "message of {size} bytes exceeds protocol limit {limit}")
            }
            TransportError::Timeout { msg_id } => write!(f, "transaction {msg_id} timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One consequence of a transport event, executed by the caller.
#[derive(Clone, Debug)]
pub enum Action {
    /// Hand a packet to the datalink for transmission.
    Send {
        /// The packet's header (carries addressing).
        header: Header,
        /// The packet's payload.
        payload: Arc<[u8]>,
        /// `true` when this packet repeats an earlier transmission
        /// (go-back-N resend, request-response retry) — kept out of the
        /// header because the wire does not distinguish them, but the
        /// flight recorder does.
        retransmit: bool,
    },
    /// Deliver a complete message to a local mailbox.
    Deliver {
        /// Destination mailbox address.
        mailbox: u16,
        /// The reassembled message.
        msg: Message,
    },
    /// Arm a timer; the caller invokes `on_timer(now, token)` at expiry.
    SetTimer {
        /// Token to pass back at expiry.
        token: TimerToken,
        /// Delay from now.
        delay: Dur,
    },
    /// Cancel a previously armed timer (best effort — stale expirations
    /// are also filtered by token).
    CancelTimer {
        /// The token being cancelled.
        token: TimerToken,
    },
    /// Sender-side completion: the message is fully acknowledged
    /// (byte-stream) or the response arrived (request-response).
    Complete {
        /// The completed message/transaction id.
        msg_id: u32,
    },
    /// Report an error to the protocol's user.
    Error(TransportError),
}

/// Convenience: the send actions in an action list.
pub fn sends(actions: &[Action]) -> Vec<(&Header, &Arc<[u8]>)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { header, payload, .. } => Some((header, payload)),
            _ => None,
        })
        .collect()
}

/// Convenience: the delivered messages in an action list.
pub fn deliveries(actions: &[Action]) -> Vec<(u16, &Message)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Deliver { mailbox, msg } => Some((*mailbox, msg)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::PacketKind;
    use nectar_cab::board::CabId;

    #[test]
    fn extraction_helpers() {
        let h = Header::new(PacketKind::Datagram, CabId::new(0), CabId::new(1));
        let actions = vec![
            Action::Send { header: h, payload: Arc::from(vec![1u8]), retransmit: false },
            Action::Deliver { mailbox: 9, msg: Message::new(1, 0, vec![]) },
            Action::SetTimer { token: TimerToken(1), delay: Dur::from_micros(1) },
        ];
        assert_eq!(sends(&actions).len(), 1);
        let del = deliveries(&actions);
        assert_eq!(del.len(), 1);
        assert_eq!(del[0].0, 9);
    }

    #[test]
    fn error_display() {
        let e = TransportError::TooLarge { size: 2000, limit: 990 };
        assert!(e.to_string().contains("2000"));
        assert!(TransportError::Timeout { msg_id: 7 }.to_string().contains('7'));
    }
}
