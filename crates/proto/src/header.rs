//! Transport-protocol wire headers.
//!
//! Every Nectar transport packet starts with a fixed 32-byte header
//! carrying addressing (CAB + mailbox), fragmentation, sequencing, and
//! a Fletcher-16 checksum computed by the CAB's hardware unit over the
//! header and payload. The encoding is byte-exact so corruption
//! injection in tests exercises the same code a real receiver runs.
//!
//! There is one codec: [`Header::encode`] makes the 32 header bytes
//! for a payload that stays in its own buffer, and
//! [`Header::decode_parts`] checks a header against its payload. The
//! contiguous forms, [`Header::encode_with`] and [`Header::decode`],
//! are thin wrappers over them.

use core::fmt;
use nectar_cab::board::CabId;
use nectar_cab::checksum::fletcher16_parts;

/// Size of the fixed transport header on the wire.
pub const HEADER_BYTES: usize = 32;

// A packet carries the transport header inline, ahead of its payload.
const _: () = assert!(HEADER_BYTES == nectar_hub::item::HEAD_BYTES);

/// Largest payload a single packet may carry: the HUB input queue is
/// 1 KB and bounds packet-switched packets, so the default transports
/// use `1024 - HEADER_BYTES - 2` (SOP/EOP framing) per fragment.
pub const MAX_FRAGMENT_PAYLOAD: usize = 1024 - HEADER_BYTES - 2;

/// What kind of transport packet this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Unreliable datagram (§6.2.2, "direct interface to the datalink").
    Datagram,
    /// Byte-stream data fragment.
    Data,
    /// Byte-stream cumulative acknowledgement.
    Ack,
    /// Request of the request-response protocol.
    Request,
    /// Response of the request-response protocol.
    Response,
}

impl PacketKind {
    const ALL: [PacketKind; 5] = [
        PacketKind::Datagram,
        PacketKind::Data,
        PacketKind::Ack,
        PacketKind::Request,
        PacketKind::Response,
    ];

    fn code(self) -> u8 {
        match self {
            PacketKind::Datagram => 0,
            PacketKind::Data => 1,
            PacketKind::Ack => 2,
            PacketKind::Request => 3,
            PacketKind::Response => 4,
        }
    }

    fn from_code(code: u8) -> Option<PacketKind> {
        PacketKind::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketKind::Datagram => "dgram",
            PacketKind::Data => "data",
            PacketKind::Ack => "ack",
            PacketKind::Request => "req",
            PacketKind::Response => "resp",
        };
        f.write_str(s)
    }
}

/// A mailbox address on a CAB (the transport-level "port").
pub type MailboxAddr = u16;

/// The fixed transport header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Header {
    /// Packet kind.
    pub kind: PacketKind,
    /// Sending CAB.
    pub src_cab: CabId,
    /// Destination CAB.
    pub dst_cab: CabId,
    /// Sending mailbox.
    pub src_mailbox: MailboxAddr,
    /// Destination mailbox.
    pub dst_mailbox: MailboxAddr,
    /// Message id (request-response transaction id for RPC packets).
    pub msg_id: u32,
    /// Fragment index within the message.
    pub frag_index: u16,
    /// Total fragments in the message.
    pub frag_count: u16,
    /// Sequence number (byte-stream).
    pub seq: u32,
    /// Cumulative acknowledgement (byte-stream).
    pub ack: u32,
    /// Receiver window in packets (byte-stream flow control).
    pub window: u16,
    /// Payload length in bytes.
    pub payload_len: u16,
}

/// Why a packet failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than [`HEADER_BYTES`] bytes.
    Truncated {
        /// Bytes actually present.
        have: usize,
    },
    /// Unknown packet-kind code.
    BadKind {
        /// Offending code byte.
        code: u8,
    },
    /// Header `payload_len` disagrees with the bytes present.
    LengthMismatch {
        /// Length claimed by the header.
        claimed: usize,
        /// Payload bytes present.
        have: usize,
    },
    /// Checksum mismatch: the packet was corrupted in flight.
    Checksum {
        /// Checksum carried by the packet.
        carried: u16,
        /// Checksum computed over the received bytes.
        computed: u16,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { have } => write!(f, "truncated packet ({have} bytes)"),
            DecodeError::BadKind { code } => write!(f, "unknown packet kind {code}"),
            DecodeError::LengthMismatch { claimed, have } => {
                write!(f, "length mismatch: header claims {claimed}, got {have}")
            }
            DecodeError::Checksum { carried, computed } => {
                write!(f, "checksum mismatch: carried {carried:#06x}, computed {computed:#06x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl Header {
    /// Encodes the header for `payload`: its [`HEADER_BYTES`] bytes,
    /// carrying the hardware checksum over the header and every payload
    /// byte. The payload stays where it is; a packet holds the two
    /// side by side.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len()` disagrees with `self.payload_len`.
    pub fn encode(&self, payload: &[u8]) -> [u8; HEADER_BYTES] {
        assert_eq!(payload.len(), self.payload_len as usize, "payload_len must match payload");
        let mut head = [0u8; HEADER_BYTES];
        head[0] = self.kind.code();
        // head[1] is reserved flags; head[30..32] the checksum, zero
        // while it is computed.
        head[2..4].copy_from_slice(&self.src_cab.raw().to_be_bytes());
        head[4..6].copy_from_slice(&self.dst_cab.raw().to_be_bytes());
        head[6..8].copy_from_slice(&self.src_mailbox.to_be_bytes());
        head[8..10].copy_from_slice(&self.dst_mailbox.to_be_bytes());
        head[10..14].copy_from_slice(&self.msg_id.to_be_bytes());
        head[14..16].copy_from_slice(&self.frag_index.to_be_bytes());
        head[16..18].copy_from_slice(&self.frag_count.to_be_bytes());
        head[18..22].copy_from_slice(&self.seq.to_be_bytes());
        head[22..26].copy_from_slice(&self.ack.to_be_bytes());
        head[26..28].copy_from_slice(&self.window.to_be_bytes());
        head[28..30].copy_from_slice(&self.payload_len.to_be_bytes());
        let sum = fletcher16_parts(&[&head, payload]);
        head[CHECKSUM_AT..].copy_from_slice(&sum.to_be_bytes());
        head
    }

    /// Encodes the header and payload into one contiguous buffer:
    /// [`encode`](Header::encode)'s header followed by the payload.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len()` disagrees with `self.payload_len`.
    pub fn encode_with(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
        self.encode_into(payload, &mut buf);
        buf
    }

    /// [`encode_with`](Header::encode_with) into a caller-supplied
    /// buffer (cleared first).
    fn encode_into(&self, payload: &[u8], buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&self.encode(payload));
        buf.extend_from_slice(payload);
    }

    /// Decodes a header whose payload is carried separately, verifying
    /// the length and the checksum over the header and every payload
    /// byte — the checks a receiving CAB performs in hardware.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; never [`DecodeError::Truncated`].
    pub fn decode_parts(head: &[u8; HEADER_BYTES], payload: &[u8]) -> Result<Header, DecodeError> {
        let kind = PacketKind::from_code(head[0]).ok_or(DecodeError::BadKind { code: head[0] })?;
        let u16at = |i: usize| u16::from_be_bytes([head[i], head[i + 1]]);
        let u32at = |i: usize| u32::from_be_bytes([head[i], head[i + 1], head[i + 2], head[i + 3]]);
        let payload_len = u16at(28) as usize;
        if payload_len != payload.len() {
            return Err(DecodeError::LengthMismatch { claimed: payload_len, have: payload.len() });
        }
        // The sender summed the header with its checksum field zero.
        let carried = u16at(CHECKSUM_AT);
        let mut blank = *head;
        blank[CHECKSUM_AT..].fill(0);
        let computed = fletcher16_parts(&[&blank, payload]);
        if carried != computed {
            return Err(DecodeError::Checksum { carried, computed });
        }
        Ok(Header {
            kind,
            src_cab: CabId::new(u16at(2)),
            dst_cab: CabId::new(u16at(4)),
            src_mailbox: u16at(6),
            dst_mailbox: u16at(8),
            msg_id: u32at(10),
            frag_index: u16at(14),
            frag_count: u16at(16),
            seq: u32at(18),
            ack: u32at(22),
            window: u16at(26),
            payload_len: payload_len as u16,
        })
    }

    /// Decodes a contiguous buffer into header and payload:
    /// [`decode_parts`](Header::decode_parts) on its first
    /// [`HEADER_BYTES`] and the rest.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn decode(bytes: &[u8]) -> Result<(Header, &[u8]), DecodeError> {
        let Some((head, payload)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
            return Err(DecodeError::Truncated { have: bytes.len() });
        };
        Ok((Header::decode_parts(head, payload)?, payload))
    }

    /// A minimal header template; callers fill in the rest.
    pub fn new(kind: PacketKind, src_cab: CabId, dst_cab: CabId) -> Header {
        Header {
            kind,
            src_cab,
            dst_cab,
            src_mailbox: 0,
            dst_mailbox: 0,
            msg_id: 0,
            frag_index: 0,
            frag_count: 1,
            seq: 0,
            ack: 0,
            window: 0,
            payload_len: 0,
        }
    }
}

/// Byte offset of the checksum field in the header.
const CHECKSUM_AT: usize = 30;

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{} msg={} frag={}/{} seq={} ack={} ({} B)",
            self.kind,
            self.src_cab,
            self.src_mailbox,
            self.dst_cab,
            self.dst_mailbox,
            self.msg_id,
            self.frag_index,
            self.frag_count,
            self.seq,
            self.ack,
            self.payload_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_cab::checksum::fletcher16;
    use proptest::prelude::*;

    /// The reference decode: the same checks in the same order, with
    /// the checksum taken over a copy whose checksum field is blanked.
    fn decode_by_copy(bytes: &[u8]) -> Result<(Header, &[u8]), DecodeError> {
        if bytes.len() < HEADER_BYTES {
            return Err(DecodeError::Truncated { have: bytes.len() });
        }
        let kind =
            PacketKind::from_code(bytes[0]).ok_or(DecodeError::BadKind { code: bytes[0] })?;
        let u16at = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
        let u32at =
            |i: usize| u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let (claimed, have) = (u16at(28) as usize, bytes.len() - HEADER_BYTES);
        if claimed != have {
            return Err(DecodeError::LengthMismatch { claimed, have });
        }
        let mut check = bytes.to_vec();
        check[30] = 0;
        check[31] = 0;
        let (carried, computed) = (u16at(30), fletcher16(&check));
        if carried != computed {
            return Err(DecodeError::Checksum { carried, computed });
        }
        let header = Header {
            kind,
            src_cab: CabId::new(u16at(2)),
            dst_cab: CabId::new(u16at(4)),
            src_mailbox: u16at(6),
            dst_mailbox: u16at(8),
            msg_id: u32at(10),
            frag_index: u16at(14),
            frag_count: u16at(16),
            seq: u32at(18),
            ack: u32at(22),
            window: u16at(26),
            payload_len: claimed as u16,
        };
        Ok((header, &bytes[HEADER_BYTES..]))
    }

    proptest! {
        /// In-place verification answers exactly as the copy does — same
        /// `Ok` fields, same `Err` variant and fields — on valid
        /// packets, on packets with any two bytes (0xFF included)
        /// planted in the checksum field, on single-bit corruptions
        /// anywhere, and on truncated or over-long buffers.
        #[test]
        fn decode_in_place_equals_decode_by_copy(
            body in prop::collection::vec(any::<u8>(), 0..1025),
            fields in prop::collection::vec(any::<u8>(), 28..29),
            planted in (any::<bool>(), any::<u8>(), any::<u8>(), any::<bool>()),
            flip in (any::<bool>(), any::<u16>(), 0u8..8),
            cut in (0u8..4, any::<u16>()),
        ) {
            // A well-formed packet around random field bytes.
            let mut wire = fields;
            wire[0] %= 5;
            wire.extend_from_slice(&(body.len() as u16).to_be_bytes());
            wire.extend_from_slice(&[0, 0]);
            wire.extend_from_slice(&body);
            let sum = fletcher16(&wire);
            wire[30..32].copy_from_slice(&sum.to_be_bytes());
            prop_assert!(Header::decode(&wire).is_ok());
            prop_assert_eq!(Header::decode(&wire), decode_by_copy(&wire));

            let (plant, hi, lo, all_ones) = planted;
            if plant {
                wire[30] = if all_ones { 0xFF } else { hi };
                wire[31] = lo;
            }
            let (do_flip, at, bit) = flip;
            if do_flip {
                let at = at as usize % wire.len();
                wire[at] ^= 1 << bit;
            }
            match cut {
                (0, n) => wire.truncate(n as usize % (wire.len() + 1)),
                (1, n) => wire.extend(std::iter::repeat_n(0xA5, 1 + n as usize % 24)),
                _ => {}
            }
            prop_assert_eq!(Header::decode(&wire), decode_by_copy(&wire));
        }
    }

    fn sample(kind: PacketKind, payload: &[u8]) -> Header {
        Header {
            kind,
            src_cab: CabId::new(3),
            dst_cab: CabId::new(1),
            src_mailbox: 7,
            dst_mailbox: 9,
            msg_id: 0xDEAD_BEEF,
            frag_index: 2,
            frag_count: 5,
            seq: 42,
            ack: 40,
            window: 8,
            payload_len: payload.len() as u16,
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        let payload = b"hello nectar";
        for kind in PacketKind::ALL {
            let h = sample(kind, payload);
            let wire = h.encode_with(payload);
            assert_eq!(wire.len(), HEADER_BYTES + payload.len());
            let (back, body) = Header::decode(&wire).unwrap();
            assert_eq!(back, h);
            assert_eq!(body, payload);
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let h = sample(PacketKind::Ack, &[]);
        let wire = h.encode_with(&[]);
        let (back, body) = Header::decode(&wire).unwrap();
        assert_eq!(back.payload_len, 0);
        assert!(body.is_empty());
    }

    #[test]
    fn corruption_is_detected_anywhere() {
        let payload = vec![7u8; 256];
        let wire = sample(PacketKind::Data, &payload).encode_with(&payload);
        for idx in [0usize, 5, 14, HEADER_BYTES, wire.len() - 1] {
            let mut bad = wire.clone();
            bad[idx] ^= 0x40;
            assert!(
                Header::decode(&bad).is_err(),
                "corruption at byte {idx} must not decode cleanly"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let payload = vec![1u8; 64];
        let wire = sample(PacketKind::Data, &payload).encode_with(&payload);
        assert!(matches!(Header::decode(&wire[..10]), Err(DecodeError::Truncated { have: 10 })));
        assert!(matches!(
            Header::decode(&wire[..wire.len() - 1]),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let payload = [];
        let mut wire = sample(PacketKind::Ack, &payload).encode_with(&payload);
        wire[0] = 99;
        assert!(matches!(Header::decode(&wire), Err(DecodeError::BadKind { code: 99 })));
    }

    #[test]
    #[should_panic]
    fn payload_len_must_match() {
        let h = sample(PacketKind::Data, b"12345");
        let _ = h.encode_with(b"1234");
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode_with() {
        let payload = vec![3u8; 128];
        let h = sample(PacketKind::Data, &payload);
        let fresh = h.encode_with(&payload);
        let mut reused = vec![0xFFu8; 500]; // stale contents must not leak in
        h.encode_into(&payload, &mut reused);
        assert_eq!(reused, fresh);
        let (back, body) = Header::decode(&reused).unwrap();
        assert_eq!(back, h);
        assert_eq!(body, &payload[..]);
    }

    #[test]
    fn max_fragment_fits_hub_queue() {
        // Header + max payload + SOP/EOP framing fills exactly 1 KB.
        assert_eq!(HEADER_BYTES + MAX_FRAGMENT_PAYLOAD + 2, 1024);
    }
}
