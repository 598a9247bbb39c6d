//! Internet protocols over Nectar (§6.2.2 future work, implemented).
//!
//! "The current transport protocols are simple and Nectar-specific. We
//! plan to experiment with the corresponding Internet protocols (IP,
//! TCP, and VMTP) over Nectar in the coming year" (§6.2.2). This
//! module is that experiment: an RFC-791-shaped IPv4 header with
//! header checksum, an ARP-like address map from IP addresses to CABs,
//! and encapsulation/decapsulation so IP datagrams ride Nectar
//! transport packets. TCP-like reliable delivery maps onto the
//! byte-stream transport; VMTP-like transactions map onto
//! request-response — the mappings the paper anticipated.

use core::fmt;
use nectar_cab::board::CabId;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Size of the fixed IPv4 header this module emits (no options).
pub const IPV4_HEADER_BYTES: usize = 20;

/// IP protocol numbers used over Nectar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// UDP-like: rides the Nectar datagram transport.
    Udp,
    /// TCP-like: rides the Nectar byte-stream transport.
    Tcp,
    /// VMTP (RFC 1045): rides the request-response transport.
    Vmtp,
}

impl IpProto {
    fn number(self) -> u8 {
        match self {
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Vmtp => 81,
        }
    }

    fn from_number(n: u8) -> Option<IpProto> {
        Some(match n {
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            81 => IpProto::Vmtp,
            _ => return None,
        })
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IpProto::Udp => "udp",
            IpProto::Tcp => "tcp",
            IpProto::Vmtp => "vmtp",
        };
        f.write_str(s)
    }
}

/// An IPv4 datagram header (RFC 791, no options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpHeader {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub proto: IpProto,
    /// Time to live.
    pub ttl: u8,
    /// Identification (for reassembly at the IP level; Nectar's own
    /// fragmentation keeps this mostly decorative).
    pub ident: u16,
    /// Payload length in bytes.
    pub payload_len: u16,
}

/// Why an IP datagram failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpError {
    /// Fewer than 20 bytes.
    Truncated,
    /// Version field is not 4.
    BadVersion(u8),
    /// Header checksum mismatch.
    Checksum,
    /// Unknown protocol number.
    UnknownProto(u8),
    /// Total length disagrees with the buffer.
    BadLength,
    /// No route for the destination address.
    NoRoute(Ipv4Addr),
}

impl fmt::Display for IpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpError::Truncated => f.write_str("truncated IP header"),
            IpError::BadVersion(v) => write!(f, "IP version {v} is not 4"),
            IpError::Checksum => f.write_str("IP header checksum mismatch"),
            IpError::UnknownProto(p) => write!(f, "unknown IP protocol {p}"),
            IpError::BadLength => f.write_str("IP total length disagrees with buffer"),
            IpError::NoRoute(a) => write!(f, "no Nectar route for {a}"),
        }
    }
}

impl std::error::Error for IpError {}

/// The Internet header checksum (RFC 1071 ones'-complement sum).
fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

impl IpHeader {
    /// Encodes the header and payload into one buffer, computing the
    /// header checksum.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len()` disagrees with `self.payload_len`.
    pub fn encode_with(&self, payload: &[u8]) -> Vec<u8> {
        assert_eq!(payload.len(), self.payload_len as usize);
        let total = (IPV4_HEADER_BYTES + payload.len()) as u16;
        let mut buf = Vec::with_capacity(total as usize);
        buf.push(0x45); // version 4, IHL 5
        buf.push(0); // DSCP/ECN
        buf.extend_from_slice(&total.to_be_bytes());
        buf.extend_from_slice(&self.ident.to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // flags/fragment offset
        buf.push(self.ttl);
        buf.push(self.proto.number());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&self.src.octets());
        buf.extend_from_slice(&self.dst.octets());
        let sum = internet_checksum(&buf[..IPV4_HEADER_BYTES]);
        buf[10..12].copy_from_slice(&sum.to_be_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Decodes a buffer into header and payload, verifying version,
    /// length, and header checksum.
    ///
    /// # Errors
    ///
    /// See [`IpError`].
    pub fn decode(buf: &[u8]) -> Result<(IpHeader, &[u8]), IpError> {
        if buf.len() < IPV4_HEADER_BYTES {
            return Err(IpError::Truncated);
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(IpError::BadVersion(version));
        }
        if internet_checksum(&buf[..IPV4_HEADER_BYTES]) != 0 {
            return Err(IpError::Checksum);
        }
        let total = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total != buf.len() {
            return Err(IpError::BadLength);
        }
        let proto = IpProto::from_number(buf[9]).ok_or(IpError::UnknownProto(buf[9]))?;
        let header = IpHeader {
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            proto,
            ttl: buf[8],
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            payload_len: (total - IPV4_HEADER_BYTES) as u16,
        };
        Ok((header, &buf[IPV4_HEADER_BYTES..]))
    }
}

impl fmt::Display for IpHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> {} ttl={} ({} B)",
            self.proto, self.src, self.dst, self.ttl, self.payload_len
        )
    }
}

/// The ARP-analogue: maps IP addresses onto CABs so the Nectar driver
/// knows which fiber to put a datagram on. ("A Berkeley UNIX network
/// driver for Nectar ... Nectar is used as a 'dumb' network", §6.2.3.)
#[derive(Clone, Debug, Default)]
pub struct AddressMap {
    entries: HashMap<Ipv4Addr, CabId>,
}

impl AddressMap {
    /// An empty map.
    pub fn new() -> AddressMap {
        AddressMap::default()
    }

    /// Binds an address to a CAB (latest binding wins).
    pub fn bind(&mut self, addr: Ipv4Addr, cab: CabId) {
        self.entries.insert(addr, cab);
    }

    /// Resolves an address.
    ///
    /// # Errors
    ///
    /// [`IpError::NoRoute`] for unbound addresses.
    pub fn resolve(&self, addr: Ipv4Addr) -> Result<CabId, IpError> {
        self.entries.get(&addr).copied().ok_or(IpError::NoRoute(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: &[u8]) -> IpHeader {
        IpHeader {
            src: Ipv4Addr::new(128, 2, 254, 1),
            dst: Ipv4Addr::new(128, 2, 254, 36),
            proto: IpProto::Udp,
            ttl: 30,
            ident: 0xBEEF,
            payload_len: payload.len() as u16,
        }
    }

    #[test]
    fn roundtrip_all_protocols() {
        let payload = b"ip over nectar";
        for proto in [IpProto::Udp, IpProto::Tcp, IpProto::Vmtp] {
            let h = IpHeader { proto, ..sample(payload) };
            let wire = h.encode_with(payload);
            let (back, body) = IpHeader::decode(&wire).unwrap();
            assert_eq!(back, h);
            assert_eq!(body, payload);
        }
    }

    #[test]
    fn rfc1071_checksum_vector() {
        // Classic example: checksum of this sequence is 0xDD F2 before
        // complement -> stored 0x220D.
        let data = [0x00u8, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7];
        assert_eq!(internet_checksum(&data), !0xDDF2u16);
    }

    #[test]
    fn header_checksum_self_verifies() {
        let wire = sample(b"x").encode_with(b"x");
        assert_eq!(internet_checksum(&wire[..IPV4_HEADER_BYTES]), 0);
    }

    #[test]
    fn corruption_detected() {
        let wire = sample(b"abc").encode_with(b"abc");
        for idx in 0..IPV4_HEADER_BYTES {
            let mut bad = wire.clone();
            bad[idx] ^= 0x04;
            assert!(IpHeader::decode(&bad).is_err(), "byte {idx}");
        }
    }

    #[test]
    fn length_mismatch_detected() {
        let wire = sample(b"abcd").encode_with(b"abcd");
        assert_eq!(IpHeader::decode(&wire[..wire.len() - 1]), Err(IpError::BadLength));
        assert_eq!(IpHeader::decode(&wire[..10]), Err(IpError::Truncated));
    }

    #[test]
    fn unknown_protocol_rejected() {
        let mut wire = sample(b"").encode_with(b"");
        wire[9] = 99;
        // Refresh the checksum so only the protocol is wrong.
        wire[10] = 0;
        wire[11] = 0;
        let sum = internet_checksum(&wire[..IPV4_HEADER_BYTES]);
        wire[10..12].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(IpHeader::decode(&wire), Err(IpError::UnknownProto(99)));
    }

    #[test]
    fn address_map_resolves() {
        let mut arp = AddressMap::new();
        let a = Ipv4Addr::new(128, 2, 254, 1);
        arp.bind(a, CabId::new(3));
        assert_eq!(arp.resolve(a), Ok(CabId::new(3)));
        let b = Ipv4Addr::new(128, 2, 254, 99);
        assert_eq!(arp.resolve(b), Err(IpError::NoRoute(b)));
    }
}
