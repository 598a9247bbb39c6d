//! Property-based tests for the protocol layer: codecs are total and
//! injective, fragmentation roundtrips, and the byte-stream delivers
//! exactly-once in-order under arbitrary loss patterns.

use nectar_cab::board::CabId;
use nectar_proto::header::{Header, PacketKind, HEADER_BYTES};
use nectar_proto::inet::{IpHeader, IpProto};
use nectar_proto::transport::bytestream::{ByteStream, ByteStreamConfig};
use nectar_proto::transport::frag::{fragment, fragment_count, Reassembler, ReassemblyOutcome};
use nectar_proto::transport::{Action, TimerToken};
use nectar_sim::bytes::Bytes;
use nectar_sim::time::{Dur, Time};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_kind() -> impl Strategy<Value = PacketKind> {
    prop_oneof![
        Just(PacketKind::Datagram),
        Just(PacketKind::Data),
        Just(PacketKind::Ack),
        Just(PacketKind::Request),
        Just(PacketKind::Response),
    ]
}

proptest! {
    #[test]
    fn header_roundtrips_for_arbitrary_fields(
        kind in arb_kind(),
        src in any::<u16>(),
        dst in any::<u16>(),
        src_mb in any::<u16>(),
        dst_mb in any::<u16>(),
        msg_id in any::<u32>(),
        frag in any::<u16>(),
        count in 1u16..,
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..990),
    ) {
        let h = Header {
            kind,
            src_cab: CabId::new(src),
            dst_cab: CabId::new(dst),
            src_mailbox: src_mb,
            dst_mailbox: dst_mb,
            msg_id,
            frag_index: frag,
            frag_count: count,
            seq,
            ack,
            window,
            payload_len: payload.len() as u16,
        };
        let wire = h.encode_with(&payload);
        let (back, body) = Header::decode(&wire).unwrap();
        prop_assert_eq!(back, h);
        prop_assert_eq!(body, &payload[..]);
    }

    /// The two-part codec is the contiguous codec: the header bytes
    /// `encode` makes are `encode_with`'s first 32, `decode_parts` reads
    /// back what `decode` reads, and a single bit flipped anywhere — in
    /// the header or in the payload — is rejected by both.
    #[test]
    fn two_part_codec_equals_contiguous_codec(
        kind in arb_kind(),
        fields in (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u32>()),
        payload in prop::collection::vec(any::<u8>(), 0..990),
        flip in (any::<u16>(), 0u8..8),
    ) {
        let (src, dst, msg_id, seq, ack) = fields;
        let h = Header {
            msg_id,
            seq,
            ack,
            window: src ^ dst,
            frag_index: src % 7,
            frag_count: 7,
            src_mailbox: dst,
            dst_mailbox: src,
            payload_len: payload.len() as u16,
            ..Header::new(kind, CabId::new(src), CabId::new(dst))
        };
        let head = h.encode(&payload);
        let wire = h.encode_with(&payload);
        prop_assert_eq!(&wire[..HEADER_BYTES], &head[..]);
        prop_assert_eq!(&wire[HEADER_BYTES..], &payload[..]);
        prop_assert_eq!(Header::decode_parts(&head, &payload), Ok(h));
        prop_assert_eq!(Header::decode(&wire), Ok((h, &payload[..])));

        let (at, bit) = (flip.0 as usize % wire.len(), flip.1);
        let (mut bad_head, mut bad_payload, mut bad_wire) = (head, payload.clone(), wire.clone());
        bad_wire[at] ^= 1 << bit;
        match at.checked_sub(HEADER_BYTES) {
            None => bad_head[at] ^= 1 << bit,
            Some(i) => bad_payload[i] ^= 1 << bit,
        }
        let split = Header::decode_parts(&bad_head, &bad_payload);
        prop_assert!(split.is_err(), "flip at byte {} bit {} accepted", at, bit);
        prop_assert_eq!(split, Header::decode(&bad_wire).map(|(h, _)| h));
    }

    #[test]
    fn header_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..1200)) {
        let _ = Header::decode(&bytes); // must never panic
    }

    #[test]
    fn fragmentation_preserves_bytes(
        data in prop::collection::vec(any::<u8>(), 0..20_000),
        max in 1usize..2000,
    ) {
        let frags = fragment(&Bytes::from(&data), max);
        prop_assert_eq!(frags.len(), fragment_count(data.len(), max));
        let glued: Vec<u8> = frags.iter().flat_map(|f| f.iter().copied()).collect();
        prop_assert_eq!(glued, data.clone());
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(f.len() <= max);
            // Only the last fragment may be short (unless data is empty).
            if !data.is_empty() && i + 1 < frags.len() {
                prop_assert_eq!(f.len(), max);
            }
        }
    }

    #[test]
    fn reassembler_rebuilds_in_order_streams(
        data in prop::collection::vec(any::<u8>(), 1..8000),
        max in 16usize..990,
        msg_id in any::<u32>(),
    ) {
        let frags = fragment(&Bytes::from(&data), max);
        let mut r = Reassembler::new();
        let n = frags.len() as u16;
        for (i, f) in frags.iter().enumerate() {
            match r.push(msg_id, i as u16, n, f) {
                ReassemblyOutcome::Complete(buf) => {
                    prop_assert_eq!(i as u16, n - 1);
                    prop_assert_eq!(&buf[..], &data[..]);
                }
                ReassemblyOutcome::Incomplete => prop_assert!((i as u16) < n - 1),
                ReassemblyOutcome::Mismatch => prop_assert!(false, "mismatch on clean stream"),
            }
        }
    }

    #[test]
    fn ip_header_roundtrips(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in 1u8..,
        ident in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..1400),
    ) {
        for proto in [IpProto::Udp, IpProto::Tcp, IpProto::Vmtp] {
            let h = IpHeader {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                proto,
                ttl,
                ident,
                payload_len: payload.len() as u16,
            };
            let wire = h.encode_with(&payload);
            let (back, body) = IpHeader::decode(&wire).unwrap();
            prop_assert_eq!(back, h);
            prop_assert_eq!(body, &payload[..]);
        }
    }

    #[test]
    fn ip_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..100)) {
        let _ = IpHeader::decode(&bytes);
    }

    // ----------------------------------------------------------------
    // Byte-stream: exactly-once, in-order, intact under arbitrary loss.
    // ----------------------------------------------------------------

    #[test]
    fn bytestream_survives_arbitrary_loss_patterns(
        messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..3000), 1..4),
        drops in prop::collection::vec(any::<bool>(), 0..60),
        window in 1u16..10,
    ) {
        let cfg = ByteStreamConfig { window, rto: Dur::from_micros(200), ..Default::default() };
        let mut a = ByteStream::new(CabId::new(0), CabId::new(1), cfg);
        let mut b = ByteStream::new(CabId::new(1), CabId::new(0), cfg);
        let mut now = Time::ZERO;
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut timers: Vec<(Time, usize, TimerToken)> = Vec::new();
        let mut send_idx = 0usize;

        let mut pending: std::collections::VecDeque<(usize, Action)> = Default::default();
        for m in &messages {
            let mut out = Vec::new();
            a.send_message(now, 1, 2, m, &mut out);
            pending.extend(out.into_iter().map(|x| (0usize, x)));
        }
        // Event loop: process actions, dropping sends per the pattern;
        // fire timers when the action queue drains.
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 50_000, "protocol did not converge");
            if let Some((from, action)) = pending.pop_front() {
                match action {
                    Action::Send { header, payload, .. } => {
                        let dropped = drops.get(send_idx).copied().unwrap_or(false);
                        send_idx += 1;
                        if dropped {
                            continue;
                        }
                        now += Dur::from_micros(5);
                        let mut out = Vec::new();
                        let to = 1 - from;
                        let target = if to == 0 { &mut a } else { &mut b };
                        target.on_packet(now, &header, &payload, &mut out);
                        pending.extend(out.into_iter().map(|x| (to, x)));
                    }
                    Action::Deliver { msg, .. } => delivered.push(msg.data().to_vec()),
                    Action::SetTimer { token, delay } => timers.push((now + delay, from, token)),
                    Action::CancelTimer { token } => {
                        timers.retain(|&(_, ep, t)| !(ep == from && t == token));
                    }
                    Action::Complete { .. } => {}
                    Action::Error(e) => prop_assert!(false, "transport error {e}"),
                }
                continue;
            }
            if a.is_quiescent() && b.is_quiescent() {
                break;
            }
            timers.sort_by_key(|&(t, _, _)| t);
            prop_assert!(!timers.is_empty(), "stuck with no timers");
            let (at, ep, token) = timers.remove(0);
            now = now.max(at);
            let mut out = Vec::new();
            let target = if ep == 0 { &mut a } else { &mut b };
            target.on_timer(now, token, &mut out);
            pending.extend(out.into_iter().map(|x| (ep, x)));
        }
        prop_assert_eq!(delivered.len(), messages.len(), "exactly-once per message");
        for (got, want) in delivered.iter().zip(&messages) {
            prop_assert_eq!(got, want, "in-order, intact");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Request-response under duplication chaos: however many copies
    /// of each request and response the wire delivers, the server
    /// executes each transaction exactly once and the client delivers
    /// each response exactly once (late copies are ignored).
    #[test]
    fn rpc_is_at_most_once_under_duplication(
        calls in prop::collection::vec((0usize..3, 0usize..3, any::<bool>()), 1..16),
    ) {
        use nectar_proto::transport::reqresp::{ReqRespClient, ReqRespConfig, ReqRespServer};
        use nectar_proto::transport::{deliveries, sends};

        let mut client = ReqRespClient::new(CabId::new(0), ReqRespConfig::default());
        let mut server = ReqRespServer::new(CabId::new(1), ReqRespConfig::default());
        let now = Time::ZERO;
        let mut extra_copies = 0u64;
        let mut late_copies = 0u64;

        for (i, &(req_extra, resp_extra, late_dup)) in calls.iter().enumerate() {
            let req = vec![i as u8; 16 + i];
            let mut call_out = Vec::new();
            let tx = client.call(now, CabId::new(1), 5, 80, &req, &mut call_out);

            // The wire hands the server 1 + req_extra copies of the
            // request, back to back (dup while executing).
            let mut srv_out = Vec::new();
            for _ in 0..=req_extra {
                for (h, p) in sends(&call_out) {
                    server.on_packet(now, h, p, &mut srv_out);
                }
            }
            extra_copies += req_extra as u64;
            let handed = deliveries(&srv_out);
            prop_assert_eq!(handed.len(), 1, "server app sees the request exactly once");
            prop_assert_eq!(handed[0].1.data(), &req[..]);

            // Application answers; the wire duplicates the response too.
            let mut resp_out = Vec::new();
            prop_assert!(server.respond(now, CabId::new(0), tx, &req, &mut resp_out));
            let mut cli_out = Vec::new();
            for _ in 0..=resp_extra {
                for (h, p) in sends(&resp_out) {
                    client.on_packet(now, h, p, &mut cli_out);
                }
            }
            prop_assert_eq!(
                deliveries(&cli_out).len(), 1,
                "client delivers the response exactly once; late copies dropped"
            );

            // A straggler request copy after completion replays the
            // cached response without re-executing.
            if late_dup {
                let mut replay_out = Vec::new();
                for (h, p) in sends(&call_out) {
                    server.on_packet(now, h, p, &mut replay_out);
                }
                extra_copies += 1;
                late_copies += 1;
                prop_assert!(deliveries(&replay_out).is_empty(), "no re-execution");
                let replayed = sends(&replay_out);
                prop_assert_eq!(replayed.len(), 1, "cached response is replayed");
                // The client already completed tx: the replayed copy
                // must be ignored.
                let mut ignored = Vec::new();
                for (h, p) in replayed {
                    client.on_packet(now, h, p, &mut ignored);
                }
                prop_assert!(deliveries(&ignored).is_empty(), "late response ignored");
            }
        }

        let (executed, dup_requests, replays) = server.stats();
        let (issued, responses, timeouts, _) = client.stats();
        prop_assert_eq!(executed, calls.len() as u64, "exactly-once execution per unique request");
        prop_assert_eq!(issued, calls.len() as u64);
        prop_assert_eq!(responses, calls.len() as u64);
        prop_assert_eq!(timeouts, 0);
        prop_assert_eq!(dup_requests, extra_copies, "every extra copy was suppressed");
        prop_assert_eq!(replays, late_copies, "post-completion copies replay from the cache");
        prop_assert_eq!(client.outstanding(), 0);
    }
}
