//! The request-response protocol.
//!
//! "The request-response protocol supports client-server interactions
//! such as remote procedure calls" (§6.2.2). Clients retransmit
//! unanswered requests a bounded number of times; servers suppress
//! duplicates by caching the response per transaction, so a lost
//! response does not re-execute the call (at-most-once semantics).

use crate::header::{Header, PacketKind, MAX_FRAGMENT_PAYLOAD};
use crate::transport::{Action, TimerToken, TransportError};
use nectar_cab::board::CabId;
use nectar_kernel::mailbox::Message;
use nectar_sim::bytes::Bytes;
use nectar_sim::time::{Dur, Time};
use std::collections::{HashMap, VecDeque};

/// Request-response tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqRespConfig {
    /// How long to wait for the response before retransmitting.
    pub rto: Dur,
    /// Total transmission attempts before reporting a timeout.
    pub max_attempts: u32,
    /// Responses the server caches for duplicate suppression.
    pub response_cache: usize,
}

impl Default for ReqRespConfig {
    fn default() -> ReqRespConfig {
        ReqRespConfig { rto: Dur::from_millis(1), max_attempts: 4, response_cache: 256 }
    }
}

#[derive(Clone, Debug)]
struct PendingCall {
    header: Header,
    payload: Bytes,
    attempts: u32,
}

/// The client half: issues calls and matches responses.
///
/// # Examples
///
/// ```
/// use nectar_proto::transport::reqresp::{ReqRespClient, ReqRespConfig};
/// use nectar_proto::transport::sends;
/// use nectar_cab::board::CabId;
/// use nectar_sim::time::Time;
///
/// let mut client = ReqRespClient::new(CabId::new(0), ReqRespConfig::default());
/// let mut out = Vec::new();
/// client.call(Time::ZERO, CabId::new(1), 5, 80, b"GET status", &mut out);
/// assert_eq!(sends(&out).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ReqRespClient {
    cfg: ReqRespConfig,
    local: CabId,
    next_tx: u32,
    outstanding: HashMap<u32, PendingCall>,
    calls: u64,
    responses: u64,
    timeouts: u64,
    retransmissions: u64,
}

impl ReqRespClient {
    /// A client endpoint on `local`.
    pub fn new(local: CabId, cfg: ReqRespConfig) -> ReqRespClient {
        ReqRespClient {
            cfg,
            local,
            next_tx: 0,
            outstanding: HashMap::new(),
            calls: 0,
            responses: 0,
            timeouts: 0,
            retransmissions: 0,
        }
    }

    fn token(tx: u32, attempts: u32) -> TimerToken {
        TimerToken(((tx as u64) << 32) | attempts as u64)
    }

    /// Issues a call: the request goes to `service_mailbox` on `dst`,
    /// and the response will be delivered to local `reply_mailbox`.
    /// Returns the transaction id.
    ///
    /// Appends [`Action::Error`] instead of sending if the request
    /// exceeds one packet (RPC arguments ride in a single packet; bulk
    /// data belongs on the byte-stream protocol). A [`Bytes`] request
    /// is sent without a copy, a `&[u8]` is copied once.
    pub fn call(
        &mut self,
        _now: Time,
        dst: CabId,
        reply_mailbox: u16,
        service_mailbox: u16,
        request: impl Into<Bytes>,
        out: &mut Vec<Action>,
    ) -> u32 {
        let request = request.into();
        let tx = self.next_tx;
        self.next_tx += 1;
        if request.len() > MAX_FRAGMENT_PAYLOAD {
            out.push(Action::Error(TransportError::TooLarge {
                size: request.len(),
                limit: MAX_FRAGMENT_PAYLOAD,
            }));
            return tx;
        }
        let header = Header {
            src_mailbox: reply_mailbox,
            dst_mailbox: service_mailbox,
            msg_id: tx,
            payload_len: request.len() as u16,
            ..Header::new(PacketKind::Request, self.local, dst)
        };
        self.calls += 1;
        out.push(Action::Send { header, payload: request.clone(), retransmit: false });
        out.push(Action::SetTimer { token: Self::token(tx, 1), delay: self.cfg.rto });
        self.outstanding.insert(tx, PendingCall { header, payload: request, attempts: 1 });
        tx
    }

    /// Handles an arriving response packet; the delivered response is
    /// the packet's payload, shared.
    pub fn on_packet(
        &mut self,
        _now: Time,
        header: &Header,
        payload: &Bytes,
        out: &mut Vec<Action>,
    ) {
        debug_assert_eq!(header.kind, PacketKind::Response);
        let tx = header.msg_id;
        let Some(pending) = self.outstanding.remove(&tx) else {
            return; // duplicate response after completion: drop
        };
        self.responses += 1;
        out.push(Action::CancelTimer { token: Self::token(tx, pending.attempts) });
        out.push(Action::Deliver {
            mailbox: pending.header.src_mailbox,
            msg: Message::new(tx as u64, tx, payload.clone()),
        });
        out.push(Action::Complete { msg_id: tx });
    }

    /// Handles a retransmission-timer expiry.
    pub fn on_timer(&mut self, _now: Time, token: TimerToken, out: &mut Vec<Action>) {
        let tx = (token.0 >> 32) as u32;
        let attempt = (token.0 & 0xFFFF_FFFF) as u32;
        let Some(pending) = self.outstanding.get_mut(&tx) else {
            return; // answered already
        };
        if pending.attempts != attempt {
            return; // stale timer from a superseded attempt
        }
        if pending.attempts >= self.cfg.max_attempts {
            self.outstanding.remove(&tx);
            self.timeouts += 1;
            out.push(Action::Error(TransportError::Timeout { msg_id: tx }));
            return;
        }
        pending.attempts += 1;
        self.retransmissions += 1;
        out.push(Action::Send {
            header: pending.header,
            payload: pending.payload.clone(),
            retransmit: true,
        });
        out.push(Action::SetTimer {
            token: Self::token(tx, pending.attempts),
            delay: self.cfg.rto,
        });
    }

    /// Calls still awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// `(calls, responses, timeouts, retransmissions)` counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.calls, self.responses, self.timeouts, self.retransmissions)
    }
}

type TxKey = (u16, u32); // (client CAB raw id, transaction)

/// The server half: delivers requests to the service mailbox and sends
/// (or replays) responses.
#[derive(Clone, Debug)]
pub struct ReqRespServer {
    cfg: ReqRespConfig,
    local: CabId,
    /// Requests delivered to the application, awaiting `respond`.
    pending: HashMap<TxKey, Header>,
    /// Completed transactions and their cached responses.
    cache: HashMap<TxKey, (Header, Bytes)>,
    cache_order: VecDeque<TxKey>,
    requests: u64,
    duplicate_requests: u64,
    replays: u64,
}

impl ReqRespServer {
    /// A server endpoint on `local`.
    pub fn new(local: CabId, cfg: ReqRespConfig) -> ReqRespServer {
        ReqRespServer {
            cfg,
            local,
            pending: HashMap::new(),
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            requests: 0,
            duplicate_requests: 0,
            replays: 0,
        }
    }

    /// Handles an arriving request packet. New transactions are
    /// delivered to the service mailbox (message id = transaction, tag
    /// = client CAB id so the application can address its `respond`);
    /// retransmitted ones replay the cached response or are dropped if
    /// the call is still executing. The delivered request is the
    /// packet's payload, shared.
    pub fn on_packet(
        &mut self,
        _now: Time,
        header: &Header,
        payload: &Bytes,
        out: &mut Vec<Action>,
    ) {
        debug_assert_eq!(header.kind, PacketKind::Request);
        let key = (header.src_cab.raw(), header.msg_id);
        if let Some((resp_header, resp_payload)) = self.cache.get(&key) {
            // Lost response: replay without re-executing (at-most-once).
            self.duplicate_requests += 1;
            self.replays += 1;
            out.push(Action::Send {
                header: *resp_header,
                payload: resp_payload.clone(),
                retransmit: true,
            });
            return;
        }
        if self.pending.contains_key(&key) {
            self.duplicate_requests += 1;
            return; // still executing: the response will answer both
        }
        self.requests += 1;
        self.pending.insert(key, *header);
        out.push(Action::Deliver {
            mailbox: header.dst_mailbox,
            msg: Message::new(header.msg_id as u64, header.src_cab.raw() as u32, payload.clone()),
        });
    }

    /// Sends the application's response for transaction `tx` from
    /// client `client`. Returns `false` (and sends nothing) if no such
    /// request is pending. A [`Bytes`] response is sent and cached
    /// without a copy, a `&[u8]` is copied once.
    pub fn respond(
        &mut self,
        _now: Time,
        client: CabId,
        tx: u32,
        response: impl Into<Bytes>,
        out: &mut Vec<Action>,
    ) -> bool {
        let key = (client.raw(), tx);
        let Some(req) = self.pending.remove(&key) else {
            return false;
        };
        let payload: Bytes = response.into();
        let header = Header {
            src_mailbox: req.dst_mailbox,
            dst_mailbox: req.src_mailbox,
            msg_id: tx,
            payload_len: payload.len() as u16,
            ..Header::new(PacketKind::Response, self.local, CabId::new(client.raw()))
        };
        self.cache.insert(key, (header, payload.clone()));
        self.cache_order.push_back(key);
        while self.cache_order.len() > self.cfg.response_cache {
            let old = self.cache_order.pop_front().expect("non-empty");
            self.cache.remove(&old);
        }
        out.push(Action::Send { header, payload, retransmit: false });
        true
    }

    /// `(requests, duplicate_requests, replays)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.requests, self.duplicate_requests, self.replays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{deliveries, sends};

    fn pair() -> (ReqRespClient, ReqRespServer) {
        (
            ReqRespClient::new(CabId::new(0), ReqRespConfig::default()),
            ReqRespServer::new(CabId::new(1), ReqRespConfig::default()),
        )
    }

    /// Ships the first Send in `actions` into `handler`, returning its
    /// output actions.
    fn ship(
        actions: &[Action],
        mut handler: impl FnMut(&Header, &Bytes, &mut Vec<Action>),
    ) -> Vec<Action> {
        let mut out = Vec::new();
        for (h, p) in sends(actions) {
            handler(h, p, &mut out);
        }
        out
    }

    #[test]
    fn call_response_roundtrip() {
        let (mut client, mut server) = pair();
        let mut out = Vec::new();
        let tx = client.call(Time::ZERO, CabId::new(1), 5, 80, b"what time is it", &mut out);

        // Server receives the request and delivers it to mailbox 80.
        let srv_out = ship(&out, |h, p, o| server.on_packet(Time::ZERO, h, p, o));
        let req = deliveries(&srv_out);
        assert_eq!(req.len(), 1);
        assert_eq!(req[0].0, 80);
        assert_eq!(req[0].1.data(), b"what time is it");
        let client_cab = CabId::new(req[0].1.tag() as u16);

        // Application responds.
        let mut resp_out = Vec::new();
        assert!(server.respond(Time::ZERO, client_cab, tx, b"tea time", &mut resp_out));

        // Client matches the response to the call.
        let cli_out = ship(&resp_out, |h, p, o| client.on_packet(Time::ZERO, h, p, o));
        let d = deliveries(&cli_out);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 5, "response lands in the reply mailbox");
        assert_eq!(d[0].1.data(), b"tea time");
        assert!(cli_out.iter().any(|a| matches!(a, Action::Complete { msg_id } if *msg_id == tx)));
        assert_eq!(client.outstanding(), 0);
    }

    #[test]
    fn lost_request_is_retransmitted() {
        let (mut client, _server) = pair();
        let mut out = Vec::new();
        client.call(Time::ZERO, CabId::new(1), 5, 80, b"req", &mut out);
        let token = out
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        // The request is lost; the timer fires.
        let mut out2 = Vec::new();
        client.on_timer(Time::from_millis(1), token, &mut out2);
        assert_eq!(sends(&out2).len(), 1, "request retransmitted");
        assert_eq!(client.stats().3, 1);
    }

    #[test]
    fn exhausted_retries_time_out() {
        let cfg = ReqRespConfig { max_attempts: 3, ..ReqRespConfig::default() };
        let mut client = ReqRespClient::new(CabId::new(0), cfg);
        let mut out = Vec::new();
        let tx = client.call(Time::ZERO, CabId::new(1), 5, 80, b"req", &mut out);
        for attempt in 1..=3u32 {
            let mut o = Vec::new();
            client.on_timer(
                Time::from_millis(attempt as u64),
                TimerToken(((tx as u64) << 32) | attempt as u64),
                &mut o,
            );
            if attempt == 3 {
                assert!(
                    o.iter().any(|a| matches!(a, Action::Error(TransportError::Timeout { msg_id }) if *msg_id == tx)),
                    "final attempt reports the timeout: {o:?}"
                );
            } else {
                assert_eq!(sends(&o).len(), 1);
            }
        }
        assert_eq!(client.outstanding(), 0);
        assert_eq!(client.stats().2, 1);
    }

    #[test]
    fn duplicate_request_replays_cached_response() {
        let (mut client, mut server) = pair();
        let mut out = Vec::new();
        let tx = client.call(Time::ZERO, CabId::new(1), 5, 80, b"inc counter", &mut out);
        let (req_h, req_p) = {
            let s = sends(&out);
            (*s[0].0, s[0].1.clone())
        };
        let mut o = Vec::new();
        server.on_packet(Time::ZERO, &req_h, &req_p, &mut o);
        let mut resp = Vec::new();
        server.respond(Time::ZERO, CabId::new(0), tx, b"done", &mut resp);

        // The response is lost; the client retransmits the request.
        let mut dup_out = Vec::new();
        server.on_packet(Time::from_millis(1), &req_h, &req_p, &mut dup_out);
        // The server replays the response without a second Deliver.
        assert_eq!(sends(&dup_out).len(), 1);
        assert!(deliveries(&dup_out).is_empty(), "at-most-once: the call is not re-executed");
        assert_eq!(server.stats(), (1, 1, 1));
    }

    #[test]
    fn duplicate_while_executing_is_dropped() {
        let (mut client, mut server) = pair();
        let mut out = Vec::new();
        client.call(Time::ZERO, CabId::new(1), 5, 80, b"slow call", &mut out);
        let (h, p) = {
            let s = sends(&out);
            (*s[0].0, s[0].1.clone())
        };
        let mut o1 = Vec::new();
        server.on_packet(Time::ZERO, &h, &p, &mut o1);
        let mut o2 = Vec::new();
        server.on_packet(Time::from_micros(10), &h, &p, &mut o2);
        assert!(o2.is_empty(), "no replay exists yet and no double delivery happens");
        assert_eq!(server.stats().1, 1);
    }

    #[test]
    fn stale_response_after_completion_is_ignored() {
        let (mut client, mut server) = pair();
        let mut out = Vec::new();
        let tx = client.call(Time::ZERO, CabId::new(1), 5, 80, b"q", &mut out);
        let (h, p) = {
            let s = sends(&out);
            (*s[0].0, s[0].1.clone())
        };
        let mut o = Vec::new();
        server.on_packet(Time::ZERO, &h, &p, &mut o);
        let mut resp = Vec::new();
        server.respond(Time::ZERO, CabId::new(0), tx, b"a", &mut resp);
        let (rh, rp) = {
            let s = sends(&resp);
            (*s[0].0, s[0].1.clone())
        };
        let mut first = Vec::new();
        client.on_packet(Time::ZERO, &rh, &rp, &mut first);
        assert_eq!(deliveries(&first).len(), 1);
        // A duplicated response arrives again.
        let mut second = Vec::new();
        client.on_packet(Time::ZERO, &rh, &rp, &mut second);
        assert!(second.is_empty());
    }

    #[test]
    fn response_cache_is_bounded() {
        let cfg = ReqRespConfig { response_cache: 2, ..ReqRespConfig::default() };
        let mut server = ReqRespServer::new(CabId::new(1), cfg);
        let mut client = ReqRespClient::new(CabId::new(0), cfg);
        for i in 0..3u32 {
            let mut out = Vec::new();
            let tx = client.call(Time::ZERO, CabId::new(1), 5, 80, [i as u8], &mut out);
            let s = sends(&out);
            let mut o = Vec::new();
            server.on_packet(Time::ZERO, s[0].0, s[0].1, &mut o);
            let mut r = Vec::new();
            server.respond(Time::ZERO, CabId::new(0), tx, [i as u8], &mut r);
        }
        assert_eq!(server.cache.len(), 2, "oldest cached response evicted");
    }

    #[test]
    fn oversize_request_is_an_error() {
        let (mut client, _) = pair();
        let mut out = Vec::new();
        client.call(Time::ZERO, CabId::new(1), 5, 80, vec![0u8; 4096], &mut out);
        assert!(matches!(out[0], Action::Error(TransportError::TooLarge { .. })));
    }

    #[test]
    fn respond_without_pending_request_is_refused() {
        let (_, mut server) = pair();
        let mut out = Vec::new();
        assert!(!server.respond(Time::ZERO, CabId::new(0), 99, b"?", &mut out));
        assert!(out.is_empty());
    }
}
