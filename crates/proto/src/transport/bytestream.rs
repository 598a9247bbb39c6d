//! The byte-stream protocol: reliable, ordered message transfer.
//!
//! "The byte-stream protocol provides reliable communication using
//! acknowledgments, retransmissions, and a sliding window for flow
//! control" (§6.2.2). The implementation is go-back-N: the sender keeps
//! up to `window` packets in flight; the receiver accepts only the
//! expected sequence number, acknowledges cumulatively, and drops
//! everything else; a retransmission timer resends the whole window.

use crate::header::{Header, PacketKind, MAX_FRAGMENT_PAYLOAD};
use crate::transport::frag::{fragment, Reassembler, ReassemblyOutcome};
use crate::transport::{Action, TimerToken};
use nectar_cab::board::CabId;
use nectar_kernel::mailbox::Message;
use nectar_sim::time::{Dur, Time};
use std::collections::VecDeque;
use std::sync::Arc;

/// RFC 1982-style serial comparison: `a < b` in sequence space. Holds
/// across u32 wraparound as long as the two numbers are within half the
/// space of each other (the window is tiny by comparison).
#[inline]
fn seq_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < (1 << 31)
}

/// Serial `a <= b`; see [`seq_lt`].
#[inline]
fn seq_leq(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < (1 << 31)
}

/// Byte-stream tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteStreamConfig {
    /// Maximum packets in flight (sender window).
    pub window: u16,
    /// Retransmission timeout.
    pub rto: Dur,
    /// Maximum payload per fragment.
    pub max_payload: usize,
}

impl Default for ByteStreamConfig {
    fn default() -> ByteStreamConfig {
        ByteStreamConfig {
            window: 8,
            // Must exceed the worst-case transmit queueing a healthy
            // link can impose: several streams multiplexing one fiber
            // hold a few windows of 1 KB packets (~82 us each) ahead of
            // a fresh packet. Spurious timeouts amplify themselves
            // (go-back-N resends whole windows), so the base RTO sits
            // well clear; exponential backoff covers the rest.
            rto: Dur::from_millis(5),
            max_payload: MAX_FRAGMENT_PAYLOAD,
        }
    }
}

#[derive(Clone, Debug)]
struct Outgoing {
    header: Header,
    payload: Arc<[u8]>,
}

/// Sender/receiver counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteStreamStats {
    /// Data packets sent (first transmissions).
    pub data_sent: u64,
    /// Data packets retransmitted.
    pub retransmissions: u64,
    /// Acks sent.
    pub acks_sent: u64,
    /// Messages fully acknowledged (sender side).
    pub completed: u64,
    /// Messages delivered (receiver side).
    pub delivered: u64,
    /// Duplicate data packets discarded.
    pub duplicates: u64,
    /// Out-of-order packets dropped (go-back-N).
    pub dropped_out_of_order: u64,
    /// Retransmission-timer expiries that resent the window.
    pub timeouts: u64,
    /// In-order data packets accepted (receiver side). At quiescence
    /// this equals the peer's `data_sent`.
    pub accepted: u64,
    /// In-order packets whose fragment fields contradicted the
    /// in-progress reassembly (corruption that survived the checksum);
    /// the fragment is dropped and counted, never fatal.
    pub reassembly_mismatches: u64,
    /// Acks that closed the peer window to zero (sender side).
    pub zero_window_stalls: u64,
    /// Persist-timer probes sent while stalled on a zero window.
    pub window_probes: u64,
}

/// One full-duplex byte-stream connection between `local` and `peer`.
///
/// # Examples
///
/// ```
/// use nectar_proto::transport::bytestream::{ByteStream, ByteStreamConfig};
/// use nectar_proto::transport::sends;
/// use nectar_cab::board::CabId;
/// use nectar_sim::time::Time;
///
/// let mut tx = ByteStream::new(CabId::new(0), CabId::new(1), ByteStreamConfig::default());
/// let mut out = Vec::new();
/// tx.send_message(Time::ZERO, 1, 2, b"hello", &mut out);
/// assert_eq!(sends(&out).len(), 1); // one fragment in flight
/// ```
#[derive(Clone, Debug)]
pub struct ByteStream {
    cfg: ByteStreamConfig,
    local: CabId,
    peer: CabId,
    // Sender state.
    next_seq: u32,
    base: u32,
    inflight: VecDeque<Outgoing>,
    backlog: VecDeque<Outgoing>,
    msg_last_seq: VecDeque<(u32, u32)>,
    next_msg_id: u32,
    peer_window: u16,
    timer_gen: u64,
    timer_active: bool,
    /// Consecutive timeouts without progress (exponential backoff).
    backoff: u32,
    // Receiver state.
    expected: u32,
    reasm: Reassembler,
    /// The empty payload every acknowledgement shares.
    ack_payload: Arc<[u8]>,
    stats: ByteStreamStats,
}

impl ByteStream {
    /// A connection endpoint on `local` talking to `peer`.
    pub fn new(local: CabId, peer: CabId, cfg: ByteStreamConfig) -> ByteStream {
        ByteStream {
            peer_window: cfg.window,
            cfg,
            local,
            peer,
            next_seq: 0,
            base: 0,
            inflight: VecDeque::new(),
            backlog: VecDeque::new(),
            msg_last_seq: VecDeque::new(),
            next_msg_id: 0,
            timer_gen: 0,
            timer_active: false,
            backoff: 0,
            expected: 0,
            reasm: Reassembler::new(),
            ack_payload: Arc::from([]),
            stats: ByteStreamStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> ByteStreamStats {
        self.stats
    }

    /// `true` when nothing is queued or unacknowledged.
    pub fn is_quiescent(&self) -> bool {
        self.inflight.is_empty() && self.backlog.is_empty()
    }

    /// Queues `data` for reliable delivery to `dst_mailbox` on the
    /// peer, fragmenting as needed, and transmits as far as the window
    /// allows. Returns the message id; an [`Action::Complete`] with it
    /// follows once every fragment is acknowledged.
    pub fn send_message(
        &mut self,
        now: Time,
        src_mailbox: u16,
        dst_mailbox: u16,
        data: &[u8],
        out: &mut Vec<Action>,
    ) -> u32 {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let frags = fragment(data, self.cfg.max_payload);
        let count = frags.len() as u16;
        for (i, payload) in frags.into_iter().enumerate() {
            let header = Header {
                src_mailbox,
                dst_mailbox,
                msg_id,
                frag_index: i as u16,
                frag_count: count,
                seq: self.next_seq,
                window: self.cfg.window,
                payload_len: payload.len() as u16,
                ..Header::new(PacketKind::Data, self.local, self.peer)
            };
            self.next_seq = self.next_seq.wrapping_add(1);
            self.backlog.push_back(Outgoing { header, payload });
        }
        self.msg_last_seq.push_back((msg_id, self.next_seq.wrapping_sub(1)));
        self.pump(now, out);
        msg_id
    }

    fn effective_window(&self) -> usize {
        // A zero advertisement really means zero: the sender stalls and
        // the persist timer (not new data) probes for a reopen.
        if self.peer_window == 0 {
            0
        } else {
            self.cfg.window.min(self.peer_window) as usize
        }
    }

    /// `true` when the peer closed its window while data is waiting:
    /// nothing in flight to trigger an ack, so only a persist-timer
    /// probe can discover the reopen.
    fn stalled_on_zero_window(&self) -> bool {
        self.inflight.is_empty() && !self.backlog.is_empty() && self.effective_window() == 0
    }

    fn pump(&mut self, _now: Time, out: &mut Vec<Action>) {
        let was_idle = self.inflight.is_empty();
        while self.inflight.len() < self.effective_window() {
            let Some(pkt) = self.backlog.pop_front() else { break };
            out.push(Action::Send {
                header: pkt.header,
                payload: pkt.payload.clone(),
                retransmit: false,
            });
            self.stats.data_sent += 1;
            self.inflight.push_back(pkt);
        }
        if was_idle && !self.inflight.is_empty() {
            self.arm_timer(out);
        } else if !self.timer_active && self.stalled_on_zero_window() {
            // Queued into a closed window with nothing in flight: the
            // persist timer is the only way forward.
            self.arm_timer(out);
        }
    }

    fn arm_timer(&mut self, out: &mut Vec<Action>) {
        self.timer_gen += 1;
        self.timer_active = true;
        // Exponential backoff: consecutive timeouts without progress
        // stretch the timer so a congested (but healthy) path does not
        // amplify its own queueing into a retransmission storm.
        let base = self.cfg.rto * (1u64 << self.backoff.min(6));
        // Jitter (up to ~25% of the base, deterministic) keeps the
        // retransmission clock from phase-locking with any periodic
        // outage on the path: once the backoff caps, an unjittered
        // timer whose fixed period is a multiple of the outage period
        // retries at the same dead phase forever, turning a recoverable
        // link flap into a permanent stall. Hashing the timer
        // generation and endpoint ids keeps runs reproducible.
        let h = self
            .timer_gen
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((self.local.raw() as u64) << 32) ^ self.peer.raw() as u64);
        let jitter = Dur::from_nanos(base.nanos() / 1024 * (h >> 56));
        out.push(Action::SetTimer { token: TimerToken(self.timer_gen), delay: base + jitter });
    }

    fn stop_timer(&mut self, out: &mut Vec<Action>) {
        if self.timer_active {
            out.push(Action::CancelTimer { token: TimerToken(self.timer_gen) });
            self.timer_active = false;
        }
    }

    /// Handles an arriving byte-stream packet (data or ack).
    pub fn on_packet(&mut self, now: Time, header: &Header, payload: &[u8], out: &mut Vec<Action>) {
        match header.kind {
            PacketKind::Data => self.on_data(header, payload, out),
            PacketKind::Ack => self.on_ack(now, header, out),
            other => debug_assert!(false, "byte-stream got {other}"),
        }
    }

    fn send_ack(&mut self, out: &mut Vec<Action>) {
        let header = Header {
            ack: self.expected,
            window: self.cfg.window,
            ..Header::new(PacketKind::Ack, self.local, self.peer)
        };
        self.stats.acks_sent += 1;
        out.push(Action::Send { header, payload: self.ack_payload.clone(), retransmit: false });
    }

    fn on_data(&mut self, header: &Header, payload: &[u8], out: &mut Vec<Action>) {
        if header.seq == self.expected {
            self.expected = self.expected.wrapping_add(1);
            self.stats.accepted += 1;
            match self.reasm.push(header.msg_id, header.frag_index, header.frag_count, payload) {
                ReassemblyOutcome::Complete(buf) => {
                    self.stats.delivered += 1;
                    out.push(Action::Deliver {
                        mailbox: header.dst_mailbox,
                        msg: Message::new(header.msg_id as u64, header.src_mailbox as u32, buf),
                    });
                }
                ReassemblyOutcome::Incomplete => {}
                ReassemblyOutcome::Mismatch => {
                    // Fragment fields contradict the in-progress
                    // reassembly: corruption that survived the checksum
                    // (chaos can flip header bits) or a sender bug. The
                    // fragment is dropped and counted; the world
                    // surfaces the counter to the pathology detectors.
                    self.stats.reassembly_mismatches += 1;
                }
            }
        } else if seq_lt(header.seq, self.expected) {
            self.stats.duplicates += 1;
        } else {
            self.stats.dropped_out_of_order += 1;
        }
        // Cumulative ack in every case tells the sender where we are.
        self.send_ack(out);
    }

    fn on_ack(&mut self, now: Time, header: &Header, out: &mut Vec<Action>) {
        // The advertisement is honored even at zero (the stall case) —
        // a receiver must be able to close the window.
        let was_closed = self.peer_window == 0;
        if header.window == 0 && !was_closed {
            self.stats.zero_window_stalls += 1;
        }
        self.peer_window = header.window;
        if seq_leq(header.ack, self.base) {
            // No new data acknowledged. A reopening advertisement on a
            // duplicate ack still matters: the stalled backlog must
            // flow again. Anything else is covered by the timer.
            if !(was_closed && header.window > 0) {
                return;
            }
        } else {
            while self.inflight.front().is_some_and(|pkt| seq_lt(pkt.header.seq, header.ack)) {
                self.inflight.pop_front();
            }
            self.base = header.ack;
            self.backoff = 0; // progress: reset the retransmission backoff
                              // Completion callbacks for fully acknowledged messages.
            while self.msg_last_seq.front().is_some_and(|&(_, last)| seq_lt(last, self.base)) {
                let (msg_id, _) = self.msg_last_seq.pop_front().expect("front exists");
                self.stats.completed += 1;
                out.push(Action::Complete { msg_id });
            }
        }
        self.pump(now, out);
        if self.inflight.is_empty() {
            if self.stalled_on_zero_window() {
                // Nothing in flight to draw an ack: keep the persist
                // timer running so the reopen cannot be lost.
                self.arm_timer(out);
            } else {
                self.stop_timer(out);
            }
        } else {
            self.arm_timer(out);
        }
    }

    /// Handles a retransmission-timer expiry. Stale tokens (from timers
    /// superseded by an ack) are ignored.
    pub fn on_timer(&mut self, _now: Time, token: TimerToken, out: &mut Vec<Action>) {
        if !self.timer_active || token.0 != self.timer_gen {
            return;
        }
        if self.inflight.is_empty() {
            if self.stalled_on_zero_window() {
                // Persist probe (the TCP zero-window probe, §6.2.2's
                // flow control turned all the way down): send one
                // packet from the backlog to solicit a fresh
                // advertisement. Without this the stall deadlocks when
                // the reopening ack is lost.
                let pkt = self.backlog.pop_front().expect("stalled implies backlog");
                out.push(Action::Send {
                    header: pkt.header,
                    payload: pkt.payload.clone(),
                    retransmit: false,
                });
                self.stats.data_sent += 1;
                self.stats.window_probes += 1;
                self.inflight.push_back(pkt);
                self.backoff += 1; // probes back off like retransmits
                self.arm_timer(out);
            } else {
                self.timer_active = false;
            }
            return;
        }
        // Go-back-N: resend the whole window.
        self.stats.timeouts += 1;
        for pkt in &self.inflight {
            out.push(Action::Send {
                header: pkt.header,
                payload: pkt.payload.clone(),
                retransmit: true,
            });
            self.stats.retransmissions += 1;
        }
        self.backoff += 1;
        self.arm_timer(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{deliveries, sends};

    /// Positions the sequence space of an idle stream at `seq` on both
    /// the sender (`next_seq`, `base`) and receiver (`expected`) sides,
    /// to exercise u32 wraparound without sending 2^32 packets. Both
    /// endpoints of a connection must be preseeded identically.
    fn preseed_seq(s: &mut ByteStream, seq: u32) {
        assert!(s.is_quiescent(), "preseed_seq requires an idle stream");
        s.next_seq = seq;
        s.base = seq;
        s.expected = seq;
    }

    /// A deterministic lossy channel harness between two endpoints.
    /// `drop_sends` lists global send indices (0-based, across both
    /// directions) that the "network" silently discards.
    struct Harness {
        a: ByteStream,
        b: ByteStream,
        drop_sends: Vec<usize>,
        send_count: usize,
        timers: Vec<(Time, usize, TimerToken)>, // (expiry, endpoint, token)
        now: Time,
        pub delivered: Vec<(u16, Message)>,
        pub completed: Vec<u32>,
    }

    impl Harness {
        fn new(cfg: ByteStreamConfig, drop_sends: Vec<usize>) -> Harness {
            Harness {
                a: ByteStream::new(CabId::new(0), CabId::new(1), cfg),
                b: ByteStream::new(CabId::new(1), CabId::new(0), cfg),
                drop_sends,
                send_count: 0,
                timers: Vec::new(),
                now: Time::ZERO,
                delivered: Vec::new(),
                completed: Vec::new(),
            }
        }

        fn process(&mut self, endpoint: usize, actions: Vec<Action>) {
            // One-hop "network" with 10 us latency per packet.
            let mut queue: Vec<(usize, Vec<Action>)> = vec![(endpoint, actions)];
            while let Some((from, actions)) = queue.pop() {
                for action in actions {
                    match action {
                        Action::Send { header, payload, .. } => {
                            let idx = self.send_count;
                            self.send_count += 1;
                            if self.drop_sends.contains(&idx) {
                                continue;
                            }
                            self.now += Dur::from_micros(10);
                            let to = 1 - from;
                            let mut out = Vec::new();
                            let target = if to == 0 { &mut self.a } else { &mut self.b };
                            target.on_packet(self.now, &header, &payload, &mut out);
                            queue.push((to, out));
                        }
                        Action::Deliver { mailbox, msg } => self.delivered.push((mailbox, msg)),
                        Action::SetTimer { token, delay } => {
                            self.timers.push((self.now + delay, from, token));
                        }
                        Action::CancelTimer { token } => {
                            self.timers.retain(|&(_, ep, t)| !(ep == from && t == token));
                        }
                        Action::Complete { msg_id } => self.completed.push(msg_id),
                        Action::Error(e) => panic!("unexpected transport error: {e}"),
                    }
                }
            }
        }

        fn send(&mut self, data: &[u8]) -> u32 {
            let mut out = Vec::new();
            let id = self.a.send_message(self.now, 1, 2, data, &mut out);
            self.process(0, out);
            id
        }

        /// Fires timers until both endpoints quiesce.
        fn run_to_quiescence(&mut self) {
            let mut guard = 0;
            while !(self.a.is_quiescent() && self.b.is_quiescent()) {
                guard += 1;
                assert!(guard < 1000, "protocol did not converge");
                self.timers.sort_by_key(|&(t, _, _)| t);
                let Some((at, ep, token)) = self.timers.first().copied() else {
                    panic!(
                        "stuck with no timers: a={:?} b={:?}",
                        self.a.inflight.len(),
                        self.b.inflight.len()
                    );
                };
                self.timers.remove(0);
                self.now = self.now.max(at);
                let mut out = Vec::new();
                if ep == 0 {
                    self.a.on_timer(self.now, token, &mut out);
                } else {
                    self.b.on_timer(self.now, token, &mut out);
                }
                self.process(ep, out);
            }
        }
    }

    #[test]
    fn small_message_delivered_and_completed() {
        let mut h = Harness::new(ByteStreamConfig::default(), vec![]);
        let id = h.send(b"hello nectar");
        h.run_to_quiescence();
        assert_eq!(h.delivered.len(), 1);
        assert_eq!(h.delivered[0].0, 2);
        assert_eq!(h.delivered[0].1.data(), b"hello nectar");
        assert_eq!(h.completed, vec![id]);
        assert_eq!(h.a.stats().retransmissions, 0);
    }

    #[test]
    fn large_message_fragments_and_reassembles_intact() {
        let mut h = Harness::new(ByteStreamConfig::default(), vec![]);
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        h.send(&data);
        h.run_to_quiescence();
        assert_eq!(h.delivered.len(), 1);
        assert_eq!(h.delivered[0].1.data(), &data[..]);
        // 5000 / 990 -> 6 fragments.
        assert_eq!(h.a.stats().data_sent, 6);
        assert_eq!(h.b.stats().delivered, 1);
    }

    #[test]
    fn lost_data_packet_is_retransmitted() {
        // Drop the very first send (data fragment 0).
        let mut h = Harness::new(ByteStreamConfig::default(), vec![0]);
        let data = vec![9u8; 3000];
        h.send(&data);
        h.run_to_quiescence();
        assert_eq!(h.delivered.len(), 1);
        assert_eq!(h.delivered[0].1.data(), &data[..]);
        assert!(h.a.stats().retransmissions > 0);
        // Go-back-N: the receiver dropped the out-of-order successors.
        assert!(h.b.stats().dropped_out_of_order > 0);
    }

    #[test]
    fn lost_ack_causes_duplicate_not_double_delivery() {
        // The first ack (send index 1: data=0, ack=1) is dropped.
        let mut h = Harness::new(ByteStreamConfig::default(), vec![1]);
        h.send(b"once only");
        h.run_to_quiescence();
        assert_eq!(h.delivered.len(), 1, "exactly-once delivery to the mailbox");
        assert!(h.b.stats().duplicates > 0, "the retransmission was recognized as a duplicate");
        assert_eq!(h.completed.len(), 1);
    }

    #[test]
    fn window_limits_packets_in_flight() {
        let cfg = ByteStreamConfig { window: 2, ..ByteStreamConfig::default() };
        let mut tx = ByteStream::new(CabId::new(0), CabId::new(1), cfg);
        let mut out = Vec::new();
        tx.send_message(Time::ZERO, 0, 0, &vec![0u8; 5000], &mut out);
        let sent = sends(&out).len();
        assert_eq!(sent, 2, "window of 2 caps the initial burst");
        assert_eq!(tx.inflight.len(), 2);
    }

    #[test]
    fn back_to_back_messages_all_complete_in_order() {
        let mut h = Harness::new(ByteStreamConfig::default(), vec![]);
        let ids: Vec<u32> = (0..5).map(|i| h.send(&vec![i as u8; 1500])).collect();
        h.run_to_quiescence();
        assert_eq!(h.completed, ids);
        assert_eq!(h.delivered.len(), 5);
        for (i, (_, msg)) in h.delivered.iter().enumerate() {
            assert_eq!(msg.data(), &vec![i as u8; 1500][..], "messages arrive in order");
        }
    }

    #[test]
    fn heavy_loss_still_converges() {
        // Drop a third of the first 30 transmissions.
        let drops: Vec<usize> = (0..30).filter(|i| i % 3 == 0).collect();
        let mut h = Harness::new(ByteStreamConfig::default(), drops);
        let data: Vec<u8> = (0..8000u32).map(|i| (i % 251) as u8).collect();
        h.send(&data);
        h.run_to_quiescence();
        assert_eq!(h.delivered.len(), 1);
        assert_eq!(h.delivered[0].1.data(), &data[..]);
    }

    #[test]
    fn stale_timer_tokens_are_ignored() {
        let mut tx = ByteStream::new(CabId::new(0), CabId::new(1), ByteStreamConfig::default());
        let mut out = Vec::new();
        tx.send_message(Time::ZERO, 0, 0, b"x", &mut out);
        let token = out
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("timer armed");
        // An ack arrives, superseding the timer...
        let ack = Header {
            ack: 1,
            window: 8,
            ..Header::new(PacketKind::Ack, CabId::new(1), CabId::new(0))
        };
        let mut out2 = Vec::new();
        tx.on_packet(Time::ZERO, &ack, &[], &mut out2);
        // ...so the old token must do nothing.
        let mut out3 = Vec::new();
        tx.on_timer(Time::from_millis(1), token, &mut out3);
        assert!(out3.is_empty(), "stale timer retransmitted: {out3:?}");
        assert_eq!(tx.stats().retransmissions, 0);
    }

    #[test]
    fn serial_arithmetic_orders_across_wrap() {
        assert!(seq_lt(u32::MAX, 0), "MAX precedes 0 in sequence space");
        assert!(seq_lt(u32::MAX - 3, u32::MAX));
        assert!(seq_lt(0, 1));
        assert!(!seq_lt(0, u32::MAX), "0 does not precede MAX");
        assert!(!seq_lt(5, 5));
        assert!(seq_leq(5, 5));
        assert!(seq_leq(u32::MAX, 1));
    }

    #[test]
    fn stream_survives_sequence_wraparound() {
        // Seed both endpoints three packets shy of u32::MAX: the third
        // message's fragments straddle the wrap. Before the serial-
        // arithmetic fix this panicked in debug (`next_seq += 1`
        // overflow) and misclassified post-wrap packets as duplicates.
        let mut h = Harness::new(ByteStreamConfig::default(), vec![]);
        preseed_seq(&mut h.a, u32::MAX - 3);
        preseed_seq(&mut h.b, u32::MAX - 3);
        let msgs: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 2500]).collect();
        let ids: Vec<u32> = msgs.iter().map(|m| h.send(m)).collect();
        h.run_to_quiescence();
        assert_eq!(h.completed, ids, "every message completes across the wrap");
        assert_eq!(h.delivered.len(), 4);
        for (i, (_, msg)) in h.delivered.iter().enumerate() {
            assert_eq!(msg.data(), &msgs[i][..], "message {i} intact");
        }
        assert_eq!(h.b.stats().duplicates, 0, "no post-wrap packet misread as duplicate");
    }

    #[test]
    fn wraparound_with_loss_still_delivers_exactly_once() {
        // Drop the first data packet (the last pre-wrap sequence
        // number) and an ack: recovery must work across the boundary.
        let mut h = Harness::new(ByteStreamConfig::default(), vec![0, 4]);
        preseed_seq(&mut h.a, u32::MAX);
        preseed_seq(&mut h.b, u32::MAX);
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let id = h.send(&data);
        h.run_to_quiescence();
        assert_eq!(h.completed, vec![id]);
        assert_eq!(h.delivered.len(), 1, "exactly once");
        assert_eq!(h.delivered[0].1.data(), &data[..]);
        assert!(h.a.stats().retransmissions > 0, "the loss was actually recovered");
    }

    #[test]
    fn zero_window_stalls_then_probe_reopens() {
        // Window 4, six fragments: four fly, two stall in the backlog.
        let cfg = ByteStreamConfig { window: 4, ..ByteStreamConfig::default() };
        let mut tx = ByteStream::new(CabId::new(0), CabId::new(1), cfg);
        let mut out = Vec::new();
        tx.send_message(Time::ZERO, 1, 2, &vec![7u8; 5000], &mut out);
        assert_eq!(sends(&out).len(), 4);
        // The receiver acks everything in flight and slams the window
        // shut. Before the fix the zero advertisement was ignored and
        // the backlog poured out here.
        let closed = Header {
            ack: 4,
            window: 0,
            ..Header::new(PacketKind::Ack, CabId::new(1), CabId::new(0))
        };
        let mut out2 = Vec::new();
        tx.on_packet(Time::ZERO, &closed, &[], &mut out2);
        assert!(sends(&out2).is_empty(), "window closed: the backlog must stall");
        assert_eq!(tx.stats().zero_window_stalls, 1);
        assert_eq!(tx.inflight.len(), 0);
        let persist = out2
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("persist timer armed while stalled");
        // The persist timer fires: exactly one probe packet flies.
        let mut out3 = Vec::new();
        tx.on_timer(Time::from_millis(5), persist, &mut out3);
        assert_eq!(sends(&out3).len(), 1, "one probe, not the whole backlog");
        assert_eq!(tx.stats().window_probes, 1);
        // The probe is acked with the window still closed: stall holds,
        // persist timer stays alive.
        let still_closed = Header {
            ack: 5,
            window: 0,
            ..Header::new(PacketKind::Ack, CabId::new(1), CabId::new(0))
        };
        let mut out4 = Vec::new();
        tx.on_packet(Time::from_millis(5), &still_closed, &[], &mut out4);
        assert!(sends(&out4).is_empty());
        assert!(
            out4.iter().any(|a| matches!(a, Action::SetTimer { .. })),
            "persist timer re-armed: {out4:?}"
        );
        // The window reopens on a duplicate ack (no new data acked):
        // the stalled fragment must flow immediately.
        let reopen = Header {
            ack: 5,
            window: 4,
            ..Header::new(PacketKind::Ack, CabId::new(1), CabId::new(0))
        };
        let mut out5 = Vec::new();
        tx.on_packet(Time::from_millis(6), &reopen, &[], &mut out5);
        assert_eq!(sends(&out5).len(), 1, "reopen releases the backlog");
        // Final ack completes the message.
        let fin = Header {
            ack: 6,
            window: 4,
            ..Header::new(PacketKind::Ack, CabId::new(1), CabId::new(0))
        };
        let mut out6 = Vec::new();
        tx.on_packet(Time::from_millis(7), &fin, &[], &mut out6);
        assert!(out6.iter().any(|a| matches!(a, Action::Complete { .. })));
        assert!(tx.is_quiescent());
    }

    #[test]
    fn reassembly_mismatch_is_counted_not_fatal() {
        let mut rx = ByteStream::new(CabId::new(1), CabId::new(0), ByteStreamConfig::default());
        let mut out = Vec::new();
        // Fragment 0 of a two-fragment message arrives in order.
        let h0 = Header {
            src_mailbox: 1,
            dst_mailbox: 2,
            msg_id: 0,
            frag_index: 0,
            frag_count: 2,
            seq: 0,
            window: 8,
            payload_len: 2,
            ..Header::new(PacketKind::Data, CabId::new(0), CabId::new(1))
        };
        rx.on_packet(Time::ZERO, &h0, b"aa", &mut out);
        // The next in-order packet claims a different message id
        // mid-reassembly — corruption that survived the checksum.
        // Before the fix this was debug_assert!(false): a guaranteed
        // abort of debug builds on a reachable path.
        let h1 = Header { msg_id: 9, frag_index: 1, seq: 1, ..h0 };
        let mut out2 = Vec::new();
        rx.on_packet(Time::ZERO, &h1, b"bb", &mut out2);
        assert_eq!(rx.stats().reassembly_mismatches, 1);
        assert_eq!(rx.stats().delivered, 0, "the mangled message is not delivered");
        assert!(
            out2.iter().any(
                |a| matches!(a, Action::Send { header, .. } if header.kind == PacketKind::Ack)
            ),
            "the ack still flows so the sender is not wedged"
        );
    }

    /// Regression: an unjittered retransmission timer phase-locks with
    /// a periodic outage. With `rto = 5ms` every backoff step (5, 10,
    /// 20, ... 320ms) is a multiple of the 2.5ms outage period below,
    /// so every retransmit used to land in the same 1.5ms down-window
    /// forever and one recoverable flap became a permanent stall
    /// (found by the chaos campaign: seed 707, `flap(1500us,1ms)`).
    /// The deterministic jitter in `arm_timer` breaks the lock.
    #[test]
    fn capped_backoff_does_not_phase_lock_with_periodic_outage() {
        let outage = |t: Time| t.nanos() % 2_500_000 < 1_500_000;
        let cfg = ByteStreamConfig { rto: Dur::from_millis(5), ..Default::default() };
        let mut a = ByteStream::new(CabId::new(0), CabId::new(1), cfg);
        let mut b = ByteStream::new(CabId::new(1), CabId::new(0), cfg);
        let mut now = Time::ZERO;
        let mut timers: Vec<(Time, usize, TimerToken)> = Vec::new();
        let mut pending: Vec<(usize, Action)> = Vec::new();
        let mut out = Vec::new();
        a.send_message(now, 1, 2, &[7u8; 300], &mut out);
        pending.extend(out.into_iter().map(|x| (0usize, x)));
        let mut delivered = 0usize;
        let mut guard = 0;
        while !(pending.is_empty() && a.is_quiescent() && b.is_quiescent()) {
            guard += 1;
            assert!(guard < 5_000, "phase-locked: no convergence after {:?}", now);
            if let Some((from, action)) = pending.pop() {
                match action {
                    Action::Send { header, payload, .. } => {
                        if outage(now) {
                            continue; // the wire is down: packet destroyed
                        }
                        now += Dur::from_micros(10);
                        let to = 1 - from;
                        let mut out = Vec::new();
                        let target = if to == 0 { &mut a } else { &mut b };
                        target.on_packet(now, &header, &payload, &mut out);
                        pending.extend(out.into_iter().map(|x| (to, x)));
                    }
                    Action::Deliver { .. } => delivered += 1,
                    Action::SetTimer { token, delay } => timers.push((now + delay, from, token)),
                    Action::CancelTimer { token } => {
                        timers.retain(|&(_, ep, t)| !(ep == from && t == token));
                    }
                    Action::Complete { .. } | Action::Error(_) => {}
                }
                continue;
            }
            timers.sort_by_key(|&(t, _, _)| t);
            assert!(!timers.is_empty(), "stuck with no timers at {now:?}");
            let (at, ep, token) = timers.remove(0);
            now = now.max(at);
            let mut out = Vec::new();
            let target = if ep == 0 { &mut a } else { &mut b };
            target.on_timer(now, token, &mut out);
            pending.extend(out.into_iter().map(|x| (ep, x)));
        }
        assert_eq!(
            delivered, 1,
            "exactly one delivery once the flap is survived (got {delivered} at {now:?})"
        );
        assert!(now < Time::from_millis(30_000), "took implausibly long: {now:?}");
    }

    #[test]
    fn deliveries_helper_sees_payload() {
        let mut h = Harness::new(ByteStreamConfig::default(), vec![]);
        h.send(b"abc");
        h.run_to_quiescence();
        let refs: Vec<Action> = h
            .delivered
            .iter()
            .map(|(mb, m)| Action::Deliver { mailbox: *mb, msg: m.clone() })
            .collect();
        assert_eq!(deliveries(&refs).len(), 1);
    }
}
