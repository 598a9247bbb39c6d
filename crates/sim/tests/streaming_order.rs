//! Order-independence of [`StreamingDoctor::ingest`].
//!
//! The streaming doctor asks one thing of a batch — that it is
//! time-disjoint from the batches before it — and promises the post-hoc
//! verdict for any order *inside* a batch and any choice of cuts. The
//! property below holds it to that on captures built to contain every
//! case where order could leak into a verdict: events recorded out of
//! time order (record sites stamp into the future), same-instant ties
//! inside one flight, a malformed flight whose two sends name different
//! slots, a multicast flight with several deliveries, a go-back-N
//! storm with its acks, head-of-line waits, and a silent drop.

use nectar_sim::analysis::critical_path::Segment;
use nectar_sim::analysis::diagnose;
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::rng::Rng;
use nectar_sim::telemetry::{EventKind, FlightId, TelemetryEvent};
use nectar_sim::time::Time;
use proptest::prelude::*;

/// Mints flight ids the way CABs do: `(cab << 40) | counter`, the
/// counter monotone per CAB (the late-event detector relies on it).
#[derive(Default)]
struct Capture {
    events: Vec<TelemetryEvent>,
    minted: [u64; 16],
}

impl Capture {
    fn mint(&mut self, cab: u16) -> u64 {
        let n = &mut self.minted[cab as usize];
        *n += 1;
        (u64::from(cab) << 40) | *n
    }

    fn push(&mut self, ns: u64, flight: u64, kind: EventKind) {
        self.events.push(TelemetryEvent {
            at: Time::from_nanos(ns),
            flight: FlightId(flight),
            kind,
        });
    }

    fn send(&mut self, ns: u64, flight: u64, slot: (u16, u16, u32), bytes: u32, retransmit: bool) {
        let (cab, peer, seq) = slot;
        self.push(ns, flight, EventKind::TransportSend { cab, peer, seq, bytes, retransmit });
    }

    /// One HUB hop and the receive side, `wait` ns in the crossbar
    /// queue; returns the delivery time. Gaps of zero are deliberate:
    /// they are the same-instant ties inside a flight.
    #[allow(clippy::too_many_arguments)]
    fn datapath(
        &mut self,
        rng: &mut Rng,
        mut t: u64,
        flight: u64,
        from: u16,
        to: u16,
        port: (u8, u8),
        wait: u64,
        recv: bool,
    ) -> u64 {
        let (hub, input) = port;
        let gap = |rng: &mut Rng| if rng.chance(0.3) { 0 } else { rng.range(50..=900) };
        t += gap(rng);
        self.push(t, flight, EventKind::FiberTx { cab: from, bytes: 98 });
        t += gap(rng);
        self.push(t, flight, EventKind::CrossbarEnqueue { hub, input, bytes: 98 });
        t += wait;
        self.push(t, flight, EventKind::CrossbarForward { hub, input, output: 9, bytes: 98 });
        t += gap(rng);
        self.push(t, flight, EventKind::DmaStart { cab: to, channel: 0, bytes: 96 });
        t += gap(rng);
        self.push(t, flight, EventKind::DmaComplete { cab: to, channel: 0, bytes: 96 });
        if recv {
            t += gap(rng);
            self.push(t, flight, EventKind::AppRecv { cab: to, mailbox: 7, bytes: 64 });
        }
        t
    }
}

/// A ~6 ms capture (several retirement horizons long) in recording
/// order, which is not time order.
fn capture(seed: u64) -> Vec<TelemetryEvent> {
    let mut rng = Rng::seed_from(seed);
    let mut c = Capture::default();

    // Plain datagrams between CABs 0..4, some through a port whose
    // queue wait dwarfs its service time (head-of-line evidence).
    for i in 0..rng.range(40..=80) {
        let cab = (i % 4) as u16;
        let peer = (cab + 1) % 4;
        let t = i * 70_000 + rng.range(0..=20_000);
        let f = c.mint(cab);
        c.push(t, FlightId::NONE.0, EventKind::AppSend { cab, dst: peer, bytes: 64 });
        // Stamped into the future: the send is recorded at the instant
        // the send path will finish, after events recorded later.
        c.send(t + 3_000, f, (cab, peer, i as u32), 64, false);
        let (port, wait) =
            if i % 3 == 0 { ((1, 4), rng.range(20_000..=40_000)) } else { ((0, cab as u8), 300) };
        c.datapath(&mut rng, t + 3_000, f, cab, peer, port, wait, true);
    }

    // A go-back-N storm on stream 4 -> 5: the originals vanish, the
    // resends arrive, and the receiver's ack flights are consumed.
    let resends = rng.range(3..=6) as u32;
    for seq in 0..resends {
        let t = 200_000 + u64::from(seq) * 30_000;
        let lost = c.mint(4);
        c.send(t, lost, (4, 5, seq), 64, false);
        c.push(t + 400, lost, EventKind::FiberTx { cab: 4, bytes: 98 });
    }
    c.push(1_400_000, FlightId::NONE.0, EventKind::TransportTimeout { cab: 4, peer: 5 });
    for seq in 0..resends {
        let t = 1_400_000 + u64::from(seq) * 30_000;
        let again = c.mint(4);
        c.send(t, again, (4, 5, seq), 64, true);
        let done = c.datapath(&mut rng, t, again, 4, 5, (0, 6), 200, true);
        let ack = c.mint(5);
        c.send(done + 100, ack, (5, 4, seq), 0, false);
        c.push(done + 9_000, ack, EventKind::TransportAck { cab: 4, peer: 5, ack: seq + 1 });
    }

    // A datagram that vanishes early enough to be judged.
    let vanished = c.mint(6);
    c.send(100_000, vanished, (6, 7, 0), 64, false);
    c.push(100_500, vanished, EventKind::FiberTx { cab: 6, bytes: 98 });

    // A malformed flight: two sends naming different slots. The one
    // recorded second is first in flight order — by time in one flight,
    // by the same-instant tie-break in the other.
    let clash = c.mint(8);
    c.send(2_000_500, clash, (8, 9, 5), 64, false);
    c.send(2_000_400, clash, (8, 10, 2), 64, false);
    c.push(2_030_000, clash, EventKind::AppRecv { cab: 9, mailbox: 7, bytes: 64 });
    let tie = c.mint(8);
    c.send(2_100_000, tie, (8, 9, 6), 64, false);
    c.send(2_100_000, tie, (8, 9, 3), 64, false);
    c.push(2_130_000, tie, EventKind::AppRecv { cab: 9, mailbox: 7, bytes: 64 });

    // A multicast flight: one send, three deliveries.
    let fanout = c.mint(11);
    c.send(3_000_000, fanout, (11, 12, 0), 64, false);
    c.datapath(&mut rng, 3_000_000, fanout, 11, 12, (2, 1), 250, true);
    for (k, cab) in [13u16, 14].into_iter().enumerate() {
        let t = 3_020_000 + k as u64 * 15_000;
        c.push(t, fanout, EventKind::DmaStart { cab, channel: 0, bytes: 96 });
        c.push(t + 1_100, fanout, EventKind::DmaComplete { cab, channel: 0, bytes: 96 });
        c.push(t + 1_100, fanout, EventKind::AppRecv { cab, mailbox: 7, bytes: 64 });
    }

    // A slow fan-out: deliveries just under a horizon apart, so only a
    // quiet clock that is the *latest* event time keeps the flight open
    // for the stragglers.
    let slow = c.mint(11);
    c.send(3_200_000, slow, (11, 12, 1), 64, false);
    for (k, cab) in [12u16, 13, 14].into_iter().enumerate() {
        let t = 3_250_000 + k as u64 * 900_000;
        c.push(t, slow, EventKind::AppRecv { cab, mailbox: 7, bytes: 64 });
    }

    // Something past every horizon and grace window, so the capture's
    // end judges all of the above.
    let last = c.mint(0);
    c.send(6_000_000, last, (0, 1, 9_999), 64, false);
    c.datapath(&mut rng, 6_000_000, last, 0, 1, (0, 0), 300, true);
    c.events
}

fn canonically_sorted(events: &[TelemetryEvent]) -> Vec<TelemetryEvent> {
    let mut sorted = events.to_vec();
    sorted.sort_unstable_by_key(|e| e.canonical_key());
    sorted
}

/// Cuts a time-sorted capture into time-disjoint batches of random
/// length (1 event to everything) and shuffles each batch.
fn scrambled_batches(sorted: &[TelemetryEvent], rng: &mut Rng) -> Vec<Vec<TelemetryEvent>> {
    let mut batches = Vec::new();
    let mut rest = sorted;
    while !rest.is_empty() {
        let want = match rng.range(0..=3) {
            0 => 1,
            1 => rng.range(2..=16) as usize,
            2 => rng.range(17..=400) as usize,
            _ => rest.len(),
        };
        // A cut may only fall where the timestamp changes.
        let mut cut = want.min(rest.len());
        while cut < rest.len() && rest[cut].at == rest[cut - 1].at {
            cut += 1;
        }
        let (head, tail) = rest.split_at(cut);
        let mut batch = head.to_vec();
        rng.shuffle(&mut batch);
        batches.push(batch);
        rest = tail;
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_order_inside_a_batch_and_any_cut_give_the_post_hoc_verdict(seed in any::<u64>()) {
        let recorded = capture(seed);
        let sorted = canonically_sorted(&recorded);
        let reference = diagnose(&sorted, None);
        let verdict = reference.render();
        for detector in ["retransmit_storm", "head_of_line", "silent_drops"] {
            prop_assert!(verdict.contains(detector), "capture lost its {detector}:\n{verdict}");
        }
        prop_assert!(reference.critical_path.skipped >= 4, "malformed/multicast/lost flights");

        let mut rng = Rng::seed_from(seed ^ 0x5EED);
        for _ in 0..4 {
            let mut doctor = StreamingDoctor::new(StreamConfig::default());
            // Fed the same batches unshuffled: which flights retire,
            // and after which batch, must not depend on the shuffle.
            let mut in_order = StreamingDoctor::new(StreamConfig::default());
            for mut batch in scrambled_batches(&sorted, &mut rng) {
                in_order.ingest(&mut canonically_sorted(&batch));
                doctor.ingest(&mut batch);
                prop_assert!(batch.is_empty());
                let (a, b) = (doctor.summary(), in_order.summary());
                prop_assert_eq!(a.flights_retired, b.flights_retired);
                prop_assert_eq!(a.open_flights, b.open_flights);
            }
            let summary = doctor.summary();
            prop_assert_eq!(summary.late_events, 0);
            prop_assert_eq!(summary.events_folded, sorted.len() as u64);
            let report = doctor.into_report(None);
            prop_assert_eq!(report.render(), verdict.clone());
            prop_assert_eq!(report.flights, reference.flights);
            prop_assert_eq!(report.critical_path.attributed, reference.critical_path.attributed);
            prop_assert_eq!(report.critical_path.skipped, reference.critical_path.skipped);
            prop_assert_eq!(report.critical_path.total_hist(), reference.critical_path.total_hist());
            for s in Segment::ALL {
                prop_assert_eq!(
                    report.critical_path.segment_hist(s),
                    reference.critical_path.segment_hist(s),
                    "segment {}", s.label()
                );
            }
        }
        // The post-hoc doctor reads nothing from capture order either.
        prop_assert_eq!(diagnose(&recorded, None).render(), verdict);
    }
}

/// A spike-shaped capture: `cabs * per_cab` flows all launched at the
/// same instant, each CAB's send path serializing its own, deliveries
/// spread over the following milliseconds.
fn spike_capture(cabs: u16, per_cab: u64) -> Vec<TelemetryEvent> {
    let mut c = Capture::default();
    let mut rng = Rng::seed_from(1);
    for cab in 0..cabs {
        let peer = (cab + 1) % cabs;
        for k in 0..per_cab {
            let f = (u64::from(cab) << 40) | (k + 1);
            c.push(0, FlightId::NONE.0, EventKind::AppSend { cab, dst: peer, bytes: 32 });
            let sent = (k + 1) * 2_000;
            c.send(sent, f, (cab, peer, k as u32), 32, false);
            let port = ((cab / 16) as u8, (cab % 16) as u8);
            c.datapath(&mut rng, sent + k * 40_000, f, cab, peer, port, 700, true);
        }
    }
    c.events
}

/// What the fixed-size-accumulator fold reports as `peak_mem_bytes` for
/// `spike_capture(200, 128)` fed in the batches below. The
/// whole-batch-sorting fold two designs back reported 5,871,088 B for
/// the same capture (commit 458626f).
const PEAK_MEM_BYTES: usize = 5_834_656;

#[test]
fn a_launch_wave_peaks_no_higher_than_the_whole_batch_sort_did() {
    let sorted = canonically_sorted(&spike_capture(200, 128));
    let mut doctor = StreamingDoctor::new(StreamConfig::default());
    // The world's cadence: a few thousand events a batch, cut where
    // the timestamp changes.
    let mut rest = sorted.as_slice();
    while !rest.is_empty() {
        let mut cut = 2048.min(rest.len());
        while cut < rest.len() && rest[cut].at == rest[cut - 1].at {
            cut += 1;
        }
        let (head, tail) = rest.split_at(cut);
        doctor.ingest(&mut head.to_vec());
        rest = tail;
    }
    let summary = doctor.summary();
    assert_eq!(summary.flights_seen, 200 * 128);
    assert_eq!(summary.late_events, 0);
    assert!(summary.flights_retired > 0, "nothing retired mid-stream: {summary:?}");
    assert!(
        summary.peak_mem_bytes <= PEAK_MEM_BYTES,
        "peak fold footprint {} B exceeds the measured {} B",
        summary.peak_mem_bytes,
        PEAK_MEM_BYTES
    );
}
