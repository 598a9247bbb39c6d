//! Streaming doctor: bounded-memory incremental flight analysis.
//!
//! The post-hoc doctor ([`diagnose`](super::diagnose)) needs the whole
//! telemetry capture in memory, so at scale it either drops events
//! (findings downgrade to non-confident) or the ring grows without
//! bound. [`StreamingDoctor`] folds the same analysis incrementally: a
//! windowed flight table retires completed flights into compact online
//! accumulators, so memory tracks the number of flights *in flight*,
//! not the number ever seen.
//!
//! # Fold lifecycle
//!
//! Events arrive in **batches**. [`ingest`](StreamingDoctor::ingest)
//! asks one thing of a batch: none of its events is earlier than the
//! latest event of any previous batch. *Inside* a batch the events may
//! come in any order (the world hands over a plain concatenation of its
//! recorder rings). The world meets the requirement by holding events
//! back until nothing earlier can still be produced: every record site
//! stamps at-or-after the processing instant, so a sequential world
//! releases what is stamped at or before its clock, and a sharded one
//! what is stamped below the smallest next-event time of any shard.
//!
//! Equivalence with the post-hoc doctor rests on two facts, not on the
//! batches adding up to a sorted capture:
//!
//! * **Order matters only within a flight.** Every analysis reads one
//!   flight's events in flight order — `(at, kind.canonical_key())`,
//!   see [`flights`](super::flights) — and the post-hoc
//!   [`FlightTable`](super::flights::FlightTable) establishes exactly
//!   that order and no other. The fold appends events to their flight
//!   as they come and puts them in flight order once, when the flight
//!   retires.
//! * **Everything folded across flights commutes.** The watermark, the
//!   cumulative ack per direction and a flight's quiet clock are
//!   maxima; a slot's first-send time is a minimum; a flight's slot is
//!   that of its flight-order-first send whatever order its sends were
//!   seen in. Retirement contributions — histogram increments, sums,
//!   bounded smallest-K evidence and top-K worst sets — commute too, so
//!   retirement *order* can never change the report.
//!
//! A flight retires once it is **terminal** (delivered via `app_recv`,
//! or an ack flight consumed by `transport_ack`) *and* has been idle
//! for the [`horizon`](StreamConfig::horizon); non-terminal flights —
//! lost, corrupted, or merely parked in a congested crossbar queue
//! longer than the horizon — are held until the final report (or a
//! memory-budget eviction), so congestion can never race a live packet
//! into retirement. Retirement is decided after the whole batch is in,
//! from a queue holding one `(quiet-since, flight)` entry per flight
//! per batch, kept in time order — so which flights retire, and when,
//! is a function of the batch's content, never of its internal order.
//! On retirement one pass over the flight gathers its `FlightFacts`;
//! the breakdown feeds the [`CriticalPath`] histograms and the
//! pathology folds ([`pathology::fold_storm`],
//! [`pathology::fold_head_of_line`]), the event buffer is recycled, and
//! only O(1) residue per stream slot
//! remains (first-send time for retransmit attribution, data-flight
//! count and lost-candidate list for the silent-drop detector) until
//! the slot is acknowledged. Only an event arriving for an
//! already-retired flight can make the fold differ from post-hoc, and
//! that is detected exactly (packet ids are minted monotonically per
//! CAB) and counted in [`StreamSummary::late_events`].

use super::critical_path::{breakdown_with, CriticalPath};
use super::flights::{flight_order, sort_flight_events, Flight, FlightFacts, StreamKey};
use super::pathology::{self, DoctorConfig, PortAcc, StreamAcc};
use super::DoctorReport;
use crate::metrics::MetricsRegistry;
use crate::telemetry::{EventKind, TelemetryEvent};
use crate::time::{Dur, Time};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;

/// Streaming-doctor tuning. The `doctor` thresholds are shared with
/// the post-hoc detectors so the two paths stay comparable.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Detector thresholds (same as post-hoc).
    pub doctor: DoctorConfig,
    /// A **completed** flight (one that saw a terminal event —
    /// delivery or ack consumption) retires after this much simulated
    /// time with no new events. Must exceed the longest gap after a
    /// terminal event (for unicast, nothing follows one; multicast
    /// copies still in flight keep updating the quiet clock), or
    /// retirement races the stragglers and the report counts
    /// `late_events` (equivalence with post-hoc then no longer holds).
    /// Flights without a terminal event — still in flight, silently
    /// dropped, corrupted — are held until the final report or a
    /// memory-budget eviction, never horizon-retired: congestion can
    /// park a packet in a crossbar queue for longer than any
    /// reasonable quiet period. The default (1 ms) matches the
    /// silent-drop grace window.
    pub horizon: Dur,
    /// Hard cap on the fold's estimated footprint: when exceeded, the
    /// oldest open flights are force-retired (counted in
    /// [`StreamSummary::forced_retirements`]) until back under.
    pub memory_budget: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            doctor: DoctorConfig::default(),
            horizon: Dur::from_millis(1),
            memory_budget: None,
        }
    }
}

/// Multiplicative hasher for the fold's maps. Their keys — flight ids
/// minted `(cab << 40) | counter`, stream slots, CAB pairs — come from
/// the simulator's own recorder, never from outside the program, so
/// SipHash's flooding resistance buys nothing on a path probed several
/// times per event. The 64×64→128 multiply is folded high-into-low
/// because the table indexes buckets with the low bits, and the CAB
/// number sits in the high ones.
#[derive(Clone, Copy, Debug, Default)]
struct FoldHasher(u64);

impl FoldHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
}

type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Retired event buffers kept for reuse, at most: enough that flights
/// opening and retiring at a steady rate never touch the allocator,
/// small enough that a retired launch wave gives its memory back.
const SPARE_BUFFERS: usize = 4096;

/// One flight still accumulating events.
#[derive(Clone, Debug)]
struct OpenFlight {
    /// Events in arrival order; put in flight order at retirement.
    events: Vec<TelemetryEvent>,
    /// Latest event time — the quiet clock.
    last_at: Time,
    /// Slot of the flight-order-first `transport_send` seen so far.
    slot: Option<StreamKey>,
    /// `true` once a terminal event was folded: `AppRecv` (the packet
    /// reached an application) or `TransportAck` (the ack was consumed
    /// at the data sender). Only terminal flights retire on the
    /// horizon — a packet can sit in a congested crossbar queue far
    /// longer than any reasonable quiet period, but nothing follows a
    /// delivery. Non-terminal flights (in flight, dropped, corrupted)
    /// are held until the final report or a memory-budget eviction.
    terminal: bool,
    /// `true` while the flight is on the current batch's touched list.
    touched: bool,
}

/// What survives a stream slot after its flights retire.
#[derive(Clone, Debug)]
struct SlotResidue {
    /// Earliest `transport_send` of the slot seen so far — final by
    /// the time any flight that could read it retires, because batches
    /// arrive in time order.
    first_send: Time,
    /// Data flights of this slot retired so far (a count > 1 means a
    /// retransmission superseded the original: not a silent drop).
    data_count: u64,
    /// Flights currently open on this slot; the residue may only be
    /// pruned once this reaches zero *and* the slot is acked.
    open_flights: u32,
}

/// Fold statistics for the run summary, kept apart from bit-compared
/// simulated metrics (they depend on drain cadence, not the workload).
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Events folded in total.
    pub events_folded: u64,
    /// Distinct flights reconstructed.
    pub flights_seen: u64,
    /// Flights retired into the online accumulators.
    pub flights_retired: u64,
    /// Flights still open when the summary was taken.
    pub open_flights: usize,
    /// Events that arrived for already-retired flights (nonzero means
    /// the horizon was too short and equivalence with post-hoc is off).
    pub late_events: u64,
    /// Retirements forced by the memory budget.
    pub forced_retirements: u64,
    /// Peak estimated fold footprint in bytes.
    pub peak_mem_bytes: usize,
    /// Highest per-component telemetry ring occupancy observed.
    pub ring_hwm: u64,
    /// Telemetry events lost to ring overflow.
    pub ring_dropped: u64,
}

/// The incremental doctor. Feed time-disjoint event batches with
/// [`ingest`](StreamingDoctor::ingest); finish with
/// [`report`](StreamingDoctor::report) /
/// [`into_report`](StreamingDoctor::into_report).
#[derive(Clone, Debug)]
pub struct StreamingDoctor {
    cfg: StreamConfig,
    open: FoldMap<u64, OpenFlight>,
    /// Retirement queue in time order: one `(last event time, flight)`
    /// entry per flight per batch that touched it, popped once the
    /// watermark passes `time + horizon`. An entry is live while its
    /// time is still the flight's quiet clock; entries a later batch
    /// superseded (or whose flight already retired) are skipped on pop.
    retire_queue: VecDeque<(Time, u64)>,
    /// Scratch: the flights the batch being folded has touched.
    touched: Vec<(Time, u64)>,
    /// Cleared event buffers of retired flights, reused by new ones.
    spare: Vec<Vec<TelemetryEvent>>,
    spare_bytes: usize,
    residue: FoldMap<StreamKey, SlotResidue>,
    /// Highest cumulative ack per `(sender, peer)` direction.
    acked: FoldMap<(u16, u16), u32>,
    streams: BTreeMap<(u16, u16), StreamAcc>,
    ports: BTreeMap<(u8, u8), PortAcc>,
    /// Silent-drop candidates per slot: `(send time, flight id)` of
    /// retired data flights that were never delivered or acked.
    candidates: BTreeMap<StreamKey, Vec<(Time, u64)>>,
    cp: CriticalPath,
    /// Highest retired flight id per CAB (ids are minted `(cab << 40) |
    /// counter`, monotone per CAB) — the exact late-event detector.
    max_retired: FoldMap<u64, u64>,
    watermark: Time,
    events_folded: u64,
    flights_seen: u64,
    flights_retired: u64,
    late_events: u64,
    forced_retirements: u64,
    open_event_bytes: usize,
    peak_mem: usize,
    ring_hwm: u64,
    ring_dropped: u64,
}

impl StreamingDoctor {
    /// A fresh fold with the given tuning.
    pub fn new(cfg: StreamConfig) -> StreamingDoctor {
        StreamingDoctor {
            cfg,
            open: FoldMap::default(),
            retire_queue: VecDeque::new(),
            touched: Vec::new(),
            spare: Vec::new(),
            spare_bytes: 0,
            residue: FoldMap::default(),
            acked: FoldMap::default(),
            streams: BTreeMap::new(),
            ports: BTreeMap::new(),
            candidates: BTreeMap::new(),
            cp: CriticalPath::default(),
            max_retired: FoldMap::default(),
            watermark: Time::ZERO,
            events_folded: 0,
            flights_seen: 0,
            flights_retired: 0,
            late_events: 0,
            forced_retirements: 0,
            open_event_bytes: 0,
            peak_mem: 0,
            ring_hwm: 0,
            ring_dropped: 0,
        }
    }

    /// Folds one batch and clears it. Every event must be at-or-after
    /// the watermark the previous batch left (batches are time-disjoint
    /// and arrive in time order); inside the batch any order will do.
    pub fn ingest(&mut self, batch: &mut Vec<TelemetryEvent>) {
        if batch.is_empty() {
            return;
        }
        let floor = self.watermark;
        debug_assert!(
            batch.iter().all(|e| e.at >= floor),
            "streaming batch reaches back before the watermark {floor}"
        );
        for ev in batch.iter() {
            self.fold_event(ev);
        }
        batch.clear();
        self.queue_touched();
        self.advance_retirement();
        self.enforce_budget();
        self.peak_mem = self.peak_mem.max(self.mem_estimate());
    }

    fn fold_event(&mut self, ev: &TelemetryEvent) {
        self.watermark = self.watermark.max(ev.at);
        self.events_folded += 1;
        if let EventKind::TransportAck { cab, peer, ack } = ev.kind {
            // `cab` received the ack, so it is the data sender.
            let high = self.acked.entry((cab, peer)).or_insert(0);
            *high = (*high).max(ack);
        }
        if !ev.flight.is_some() {
            return;
        }
        let id = ev.flight.0;
        let of = match self.open.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                // Retirement only runs between batches, so whether an
                // id counts as new or late is the same for every order
                // inside the batch.
                if self.max_retired.get(&(id >> 40)).is_some_and(|&m| id <= m) {
                    self.late_events += 1;
                } else {
                    self.flights_seen += 1;
                }
                let events = self.spare.pop().unwrap_or_default();
                self.spare_bytes -= events.capacity() * size_of::<TelemetryEvent>();
                v.insert(OpenFlight {
                    events,
                    last_at: ev.at,
                    slot: None,
                    terminal: false,
                    touched: false,
                })
            }
        };
        if !of.touched {
            of.touched = true;
            // The quiet clock is filled in once the batch is folded.
            self.touched.push((Time::ZERO, id));
        }
        of.last_at = of.last_at.max(ev.at);
        match ev.kind {
            EventKind::TransportSend { cab, peer, seq, .. } => {
                let k = (cab, peer, seq);
                let r = self.residue.entry(k).or_insert(SlotResidue {
                    first_send: ev.at,
                    data_count: 0,
                    open_flights: 0,
                });
                r.first_send = r.first_send.min(ev.at);
                // A second send makes the flight malformed; its slot is
                // still the one `FlightFacts` will report at retirement.
                let takes_slot = match of.slot {
                    None => true,
                    Some(held) => {
                        held != k
                            && of
                                .events
                                .iter()
                                .filter(|e| matches!(e.kind, EventKind::TransportSend { .. }))
                                .all(|e| flight_order(ev, e) == Ordering::Less)
                    }
                };
                if takes_slot {
                    r.open_flights += 1;
                    if let Some(held) = of.slot.replace(k) {
                        if let Some(r) = self.residue.get_mut(&held) {
                            r.open_flights = r.open_flights.saturating_sub(1);
                        }
                    }
                }
            }
            EventKind::AppRecv { .. } | EventKind::TransportAck { .. } => of.terminal = true,
            _ => {}
        }
        of.events.push(*ev);
        self.open_event_bytes += size_of::<TelemetryEvent>();
    }

    /// Queues every flight the batch touched for retirement, oldest
    /// quiet clock first. Batches are time-disjoint, so the new entries
    /// all sort after the ones already queued.
    fn queue_touched(&mut self) {
        for (at, id) in &mut self.touched {
            let of = self.open.get_mut(id).expect("a touched flight is open");
            of.touched = false;
            *at = of.last_at;
        }
        self.touched.sort_unstable();
        self.retire_queue.extend(self.touched.drain(..));
    }

    fn advance_retirement(&mut self) {
        while let Some(&(t, id)) = self.retire_queue.front() {
            if t + self.cfg.horizon > self.watermark {
                break;
            }
            self.retire_queue.pop_front();
            if let Entry::Occupied(e) = self.open.entry(id) {
                if e.get().terminal && e.get().last_at == t {
                    let of = e.remove();
                    self.retire_flight(id, of);
                }
            }
        }
    }

    /// Folds one completed flight into the online accumulators and
    /// recycles its event buffer. Contributions commute, so retirement
    /// order is irrelevant to the final report.
    fn retire_flight(&mut self, id: u64, of: OpenFlight) {
        self.open_event_bytes -= of.events.len() * size_of::<TelemetryEvent>();
        self.flights_retired += 1;
        let m = self.max_retired.entry(id >> 40).or_insert(0);
        *m = (*m).max(id);
        let mut flight = Flight { id, events: of.events };
        sort_flight_events(&mut flight.events);
        let facts = flight.facts();
        debug_assert_eq!(facts.slot, of.slot, "slot tracking disagrees with flight order");
        pathology::fold_storm(id, &facts, &mut self.streams, &self.cfg.doctor);
        pathology::fold_head_of_line(&flight, &facts, &mut self.ports, &self.cfg.doctor);
        let first = facts.slot.and_then(|k| self.residue.get(&k)).map(|r| r.first_send);
        match breakdown_with(&flight, &facts, first) {
            Some(b) => self.cp.add(&b),
            None => self.cp.skipped += 1,
        }
        self.settle_slot(id, &facts);
        let mut events = flight.events;
        if self.spare.len() < SPARE_BUFFERS {
            events.clear();
            self.spare_bytes += events.capacity() * size_of::<TelemetryEvent>();
            self.spare.push(events);
        }
    }

    /// Leaves a retiring flight's mark on its slot's residue: the data
    /// count, a silent-drop candidate if nobody answered it, and the
    /// residue's own release once the slot is acked and idle.
    fn settle_slot(&mut self, id: u64, facts: &FlightFacts) {
        let Some(k) = facts.slot else { return };
        let Some(r) = self.residue.get_mut(&k) else { return };
        if facts.is_data() {
            r.data_count += 1;
        }
        r.open_flights = r.open_flights.saturating_sub(1);
        let acked = self.acked.get(&(k.0, k.1)).is_some_and(|&h| h > k.2);
        if acked && r.open_flights == 0 {
            // An acked slot can gain no further silent-drop candidates
            // (acks are cumulative and monotone), and no open flight
            // needs its first-send time: drop the residue.
            self.residue.remove(&k);
            self.candidates.remove(&k);
        } else if !acked {
            if let Some((_, at)) = facts.undelivered_data() {
                self.candidates.entry(k).or_default().push((at, id));
            }
        }
    }

    fn enforce_budget(&mut self) {
        let Some(budget) = self.cfg.memory_budget else { return };
        while self.mem_estimate() > budget {
            if !self.spare.is_empty() {
                self.spare = Vec::new();
                self.spare_bytes = 0;
                continue;
            }
            let Some((_, id)) = self.retire_queue.pop_front() else { break };
            if let Some(of) = self.open.remove(&id) {
                self.retire_flight(id, of);
                self.forced_retirements += 1;
            }
        }
    }

    /// Surviving silent-drop candidates: unacked slots with exactly one
    /// data flight, sent more than a grace window before the watermark.
    fn lost_candidates(&self) -> Vec<(Time, u64)> {
        let mut lost = Vec::new();
        for (k, list) in &self.candidates {
            if self.acked.get(&(k.0, k.1)).is_some_and(|&h| h > k.2) {
                continue;
            }
            if self.residue.get(k).map_or(0, |r| r.data_count) > 1 {
                continue;
            }
            for &(at, id) in list {
                if at + self.cfg.doctor.grace > self.watermark {
                    continue;
                }
                lost.push((at, id));
            }
        }
        lost
    }

    /// Estimated footprint of the fold state in bytes. An estimate —
    /// map overheads are approximated — but it moves with the real
    /// footprint, which is what the budget needs.
    pub fn mem_estimate(&self) -> usize {
        self.open_event_bytes
            + self.spare_bytes
            + self.open.len() * (size_of::<OpenFlight>() + size_of::<u64>() + 16)
            + self.retire_queue.len() * size_of::<(Time, u64)>()
            + self.residue.len() * (size_of::<StreamKey>() + size_of::<SlotResidue>() + 16)
            + self.candidates.len() * 64
            + self.streams.len() * 96
            + self.ports.len() * 160
    }

    /// Events folded so far.
    pub fn events_folded(&self) -> u64 {
        self.events_folded
    }

    /// Records ring pressure observed by the world that fed this fold
    /// (kept here because under streaming the ring high-water mark
    /// depends on drain cadence and must stay out of the bit-compared
    /// metrics).
    pub fn note_ring(&mut self, hwm: u64, dropped: u64) {
        self.ring_hwm = self.ring_hwm.max(hwm);
        self.ring_dropped = self.ring_dropped.max(dropped);
    }

    /// Fold statistics for the run summary.
    pub fn summary(&self) -> StreamSummary {
        StreamSummary {
            events_folded: self.events_folded,
            flights_seen: self.flights_seen,
            flights_retired: self.flights_retired,
            open_flights: self.open.len(),
            late_events: self.late_events,
            forced_retirements: self.forced_retirements,
            peak_mem_bytes: self.peak_mem.max(self.mem_estimate()),
            ring_hwm: self.ring_hwm,
            ring_dropped: self.ring_dropped,
        }
    }

    /// Finishes the fold: retires every open flight and builds the
    /// final report, exactly as [`diagnose`](super::diagnose) would
    /// over the canonically sorted capture (provided
    /// [`late_events`](StreamSummary::late_events) is zero).
    pub fn into_report(mut self, metrics: Option<&MetricsRegistry>) -> DoctorReport {
        let mut open: Vec<(u64, OpenFlight)> = self.open.drain().collect();
        open.sort_unstable_by_key(|&(id, _)| id);
        for (id, of) in open {
            self.retire_flight(id, of);
        }
        let mut findings = Vec::new();
        for ((cab, peer), acc) in &self.streams {
            findings.extend(pathology::storm_finding(*cab, *peer, acc, &self.cfg.doctor));
        }
        for ((hub, input), port) in &self.ports {
            findings.extend(pathology::hol_finding(*hub, *input, port, &self.cfg.doctor));
        }
        if let Some(m) = metrics {
            pathology::mailbox_saturation(m, &self.cfg.doctor, &mut findings);
            pathology::reassembly_mismatches(m, &mut findings);
        }
        findings.extend(pathology::silent_drop_finding(self.lost_candidates(), &self.cfg.doctor));
        pathology::sort_findings(&mut findings);
        let dropped_events = metrics.map_or(0, |m| m.counter("telemetry.dropped_events"));
        let confident = dropped_events == 0;
        if !confident {
            for f in &mut findings {
                f.confident = false;
            }
        }
        DoctorReport {
            flights: self.flights_seen,
            dropped_events,
            confident,
            critical_path: self.cp,
            findings,
        }
    }

    /// [`into_report`](StreamingDoctor::into_report) without consuming
    /// the fold (clones the state).
    pub fn report(&self, metrics: Option<&MetricsRegistry>) -> DoctorReport {
        self.clone().into_report(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::diagnose;
    use crate::telemetry::FlightId;

    fn ev(ns: u64, flight: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(flight), kind }
    }

    fn send(ns: u64, flight: u64, seq: u32, retransmit: bool) -> TelemetryEvent {
        ev(ns, flight, EventKind::TransportSend { cab: 0, peer: 1, seq, bytes: 64, retransmit })
    }

    fn recv(ns: u64, flight: u64) -> TelemetryEvent {
        ev(ns, flight, EventKind::AppRecv { cab: 1, mailbox: 0, bytes: 64 })
    }

    /// A capture with a storm, a silent drop, and plain deliveries.
    fn busy_capture() -> Vec<TelemetryEvent> {
        let mut events = Vec::new();
        for i in 0..4u64 {
            events.push(send(100 + i, i, i as u32, false));
            events.push(recv(10_000 + i, i));
        }
        for i in 0..3u64 {
            events.push(send(20_000 + i, 100 + i, i as u32, true));
            events.push(recv(30_000 + i, 100 + i));
        }
        // Ids are minted monotonically per CAB, like the real world's
        // packet ids — the late-event detector relies on it.
        events.push(send(40_000, 150, 40, false)); // never delivered
        events.push(send(90_000_000, 160, 41, false));
        events.push(recv(90_000_500, 160));
        events
    }

    fn stream_in_batches(events: &[TelemetryEvent], batch_len: usize) -> StreamingDoctor {
        let mut sorted = events.to_vec();
        sorted.sort_unstable_by_key(|e| e.canonical_key());
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        for chunk in sorted.chunks(batch_len.max(1)) {
            // Batches must be time-disjoint: extend each chunk to a
            // timestamp boundary.
            doc.ingest(&mut chunk.to_vec());
        }
        doc
    }

    #[test]
    fn streaming_matches_post_hoc_on_mixed_capture() {
        let events = busy_capture();
        let mut sorted = events.clone();
        sorted.sort_unstable_by_key(|e| e.canonical_key());
        let reference = diagnose(&sorted, None);
        for batch_len in [1, 3, 7, events.len()] {
            let doc = stream_in_batches(&events, batch_len);
            assert_eq!(doc.summary().late_events, 0);
            let rep = doc.into_report(None);
            assert_eq!(rep.flights, reference.flights, "batch_len {batch_len}");
            assert_eq!(rep.render(), reference.render(), "batch_len {batch_len}");
            assert_eq!(rep.critical_path.attributed, reference.critical_path.attributed);
            assert_eq!(rep.critical_path.skipped, reference.critical_path.skipped);
            assert_eq!(
                rep.critical_path.total_hist().mean(),
                reference.critical_path.total_hist().mean()
            );
        }
    }

    #[test]
    fn flights_retire_after_horizon_and_free_memory() {
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        let mut batch = vec![send(100, 1, 0, false), recv(9_000, 1)];
        doc.ingest(&mut batch);
        assert_eq!(doc.summary().open_flights, 1);
        // An unrelated event far past the horizon retires flight 1.
        let mut batch = vec![send(10_000_000, 2, 1, false)];
        doc.ingest(&mut batch);
        let s = doc.summary();
        assert_eq!(s.flights_retired, 1);
        assert_eq!(s.open_flights, 1);
        assert_eq!(s.late_events, 0);
    }

    #[test]
    fn memory_budget_forces_retirement() {
        let cfg = StreamConfig { memory_budget: Some(600), ..StreamConfig::default() };
        let mut doc = StreamingDoctor::new(cfg);
        let mut batch: Vec<_> = (0..64).map(|i| send(100 + i, i, i as u32, false)).collect();
        doc.ingest(&mut batch);
        let s = doc.summary();
        assert!(s.forced_retirements > 0, "budget never enforced: {s:?}");
        assert_eq!(s.open_flights, 0, "every open flight force-retired");
    }

    #[test]
    fn late_event_is_detected() {
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        // Flight 1 completes (the recv makes it terminal), so pushing
        // the watermark a horizon past its last event retires it.
        doc.ingest(&mut vec![send(100, 1, 0, false), recv(9_000, 1)]);
        doc.ingest(&mut vec![send(50_000_000, 2, 1, false)]);
        assert_eq!(doc.summary().flights_retired, 1);
        // An event for retired flight 1 arrives afterwards.
        doc.ingest(&mut vec![recv(50_000_100, 1)]);
        assert_eq!(doc.summary().late_events, 1);
    }
}
