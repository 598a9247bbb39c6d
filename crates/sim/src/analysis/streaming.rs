//! Streaming doctor: bounded-memory incremental flight analysis.
//!
//! The post-hoc doctor ([`diagnose`](super::diagnose)) needs the whole
//! telemetry capture in memory, so at scale it either drops events
//! (findings downgrade to non-confident) or the ring grows without
//! bound. [`StreamingDoctor`] folds the same analysis incrementally: a
//! windowed flight table retires completed flights into compact online
//! accumulators, so memory tracks the number of flights *in flight*,
//! not the number ever seen — and each of those holds a fixed-size
//! accumulator, not its events.
//!
//! # Fold lifecycle
//!
//! Events arrive in **batches**, each with a release boundary: every
//! event stamped before it has arrived, in this batch or an earlier
//! one. [`ingest_until`](StreamingDoctor::ingest_until) asks one thing
//! of a batch: none of its events is earlier than the **watermark** —
//! the boundary the previous batch left. *Inside* a batch the events
//! may come in any order (the world hands over a plain concatenation of
//! its recorder rings). Every record site stamps at-or-after the
//! processing instant, so a sequential world names its clock as the
//! boundary, and a sharded one the smallest next-event time of any
//! shard at a window rendezvous. [`ingest`](StreamingDoctor::ingest)
//! takes the batch's latest instant.
//!
//! An open flight's accumulator holds its `FlightFacts`, the running
//! critical-path walk (`PathFold`) and the head-of-line hop it is
//! following (`Hop`). Events update it in two ways:
//!
//! * **On arrival, in any order**, everything that commutes. The
//!   latest event time, the cumulative ack per direction and a
//!   flight's quiet clock are maxima; a slot's first-send time is a
//!   minimum; counts are sums; a flight's send fields (and so its slot)
//!   follow its flight-order-first send whatever order its sends were
//!   seen in.
//! * **Once final, in flight order** — `(at, kind.canonical_key())`,
//!   the only order any analysis reads and the one the post-hoc
//!   [`FlightTable`](super::flights::FlightTable) establishes —
//!   everything that walks a flight: the critical-path gaps and the hop
//!   pairing. An event is **final** once the watermark a batch leaves
//!   is strictly past its timestamp, because no later batch can hold
//!   anything earlier. Events stamped at or past the watermark are held
//!   back for a later batch: the rest of the watermark instant (the
//!   world drains between two events of one same-instant batch) and the
//!   few a record site stamps into the future. A batch's events are
//!   staged in one shared scratch and grouped by flight in one counting
//!   pass; each flight's few final events are put in flight order on
//!   their own, and the batch as a whole is never sorted.
//!
//! Everything folded *across* flights commutes too — histogram
//! increments, sums, bounded smallest-K evidence and top-K worst sets —
//! so neither retirement order nor the order hops reach their port can
//! change the report.
//!
//! A flight retires once it is **terminal** (delivered via `app_recv`,
//! or an ack flight consumed by `transport_ack`) *and* its quiet clock
//! is a horizon (1 ms) behind the watermark — so every one of its
//! events is final and folded.
//! Non-terminal flights — lost, corrupted, or merely parked in a
//! congested crossbar queue longer than the horizon — are held until
//! the final report (or a memory-budget eviction), so congestion can
//! never race a live packet into retirement. Retirement is decided
//! after the whole batch is in, from a queue in time order holding an
//! entry for every batch that touches a terminal flight with nothing
//! held past the watermark (and, under a memory budget, for a flight's
//! first such batch, so that eviction can find it) — so which flights
//! retire, and when, is a function of the
//! batch's content, never of its internal order. Retirement is
//! O(1): the accumulator becomes a breakdown for the [`CriticalPath`]
//! histograms, a hop still waiting for its service end is dropped
//! unsampled, and the facts feed the storm and silent-drop folds. Only O(1)
//! residue per stream slot remains (first-send time, data-flight count
//! and lost-candidate list for the silent-drop detector) until the slot
//! is acknowledged.
//!
//! Three things make the fold differ from post-hoc; each is counted and
//! named as a caveat that turns the report non-confident: an event
//! arriving for an already-retired flight (detected exactly — packet
//! ids are minted monotonically per CAB — and counted in
//! [`StreamSummary::late_events`]), a memory-budget eviction
//! ([`StreamSummary::forced_retirements`]), and a flight that gains a
//! second `transport_send` after some of its hops reached their port
//! (two sends mean captures of separate worlds were merged, which
//! post-hoc excludes from head-of-line evidence; a world never records
//! one).

use super::critical_path::{CriticalPath, PathFold};
use super::flights::{flight_order, FlightFacts, StreamKey};
use super::pathology::{self, DoctorConfig, Hop, PortAcc, StreamAcc};
use super::DoctorReport;
use crate::hash::FoldMap;
use crate::metrics::MetricsRegistry;
use crate::telemetry::{EventKind, TelemetryEvent};
use crate::time::{Dur, Time};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

/// A **completed** flight (one that saw a terminal event — delivery or
/// ack consumption) retires after this much simulated time with no new
/// events. It must exceed the longest gap after a terminal event (for
/// unicast, nothing follows one; multicast copies still in flight keep
/// updating the quiet clock), or retirement races the stragglers and
/// the report counts `late_events` (equivalence with post-hoc then no
/// longer holds). Flights without a terminal event — still in flight,
/// silently dropped, corrupted — are held until the final report or a
/// memory-budget eviction, never horizon-retired: congestion can park a
/// packet in a crossbar queue for longer than any reasonable quiet
/// period. 1 ms matches the silent-drop grace window; being at least
/// 1 ns, it also never retires a flight with events held back, which
/// are stamped at or past the watermark.
const HORIZON: Dur = Dur::from_millis(1);
use std::mem::size_of;

/// Streaming-doctor tuning. The `doctor` thresholds are shared with
/// the post-hoc detectors so the two paths stay comparable.
#[derive(Clone, Debug, Default)]
pub struct StreamConfig {
    /// Detector thresholds (same as post-hoc).
    pub doctor: DoctorConfig,
    /// Hard cap on the fold's estimated footprint: when exceeded, the
    /// oldest open flights are force-retired (counted in
    /// [`StreamSummary::forced_retirements`]) until back under.
    pub memory_budget: Option<usize>,
}

/// `OpenFlight::touched` of a flight the current batch has not touched.
const UNTOUCHED: u32 = u32::MAX;

/// The hops an open flight is following. A unicast flight follows at
/// most one at a time; fan-out (multicast, duplicated copies) keeps the
/// rest in the doctor's spill table.
#[derive(Clone, Copy, Debug)]
enum Hops {
    Idle,
    One(Hop),
    Spilled,
}

/// One flight still accumulating events: fixed size, however many
/// events the flight has.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct OpenFlight {
    /// Send, slot, payload and counts, folded on arrival. The slot is
    /// the one the flight holds in the residue table.
    facts: FlightFacts,
    /// Latest event time — the quiet clock.
    last_at: Time,
    /// `true` once a terminal event arrived: `AppRecv` (the packet
    /// reached an application) or `TransportAck` (the ack was consumed
    /// at the data sender). Only terminal flights retire on the
    /// horizon — a packet can sit in a congested crossbar queue far
    /// longer than any reasonable quiet period, but nothing follows a
    /// delivery. Non-terminal flights (in flight, dropped, corrupted)
    /// are held until the final report or a memory-budget eviction.
    terminal: bool,
    /// No retirement-queue entry has been made for the flight yet.
    /// Under a memory budget a flight gets one on its first batch, so
    /// that eviction can find it before it completes.
    fresh: bool,
    /// Index into the current batch's touched list, or [`UNTOUCHED`].
    touched: u32,
    /// Critical-path walk over the flight's final events.
    path: PathFold,
    /// Head-of-line hops still being followed.
    hops: Hops,
    /// Some hop of this flight reached its port accumulator.
    hops_folded: bool,
}

impl OpenFlight {
    fn new(at: Time) -> OpenFlight {
        OpenFlight {
            facts: FlightFacts::default(),
            last_at: at,
            terminal: false,
            fresh: true,
            touched: UNTOUCHED,
            path: PathFold::default(),
            hops: Hops::Idle,
            hops_folded: false,
        }
    }
}

/// Bytes in one page of [`Slots`].
const PAGE_BYTES: usize = 64 << 10;

/// Accumulators in one page of [`Slots`].
const PAGE_SLOTS: usize = PAGE_BYTES / size_of::<OpenFlight>();

/// The open-flight accumulators, in fixed pages that are never
/// reallocated. One growing `Vec` would copy every accumulator at each
/// doubling and leave the old blocks behind in the allocator (≈10^5
/// open flights is 16 MiB of them); a new page copies nothing.
#[derive(Clone, Debug, Default)]
struct Slots {
    /// Full pages, then the one being filled.
    pages: Vec<Vec<OpenFlight>>,
}

impl Slots {
    /// Appends `of` and returns its index.
    fn push(&mut self, of: OpenFlight) -> u32 {
        if self.pages.last().is_none_or(|p| p.len() == PAGE_SLOTS) {
            self.pages.push(Vec::with_capacity(PAGE_SLOTS));
        }
        let page = self.pages.len() - 1;
        let last = &mut self.pages[page];
        last.push(of);
        (page * PAGE_SLOTS + last.len() - 1) as u32
    }
}

impl std::ops::Index<u32> for Slots {
    type Output = OpenFlight;

    #[inline]
    fn index(&self, slot: u32) -> &OpenFlight {
        let i = slot as usize;
        &self.pages[i / PAGE_SLOTS][i % PAGE_SLOTS]
    }
}

impl std::ops::IndexMut<u32> for Slots {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut OpenFlight {
        let i = slot as usize;
        &mut self.pages[i / PAGE_SLOTS][i % PAGE_SLOTS]
    }
}

/// An event held back from the fold until the watermark passes it,
/// ordered so that the earliest is on top of the heap.
#[derive(Clone, Copy, Debug)]
struct HeldEvent(TelemetryEvent);

impl Ord for HeldEvent {
    fn cmp(&self, other: &HeldEvent) -> Ordering {
        other.0.at.cmp(&self.0.at)
    }
}

impl PartialOrd for HeldEvent {
    fn partial_cmp(&self, other: &HeldEvent) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeldEvent {
    fn eq(&self, other: &HeldEvent) -> bool {
        self.0.at == other.0.at
    }
}

impl Eq for HeldEvent {}

/// What survives a stream slot after its flights retire.
#[derive(Clone, Debug)]
struct SlotResidue {
    /// Earliest `transport_send` of the slot seen so far — final by
    /// the time any flight that could read it retires, because batches
    /// arrive in time order.
    first_send: Time,
    /// Data flights of this slot retired so far (a count > 1 means a
    /// retransmission superseded the original: not a silent drop).
    data_count: u32,
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
    /// Open flights: id → the index of the flight's accumulator in
    /// `slots`.
    open: FoldMap<u64, u32>,
    /// Accumulators of open flights, plus the slots retired flights
    /// left (listed in `free`) for new ones to reuse.
    slots: Slots,
    free: Vec<u32>,
    /// Retirement queue in time order: `(quiet clock, flight)` entries,
    /// popped once the watermark reaches `time + horizon`. An entry is
    /// live while its time is still the flight's quiet clock; entries a
    /// later batch superseded (or whose flight already retired) are
    /// skipped on pop.
    retire_queue: VecDeque<(Time, u64)>,
    /// Events stamped at or past the watermark, not yet folded in
    /// flight order; the earliest on top.
    held: BinaryHeap<HeldEvent>,
    /// Scratch: the current batch's flight events (and the held ones),
    /// each with its flight's slot, then its index in `touched`.
    stage: Vec<(u32, TelemetryEvent)>,
    /// Scratch: the flights (id, slot) the batch being folded has
    /// touched.
    touched: Vec<(u64, u32)>,
    /// Scratch: per touched flight, where its events end in `grouped`.
    ends: Vec<u32>,
    /// Scratch: `stage` grouped by flight.
    grouped: Vec<TelemetryEvent>,
    /// Scratch: new retirement-queue entries of one batch.
    queued: Vec<(Time, u64)>,
    /// The hops of flights following more than one at a time.
    spilled_hops: FoldMap<u64, Vec<Hop>>,
    residue: FoldMap<StreamKey, SlotResidue>,
    /// Highest cumulative ack per `(sender, peer)` direction.
    acked: FoldMap<(u16, u16), u32>,
    streams: FoldMap<(u16, u16), StreamAcc>,
    ports: FoldMap<(u8, u8), PortAcc>,
    /// Silent-drop candidates per slot: `(send time, flight id)` of
    /// retired data flights that were never delivered or acked.
    candidates: FoldMap<StreamKey, Vec<(Time, u64)>>,
    cp: CriticalPath,
    /// Highest retired flight id per CAB (ids are minted `(cab << 40) |
    /// counter`, monotone per CAB) — the exact late-event detector.
    max_retired: FoldMap<u64, u64>,
    /// The release boundary the latest batch left: every event stamped
    /// before it is in.
    watermark: Time,
    /// The latest event time seen.
    latest: Time,
    events_folded: u64,
    flights_seen: u64,
    flights_retired: u64,
    late_events: u64,
    forced_retirements: u64,
    /// Flights that gained a second send after a hop reached its port.
    merged_after_hops: u64,
    peak_mem: usize,
    ring_hwm: u64,
    ring_dropped: u64,
}

impl StreamingDoctor {
    /// A fresh fold with the given tuning. Allocates nothing until the
    /// first batch.
    pub fn new(cfg: StreamConfig) -> StreamingDoctor {
        StreamingDoctor {
            cfg,
            open: FoldMap::default(),
            slots: Slots::default(),
            free: Vec::new(),
            retire_queue: VecDeque::new(),
            held: BinaryHeap::new(),
            stage: Vec::new(),
            touched: Vec::new(),
            ends: Vec::new(),
            grouped: Vec::new(),
            queued: Vec::new(),
            spilled_hops: FoldMap::default(),
            residue: FoldMap::default(),
            acked: FoldMap::default(),
            streams: FoldMap::default(),
            ports: FoldMap::default(),
            candidates: FoldMap::default(),
            cp: CriticalPath::default(),
            max_retired: FoldMap::default(),
            watermark: Time::ZERO,
            latest: Time::ZERO,
            events_folded: 0,
            flights_seen: 0,
            flights_retired: 0,
            late_events: 0,
            forced_retirements: 0,
            merged_after_hops: 0,
            peak_mem: 0,
            ring_hwm: 0,
            ring_dropped: 0,
        }
    }

    /// [`ingest_until`](StreamingDoctor::ingest_until) with the batch's
    /// latest instant as its boundary: the batches are time-disjoint.
    pub fn ingest(&mut self, batch: &mut Vec<TelemetryEvent>) {
        self.ingest_until(batch, None);
    }

    /// Folds one batch and clears it. Every event stamped before
    /// `boundary` must be in this batch or an earlier one (`None`: the
    /// latest instant seen so far), and every event must be at-or-after
    /// the watermark the previous batch left; inside the batch any
    /// order will do. The events stamped before the boundary fold, in
    /// flight order; the rest are held for a later batch.
    pub fn ingest_until(&mut self, batch: &mut Vec<TelemetryEvent>, boundary: Option<Time>) {
        if batch.is_empty() && boundary.unwrap_or(self.latest) <= self.watermark {
            return;
        }
        let floor = self.watermark;
        debug_assert!(
            batch.iter().all(|e| e.at >= floor),
            "streaming batch reaches back before the watermark {floor}"
        );
        // Two passes: first every event finds its flight — independent
        // lookups the processor overlaps — then each flight takes what
        // its events settle in any order.
        for ev in batch.iter() {
            if let Some(slot) = self.find_flight(ev) {
                self.stage.push((slot, *ev));
            }
        }
        batch.clear();
        for i in 0..self.stage.len() {
            let (slot, ev) = self.stage[i];
            self.stage[i].0 = self.arrive(slot, &ev);
        }
        self.watermark = self.watermark.max(boundary.unwrap_or(self.latest));
        self.fold_staged(false);
        self.advance_retirement();
        self.enforce_budget();
        self.peak_mem = self.peak_mem.max(self.mem_estimate());
    }

    /// Counts an event in and settles what it says about the run as a
    /// whole; returns the accumulator slot of its flight (opened if
    /// new), if it has one.
    fn find_flight(&mut self, ev: &TelemetryEvent) -> Option<u32> {
        self.latest = self.latest.max(ev.at);
        self.events_folded += 1;
        if let EventKind::TransportAck { cab, peer, ack } = ev.kind {
            // `cab` received the ack, so it is the data sender.
            let high = self.acked.entry((cab, peer)).or_insert(0);
            *high = (*high).max(ack);
        }
        if !ev.flight.is_some() {
            return None;
        }
        let id = ev.flight.0;
        if let Some(&slot) = self.open.get(&id) {
            return Some(slot);
        }
        // Retirement only runs between batches, so whether an id counts
        // as new or late is the same for every order inside the batch.
        if self.max_retired.get(&(id >> 40)).is_some_and(|&m| id <= m) {
            self.late_events += 1;
        } else {
            self.flights_seen += 1;
        }
        let fresh = OpenFlight::new(ev.at);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = fresh;
                slot
            }
            None => self.slots.push(fresh),
        };
        self.open.insert(id, slot);
        Some(slot)
    }

    /// Everything an event settles about its flight in any order; marks
    /// the flight touched and returns its index in the touched list.
    fn arrive(&mut self, slot: u32, ev: &TelemetryEvent) -> u32 {
        let of = &mut self.slots[slot];
        of.last_at = of.last_at.max(ev.at);
        let held = of.facts.slot();
        of.facts.observe(ev);
        match ev.kind {
            EventKind::TransportSend { cab, peer, seq, .. } => {
                let k = (cab, peer, seq);
                let r = self.residue.entry(k).or_insert(SlotResidue {
                    first_send: ev.at,
                    data_count: 0,
                    open_flights: 0,
                });
                r.first_send = r.first_send.min(ev.at);
                // The flight holds the slot of its flight-order-first
                // send; a second send (a malformed flight) that comes
                // first takes the hold over.
                if of.facts.slot() != held {
                    r.open_flights += 1;
                    if let Some(r) = held.and_then(|h| self.residue.get_mut(&h)) {
                        r.open_flights = r.open_flights.saturating_sub(1);
                    }
                }
            }
            EventKind::AppRecv { .. } | EventKind::TransportAck { .. } => of.terminal = true,
            _ => {}
        }
        if of.touched == UNTOUCHED {
            of.touched = self.touched.len() as u32;
            self.touched.push((ev.flight.0, slot));
        }
        of.touched
    }

    /// Folds every staged or held event that is final — all of them
    /// with `all` — into its flight in flight order, holds back the
    /// rest, and queues the touched flights for retirement.
    fn fold_staged(&mut self, all: bool) {
        let final_before = if all { Time::MAX } else { self.watermark };
        while let Some(top) = self.held.peek_mut().filter(|h| all || h.0.at < final_before) {
            let HeldEvent(ev) = PeekMut::pop(top);
            let id = ev.flight.0;
            // A held event's flight is open: eviction folds a flight's
            // held events before retiring it.
            let slot = self.open[&id];
            let of = &mut self.slots[slot];
            if of.touched == UNTOUCHED {
                of.touched = self.touched.len() as u32;
                self.touched.push((id, slot));
            }
            self.stage.push((of.touched, ev));
        }
        if self.stage.is_empty() {
            return;
        }
        // One counting pass lays each flight's events out contiguously.
        self.ends.clear();
        self.ends.resize(self.touched.len(), 0);
        for &(t, _) in &self.stage {
            self.ends[t as usize] += 1;
        }
        let mut start = 0;
        for end in &mut self.ends {
            let n = *end;
            *end = start;
            start += n;
        }
        self.grouped.clear();
        self.grouped.resize(self.stage.len(), self.stage[0].1);
        for &(t, ev) in &self.stage {
            let at = &mut self.ends[t as usize];
            self.grouped[*at as usize] = ev;
            *at += 1;
        }
        self.stage.clear();
        // Only a memory budget evicts non-terminal flights, from the
        // front of the queue: only then do they need an entry.
        let evictable = self.cfg.memory_budget.is_some();
        let mut start = 0;
        for (&(id, slot), &end) in self.touched.iter().zip(&self.ends) {
            let events = &mut self.grouped[start..end as usize];
            start = end as usize;
            if !events.is_sorted_by(|a, b| flight_order(a, b).is_le()) {
                events.sort_unstable_by(flight_order);
            }
            let of = &mut self.slots[slot];
            of.touched = UNTOUCHED;
            for ev in events.iter() {
                if all || ev.at < final_before {
                    fold_final(
                        id,
                        of,
                        ev,
                        &mut self.spilled_hops,
                        &mut self.ports,
                        &self.cfg.doctor,
                    );
                } else {
                    self.held.push(HeldEvent(*ev));
                }
            }
            // A flight quiet since past the watermark has an event held:
            // it is queued once that event folds.
            if (of.terminal || (evictable && of.fresh)) && of.last_at <= final_before {
                self.queued.push((of.last_at, id));
                of.fresh = false;
            }
        }
        self.touched.clear();
        // Every touched flight has an event at or past the previous
        // watermark, and none is queued past this one, so the new
        // entries all sort after the ones already queued.
        self.queued.sort_unstable();
        self.retire_queue.extend(self.queued.drain(..));
    }

    fn advance_retirement(&mut self) {
        // Two passes, like arrival: the due flights are found first (the
        // touched list is free between batches), then retired.
        let mut due = std::mem::take(&mut self.touched);
        while let Some(&(t, id)) = self.retire_queue.front() {
            if t + HORIZON > self.watermark {
                break;
            }
            self.retire_queue.pop_front();
            if let Entry::Occupied(e) = self.open.entry(id) {
                let of = &self.slots[*e.get()];
                if of.terminal && of.last_at == t {
                    due.push((id, e.remove()));
                }
            }
        }
        for &(id, slot) in &due {
            self.retire_flight(id, slot);
        }
        due.clear();
        self.touched = due;
    }

    /// Folds one completed flight into the online accumulators in O(1).
    /// Contributions commute, so retirement order is irrelevant to the
    /// final report.
    fn retire_flight(&mut self, id: u64, slot: u32) {
        let of = self.slots[slot];
        self.free.push(slot);
        self.flights_retired += 1;
        let m = self.max_retired.entry(id >> 40).or_insert(0);
        *m = (*m).max(id);
        let facts = of.facts;
        // A hop still followed at retirement never saw its service end,
        // and is no sample.
        if matches!(of.hops, Hops::Spilled) {
            self.spilled_hops.remove(&id);
        }
        if facts.malformed() {
            self.merged_after_hops += u64::from(of.hops_folded);
        }
        let streams = &mut self.streams;
        pathology::fold_storm(id, &facts, &self.cfg.doctor, |k| {
            streams.entry(k).or_insert_with(StreamAcc::new)
        });
        let first = facts.slot().and_then(|k| self.residue.get(&k)).map(|r| r.first_send);
        match of.path.breakdown(id, &facts, first) {
            Some(b) => self.cp.add(&b),
            None => self.cp.skipped += 1,
        }
        self.settle_slot(id, &facts);
    }

    /// Leaves a retiring flight's mark on its slot's residue: the data
    /// count, a silent-drop candidate if nobody answered it, and the
    /// residue's own release once the slot is acked and idle.
    fn settle_slot(&mut self, id: u64, facts: &FlightFacts) {
        let Some(k) = facts.slot() else { return };
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
            let Some((_, id)) = self.retire_queue.pop_front() else { break };
            let Some(slot) = self.open.remove(&id) else { continue };
            // The flight's held events fold first: they are in, just not
            // yet final.
            let mut mine = std::mem::take(&mut self.grouped);
            mine.clear();
            self.held.retain(|&HeldEvent(e)| {
                let own = e.flight.0 == id;
                if own {
                    mine.push(e);
                }
                !own
            });
            mine.sort_unstable_by(flight_order);
            for ev in &mine {
                fold_final(
                    id,
                    &mut self.slots[slot],
                    ev,
                    &mut self.spilled_hops,
                    &mut self.ports,
                    &self.cfg.doctor,
                );
            }
            self.grouped = mine;
            self.retire_flight(id, slot);
            self.forced_retirements += 1;
        }
    }

    /// Surviving silent-drop candidates: unacked slots with exactly one
    /// data flight, sent more than a grace window before the latest
    /// event.
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
                if at + self.cfg.doctor.grace > self.latest {
                    continue;
                }
                lost.push((at, id));
            }
        }
        lost
    }

    /// Estimated footprint of the fold state in bytes. An estimate —
    /// map overheads are approximated — but it moves with the real
    /// footprint, which is what the budget needs. Per open flight it is
    /// a constant: the fold keeps facts, not events.
    pub fn mem_estimate(&self) -> usize {
        // Per open flight: its slot, its id-to-slot map entry, table slack.
        self.open.len() * (size_of::<OpenFlight>() + size_of::<(u64, u32)>() + 8)
            + self.held.len() * size_of::<TelemetryEvent>()
            + self.spilled_hops.values().map(|h| h.len() * size_of::<Hop>() + 48).sum::<usize>()
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

    /// Finishes the fold: folds every held event, retires every open
    /// flight and builds the final report, exactly as
    /// [`diagnose`](super::diagnose) would over the canonically sorted
    /// capture — unless the fold diverged from it (late events, budget
    /// evictions, a flight merged from two worlds), which the report
    /// then names as caveats, marking itself non-confident.
    pub fn into_report(mut self, metrics: Option<&MetricsRegistry>) -> DoctorReport {
        self.fold_staged(true);
        let mut open: Vec<(u64, u32)> = self.open.drain().collect();
        open.sort_unstable();
        for (id, slot) in open {
            self.retire_flight(id, slot);
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
        let mut caveats = Vec::new();
        if self.late_events > 0 {
            caveats.push(format!(
                "{} events arrived for flights already retired (retirement horizon too short)",
                self.late_events
            ));
        }
        if self.forced_retirements > 0 {
            caveats.push(format!(
                "{} flights retired unfinished to keep the fold within its memory budget",
                self.forced_retirements
            ));
        }
        if self.merged_after_hops > 0 {
            caveats.push(format!(
                "{} flights gained a second transport_send after their hops were folded \
                 (captures of separate worlds merged)",
                self.merged_after_hops
            ));
        }
        DoctorReport::new(self.flights_seen, metrics, caveats, self.cp, findings)
    }

    /// [`into_report`](StreamingDoctor::into_report) without consuming
    /// the fold (clones the state).
    pub fn report(&self, metrics: Option<&MetricsRegistry>) -> DoctorReport {
        self.clone().into_report(metrics)
    }
}

/// Folds one final event into its flight's accumulator, in flight
/// order: one critical-path step, and for the crossbar and DMA-completion
/// events one step of the hops the flight is following. Finished hops go
/// straight to their port — unless the flight already has two sends,
/// which post-hoc excludes from head-of-line evidence.
fn fold_final(
    id: u64,
    of: &mut OpenFlight,
    ev: &TelemetryEvent,
    spilled: &mut FoldMap<u64, Vec<Hop>>,
    ports: &mut FoldMap<(u8, u8), PortAcc>,
    cfg: &DoctorConfig,
) {
    of.path.step(ev);
    if !matches!(ev.kind, EventKind::CrossbarForward { .. }) && !pathology::ends_service(&ev.kind) {
        return;
    }
    let fold = !of.facts.malformed();
    let mut folded = false;
    let mut done = |h: Hop, service: Dur| {
        if fold {
            fold_hop(h, service, id, ports, cfg);
            folded = true;
        }
    };
    let opened = Hop::opened_by(ev);
    of.hops = match of.hops {
        Hops::Idle => opened.map_or(Hops::Idle, Hops::One),
        Hops::One(h) => match (h.step(ev, &mut done), opened) {
            (Some(a), Some(b)) => {
                spilled.insert(id, vec![a, b]);
                Hops::Spilled
            }
            (Some(h), None) | (None, Some(h)) => Hops::One(h),
            (None, None) => Hops::Idle,
        },
        Hops::Spilled => {
            let hops = spilled.get_mut(&id).expect("a spilled flight's hops are kept");
            hops.retain_mut(|h| match h.step(ev, &mut done) {
                Some(next) => {
                    *h = next;
                    true
                }
                None => false,
            });
            hops.extend(opened);
            match hops.as_slice() {
                [] | [_] => {
                    let last = hops.pop();
                    spilled.remove(&id);
                    last.map_or(Hops::Idle, Hops::One)
                }
                _ => Hops::Spilled,
            }
        }
    };
    of.hops_folded |= folded;
}

/// Folds one finished hop into its port's accumulator.
fn fold_hop(
    hop: Hop,
    service: Dur,
    flight: u64,
    ports: &mut FoldMap<(u8, u8), PortAcc>,
    cfg: &DoctorConfig,
) {
    let Hop::Forwarded { hub, input, enqueued, forwarded } = hop else { return };
    ports.entry((hub, input)).or_default().add_sample(
        forwarded.saturating_since(enqueued),
        service,
        enqueued,
        flight,
        cfg.max_evidence,
    );
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
    fn events_past_the_boundary_fold_in_flight_order_once_released() {
        // Flight 1's delivery is drained first, stamped past the first
        // drain's boundary; its crossbar hop, stamped earlier but at or
        // after that boundary, comes in the second drain. Folded on
        // arrival, the delivery would end the critical-path walk before
        // the hop's gaps were charged.
        let hop = [
            ev(600, 1, EventKind::CrossbarEnqueue { hub: 0, input: 1, bytes: 98 }),
            ev(700, 1, EventKind::CrossbarForward { hub: 0, input: 1, output: 2, bytes: 98 }),
        ];
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        let first = vec![send(100, 1, 0, false), recv(900, 1)];
        doc.ingest_until(&mut first.clone(), Some(Time::from_nanos(500)));
        doc.ingest_until(&mut hop.to_vec(), Some(Time::from_nanos(800)));
        doc.ingest_until(&mut Vec::new(), None);
        let mut whole = StreamingDoctor::new(StreamConfig::default());
        whole.ingest(&mut [first, hop.to_vec()].concat());
        let (rep, reference) = (doc.into_report(None), whole.into_report(None));
        assert_eq!(rep.critical_path.attributed, 1);
        assert_eq!(rep.render(), reference.render());
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
        // Evicted flights were analysed unfinished: the report must not
        // claim otherwise, and must say why.
        let rep = doc.into_report(None);
        assert!(!rep.confident);
        assert!(rep.render().contains("memory budget"), "{}", rep.render());
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

    #[test]
    fn late_event_makes_the_report_not_confident() {
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        doc.ingest(&mut vec![send(100, 1, 0, false), recv(9_000, 1)]);
        doc.ingest(&mut vec![send(50_000_000, 2, 1, false)]);
        doc.ingest(&mut vec![recv(50_000_100, 1)]);
        let rep = doc.into_report(None);
        assert!(!rep.confident);
        assert!(rep.findings.iter().all(|f| !f.confident));
        let text = rep.render();
        assert!(text.contains("1 events arrived for flights already retired"), "{text}");
        assert!(!text.contains("telemetry ring dropped"), "{text}");
    }

    #[test]
    fn a_second_send_after_folded_hops_is_a_caveat() {
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        doc.ingest(&mut vec![
            send(100, 1, 0, false),
            ev(200, 1, EventKind::CrossbarEnqueue { hub: 0, input: 1, bytes: 98 }),
            ev(300, 1, EventKind::CrossbarForward { hub: 0, input: 1, output: 2, bytes: 98 }),
            ev(300, 1, EventKind::DmaStart { cab: 1, channel: 0, bytes: 96 }),
            ev(450, 1, EventKind::DmaComplete { cab: 1, channel: 0, bytes: 96 }),
            recv(460, 1),
        ]);
        // Merged from another world: the same id, a different slot.
        doc.ingest(&mut vec![send(500, 1, 7, false)]);
        let rep = doc.into_report(None);
        assert!(!rep.confident);
        assert!(rep.render().contains("1 flights gained a second transport_send"));
    }

    #[test]
    fn open_flights_spanning_several_pages_match_post_hoc() {
        // Two and a half pages of flights open at once, then a second
        // wave that reuses the slots the first one retired.
        let wave = (2 * PAGE_SLOTS + PAGE_SLOTS / 2) as u64;
        let mut events = Vec::new();
        for round in 0..2u64 {
            let base = round * 20_000_000;
            for i in 0..wave {
                let id = round * wave + i;
                let seq = id as u32;
                events.push(send(base + 100 + i, id, seq, false));
                events.push(recv(base + 10_000_000 + i, id));
            }
        }
        let mut sorted = events.clone();
        sorted.sort_unstable_by_key(|e| e.canonical_key());
        let reference = diagnose(&sorted, None);
        let doc = stream_in_batches(&events, 97);
        let s = doc.summary();
        assert_eq!((s.flights_seen, s.late_events), (2 * wave, 0));
        assert!(doc.slots.pages.len() > 2, "{} pages", doc.slots.pages.len());
        let rep = doc.into_report(None);
        assert_eq!(rep.flights, reference.flights);
        assert_eq!(rep.render(), reference.render());
    }

    #[test]
    fn an_open_flight_costs_the_same_however_long_it_gets() {
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        doc.ingest(&mut vec![send(100, 1, 0, false)]);
        let mut sizes = Vec::new();
        for hop in 0..96u64 {
            // One hop per batch, through one of two ports: enqueue,
            // forward, the next hop's enqueue ends this one's service.
            let t = 1_000 + hop * 2_000;
            let (hub, input) = ((hop % 2) as u8, 3);
            doc.ingest(&mut vec![
                ev(t, 1, EventKind::CrossbarEnqueue { hub, input, bytes: 98 }),
                ev(t + 700, 1, EventKind::CrossbarForward { hub, input, output: 5, bytes: 98 }),
            ]);
            sizes.push(doc.mem_estimate());
        }
        let s = doc.summary();
        assert_eq!((s.open_flights, s.flights_retired), (1, 0));
        assert_eq!(s.events_folded, 1 + 2 * 96);
        assert!(sizes[8..].iter().all(|&m| m == sizes[8]), "footprint grew: {sizes:?}");
    }
}
