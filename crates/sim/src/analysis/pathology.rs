//! Pathology detectors: rules over the flight table and metrics that
//! flag the network behaviors the paper's instrumentation board existed
//! to catch — retransmit storms, head-of-line blocking at HUB ports,
//! mailbox saturation, and silently dropped packets.
//!
//! Every detector emits a typed [`Finding`] carrying its evidence:
//! which flights, which port, which time window. Findings are
//! *downgraded* (`confident: false`) when the capture is known to be
//! incomplete (telemetry ring overflow, a streaming fold that diverged
//! from it), so analyses over partial data say so instead of asserting.

use super::flights::{Flight, FlightFacts, FlightTable};
use crate::metrics::MetricsRegistry;
use crate::telemetry::{EventKind, TelemetryEvent};
use crate::time::{Dur, Time};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look; the system still made progress.
    Warn,
    /// The pathology measurably hurt latency or lost data.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "WARN",
            Severity::Critical => "CRIT",
        })
    }
}

/// One detected pathology, with the evidence that triggered it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired (stable identifier: `retransmit_storm`,
    /// `head_of_line`, `mailbox_saturation`, `reassembly_mismatch`,
    /// `silent_drops`).
    pub detector: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// `false` when the report carries a caveat (a ring overflow, a
    /// streaming fold that diverged from the capture), so the evidence
    /// may be incomplete.
    pub confident: bool,
    /// What happened, in one sentence, with the numbers.
    pub summary: String,
    /// The component the finding is about (`"stream 2->0"`,
    /// `"hub1 input 4"`, `"cab3 mailbox"`).
    pub subject: String,
    /// Simulated-time window the evidence spans, when meaningful.
    pub window: Option<(Time, Time)>,
    /// Implicated flight ids (capped at
    /// [`DoctorConfig::max_evidence`]; the summary has the full count).
    pub flights: Vec<u64>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {} — {}", self.severity, self.detector, self.subject, self.summary)?;
        if let Some((a, b)) = self.window {
            write!(f, " (window {a}..{})", Time::from_nanos(b.nanos()))?;
        }
        if !self.flights.is_empty() {
            write!(f, " flights {:?}", self.flights)?;
        }
        if !self.confident {
            write!(f, " [suspect: see the report's caveats]")?;
        }
        Ok(())
    }
}

/// Detector thresholds. The defaults suit the repo's experiments; tune
/// per capture when hunting something specific.
#[derive(Clone, Debug)]
pub struct DoctorConfig {
    /// Retransmit storm: flag when resent data flights / all data
    /// flights exceeds this ratio.
    pub resend_ratio: f64,
    /// Retransmit storm: require at least this many resends.
    pub min_resends: usize,
    /// Head-of-line: flag a HUB input port when mean queue wait exceeds
    /// this multiple of the port's mean service time.
    pub hol_dominance: f64,
    /// Head-of-line: require at least this many forwarded packets.
    pub hol_min_samples: usize,
    /// Head-of-line: ignore ports whose mean wait is below this floor.
    pub hol_min_wait: Dur,
    /// Mailbox saturation: flag when peak bytes reach this fraction of
    /// capacity.
    pub mailbox_high_water: f64,
    /// Silent drops: ignore flights sent within this much of capture
    /// end (they may still legitimately be in flight).
    pub grace: Dur,
    /// Cap on flight ids attached to a finding.
    pub max_evidence: usize,
}

impl Default for DoctorConfig {
    fn default() -> DoctorConfig {
        DoctorConfig {
            resend_ratio: 0.25,
            min_resends: 3,
            hol_dominance: 2.0,
            hol_min_samples: 8,
            hol_min_wait: Dur::from_micros(2),
            mailbox_high_water: 0.9,
            grace: Dur::from_millis(1),
            max_evidence: 8,
        }
    }
}

/// Runs every detector over a capture. `metrics` feeds the mailbox
/// detector (the others work from the flight table alone).
pub(crate) fn detect(
    table: &FlightTable,
    metrics: Option<&MetricsRegistry>,
    cfg: &DoctorConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    retransmit_storms(table, cfg, &mut findings);
    head_of_line(table, cfg, &mut findings);
    if let Some(m) = metrics {
        mailbox_saturation(m, cfg, &mut findings);
        reassembly_mismatches(m, &mut findings);
    }
    silent_drops(table, cfg, &mut findings);
    sort_findings(&mut findings);
    findings
}

/// Orders findings by (severity desc, subject, first implicated
/// flight, detector) — a total order over finding content, so report
/// output is byte-identical across shard counts and repeat runs even
/// when two findings share a subject.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.subject.cmp(&b.subject))
            .then_with(|| {
                let fa = a.flights.first().copied().unwrap_or(u64::MAX);
                let fb = b.flights.first().copied().unwrap_or(u64::MAX);
                fa.cmp(&fb)
            })
            .then_with(|| a.detector.cmp(b.detector))
    });
}

/// Per-stream-direction retransmit fold. One instance per (cab, peer);
/// flights can be folded in **any order** — evidence is the smallest
/// `max_evidence` resent flight ids regardless of arrival order, so
/// the post-hoc id-ascending walk and the streaming doctor's
/// retirement-order folds produce identical findings.
#[derive(Clone, Debug)]
pub(crate) struct StreamAcc {
    pub(crate) sends: usize,
    pub(crate) resends: usize,
    evidence: Vec<u64>,
    lo: Time,
    hi: Time,
}

impl StreamAcc {
    pub(crate) fn new() -> StreamAcc {
        StreamAcc { sends: 0, resends: 0, evidence: Vec::new(), lo: Time::MAX, hi: Time::ZERO }
    }

    /// Folds one data flight of the stream. `resend` carries the send
    /// time and flight id when the flight was a retransmission.
    pub(crate) fn add_data_flight(&mut self, resend: Option<(Time, u64)>, max_evidence: usize) {
        self.sends += 1;
        if let Some((at, id)) = resend {
            self.resends += 1;
            self.lo = self.lo.min(at);
            self.hi = self.hi.max(at);
            let pos = self.evidence.partition_point(|&e| e < id);
            if pos < max_evidence {
                self.evidence.insert(pos, id);
                self.evidence.truncate(max_evidence);
            }
        }
    }
}

/// Applies the storm thresholds to a folded stream.
pub(crate) fn storm_finding(
    cab: u16,
    peer: u16,
    acc: &StreamAcc,
    cfg: &DoctorConfig,
) -> Option<Finding> {
    let (sends, resends) = (acc.sends, acc.resends);
    if sends == 0 || resends < cfg.min_resends {
        return None;
    }
    let ratio = resends as f64 / sends as f64;
    if ratio < cfg.resend_ratio {
        return None;
    }
    let total = resends;
    Some(Finding {
        detector: "retransmit_storm",
        severity: if ratio >= 2.0 * cfg.resend_ratio { Severity::Critical } else { Severity::Warn },
        confident: true,
        summary: format!(
            "{resends} of {sends} data sends were go-back-N resends \
             ({:.0}% ≥ {:.0}% threshold; {total} resent flights)",
            100.0 * ratio,
            100.0 * cfg.resend_ratio
        ),
        subject: format!("stream {cab}->{peer}"),
        window: Some((acc.lo, acc.hi)),
        flights: acc.evidence.clone(),
    })
}

/// Folds one flight into its stream direction's storm accumulator,
/// which `acc` looks up.
pub(crate) fn fold_storm<'a>(
    id: u64,
    facts: &FlightFacts,
    cfg: &DoctorConfig,
    acc: impl FnOnce((u16, u16)) -> &'a mut StreamAcc,
) {
    if !facts.is_data() {
        return;
    }
    let Some((at, (cab, peer, _))) = facts.send() else { return };
    let resend = facts.retransmit.then_some((at, id));
    acc((cab, peer)).add_data_flight(resend, cfg.max_evidence);
}

/// Go-back-N resend ratio per stream direction.
fn retransmit_storms(table: &FlightTable, cfg: &DoctorConfig, out: &mut Vec<Finding>) {
    let mut streams: BTreeMap<(u16, u16), StreamAcc> = BTreeMap::new();
    for f in table.flights() {
        fold_storm(f.id, &f.facts(), cfg, |k| streams.entry(k).or_insert_with(StreamAcc::new));
    }
    for ((cab, peer), acc) in &streams {
        out.extend(storm_finding(*cab, *peer, acc, cfg));
    }
}

/// Per-HUB-input queue-wait fold. Flights can be folded in any order:
/// the worst list keeps the top `max_evidence` samples under the total
/// order (wait desc, flight id), and the means are plain sums.
#[derive(Clone, Debug, Default)]
pub(crate) struct PortAcc {
    wait: Dur,
    service: Dur,
    pub(crate) n: usize,
    worst: Vec<(Dur, u64)>,
    lo: Option<Time>,
    hi: Option<Time>,
}

impl PortAcc {
    pub(crate) fn add_sample(
        &mut self,
        wait: Dur,
        service: Dur,
        enqueued: Time,
        flight: u64,
        max_evidence: usize,
    ) {
        self.wait += wait;
        self.service += service;
        self.n += 1;
        let key = (Reverse(wait), flight);
        let pos = self.worst.partition_point(|&(w, id)| (Reverse(w), id) < key);
        if pos < max_evidence {
            self.worst.insert(pos, (wait, flight));
            self.worst.truncate(max_evidence);
        }
        self.lo = Some(self.lo.map_or(enqueued, |t| t.min(enqueued)));
        self.hi = Some(self.hi.map_or(enqueued, |t| t.max(enqueued)));
    }
}

/// Applies the head-of-line thresholds to a folded port.
pub(crate) fn hol_finding(
    hub: u8,
    input: u8,
    port: &PortAcc,
    cfg: &DoctorConfig,
) -> Option<Finding> {
    if port.n < cfg.hol_min_samples {
        return None;
    }
    let mean_wait = port.wait / port.n as u64;
    let mean_service = port.service / port.n as u64;
    if mean_wait < cfg.hol_min_wait {
        return None;
    }
    let dominance = mean_wait.nanos() as f64 / mean_service.nanos().max(1) as f64;
    if dominance < cfg.hol_dominance {
        return None;
    }
    Some(Finding {
        detector: "head_of_line",
        severity: Severity::Warn,
        confident: true,
        summary: format!(
            "mean queue wait {mean_wait} is {dominance:.1}x mean service time \
             {mean_service} over {} packets",
            port.n
        ),
        subject: format!("hub{hub} input {input}"),
        window: port.lo.zip(port.hi),
        flights: port.worst.iter().map(|&(_, id)| id).collect(),
    })
}

/// Folds one flight's HUB hops into the per-port accumulators. The
/// flight's events must be in flight order (flight tables keep them
/// so).
pub(crate) fn fold_head_of_line(
    f: &Flight,
    facts: &FlightFacts,
    ports: &mut BTreeMap<(u8, u8), PortAcc>,
    cfg: &DoctorConfig,
) {
    if facts.malformed() {
        return;
    }
    let evs = &f.events;
    for (i, ev) in evs.iter().enumerate() {
        let EventKind::CrossbarEnqueue { hub, input, .. } = ev.kind else { continue };
        // Find this hop's forward and the event after it.
        let Some(fwd) = evs[i + 1..].iter().position(|e| {
            matches!(e.kind, EventKind::CrossbarForward { hub: h, input: p, .. }
                if h == hub && p == input)
        }) else {
            continue;
        };
        let fwd_idx = i + 1 + fwd;
        let wait = evs[fwd_idx].at.saturating_since(ev.at);
        // Service: forward to the next hop's arrival or, on a hop into
        // a CAB, to the receive DMA's completion (its start is stamped
        // at the forward itself). A hop whose end was never seen is no
        // sample.
        let Some(end) = evs[fwd_idx + 1..].iter().find(|e| ends_service(&e.kind)) else {
            continue;
        };
        let service = end.at.saturating_since(evs[fwd_idx].at);
        ports.entry((hub, input)).or_default().add_sample(
            wait,
            service,
            ev.at,
            f.id,
            cfg.max_evidence,
        );
    }
}

/// `true` for the events that end a forwarded hop's service: the next
/// hop's arrival, or the receive DMA's completion on a hop into a CAB.
pub(crate) fn ends_service(kind: &EventKind) -> bool {
    matches!(kind, EventKind::CrossbarEnqueue { .. } | EventKind::DmaComplete { .. })
}

/// One HUB hop a fold fed events in flight order is still following —
/// [`fold_head_of_line`]'s two searches as state: an enqueue waiting
/// for the forward that ends its queue wait, then that forward waiting
/// for the event that [`ends_service`]. Every queued hop on a port
/// moves on at that port's next forward and every forwarded hop ends at
/// the next such event, exactly as [`fold_head_of_line`] pairs them; a
/// unicast flight never follows more than one hop at a time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Hop {
    /// Enqueued at `(hub, input)`, not yet forwarded.
    Queued { hub: u8, input: u8, enqueued: Time },
    /// Forwarded, service end not yet seen.
    Forwarded { hub: u8, input: u8, enqueued: Time, forwarded: Time },
}

impl Hop {
    /// The hop `ev` opens: a crossbar enqueue starts one.
    pub(crate) fn opened_by(ev: &TelemetryEvent) -> Option<Hop> {
        match ev.kind {
            EventKind::CrossbarEnqueue { hub, input, .. } => {
                Some(Hop::Queued { hub, input, enqueued: ev.at })
            }
            _ => None,
        }
    }

    /// Advances the hop past `ev`, the flight's next event in flight
    /// order: `None` once `ev` ends its service, after handing the hop
    /// and its service time to `done`.
    pub(crate) fn step(self, ev: &TelemetryEvent, mut done: impl FnMut(Hop, Dur)) -> Option<Hop> {
        match (self, ev.kind) {
            (Hop::Forwarded { forwarded, .. }, kind) if ends_service(&kind) => {
                done(self, ev.at.saturating_since(forwarded));
                None
            }
            (
                Hop::Queued { hub, input, enqueued },
                EventKind::CrossbarForward { hub: h, input: i, .. },
            ) if (h, i) == (hub, input) => {
                Some(Hop::Forwarded { hub, input, enqueued, forwarded: ev.at })
            }
            _ => Some(self),
        }
    }
}

/// Queue wait vs service time per HUB input port.
fn head_of_line(table: &FlightTable, cfg: &DoctorConfig, out: &mut Vec<Finding>) {
    let mut ports: BTreeMap<(u8, u8), PortAcc> = BTreeMap::new();
    for f in table.flights() {
        fold_head_of_line(f, &f.facts(), &mut ports, cfg);
    }
    for ((hub, input), port) in &ports {
        out.extend(hol_finding(*hub, *input, port, cfg));
    }
}

/// High-water marks and rejects from the metrics registry.
pub(crate) fn mailbox_saturation(m: &MetricsRegistry, cfg: &DoctorConfig, out: &mut Vec<Finding>) {
    let capacity = m.gauge("mailbox.capacity_bytes").unwrap_or(0.0);
    for (name, peak) in m.gauges() {
        let Some(cab) = name.strip_prefix("cab").and_then(|r| {
            r.strip_suffix(".mailbox.peak_bytes").and_then(|c| c.parse::<usize>().ok())
        }) else {
            continue;
        };
        let rejects = m.counter(&format!("cab{cab}.mailbox_rejects"));
        let frac = if capacity > 0.0 { peak / capacity } else { 0.0 };
        if rejects == 0 && frac < cfg.mailbox_high_water {
            continue;
        }
        let severity = if rejects > 0 { Severity::Critical } else { Severity::Warn };
        out.push(Finding {
            detector: "mailbox_saturation",
            severity,
            confident: true,
            summary: if rejects > 0 {
                format!("{rejects} messages rejected; peak {peak:.0} B of {capacity:.0} B capacity")
            } else {
                format!("peak {peak:.0} B is {:.0}% of {capacity:.0} B capacity", 100.0 * frac)
            },
            subject: format!("cab{cab} mailbox"),
            window: None,
            flights: Vec::new(),
        });
    }
}

/// In-order packets whose fragment fields contradicted the in-progress
/// reassembly: corruption the checksum missed (or a protocol bug). The
/// transport drops and counts these instead of panicking; any nonzero
/// count deserves eyes, so there is no threshold.
pub(crate) fn reassembly_mismatches(m: &MetricsRegistry, out: &mut Vec<Finding>) {
    for (name, count) in m.counters() {
        let Some(cab) = name.strip_prefix("cab").and_then(|r| {
            r.strip_suffix(".transport.reassembly_mismatches").and_then(|c| c.parse::<usize>().ok())
        }) else {
            continue;
        };
        if count == 0 {
            continue;
        }
        out.push(Finding {
            detector: "reassembly_mismatch",
            severity: Severity::Critical,
            confident: true,
            summary: format!(
                "{count} in-order fragment(s) contradicted the in-progress reassembly \
                 (corruption past the checksum, or a framing bug); dropped, sender retransmits"
            ),
            subject: format!("cab{cab} transport"),
            window: None,
            flights: Vec::new(),
        });
    }
}

/// Data flights that vanished: never delivered, never acked, never
/// superseded by a retransmission, and old enough that "still in
/// flight" is not an excuse.
fn silent_drops(table: &FlightTable, cfg: &DoctorConfig, out: &mut Vec<Finding>) {
    let horizon = table.capture_end();
    let mut lost: Vec<(Time, u64)> = Vec::new();
    for f in table.flights() {
        let Some(((cab, peer, seq), at)) = f.facts().undelivered_data() else { continue };
        if table.acked(cab, peer, seq) {
            continue; // consumed (e.g. a mid-message fragment) or resend covered
        }
        if at + cfg.grace > horizon {
            continue; // could still be in flight at capture end
        }
        lost.push((at, f.id));
    }
    // Flights superseded by retransmissions of the same slot are not
    // silent: drop them if ANY other flight shares the slot.
    let mut slot_counts: BTreeMap<(u16, u16, u32), usize> = BTreeMap::new();
    for f in table.flights() {
        if let Some(k) = f.stream_key() {
            if f.is_data() {
                *slot_counts.entry(k).or_insert(0) += 1;
            }
        }
    }
    lost.retain(|&(_, id)| {
        table
            .get(id)
            .and_then(|f| f.stream_key())
            .map(|k| slot_counts.get(&k).copied().unwrap_or(0) <= 1)
            .unwrap_or(true)
    });
    out.extend(silent_drop_finding(lost, cfg));
}

/// Builds the silent-drop finding from the surviving `(send time,
/// flight id)` candidates; `None` when the list is empty.
pub(crate) fn silent_drop_finding(
    mut lost: Vec<(Time, u64)>,
    cfg: &DoctorConfig,
) -> Option<Finding> {
    if lost.is_empty() {
        return None;
    }
    lost.sort();
    let (lo, hi) = (lost[0].0, lost[lost.len() - 1].0);
    let total = lost.len();
    Some(Finding {
        detector: "silent_drops",
        severity: Severity::Critical,
        confident: true,
        summary: format!(
            "{total} data flights were sent but never delivered, acked, or retransmitted"
        ),
        subject: "network".to_string(),
        window: Some((lo, hi)),
        flights: lost.into_iter().take(cfg.max_evidence).map(|(_, id)| id).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::streaming::{StreamConfig, StreamingDoctor};
    use crate::telemetry::{FlightId, TelemetryEvent};

    fn ev(ns: u64, flight: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(flight), kind }
    }

    fn send(ns: u64, flight: u64, seq: u32, retransmit: bool) -> TelemetryEvent {
        ev(ns, flight, EventKind::TransportSend { cab: 0, peer: 1, seq, bytes: 64, retransmit })
    }

    fn recv(ns: u64, flight: u64) -> TelemetryEvent {
        ev(ns, flight, EventKind::AppRecv { cab: 1, mailbox: 0, bytes: 64 })
    }

    #[test]
    fn storm_detector_fires_with_flight_ids() {
        let mut events = Vec::new();
        for i in 0..4u64 {
            events.push(send(100 + i, i, i as u32, false));
            events.push(recv(10_000 + i, i));
        }
        for i in 0..3u64 {
            events.push(send(20_000 + i, 100 + i, i as u32, true));
            events.push(recv(30_000 + i, 100 + i));
        }
        let table = FlightTable::from_events(&events);
        let findings = detect(&table, None, &DoctorConfig::default());
        let storm = findings.iter().find(|f| f.detector == "retransmit_storm").unwrap();
        assert_eq!(storm.flights, vec![100, 101, 102]);
        assert_eq!(storm.subject, "stream 0->1");
        assert_eq!(storm.severity, Severity::Warn);
    }

    #[test]
    fn quiet_capture_produces_no_findings() {
        let events = vec![send(100, 1, 0, false), recv(9_000, 1)];
        let table = FlightTable::from_events(&events);
        // grace: the lone undelivered case doesn't apply — it was delivered.
        assert!(detect(&table, None, &DoctorConfig::default()).is_empty());
    }

    #[test]
    fn head_of_line_flags_dominated_port() {
        let mut events = Vec::new();
        for i in 0..10u64 {
            let base = i * 100_000;
            events.push(send(base, i, i as u32, false));
            events.push(ev(
                base + 100,
                i,
                EventKind::CrossbarEnqueue { hub: 1, input: 4, bytes: 98 },
            ));
            // 30 us of queue wait, then forward...
            events.push(ev(
                base + 30_100,
                i,
                EventKind::CrossbarForward { hub: 1, input: 4, output: 2, bytes: 98 },
            ));
            // ...then only 1 us until the receive DMA completes: wait
            // dominates.
            events.push(ev(
                base + 31_100,
                i,
                EventKind::DmaComplete { cab: 1, channel: 0, bytes: 96 },
            ));
            events.push(recv(base + 40_000, i));
        }
        let table = FlightTable::from_events(&events);
        let findings = detect(&table, None, &DoctorConfig::default());
        let hol = findings.iter().find(|f| f.detector == "head_of_line").unwrap();
        assert_eq!(hol.subject, "hub1 input 4");
        assert_eq!(hol.flights.len(), 8); // capped at max_evidence
    }

    /// A hop into a CAB is served until its receive DMA completes: the
    /// DMA start carries the forward's own timestamp. A hop whose end
    /// never shows up is no sample at all, not a zero-length service.
    #[test]
    fn head_of_line_service_ends_at_the_receive_dma_completion() {
        let mut events = Vec::new();
        for i in 0..10u64 {
            let base = i * 100_000;
            let (hub, input, output) = (1, 4, 2);
            events.push(send(base, i, i as u32, false));
            events.push(ev(base + 100, i, EventKind::CrossbarEnqueue { hub, input, bytes: 98 }));
            // 30 us of queue wait...
            let fwd = base + 30_100;
            events.push(ev(fwd, i, EventKind::CrossbarForward { hub, input, output, bytes: 98 }));
            events.push(ev(fwd, i, EventKind::DmaStart { cab: 1, channel: 0, bytes: 96 }));
            // ...and 10 us until the packet is in CAB memory: 3x.
            events.push(ev(
                fwd + 10_000,
                i,
                EventKind::DmaComplete { cab: 1, channel: 0, bytes: 96 },
            ));
            events.push(recv(base + 50_000, i));
            // A second port whose packets are forwarded into a DMA that
            // never completes in the capture.
            let (id, hub, input) = (100 + i, 2, 1);
            events.push(send(base, id, 100 + i as u32, false));
            events.push(ev(base + 100, id, EventKind::CrossbarEnqueue { hub, input, bytes: 98 }));
            let fwd = base + 30_100;
            events.push(ev(fwd, id, EventKind::CrossbarForward { hub, input, output, bytes: 98 }));
            events.push(ev(fwd, id, EventKind::DmaStart { cab: 1, channel: 1, bytes: 96 }));
        }
        let table = FlightTable::from_events(&events);
        let findings = detect(&table, None, &DoctorConfig::default());
        let hol: Vec<&Finding> = findings.iter().filter(|f| f.detector == "head_of_line").collect();
        assert_eq!(hol.len(), 1, "{hol:?}");
        assert_eq!(hol[0].subject, "hub1 input 4");
        assert!(hol[0].summary.contains("is 3.0x mean service time"), "{}", hol[0].summary);

        // The streaming fold pairs hops the same way.
        events.sort_unstable_by_key(|e| e.canonical_key());
        let mut doctor = StreamingDoctor::new(StreamConfig::default());
        doctor.ingest(&mut events.clone());
        assert_eq!(
            doctor.into_report(None).render(),
            crate::analysis::diagnose(&events, None).render()
        );
    }

    #[test]
    fn mailbox_rejects_are_critical() {
        let mut m = MetricsRegistry::new();
        m.gauge_max("mailbox.capacity_bytes", 1024.0);
        m.gauge_max("cab2.mailbox.peak_bytes", 1024.0);
        m.counter_add("cab2.mailbox_rejects", 5);
        let table = FlightTable::from_events(&[]);
        let findings = detect(&table, Some(&m), &DoctorConfig::default());
        let mb = findings.iter().find(|f| f.detector == "mailbox_saturation").unwrap();
        assert_eq!(mb.severity, Severity::Critical);
        assert_eq!(mb.subject, "cab2 mailbox");
    }

    #[test]
    fn reassembly_mismatch_is_flagged_from_metrics() {
        let mut m = MetricsRegistry::new();
        m.counter_add("cab3.transport.reassembly_mismatches", 2);
        m.counter_add("cab1.transport.reassembly_mismatches", 0); // zero: quiet
        let table = FlightTable::from_events(&[]);
        let findings = detect(&table, Some(&m), &DoctorConfig::default());
        let hits: Vec<_> =
            findings.iter().filter(|f| f.detector == "reassembly_mismatch").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, "cab3 transport");
        assert_eq!(hits[0].severity, Severity::Critical);
    }

    #[test]
    fn silent_drop_detected_past_grace() {
        let mut events = vec![send(100, 1, 0, false)];
        // A later event pushes the horizon far past the grace window.
        events.push(send(10_000_000, 2, 1, false));
        events.push(recv(10_000_500, 2));
        let table = FlightTable::from_events(&events);
        let findings = detect(&table, None, &DoctorConfig::default());
        let drop = findings.iter().find(|f| f.detector == "silent_drops").unwrap();
        assert_eq!(drop.flights, vec![1]);
    }

    #[test]
    fn retransmitted_slot_is_not_a_silent_drop() {
        let events = vec![
            send(100, 1, 0, false),
            send(5_000_100, 2, 0, true),
            recv(5_000_500, 2),
            send(10_000_000, 3, 1, false),
            recv(10_000_500, 3),
        ];
        let table = FlightTable::from_events(&events);
        let findings = detect(&table, None, &DoctorConfig::default());
        assert!(findings.iter().all(|f| f.detector != "silent_drops"));
    }
}
