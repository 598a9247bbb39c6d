//! Exporters: Chrome trace-event JSON from telemetry events.
//!
//! [`chrome_trace_with_host`] renders a slice of
//! [`TelemetryEvent`](crate::telemetry::TelemetryEvent)s in the Chrome
//! trace-event format, loadable in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`:
//!
//! * one *process* per HUB and per CAB, one *thread* (track) per HUB
//!   port / controller and per CAB engine (DMA, kernel, transport, app);
//! * paired DMA start/complete events become duration (`"X"`) slices;
//! * every event of a flight is linked by flow arrows (`"s"`/`"t"`/`"f"`
//!   phases keyed by the flight id), so a message can be followed
//!   visually from `app_send` through each `crossbar_forward` to
//!   `app_recv`.
//!
//! Timestamps (`ts`) are microseconds with fractional nanoseconds, per
//! the format; `displayTimeUnit` is `"ns"`.
//!
//! Given a host-time [`HostProfile`](crate::profile::HostProfile), it
//! additionally renders that into the same document under its own
//! process ([`HOST_PID`]): one track per shard worker, phase slices
//! named after
//! [`Phase::label`](crate::profile::Phase::label), and per-window
//! instant markers on a dedicated track. Simulated-time and host-time
//! tracks share one file but not one timebase — the simulated tracks
//! are nanoseconds of modeled hardware, the host tracks nanoseconds of
//! wall clock (both normalized to start near zero).

use crate::json::json_escape;
use crate::profile::HostProfile;
use crate::telemetry::{EventKind, TelemetryEvent};
use std::collections::BTreeMap;

/// `pid` under which all host-time profiler tracks render — far above
/// any HUB (1..) or CAB (1000..) pid.
pub const HOST_PID: u32 = 5000;

/// Nominal duration (µs) given to point events so flow arrows have a
/// slice to bind to.
const POINT_DUR_US: f64 = 0.05;

/// `pid` assigned to HUB `h`.
fn hub_pid(hub: u8) -> u32 {
    1 + hub as u32
}

/// `pid` assigned to CAB `c` (offset clear of any HUB pid).
fn cab_pid(cab: u16) -> u32 {
    1000 + cab as u32
}

/// Track (tid) layout within a CAB process.
const TID_DMA: u32 = 1;
const TID_KERNEL: u32 = 2;
const TID_TRANSPORT: u32 = 3;
const TID_APP: u32 = 4;

/// (pid, tid, args) for one event. HUB events land on the controller
/// track (tid 0) or the output-port track (tid = port + 1).
fn placement(kind: &EventKind) -> (u32, u32, String) {
    match *kind {
        EventKind::ConnectionOpen { hub, input, output }
        | EventKind::ConnectionClose { hub, input, output } => {
            (hub_pid(hub), 0, format!("\"input\": {input}, \"output\": {output}"))
        }
        EventKind::CrossbarForward { hub, input, output, bytes } => (
            hub_pid(hub),
            1 + output as u32,
            format!("\"input\": {input}, \"output\": {output}, \"bytes\": {bytes}"),
        ),
        EventKind::CrossbarEnqueue { hub, input, bytes } => {
            (hub_pid(hub), 200 + input as u32, format!("\"input\": {input}, \"bytes\": {bytes}"))
        }
        EventKind::DmaStart { cab, channel, bytes }
        | EventKind::DmaComplete { cab, channel, bytes } => {
            (cab_pid(cab), TID_DMA, format!("\"channel\": {channel}, \"bytes\": {bytes}"))
        }
        EventKind::ThreadSwitch { cab, from, to } => {
            (cab_pid(cab), TID_KERNEL, format!("\"from\": {from}, \"to\": {to}"))
        }
        EventKind::DatalinkRetry { cab } => (cab_pid(cab), TID_TRANSPORT, String::new()),
        EventKind::FiberTx { cab, bytes } => {
            (cab_pid(cab), TID_TRANSPORT, format!("\"bytes\": {bytes}"))
        }
        EventKind::TransportSend { cab, peer, seq, bytes, retransmit } => (
            cab_pid(cab),
            TID_TRANSPORT,
            format!(
                "\"peer\": {peer}, \"seq\": {seq}, \"bytes\": {bytes}, \
                 \"retransmit\": {retransmit}"
            ),
        ),
        EventKind::TransportAck { cab, peer, ack } => {
            (cab_pid(cab), TID_TRANSPORT, format!("\"peer\": {peer}, \"ack\": {ack}"))
        }
        EventKind::TransportTimeout { cab, peer } => {
            (cab_pid(cab), TID_TRANSPORT, format!("\"peer\": {peer}"))
        }
        EventKind::AppSend { cab, dst, bytes } => {
            (cab_pid(cab), TID_APP, format!("\"dst\": {dst}, \"bytes\": {bytes}"))
        }
        EventKind::AppRecv { cab, mailbox, bytes } => {
            (cab_pid(cab), TID_APP, format!("\"mailbox\": {mailbox}, \"bytes\": {bytes}"))
        }
    }
}

/// Human-readable names for the process/thread metadata events.
fn track_names(kind: &EventKind) -> (String, String) {
    let (pid_name, tid_name): (String, String) = match *kind {
        EventKind::ConnectionOpen { hub, .. } | EventKind::ConnectionClose { hub, .. } => {
            (format!("HUB {hub}"), "controller".to_string())
        }
        EventKind::CrossbarForward { hub, output, .. } => {
            (format!("HUB {hub}"), format!("port {output} out"))
        }
        EventKind::CrossbarEnqueue { hub, input, .. } => {
            (format!("HUB {hub}"), format!("port {input} in"))
        }
        EventKind::DmaStart { cab, .. } | EventKind::DmaComplete { cab, .. } => {
            (format!("CAB {cab}"), "dma".to_string())
        }
        EventKind::ThreadSwitch { cab, .. } => (format!("CAB {cab}"), "kernel".to_string()),
        EventKind::DatalinkRetry { cab }
        | EventKind::FiberTx { cab, .. }
        | EventKind::TransportSend { cab, .. }
        | EventKind::TransportAck { cab, .. }
        | EventKind::TransportTimeout { cab, .. } => {
            (format!("CAB {cab}"), "transport".to_string())
        }
        EventKind::AppSend { cab, .. } | EventKind::AppRecv { cab, .. } => {
            (format!("CAB {cab}"), "app".to_string())
        }
    };
    (pid_name, tid_name)
}

fn push_event(out: &mut Vec<String>, body: String) {
    out.push(format!("    {{{body}}}"));
}

/// Renders telemetry events as a Chrome trace-event JSON document.
///
/// The input need not be sorted; events are ordered by timestamp in
/// the output. DMA `start`/`complete` pairs (matched per CAB and
/// channel, FIFO) merge into one duration slice; everything else
/// becomes a short slice so Perfetto draws flow arrows through it.
///
/// With `host` given, host-time profiler tracks are added: phase
/// slices for every span (one thread per shard worker) and instant
/// window markers, all under
/// [`HOST_PID`].
pub fn chrome_trace_with_host(events: &[TelemetryEvent], host: Option<&HostProfile>) -> String {
    let mut sorted: Vec<&TelemetryEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.at);

    let mut lines: Vec<String> = Vec::new();
    // Track metadata discovered along the way: pid -> name, (pid, tid) -> name.
    let mut processes: BTreeMap<u32, String> = BTreeMap::new();
    let mut threads: BTreeMap<(u32, u32), String> = BTreeMap::new();
    // Open DMA transfers: (cab, channel) -> FIFO of start timestamps (µs).
    let mut dma_open: BTreeMap<(u16, u8), Vec<f64>> = BTreeMap::new();
    // Events per flight for flow arrows: flight -> [(ts, pid, tid)].
    let mut flights: BTreeMap<u64, Vec<(f64, u32, u32)>> = BTreeMap::new();

    for ev in &sorted {
        let ts = ev.at.nanos() as f64 / 1000.0;
        let (pid, tid, args) = placement(&ev.kind);
        let (pname, tname) = track_names(&ev.kind);
        processes.entry(pid).or_insert(pname);
        threads.entry((pid, tid)).or_insert(tname);
        if ev.flight.is_some() {
            flights.entry(ev.flight.0).or_default().push((ts, pid, tid));
        }

        let mut full_args = args;
        if ev.flight.is_some() {
            if !full_args.is_empty() {
                full_args.push_str(", ");
            }
            full_args.push_str(&format!("\"flight\": {}", ev.flight.0));
        }
        let name = json_escape(ev.kind.label());

        match ev.kind {
            EventKind::DmaStart { cab, channel, .. } => {
                dma_open.entry((cab, channel)).or_default().push(ts);
            }
            EventKind::DmaComplete { cab, channel, .. } => {
                let start = dma_open
                    .get_mut(&(cab, channel))
                    .and_then(|q| (!q.is_empty()).then(|| q.remove(0)));
                let (t0, dur) = match start {
                    Some(t0) => (t0, (ts - t0).max(POINT_DUR_US)),
                    None => (ts, POINT_DUR_US),
                };
                push_event(
                    &mut lines,
                    format!(
                        "\"name\": \"dma\", \"ph\": \"X\", \"ts\": {t0:.3}, \"dur\": {dur:.3}, \
                         \"pid\": {pid}, \"tid\": {tid}, \"args\": {{{full_args}}}"
                    ),
                );
            }
            _ => {
                push_event(
                    &mut lines,
                    format!(
                        "\"name\": \"{name}\", \"ph\": \"X\", \"ts\": {ts:.3}, \
                         \"dur\": {POINT_DUR_US:.3}, \"pid\": {pid}, \"tid\": {tid}, \
                         \"args\": {{{full_args}}}"
                    ),
                );
            }
        }
    }

    // A DMA transfer still open at the end of the capture renders as a
    // point slice so nothing is silently lost.
    for ((cab, channel), starts) in &dma_open {
        let (pid, tid, _) =
            placement(&EventKind::DmaStart { cab: *cab, channel: *channel, bytes: 0 });
        for t0 in starts {
            push_event(
                &mut lines,
                format!(
                    "\"name\": \"dma (unfinished)\", \"ph\": \"X\", \"ts\": {t0:.3}, \
                     \"dur\": {POINT_DUR_US:.3}, \"pid\": {pid}, \"tid\": {tid}, \"args\": {{}}"
                ),
            );
        }
    }

    // Flow arrows: start at the flight's first event, step through the
    // middles, finish at the last.
    for (flight, hops) in &flights {
        if hops.len() < 2 {
            continue;
        }
        for (i, &(ts, pid, tid)) in hops.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i + 1 == hops.len() {
                "f"
            } else {
                "t"
            };
            let bp = if ph == "f" { ", \"bp\": \"e\"" } else { "" };
            push_event(
                &mut lines,
                format!(
                    "\"name\": \"flight\", \"cat\": \"flight\", \"ph\": \"{ph}\", \
                     \"id\": {flight}, \"ts\": {ts:.3}, \"pid\": {pid}, \"tid\": {tid}{bp}"
                ),
            );
        }
    }

    // Metadata names so Perfetto labels the tracks.
    for (pid, name) in &processes {
        push_event(
            &mut lines,
            format!(
                "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
                 \"args\": {{\"name\": \"{}\"}}",
                json_escape(name)
            ),
        );
    }
    for ((pid, tid), name) in &threads {
        push_event(
            &mut lines,
            format!(
                "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}",
                json_escape(name)
            ),
        );
    }

    if let Some(profile) = host {
        host_lines(profile, &mut lines);
    }

    let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders a [`HostProfile`] as trace-event lines under [`HOST_PID`]:
/// one `"X"` slice per recorded phase span (tid = shard index), one
/// `"i"` instant marker per window on a dedicated marker track, and
/// `"M"` metadata naming every track. Timestamps are normalized so the earliest span starts at 0.
fn host_lines(profile: &HostProfile, lines: &mut Vec<String>) {
    let mut lo = u64::MAX;
    for track in &profile.tracks {
        for s in track {
            lo = lo.min(s.start_ns);
        }
    }
    if lo == u64::MAX {
        return;
    }
    // window -> earliest span start, for the marker track.
    let mut windows: BTreeMap<u64, u64> = BTreeMap::new();
    for (tid, track) in profile.tracks.iter().enumerate() {
        for s in track {
            let ts = (s.start_ns - lo) as f64 / 1000.0;
            let dur = (s.dur_ns as f64 / 1000.0).max(0.001);
            push_event(
                lines,
                format!(
                    "\"name\": \"{}\", \"cat\": \"host\", \"ph\": \"X\", \"ts\": {ts:.3}, \
                     \"dur\": {dur:.3}, \"pid\": {HOST_PID}, \"tid\": {tid}, \
                     \"args\": {{\"window\": {}}}",
                    s.phase.label(),
                    s.window
                ),
            );
            windows.entry(s.window).and_modify(|e| *e = (*e).min(s.start_ns)).or_insert(s.start_ns);
        }
    }
    let marker_tid = profile.tracks.len();
    for (w, start) in &windows {
        let ts = (start - lo) as f64 / 1000.0;
        push_event(
            lines,
            format!(
                "\"name\": \"window {w}\", \"cat\": \"host\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {ts:.3}, \"pid\": {HOST_PID}, \"tid\": {marker_tid}, \
                 \"args\": {{\"window\": {w}}}"
            ),
        );
    }
    push_event(
        lines,
        format!(
            "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {HOST_PID}, \"tid\": 0, \
             \"args\": {{\"name\": \"host: sharded runner\"}}"
        ),
    );
    for tid in 0..=marker_tid {
        let name = if tid < marker_tid {
            format!("shard {tid} worker")
        } else {
            "window markers".to_string()
        };
        push_event(
            lines,
            format!(
                "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {HOST_PID}, \
                 \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::telemetry::FlightId;
    use crate::time::Time;

    fn ev(ns: u64, flight: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(flight), kind }
    }

    fn chrome_trace(events: &[TelemetryEvent]) -> String {
        chrome_trace_with_host(events, None)
    }

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            ev(0, 7, EventKind::AppSend { cab: 0, dst: 1, bytes: 100 }),
            ev(
                500,
                7,
                EventKind::TransportSend { cab: 0, peer: 1, seq: 0, bytes: 100, retransmit: false },
            ),
            ev(700, 7, EventKind::FiberTx { cab: 0, bytes: 102 }),
            ev(800, 7, EventKind::CrossbarEnqueue { hub: 0, input: 3, bytes: 102 }),
            ev(900, 7, EventKind::DmaStart { cab: 0, channel: 1, bytes: 100 }),
            ev(1700, 7, EventKind::DmaComplete { cab: 0, channel: 1, bytes: 100 }),
            ev(2400, 7, EventKind::CrossbarForward { hub: 0, input: 3, output: 8, bytes: 102 }),
            ev(3100, 7, EventKind::CrossbarForward { hub: 1, input: 0, output: 2, bytes: 102 }),
            ev(4000, 7, EventKind::AppRecv { cab: 1, mailbox: 5, bytes: 100 }),
        ]
    }

    #[test]
    fn output_is_valid_json_with_required_fields() {
        let doc = chrome_trace(&sample_events());
        let v = parse(&doc).expect("exporter must emit valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("ph").and_then(Json::as_str).is_some(), "missing ph: {e:?}");
            assert!(e.get("pid").and_then(Json::as_f64).is_some(), "missing pid: {e:?}");
            // ts is required on everything except metadata records.
            if e.get("ph").unwrap().as_str() != Some("M") {
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "missing ts: {e:?}");
            }
        }
    }

    #[test]
    fn dma_pair_becomes_duration_slice() {
        let doc = chrome_trace(&sample_events());
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let dma = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("dma"))
            .expect("dma slice present");
        let dur = dma.get("dur").unwrap().as_f64().unwrap();
        assert!((dur - 0.8).abs() < 1e-9, "900..1700 ns should be 0.8 µs, got {dur}");
    }

    #[test]
    fn flight_gets_flow_arrows() {
        let doc = chrome_trace(&sample_events());
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("flight"))
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases.first(), Some(&"s"));
        assert_eq!(phases.last(), Some(&"f"));
        assert!(phases.iter().filter(|&&p| p == "t").count() >= 1);
    }

    #[test]
    fn tracks_are_named() {
        let doc = chrome_trace(&sample_events());
        assert!(doc.contains("HUB 0") && doc.contains("HUB 1"));
        assert!(doc.contains("CAB 0") && doc.contains("CAB 1"));
        assert!(doc.contains("port 8 out"));
    }

    #[test]
    fn empty_input_is_still_valid() {
        let doc = chrome_trace(&[]);
        let v = parse(&doc).unwrap();
        assert!(v.get("traceEvents").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn host_profile_composes_with_simulated_tracks() {
        use crate::profile::{HostProfile, Phase, Profiler};
        let mut profs = [Profiler::disabled(), Profiler::disabled()];
        for p in &mut profs {
            p.set_enabled(true);
        }
        profs[0].end_with(Phase::Step, 0, 1000, 900);
        profs[0].end_with(Phase::BarrierWait, 0, 1900, 100);
        profs[0].end_with(Phase::Step, 1, 2000, 800);
        profs[1].end_with(Phase::Step, 0, 1000, 500);
        profs[1].end_with(Phase::Step, 1, 2000, 950);
        profs[0].end_with(Phase::StreamFold, 1, 3000, 400);
        let profile = HostProfile::collect(&profs);
        let doc = chrome_trace_with_host(&sample_events(), Some(&profile));
        let v = parse(&doc).expect("composed trace must stay valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // Host phase slices land under HOST_PID with normalized ts.
        let host_slices: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("pid").unwrap().as_f64() == Some(HOST_PID as f64)
                    && e.get("ph").unwrap().as_str() == Some("X")
            })
            .collect();
        assert_eq!(host_slices.len(), 6);
        let first_ts = host_slices
            .iter()
            .filter_map(|e| e.get("ts").unwrap().as_f64())
            .fold(f64::MAX, f64::min);
        assert_eq!(first_ts, 0.0, "host timeline is normalized to start at 0");
        assert!(host_slices.iter().any(|e| e.get("name").unwrap().as_str() == Some("step")));
        assert!(host_slices.iter().any(|e| e.get("name").unwrap().as_str() == Some("stream_fold")));
        // One window marker per distinct window.
        let markers = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("i")).count();
        assert_eq!(markers, 2);
        // Track names present for workers and markers, and nothing else.
        assert!(doc.contains("shard 0 worker") && doc.contains("shard 1 worker"));
        assert!(doc.contains("window markers") && !doc.contains("runner main"));
        // Simulated tracks are untouched by the composition.
        assert!(doc.contains("HUB 0") && doc.contains("CAB 1"));
    }
}
