//! Observation microbenchmarks: what the flight recorder costs per
//! event when it is off and when it is on, what the streaming doctor
//! costs per event it folds, and what its final report costs.
//!
//! The fold is measured on two captures of real runs on the 16-HUB,
//! 64-CAB mesh, replayed the way the world hands them over — batches
//! of a few thousand events, time-disjoint, each a concatenation of the
//! recorder rings rather than a sorted sequence:
//!
//! * **spike** — 20,480 same-instant 32-byte datagram flows: every
//!   flight is open at once, the per-flight accumulators and the
//!   retirement queue carry the cost.
//! * **lattice** — neighbour datagrams plus ring byte-streams: few
//!   flights in flight, acks and stream slots exercise the residue
//!   tables.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nectar_core::prelude::*;
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::telemetry::{EventKind, FlightId, Telemetry, TelemetryEvent};
use nectar_sim::time::Time;
use nectar_sim::workload::WorkloadSpec;

const SPIKE: &str = "closed(320,0ns,fixed(32),uniform,datagram)[0ns..1ms]";
const LATTICE: &str = "closed(96,0ns,fixed(960),neighbor,datagram)[0ns..2ms];\
     closed(16,500ns,fixed(8192),ring,stream)[0ns..2ms]";

/// `Telemetry::record`: the one-branch disabled path every hot-path
/// record site pays, and the ring append behind it.
fn bench_record(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_record");
    g.throughput(Throughput::Elements(1));
    for (label, enabled) in [("disabled", false), ("enabled", true)] {
        let mut ring = Telemetry::with_capacity(1 << 12);
        ring.set_enabled(enabled);
        let mut now = 0u64;
        g.bench_function(label, |b| {
            b.iter(|| {
                now += 1;
                ring.record(
                    Time::from_nanos(now),
                    FlightId(now),
                    black_box(EventKind::CrossbarForward {
                        hub: 0,
                        input: 3,
                        output: 8,
                        bytes: 96,
                    }),
                );
            })
        });
        black_box(ring.len());
    }
    g.finish();
}

/// The recorder ring an event came from, in the order the world drains
/// them: its own, then each HUB's, then each kernel scheduler's.
fn ring_of(kind: &EventKind) -> u32 {
    match *kind {
        EventKind::ConnectionOpen { hub, .. }
        | EventKind::ConnectionClose { hub, .. }
        | EventKind::CrossbarEnqueue { hub, .. }
        | EventKind::CrossbarForward { hub, .. } => 1 + u32::from(hub),
        EventKind::ThreadSwitch { cab, .. } => 1 + 256 + u32::from(cab),
        _ => 0,
    }
}

/// Runs `traffic` on the mesh with the recorder on and cuts the
/// capture into the batches a streaming world would have folded.
fn capture_batches(traffic: &str) -> Vec<Vec<TelemetryEvent>> {
    let mut world = World::new(Topology::mesh2d(4, 4, 4, 16), SystemConfig::default());
    world.enable_observability();
    world.set_telemetry_capacity(1 << 22);
    world.set_workload(&WorkloadSpec::parse(1, traffic).expect("bench traffic parses")).unwrap();
    world.run_to_quiescence(Time::from_millis(400));
    assert_eq!(world.telemetry_pressure().1, 0, "bench capture overflowed its rings");
    let events = world.telemetry_events();
    let mut batches = Vec::new();
    let mut rest = events.as_slice();
    while !rest.is_empty() {
        let mut cut = 4096.min(rest.len());
        while cut < rest.len() && rest[cut].at == rest[cut - 1].at {
            cut += 1;
        }
        let (head, tail) = rest.split_at(cut);
        let mut batch = head.to_vec();
        batch.sort_by_key(|e| ring_of(&e.kind));
        batches.push(batch);
        rest = tail;
    }
    batches
}

fn fold(batches: &[Vec<TelemetryEvent>], scratch: &mut Vec<TelemetryEvent>) -> StreamingDoctor {
    let mut doctor = StreamingDoctor::new(StreamConfig::default());
    for batch in batches {
        scratch.extend_from_slice(batch);
        doctor.ingest(scratch);
    }
    doctor
}

/// `StreamingDoctor::ingest` per event, and `into_report` per run.
fn bench_doctor(c: &mut Criterion) {
    let shapes = [("spike", capture_batches(SPIKE)), ("lattice", capture_batches(LATTICE))];
    let mut scratch = Vec::new();
    let mut g = c.benchmark_group("stream_ingest");
    for (label, batches) in &shapes {
        let events: usize = batches.iter().map(Vec::len).sum();
        g.throughput(Throughput::Elements(events as u64));
        g.bench_function(*label, |b| {
            b.iter(|| black_box(fold(batches, &mut scratch).events_folded()))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("stream_into_report");
    for (label, batches) in &shapes {
        let doctor = fold(batches, &mut scratch);
        assert_eq!(doctor.summary().late_events, 0, "{label}: bench capture raced the horizon");
        // `report` clones the fold before finishing it; the clone is
        // part of what a live poll pays.
        g.bench_function(*label, |b| b.iter(|| black_box(doctor.report(None).flights)));
    }
    g.finish();
}

criterion_group!(benches, bench_record, bench_doctor);
criterion_main!(benches);
