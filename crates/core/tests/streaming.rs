//! Differential tests for the streaming doctor: incremental
//! bounded-memory analysis must reach **exactly** the post-hoc verdict.
//!
//! For every topology × schedule case, a sequential [`World`] runs the
//! workload with the full flight recorder on and the classic
//! [`diagnose`] pass over the canonically sorted capture produces the
//! reference [`DoctorReport`]. The same workload then runs again with a
//! [`StreamingDoctor`] attached — once on a sequential world (telemetry
//! drained and folded every engine step) and once on a four-shard
//! [`ShardedWorld`] (per-shard captures handed to the fold at window
//! rendezvous) — and every observable of the final report must be
//! bit-identical: the rendered findings, the critical-path segment
//! attribution, the histogram quantiles, and the flight counts. No
//! tolerance, no "almost": the streaming fold is only admissible
//! because it is indistinguishable from keeping every event.

use nectar_core::prelude::*;
use nectar_sim::analysis::critical_path::Segment;
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::analysis::{diagnose, DoctorReport};
use nectar_sim::bytes::Bytes;
use nectar_sim::chaos::{ChaosSchedule, Clause, Fault};
use nectar_sim::time::{Dur, Time};
use std::time::{Duration, Instant};

/// Deadline generous enough for every topology here, chaos included.
const DEADLINE: Time = Time::from_millis(400);

/// A deterministic mixed workload: a cross-system stream wave, a
/// neighbour datagram wave, and return streams — enough traffic to
/// light up the retransmit, head-of-line, and silent-drop detectors
/// under chaos while staying small enough for six differential cases.
fn workload(topo: &Topology) -> Vec<(Time, usize, AppSend)> {
    let cabs = topo.cab_count();
    let mut sends: Vec<(Time, usize, AppSend)> = Vec::new();
    for src in 0..cabs {
        let dst = (src + cabs / 2) % cabs;
        if dst == src {
            continue;
        }
        let data: Bytes = vec![(13 + 29 * src) as u8; 300 + 31 * src].into();
        sends.push((
            Time::from_micros(2 + src as u64),
            src,
            AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: 100, data },
        ));
    }
    for src in 0..cabs {
        let dst = (src + 1) % cabs;
        if dst == src {
            continue;
        }
        let data: Bytes = vec![(src * 7) as u8; 120].into();
        sends.push((
            Time::from_micros(150 + src as u64),
            src,
            AppSend::Datagram { dst, src_mailbox: 1, dst_mailbox: 70, data },
        ));
    }
    for src in 0..cabs {
        let dst = (src + cabs / 2) % cabs;
        if dst == src {
            continue;
        }
        let data: Bytes = vec![(5 + 11 * src) as u8; 650].into();
        sends.push((
            Time::from_micros(200 + 3 * src as u64),
            dst,
            AppSend::Stream { dst: src, src_mailbox: 1, dst_mailbox: 101, data },
        ));
    }
    sends
}

/// The chaos schedule streaming must survive with a bit-identical
/// verdict: loss, corruption, and duplication at once, so the capture
/// contains undelivered, malformed, and resent flights.
fn chaos() -> ChaosSchedule {
    ChaosSchedule::new(0xBEEFCAFE)
        .with(Clause::new(Fault::Loss { rate: 0.03 }))
        .with(Clause::new(Fault::Corrupt { rate: 0.02 }))
        .with(Clause::new(Fault::Duplicate { rate: 0.02 }))
}

/// The post-hoc reference: full capture, canonical sort, classic
/// `diagnose` with the world's metrics registry.
fn post_hoc(topo: &Topology, schedule: Option<&ChaosSchedule>) -> DoctorReport {
    let mut world = World::new(topo.clone(), SystemConfig::default());
    world.enable_observability();
    if let Some(s) = schedule {
        world.set_chaos(s.clone());
    }
    for (at, cab, send) in workload(topo) {
        world.schedule_send(at, cab, send.clone());
    }
    world.run_to_quiescence(DEADLINE);
    let metrics = world.metrics();
    assert_eq!(
        metrics.counter("telemetry.dropped_events"),
        0,
        "reference capture overflowed; the differential would be vacuous"
    );
    let mut events = world.telemetry_events();
    canonical_telemetry_sort(&mut events);
    diagnose(&events, Some(&metrics))
}

/// One streamed run on a sequential world.
fn streamed_sequential(
    topo: &Topology,
    schedule: Option<&ChaosSchedule>,
) -> (StreamingDoctor, DoctorReport) {
    let mut world = World::new(topo.clone(), SystemConfig::default());
    world.attach_streaming(StreamConfig::default());
    if let Some(s) = schedule {
        world.set_chaos(s.clone());
    }
    for (at, cab, send) in workload(topo) {
        world.schedule_send(at, cab, send.clone());
    }
    world.run_to_quiescence(DEADLINE);
    let metrics = world.metrics();
    let doctor = world.finish_streaming().expect("streaming doctor attached");
    let report = doctor.clone().into_report(Some(&metrics));
    (doctor, report)
}

/// Simulated time the sliced runs of [`streamed_sharded`] cover in
/// `run_until` slices before their final `run_to_quiescence`: past the
/// workload's last send.
const SLICED_UNTIL: Time = Time::from_micros(350);

/// One streamed run on a sharded world at `shards` shards, with the
/// telemetry rings resized to `capacity` if given (which also sets how
/// many rendezvous pass between hand-overs to the fold). With `slice`,
/// the run goes up to [`SLICED_UNTIL`] in `run_until` slices of that
/// length, as the benchmark's traced run does, and then to quiescence.
fn streamed_sharded(
    topo: &Topology,
    schedule: Option<&ChaosSchedule>,
    shards: usize,
    capacity: Option<usize>,
    slice: Option<Dur>,
) -> (StreamingDoctor, DoctorReport) {
    let mut world = ShardedWorld::new(topo.clone(), SystemConfig::default(), shards);
    world.attach_streaming(StreamConfig::default());
    if let Some(capacity) = capacity {
        world.set_telemetry_capacity(capacity);
    }
    if let Some(s) = schedule {
        world.set_chaos(s.clone());
    }
    for (at, cab, send) in workload(topo) {
        world.schedule_send(at, cab, send.clone());
    }
    if let Some(slice) = slice {
        let mut until = Time::ZERO;
        while until < SLICED_UNTIL {
            until += slice;
            world.run_until(until);
        }
    }
    world.run_to_quiescence(DEADLINE);
    let metrics = world.metrics();
    let doctor = world.finish_streaming().expect("streaming doctor attached");
    let report = doctor.clone().into_report(Some(&metrics));
    (doctor, report)
}

/// Asserts a streamed report is bit-identical to the post-hoc
/// reference: findings render, flight counts, critical-path counters,
/// and every segment histogram's quantiles.
fn assert_equivalent(
    case: &str,
    doctor: &StreamingDoctor,
    got: &DoctorReport,
    want: &DoctorReport,
) {
    let s = doctor.summary();
    assert_eq!(s.late_events, 0, "{case}: events arrived for retired flights");
    assert_eq!(s.ring_dropped, 0, "{case}: streamed capture dropped events");
    assert_eq!(got.flights, want.flights, "{case}: flight counts diverged");
    assert_eq!(got.confident, want.confident, "{case}: confidence diverged");
    assert_eq!(
        got.critical_path.attributed, want.critical_path.attributed,
        "{case}: attributed flight counts diverged"
    );
    assert_eq!(
        got.critical_path.skipped, want.critical_path.skipped,
        "{case}: skipped flight counts diverged"
    );
    for seg in Segment::ALL {
        let (a, b) = (got.critical_path.segment_hist(seg), want.critical_path.segment_hist(seg));
        assert_eq!(a, b, "{case}: {} histogram diverged", seg.label());
    }
    let (a, b) = (got.critical_path.total_hist(), want.critical_path.total_hist());
    assert_eq!(a, b, "{case}: end-to-end histogram diverged");
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(a.quantile(q), b.quantile(q), "{case}: p{} diverged", (q * 100.0) as u32);
    }
    assert_eq!(
        got.findings.len(),
        want.findings.len(),
        "{case}: finding counts diverged\nstreamed:\n{}\npost-hoc:\n{}",
        got.render(),
        want.render()
    );
    assert_eq!(got.render(), want.render(), "{case}: rendered reports diverged");
}

/// Runs one topology through all four streamed variants (clean/chaos ×
/// sequential/4-shard) against the matching post-hoc reference.
fn differential_case(name: &str, topo: Topology) {
    let schedule = chaos();
    for (label, sched) in [("clean", None), ("chaos", Some(&schedule))] {
        let want = post_hoc(&topo, sched);
        assert!(want.flights > 0, "{name}/{label}: reference capture saw no flights — vacuous");
        let (doc, got) = streamed_sequential(&topo, sched);
        assert_equivalent(&format!("{name}/{label}/seq"), &doc, &got, &want);
        let (doc, got) = streamed_sharded(&topo, sched, 4, None, None);
        assert_equivalent(&format!("{name}/{label}/4shard"), &doc, &got, &want);
    }
}

#[test]
fn star_streaming_matches_post_hoc() {
    // A single HUB clamps to one shard — the "4-shard" leg exercises
    // the clamped ShardedWorld streaming path.
    differential_case("star", Topology::single_hub(6, 16));
}

#[test]
fn mesh_streaming_matches_post_hoc() {
    differential_case("mesh", Topology::mesh2d(2, 2, 3, 16));
}

/// 256-event rings put the hand-over cadence at its floor of four
/// rendezvous, so worker 0 hands the fold a drain every few hundred
/// simulated nanoseconds while cross-shard traffic is in flight, and
/// other workers may already be stepping the next window. The boundary
/// it sends is that rendezvous's `T`: every event recorded before it
/// is in the drain, and every later one is stamped at or after it.
/// Each case also runs in 7 µs `run_until` slices, as the benchmark's
/// traced run drives a world: each `drive` call's last rendezvous must
/// hand over everything the call recorded, with a boundary past the
/// slice's deadline, and slices end between cadence points. What that
/// protects is checked here: no late event, and reports equal to the
/// sequential streamed one and the post-hoc one.
#[test]
fn cadence_floor_hand_overs_fold_only_final_events() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let schedule = chaos();
    for (label, sched) in [("clean", None), ("chaos", Some(&schedule))] {
        let (_, want) = streamed_sequential(&topo, sched);
        let reference = post_hoc(&topo, sched);
        for shards in [2, 4] {
            let case = format!("mesh/{label}/{shards}shard/cap256");
            let (doc, one_shot) = streamed_sharded(&topo, sched, shards, Some(256), None);
            assert_equivalent(&case, &doc, &one_shot, &want);
            let slice = Some(Dur::from_micros(7));
            let (doc, sliced) = streamed_sharded(&topo, sched, shards, Some(256), slice);
            assert_equivalent(&format!("{case}/sliced"), &doc, &sliced, &one_shot);
            assert_equivalent(&format!("{case}/sliced vs post-hoc"), &doc, &sliced, &reference);
        }
    }
}

#[test]
fn fat_star_streaming_matches_post_hoc() {
    differential_case("fat_star", Topology::fat_star(4, 3, 16));
}

/// A streamed world dropped mid-run, without `finish_streaming`, lets
/// its fold thread go at once — sequential and sharded alike — and the
/// next world's report owes nothing to it. 256-event rings drain every
/// few events, so the fold thread is running when the world goes.
#[test]
fn a_world_dropped_mid_run_lets_its_fold_go() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let (_, want) = streamed_sequential(&topo, None);
    let mid_run = Time::from_micros(120);
    let mut seq = World::new(topo.clone(), SystemConfig::default());
    seq.attach_streaming(StreamConfig::default());
    seq.set_telemetry_capacity(256);
    let mut par = ShardedWorld::new(topo.clone(), SystemConfig::default(), 2);
    par.attach_streaming(StreamConfig::default());
    par.set_telemetry_capacity(256);
    for (at, cab, send) in workload(&topo) {
        seq.schedule_send(at, cab, send.clone());
        par.schedule_send(at, cab, send);
    }
    seq.run_until(mid_run);
    par.run_until(mid_run);
    assert!(seq.pending_events() > 0, "the run is not over at {mid_run}");
    let start = Instant::now();
    drop(seq);
    drop(par);
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "dropping the worlds took {took:?}");
    let (doc, got) = streamed_sequential(&topo, None);
    assert_equivalent("mesh/clean/seq after a dropped world", &doc, &got, &want);
}
