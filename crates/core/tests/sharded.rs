//! Differential determinism tests for conservative-parallel execution:
//! a plain sequential [`World`], a [`ShardedWorld`] with one shard, and
//! a [`ShardedWorld`] with four shards run the same scheduled workload
//! (optionally under chaos) and must agree on *everything observable*
//! — metrics registries, invariant verdicts, deliveries, completions,
//! and the canonically sorted telemetry stream.
//!
//! These are the acceptance tests of DESIGN.md §11: the parallel mode
//! is only admissible because it is bit-identical to the sequential
//! one, so any divergence here is a bug in the window protocol, the
//! keyed event ordering, or the per-component state split — never
//! "expected jitter".

use nectar_core::invariants::{InvariantChecker, Violation};
use nectar_core::prelude::*;
use nectar_core::world::QuiescenceOutcome;
use nectar_sim::analysis::streaming::StreamConfig;
use nectar_sim::chaos::{ChaosSchedule, Clause, Fault};
use nectar_sim::profile::{Phase, VerdictKind};
use nectar_sim::telemetry::TelemetryEvent;
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::WorkloadSpec;
use std::sync::Arc;

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    events: u64,
    now: Time,
    outcome: QuiescenceOutcome,
    metrics: String,
    deliveries: Vec<Delivery>,
    completions: Vec<(usize, u32, Time)>,
    telemetry: Vec<TelemetryEvent>,
    violations: Vec<Violation>,
    faults: u64,
    /// `engine.events_by_kind.*` from the runtime registry.
    events_by_kind: Vec<(String, u64)>,
}

/// The per-kind event counts of a runtime registry.
fn events_by_kind(runtime: &nectar_sim::metrics::MetricsRegistry) -> Vec<(String, u64)> {
    runtime
        .counters()
        .filter(|(name, _)| name.starts_with("engine.events_by_kind."))
        .map(|(name, n)| (name.to_string(), n))
        .collect()
}

/// One scheduled application send.
type Send = (Time, usize, AppSend);

/// An expected stream delivery: `(src, dst, mailbox, payload)`.
type ExpectedStream = (usize, usize, u16, Vec<u8>);

/// A deterministic mixed workload over `topo`, scheduled entirely up
/// front (no mid-run interaction, so it runs identically on a
/// sequential world and on any shard count): a cross-cluster stream
/// wave, a neighbour datagram wave, a hardware multicast, and a second
/// stream wave from the other end of each flow.
fn workload(topo: &Topology) -> (Vec<Send>, Vec<ExpectedStream>) {
    let cabs = topo.cab_count();
    let mut sends: Vec<Send> = Vec::new();
    let mut expected: Vec<ExpectedStream> = Vec::new();
    let mut stream = |sends: &mut Vec<Send>, at: Time, src: usize, dst: usize, round: usize| {
        let mailbox = (100 + src * 4 + round) as u16;
        let payload = vec![(13 + 29 * src + 5 * round) as u8; 240 + 410 * round + 31 * src];
        let data: Arc<[u8]> = payload.clone().into();
        sends.push((at, src, AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: mailbox, data }));
        expected.push((src, dst, mailbox, payload));
    };
    // Wave 1: every CAB streams to the CAB "half a system" away, so on
    // any multi-HUB topology most flows cross HUB (and shard) edges.
    for src in 0..cabs {
        let dst = (src + cabs / 2) % cabs;
        if dst == src {
            continue;
        }
        stream(&mut sends, Time::from_micros(2 + src as u64), src, dst, 0);
    }
    // Wave 2: unreliable datagrams to the next CAB over.
    for src in 0..cabs {
        let dst = (src + 1) % cabs;
        if dst == src {
            continue;
        }
        let data: Arc<[u8]> = vec![(src * 7) as u8; 120].into();
        sends.push((
            Time::from_micros(150 + src as u64),
            src,
            AppSend::Datagram { dst, src_mailbox: 1, dst_mailbox: 70, data },
        ));
    }
    // Wave 3: one hardware multicast fanning out across the system.
    if cabs >= 4 {
        let dsts = vec![1, cabs / 2, cabs - 1];
        let data: Arc<[u8]> = vec![0xAB; 96].into();
        sends.push((
            Time::from_micros(300),
            0,
            AppSend::Multicast { dsts, src_mailbox: 1, dst_mailbox: 71, data },
        ));
    }
    // Wave 4: return streams, overlapping wave 2/3 traffic.
    for src in 0..cabs {
        let dst = (src + cabs / 2) % cabs;
        if dst == src {
            continue;
        }
        stream(&mut sends, Time::from_micros(200 + 3 * src as u64), dst, src, 1);
    }
    (sends, expected)
}

/// A workload in which every message crosses the middle of the
/// system and both halves send at once: each CAB streams a
/// multi-packet message to its counterpart half the system away, three
/// rounds back to back. On a two-HUB topology cut into two shards that
/// puts data one way and acknowledgements the other through the
/// exchange in consecutive windows, in both directions.
fn crossing_workload(topo: &Topology) -> (Vec<Send>, Vec<ExpectedStream>) {
    let cabs = topo.cab_count();
    let mut sends: Vec<Send> = Vec::new();
    let mut expected: Vec<ExpectedStream> = Vec::new();
    for round in 0..3 {
        for src in 0..cabs {
            let dst = (src + cabs / 2) % cabs;
            let mailbox = (100 + src * 4 + round) as u16;
            let payload = vec![(7 + 31 * src + 3 * round) as u8; 2600 + 97 * src];
            let data: Arc<[u8]> = payload.clone().into();
            sends.push((
                Time::from_micros(2 + 60 * round as u64),
                src,
                AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: mailbox, data },
            ));
            expected.push((src, dst, mailbox, payload));
        }
    }
    (sends, expected)
}

/// Runs one topology/schedule case of the mixed [`workload`] on the
/// sequential world and on `shards` shards.
fn differential(
    topo: &Topology,
    schedule: Option<&ChaosSchedule>,
    shards: usize,
) -> (Observed, Observed) {
    differential_with(topo, workload(topo), schedule, shards)
}

/// Runs `(sends, expected)` on the sequential world and on `shards`
/// shards, returning both observations.
fn differential_with(
    topo: &Topology,
    (sends, expected): (Vec<Send>, Vec<ExpectedStream>),
    schedule: Option<&ChaosSchedule>,
    shards: usize,
) -> (Observed, Observed) {
    let deadline = Time::from_millis(400);

    // Sequential reference.
    let mut seq = World::new(topo.clone(), SystemConfig::default());
    seq.enable_observability();
    if let Some(s) = schedule {
        seq.set_chaos(s.clone());
    }
    for (at, cab, send) in &sends {
        seq.schedule_send(*at, *cab, send.clone());
    }
    let mut seq_checker = InvariantChecker::new();
    for (src, dst, mailbox, payload) in &expected {
        seq_checker.expect_stream(*src, *dst, *mailbox, payload);
    }
    let (events, outcome) = seq.run_to_quiescence(deadline);
    let metrics = seq.metrics().to_json();
    let mut deliveries = seq.deliveries.clone();
    canonical_delivery_sort(&mut deliveries);
    let mut completions = seq.completions.clone();
    completions.sort_unstable_by_key(|&(cab, id, at)| (at, cab, id));
    let mut telemetry = seq.telemetry_events();
    canonical_telemetry_sort(&mut telemetry);
    let faults = seq.faults_injected;
    let now = seq.now();
    let violations = seq_checker.check(&mut seq);
    assert!(
        !metrics.contains("engine.events_by_kind"),
        "event counts by kind stay out of the bit-compared registry"
    );
    let sequential = Observed {
        events_by_kind: events_by_kind(&seq.runtime_metrics()),
        events,
        now,
        outcome,
        metrics,
        deliveries,
        completions,
        telemetry,
        violations,
        faults,
    };

    // Sharded run.
    let mut par = ShardedWorld::new(topo.clone(), SystemConfig::default(), shards);
    par.enable_observability();
    if let Some(s) = schedule {
        par.set_chaos(s.clone());
    }
    for (at, cab, send) in &sends {
        par.schedule_send(*at, *cab, send.clone());
    }
    let mut par_checker = InvariantChecker::new();
    for (src, dst, mailbox, payload) in &expected {
        par_checker.expect_stream(*src, *dst, *mailbox, payload);
    }
    let (events, outcome) = par.run_to_quiescence(deadline);
    let metrics = par.metrics().to_json();
    let deliveries = par.deliveries();
    let completions = par.completions();
    let telemetry = par.telemetry_events();
    let faults = par.faults_injected();
    let now = par.now();
    let violations = par_checker.check(&mut par);
    let sharded = Observed {
        events_by_kind: events_by_kind(&par.runtime_metrics()),
        events,
        now,
        outcome,
        metrics,
        deliveries,
        completions,
        telemetry,
        violations,
        faults,
    };
    (sequential, sharded)
}

/// Asserts the two observations agree on everything, with targeted
/// messages so a divergence names the first observable that split.
fn assert_identical(case: &str, seq: &Observed, par: &Observed) {
    assert!(
        seq.metrics.contains("\"telemetry.dropped_events\": 0"),
        "{case}: sequential telemetry ring overflowed; the comparison would be truncated"
    );
    assert_eq!(seq.events, par.events, "{case}: events processed diverged");
    for (side, o) in [("sequential", seq), ("sharded", par)] {
        let by_kind: u64 = o.events_by_kind.iter().map(|(_, n)| n).sum();
        assert_eq!(by_kind, o.events, "{case}: {side} event kinds do not sum to the event count");
    }
    assert_eq!(seq.events_by_kind, par.events_by_kind, "{case}: events by kind diverged");
    assert_eq!(seq.now, par.now, "{case}: final clock diverged");
    assert_eq!(seq.outcome, par.outcome, "{case}: quiescence outcome diverged");
    assert_eq!(seq.faults, par.faults, "{case}: injected fault count diverged");
    assert_eq!(seq.violations, par.violations, "{case}: invariant verdicts diverged");
    assert_eq!(seq.deliveries, par.deliveries, "{case}: deliveries diverged");
    assert_eq!(seq.completions, par.completions, "{case}: completions diverged");
    assert_eq!(seq.telemetry.len(), par.telemetry.len(), "{case}: telemetry event count diverged");
    for (i, (a, b)) in seq.telemetry.iter().zip(&par.telemetry).enumerate() {
        assert_eq!(a, b, "{case}: telemetry diverged at sorted index {i}");
    }
    if seq.metrics != par.metrics {
        for (a, b) in seq.metrics.lines().zip(par.metrics.lines()) {
            assert_eq!(a, b, "{case}: metrics diverged");
        }
        panic!("{case}: metrics diverged in length");
    }
}

/// The chaos schedule the sharded runs must survive bit-identically:
/// loss, corruption, duplication, and HUB command loss all at once.
fn chaos() -> ChaosSchedule {
    ChaosSchedule::new(0xD15EA5E)
        .with(Clause::new(Fault::Loss { rate: 0.03 }))
        .with(Clause::new(Fault::Corrupt { rate: 0.02 }))
        .with(Clause::new(Fault::Duplicate { rate: 0.02 }))
        .with(Clause::new(Fault::CommandLoss { rate: 0.01 }))
}

#[test]
fn star_clean_one_shard_matches_sequential() {
    let topo = Topology::single_hub(6, 16);
    let (seq, par) = differential(&topo, None, 1);
    assert_identical("star/clean/1", &seq, &par);
}

#[test]
fn star_chaos_matches_sequential() {
    // A single HUB clamps to one shard; the point is that the clamped
    // path is still audit-identical under chaos.
    let topo = Topology::single_hub(6, 16);
    let s = chaos();
    let (seq, par) = differential(&topo, Some(&s), 4);
    assert_identical("star/chaos/4", &seq, &par);
}

#[test]
fn mesh_clean_four_shards_matches_sequential() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let (seq, par) = differential(&topo, None, 4);
    assert_identical("mesh/clean/4", &seq, &par);
}

#[test]
fn mesh_chaos_four_shards_matches_sequential() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let s = chaos();
    let (seq, par) = differential(&topo, Some(&s), 4);
    assert_identical("mesh/chaos/4", &seq, &par);
}

#[test]
fn fat_star_clean_four_shards_matches_sequential() {
    let topo = Topology::fat_star(4, 4, 16);
    let (seq, par) = differential(&topo, None, 4);
    assert_identical("fat_star/clean/4", &seq, &par);
}

#[test]
fn fat_star_chaos_four_shards_matches_sequential() {
    let topo = Topology::fat_star(4, 4, 16);
    let s = chaos();
    let (seq, par) = differential(&topo, Some(&s), 4);
    assert_identical("fat_star/chaos/4", &seq, &par);
}

#[test]
fn fat_star_chaos_odd_shard_counts_match_sequential() {
    // 3 shards over 5 HUBs: uneven contiguous blocks, and a shard
    // count that does not divide the topology. Determinism must not
    // depend on a "nice" partition.
    let topo = Topology::fat_star(4, 4, 16);
    let s = chaos();
    let (seq, par) = differential(&topo, Some(&s), 3);
    assert_identical("fat_star/chaos/3", &seq, &par);
}

/// Two HUBs cut down the middle, every message crossing, both
/// directions busy: consecutive rendezvous carry batches both ways, so
/// a producer refilling a cell its consumer has not drained yet (the
/// hazard the two exchange parities exist to rule out) would lose or
/// reorder events here.
#[test]
fn two_hub_crossing_traffic_matches_sequential() {
    let topo = Topology::mesh2d(1, 2, 4, 16);
    let (seq, par) = differential_with(&topo, crossing_workload(&topo), None, 2);
    assert_identical("two_hub/crossing/2", &seq, &par);
    let s = chaos();
    let (seq, par) = differential_with(&topo, crossing_workload(&topo), Some(&s), 2);
    assert_identical("two_hub/crossing/chaos/2", &seq, &par);
}

#[test]
fn mesh_crossing_traffic_matches_sequential_at_every_shard_count() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    for shards in [2, 3, 4] {
        let (seq, par) = differential_with(&topo, crossing_workload(&topo), None, shards);
        assert_identical(&format!("mesh/crossing/{shards}"), &seq, &par);
    }
}

/// Window boundaries are a function of the simulated event times alone,
/// so the window and exchange counts of a pinned scenario are constants
/// of the event set: a runner change must not move them. (They were
/// last re-recorded when packet-switched flows began crossing HUBs as
/// one train event per hop, which removed events and exchanges.)
#[test]
fn window_and_exchange_counts_are_pinned() {
    let topo = Topology::mesh2d(1, 2, 4, 16);
    let mut par = ShardedWorld::new(topo.clone(), SystemConfig::default(), 2);
    for (at, cab, send) in crossing_workload(&topo).0 {
        par.schedule_send(at, cab, send);
    }
    par.run_to_quiescence(Time::from_millis(400));
    let rt = par.runtime_metrics();
    assert_eq!(rt.counter("runner.windows"), 1111);
    assert_eq!(rt.counter("runner.exchanged_events"), 392);
    // Both directions carried traffic.
    assert!(rt.counter("runner.shard0.exchanged_events") > 0);
    assert!(rt.counter("runner.shard1.exchanged_events") > 0);
}

#[test]
fn shard_plan_is_contiguous_and_clamped() {
    let topo = Topology::fat_star(8, 2, 16); // 9 HUBs
    let plan = nectar_core::shard::ShardPlan::contiguous(&topo, 4);
    assert_eq!(plan.shards(), 4);
    let mut last = 0;
    for h in 0..topo.hub_count() {
        let s = plan.shard_of_hub(h);
        assert!(s >= last, "contiguous blocks");
        assert!(s < 4);
        last = s;
    }
    // Every CAB lives with its attachment HUB.
    for c in 0..topo.cab_count() {
        let hub = topo.cab_attachment(c).0;
        assert_eq!(plan.shard_of_cab(&topo, c), plan.shard_of_hub(hub));
    }
    // More shards than HUBs clamps.
    let tiny = Topology::single_hub(2, 16);
    assert_eq!(nectar_core::shard::ShardPlan::contiguous(&tiny, 64).shards(), 1);
}

/// The host-time profiler is observation-only: simulated results are
/// bit-identical with the profiler off, on, and on under streaming —
/// the acceptance criterion that keeps `report --profile` admissible
/// in determinism-gated sweeps.
#[test]
fn profiler_on_off_and_stream_keep_results_bit_identical() {
    let topo = Topology::fat_star(4, 4, 16);
    let s = chaos();
    let (sends, _) = workload(&topo);
    let deadline = Time::from_millis(400);
    let run = |profile: bool, stream: bool| {
        let mut par = ShardedWorld::new(topo.clone(), SystemConfig::default(), 4);
        par.enable_observability();
        par.set_chaos(s.clone());
        if profile {
            par.enable_profiling();
        }
        if stream {
            par.attach_streaming(StreamConfig::default());
        }
        for (at, cab, send) in &sends {
            par.schedule_send(*at, *cab, send.clone());
        }
        par.run_to_quiescence(deadline);
        par
    };
    let off = run(false, false);
    let on = run(true, false);
    let streamed = run(true, true);

    assert_eq!(off.metrics().to_json(), on.metrics().to_json(), "profiler-on metrics diverged");
    assert_eq!(off.deliveries(), on.deliveries(), "profiler-on deliveries diverged");
    assert_eq!(off.completions(), on.completions(), "profiler-on completions diverged");
    assert_eq!(off.telemetry_events(), on.telemetry_events(), "profiler-on telemetry diverged");
    assert_eq!(
        off.metrics().to_json(),
        streamed.metrics().to_json(),
        "profiler+stream metrics diverged"
    );
    assert_eq!(off.deliveries(), streamed.deliveries(), "profiler+stream deliveries diverged");
    assert_eq!(off.completions(), streamed.completions(), "profiler+stream completions diverged");

    // Off: no profile is collected at all.
    assert!(off.host_profile().is_none());
    assert!(off.profile_analysis().is_none());

    // On: the scaling doctor produces a full report with exactly one
    // primary verdict over a ranked list.
    let analysis = on.profile_analysis().expect("profiling was enabled");
    assert_eq!(analysis.shards, 4);
    assert!(analysis.windows > 0, "windows were profiled");
    assert!(analysis.complete_windows > 0, "complete windows were attributed");
    let step = Phase::Step.index();
    assert!(
        analysis.per_shard.iter().all(|b| b.phase_ns[step] > 0),
        "every shard recorded step time"
    );
    assert!(!analysis.verdicts.is_empty());
    let primary = analysis.primary();
    assert!(
        analysis.verdicts.iter().filter(|v| v.score >= primary.score).count() == 1
            || analysis.verdicts[1].score < primary.score,
        "primary verdict is uniquely ranked first"
    );
    // This container may offer any core count; just check the verdict
    // is one of the defined kinds and carries a detail string.
    assert!(!primary.detail.is_empty());
    let _ = VerdictKind::Healthy; // all kinds reachable from the API

    // Streaming: one track per shard, and worker 0's carries the
    // telemetry drains and the hand-overs to the fold.
    let hp = streamed.host_profile().expect("profiling was enabled");
    assert_eq!(hp.tracks.len(), 4, "one track per shard worker");
    assert!(
        hp.tracks[0].iter().any(|sp| sp.phase == Phase::StreamFold),
        "hand-overs to the fold were profiled on worker 0's track"
    );
    assert!(
        hp.tracks[0].iter().any(|sp| sp.phase == Phase::TelemetryDrain),
        "telemetry drains were profiled on worker 0's track"
    );
}

/// A sharded world audits through the same `Auditable` trait as a
/// sequential one — no parallel-mode carve-outs in the checker.
#[test]
fn sharded_world_is_auditable() {
    let topo = Topology::mesh2d(2, 2, 2, 16);
    let mut par = ShardedWorld::new(topo.clone(), SystemConfig::default(), 4);
    let payload = vec![9u8; 1500];
    let data: Arc<[u8]> = payload.clone().into();
    par.schedule_send(
        Time::from_micros(1),
        0,
        AppSend::Stream { dst: 5, src_mailbox: 1, dst_mailbox: 33, data },
    );
    let mut checker = InvariantChecker::new();
    checker.expect_stream(0, 5, 33, &payload);
    par.run_to_quiescence(Time::from_millis(100));
    let v = checker.check(&mut par);
    assert!(v.is_empty(), "{v:?}");
    assert!(par.transport_quiescent());
    let _ = Dur::ZERO; // keep the import used on all cfg paths
}

/// Topologies with fewer than two CABs — none at all, one, and HUBs
/// with no CAB — build, refuse a workload, run to quiescence at t = 0
/// and report, on a sequential world and on a sharded one asked for 2
/// shards (it clamps to the HUB count), with equal answers.
#[test]
fn degenerate_topologies_run_empty_on_both_runners() {
    let spec = WorkloadSpec::parse(1, "closed(1,0ns,fixed(32),uniform,datagram)[0ns..1ms]")
        .expect("the program parses");
    let deadline = Time::from_millis(1);
    for topo in
        [Topology::single_hub(0, 16), Topology::single_hub(1, 16), Topology::mesh2d(1, 2, 0, 16)]
    {
        let name = format!("{} HUBs, {} CABs", topo.hub_count(), topo.cab_count());
        let mut seq = World::new(topo.clone(), SystemConfig::default());
        let mut par = ShardedWorld::new(topo, SystemConfig::default(), 2);
        let refusal = Err("workloads need at least 2 CABs".to_string());
        assert_eq!(seq.set_workload(&spec), refusal, "{name}");
        assert_eq!(par.set_workload(&spec), refusal, "{name}");
        assert_eq!(seq.run_to_quiescence(deadline), (0, QuiescenceOutcome::Quiescent), "{name}");
        assert_eq!(par.run_to_quiescence(deadline), (0, QuiescenceOutcome::Quiescent), "{name}");
        assert_eq!((seq.now(), par.now()), (Time::ZERO, Time::ZERO), "{name}");
        assert_eq!(seq.metrics().to_json(), par.metrics().to_json(), "{name}");
        assert_eq!(seq.results_digest(), par.results_digest(), "{name}");
    }
}
