//! Differential tests for the workload generator: a spec-driven
//! scenario must be **bit-identical** across sequential vs sharded
//! execution at every shard count, with the doctor streaming or not, and
//! across same-seed reruns. The fingerprint is the full metrics
//! registry rendered to JSON — every counter, gauge, and histogram
//! bucket in the system.

use nectar_core::prelude::*;
use nectar_core::world::READY_TIMEOUT;
use nectar_sim::analysis::streaming::StreamConfig;
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::{preset, WorkloadSpec};

const DEADLINE: Time = Time::from_millis(60);

/// A reduced-scale mixed scenario exercising every moving part: a
/// closed datagram loop (token circulation), a closed RPC loop (the
/// auto-responder + reply re-arm), and an open bursty stream class.
fn mixed_spec() -> WorkloadSpec {
    WorkloadSpec::parse(
        0xC0FFEE,
        "closed(6,100ns,fixed(96),neighbor,datagram)[0ns..200us];\
         closed(3,500ns,uniform(32,256),hotspot(0.3,cab1),rpc)[0ns..200us];\
         open(bursty(20us,100us,300us),fixed(700),uniform,stream)[0ns..200us]",
    )
    .expect("mixed spec parses")
}

/// Runs `spec` on `topo`, sequentially (`shards == 1`) or sharded,
/// optionally with the streaming doctor attached, and returns the
/// `(metrics JSON, deliveries, flows-offered)` fingerprint.
fn run(topo: &Topology, spec: &WorkloadSpec, shards: usize, stream: bool) -> (String, usize, u64) {
    if shards == 1 {
        let mut world = World::new(topo.clone(), SystemConfig::default());
        // Observability on in every mode so the flight-latency histogram
        // is populated uniformly (streaming switches it on implicitly),
        // and enough ring capacity that a single sequential ring drops
        // nothing — sharded mode gets one ring per shard, so drop counts
        // would otherwise diverge at high event rates.
        world.enable_observability();
        world.set_telemetry_capacity(1 << 17);
        if stream {
            world.attach_streaming(StreamConfig::default());
        }
        world.set_workload(spec).expect("spec compiles on this topology");
        world.run_to_quiescence(DEADLINE);
        if stream {
            let doctor = world.finish_streaming().expect("attached");
            let report = doctor.into_report(Some(&world.metrics()));
            assert_eq!(report.dropped_events, 0, "streamed run dropped telemetry");
        }
        let flows = flows_offered(&world.metrics(), topo.cab_count());
        (world.metrics().to_json(), world.deliveries.len(), flows)
    } else {
        let mut world = ShardedWorld::new(topo.clone(), SystemConfig::default(), shards);
        world.enable_observability();
        world.set_telemetry_capacity(1 << 17);
        if stream {
            world.attach_streaming(StreamConfig::default());
        }
        world.set_workload(spec).expect("spec compiles on this topology");
        world.run_to_quiescence(DEADLINE);
        if stream {
            let doctor = world.finish_streaming().expect("attached");
            let report = doctor.into_report(Some(&world.metrics()));
            assert_eq!(report.dropped_events, 0, "streamed run dropped telemetry");
        }
        let flows = flows_offered(&world.metrics(), topo.cab_count());
        (world.metrics().to_json(), world.deliveries().len(), flows)
    }
}

fn flows_offered(reg: &nectar_sim::metrics::MetricsRegistry, cabs: usize) -> u64 {
    (0..cabs).map(|c| reg.counter(&format!("cab{c}.workload.flows"))).sum()
}

/// Sequential, 4-shard, and streamed runs all produce the same
/// metrics registry, delivery count, and offered-flow count; and the
/// scenario actually offers traffic (the differential is not vacuous).
fn differential_case(name: &str, topo: Topology, spec: &WorkloadSpec) {
    let (seq, seq_deliv, seq_flows) = run(&topo, spec, 1, false);
    assert!(seq_flows > 0, "{name}: no flows offered — vacuous");
    assert!(seq_deliv > 0, "{name}: no deliveries — vacuous");

    let (rerun, rerun_deliv, _) = run(&topo, spec, 1, false);
    assert_eq!(seq, rerun, "{name}: same-seed rerun diverged");
    assert_eq!(seq_deliv, rerun_deliv, "{name}: same-seed delivery counts diverged");

    let (par, par_deliv, par_flows) = run(&topo, spec, 4, false);
    assert_eq!(seq, par, "{name}: sequential vs 4-shard metrics diverged");
    assert_eq!(seq_deliv, par_deliv, "{name}: delivery counts diverged");
    assert_eq!(seq_flows, par_flows, "{name}: offered-flow counts diverged");

    let (streamed, streamed_deliv, _) = run(&topo, spec, 1, true);
    assert_eq!(seq, streamed, "{name}: stream on/off metrics diverged");
    assert_eq!(seq_deliv, streamed_deliv, "{name}: stream on/off deliveries diverged");

    let (par_streamed, ..) = run(&topo, spec, 4, true);
    assert_eq!(seq, par_streamed, "{name}: sharded+streamed metrics diverged");
}

#[test]
fn mixed_scenario_mesh_bit_identical_across_modes() {
    differential_case("mesh/mixed", Topology::mesh2d(2, 2, 3, 16), &mixed_spec());
}

#[test]
fn mixed_scenario_fat_star_bit_identical_across_modes() {
    differential_case("fat_star/mixed", Topology::fat_star(4, 3, 16), &mixed_spec());
}

/// The spike preset (reduced: same spec shape, smaller population via
/// shrink-like truncation is NOT used — the preset itself must hold,
/// so run it on a smaller mesh where 12 CABs × 1600 tokens is still
/// a 19k-flow standing population).
#[test]
fn spike_preset_reduced_mesh_bit_identical() {
    let spec = preset("spike").expect("registered preset");
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let (seq, seq_deliv, seq_flows) = run(&topo, &spec, 1, false);
    assert!(seq_flows >= 19_000, "spike must offer its standing population, got {seq_flows}");
    let (par, par_deliv, _) = run(&topo, &spec, 4, false);
    assert_eq!(seq, par, "spike: sequential vs 4-shard diverged");
    assert_eq!(seq_deliv, par_deliv, "spike: delivery counts diverged");
}

/// *Any* partition replays the sequential `(time, key)` order: every
/// shard count on the 2×2 mesh — 3 shards split the 4 HUBs into
/// unequal blocks — matches the 1-shard run.
#[test]
fn every_partition_of_the_mesh_matches_sequential() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let spec = mixed_spec();
    let (seq, seq_deliv, _) = run(&topo, &spec, 1, false);
    for shards in 2..=topo.hub_count() {
        let (par, par_deliv, _) = run(&topo, &spec, shards, false);
        assert_eq!(seq, par, "{shards} shards: metrics diverged from sequential");
        assert_eq!(seq_deliv, par_deliv, "{shards} shards: delivery counts diverged");
    }
}

/// Every registered preset must attach cleanly on the e26-scale
/// topologies: the grammar caps sizes at `MAX_FLOW_BYTES`, but only
/// attach knows the single-fragment limit of datagram/RPC transports.
#[test]
fn every_preset_attaches_on_the_scale_topologies() {
    for topo in [Topology::fat_star(8, 8, 16), Topology::mesh2d(4, 4, 4, 16)] {
        for p in nectar_sim::workload::PRESETS {
            let spec = preset(p.name).expect("registered preset");
            let mut world = World::new(topo.clone(), SystemConfig::default());
            world.set_workload(&spec).unwrap_or_else(|e| panic!("preset `{}`: {e}", p.name));
        }
    }
}

/// Compile-time validation: single-packet transports reject specs
/// whose explicit sizes exceed one fragment.
#[test]
fn oversize_single_packet_flows_are_rejected() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let mut world = World::new(topo, SystemConfig::default());
    for bad in [
        "closed(4,0ns,fixed(2048),uniform,datagram)",
        "closed(4,0ns,uniform(32,1200),uniform,rpc)",
        "open(poisson(10us),pareto(4096,1.4),uniform,datagram)",
    ] {
        let spec = WorkloadSpec::parse(1, bad).expect("grammar-valid");
        assert!(world.set_workload(&spec).is_err(), "`{bad}` must be rejected at attach");
    }
    // The same sizes are fine on the fragmenting byte stream.
    let ok = WorkloadSpec::parse(1, "closed(4,0ns,fixed(2048),uniform,stream)[0ns..50us]").unwrap();
    world.set_workload(&ok).expect("stream flows fragment");
}

/// A ready-timeout whose ready signal came back is cancelled, not left
/// to fire as a no-op: the run settles when the last real event does
/// (not `READY_TIMEOUT` later), and the queue holds no dead timers
/// while traffic flows.
#[test]
fn answered_ready_timeouts_leave_the_queue_and_the_quiescence_clock() {
    let topo = Topology::mesh2d(2, 2, 3, 16);
    let cabs = topo.cab_count();
    let spec =
        WorkloadSpec::parse(7, "closed(4,0ns,fixed(32),uniform,datagram)[0ns..300us]").unwrap();
    let mut world = World::new(topo, SystemConfig::default());
    world.set_workload(&spec).expect("spec compiles");
    world.run_until(Time::from_micros(150));
    // Every delivered packet armed a 1 ms timeout that cannot have
    // expired yet; left in place they alone would outnumber the
    // deliveries. Cancelled, only the standing flows' events remain.
    assert!(world.deliveries.len() > 5 * cabs);
    assert!(
        world.pending_events() < world.deliveries.len(),
        "{} events pending after {} deliveries",
        world.pending_events(),
        world.deliveries.len()
    );
    let (_, outcome) = world.run_to_quiescence(DEADLINE);
    assert_eq!(outcome, nectar_core::world::QuiescenceOutcome::Quiescent);
    let last = world.deliveries.iter().map(|d| d.at).max().expect("traffic flowed");
    assert!(
        world.now() < last + Dur::from_nanos(READY_TIMEOUT.nanos() / 2),
        "clock ran on to {} after the last delivery at {last}",
        world.now()
    );
    assert!((0..cabs).all(|c| world.cab_counters(c).ready_timeouts == 0));
}
