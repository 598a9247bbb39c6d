//! Flight-recorder integration tests: causal ordering of telemetry
//! events along a packet's flight, from the sending transport through
//! every HUB crossbar to the receiving application.

use nectar_core::system::NectarSystem;
use nectar_core::topology::Topology;
use nectar_core::world::{SystemConfig, World};
use nectar_sim::telemetry::{EventKind, FlightId, TelemetryEvent};
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::WorkloadSpec;

fn events_for(events: &[TelemetryEvent], flight: FlightId) -> Vec<&TelemetryEvent> {
    events.iter().filter(|e| e.flight == flight).collect()
}

/// Every crossbar forward of a flight happens between that flight's
/// transport send and its application delivery.
#[test]
fn forwards_sit_between_send_and_delivery() {
    let mut sys = NectarSystem::single_hub(4, SystemConfig::default());
    sys.world_mut().enable_observability();
    sys.world_mut().send_stream_now(0, 2, 1, 2, &[7u8; 400]);
    sys.world_mut().run_until(Time::ZERO + Dur::from_millis(50));
    assert!(!sys.world().deliveries.is_empty(), "message must arrive");

    let events = sys.world_mut().telemetry_events();
    // Find a flight that was both sent and delivered.
    let delivered: Vec<FlightId> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AppRecv { .. }) && e.flight.is_some())
        .map(|e| e.flight)
        .collect();
    assert!(!delivered.is_empty(), "at least one flight reaches an application");

    for flight in delivered {
        let fe = events_for(&events, flight);
        let sent = fe
            .iter()
            .find(|e| matches!(e.kind, EventKind::TransportSend { .. }))
            .expect("delivered flight has a send");
        let recv = fe
            .iter()
            .find(|e| matches!(e.kind, EventKind::AppRecv { .. }))
            .expect("delivered flight has a delivery");
        assert!(sent.at <= recv.at, "send precedes delivery");
        let forwards: Vec<_> =
            fe.iter().filter(|e| matches!(e.kind, EventKind::CrossbarForward { .. })).collect();
        assert!(!forwards.is_empty(), "the packet crossed at least one crossbar");
        for f in &forwards {
            assert!(
                sent.at <= f.at && f.at <= recv.at,
                "forward at {} outside [{}, {}]",
                f.at,
                sent.at,
                recv.at
            );
        }
        // DMA events bracket the receive side of the same flight.
        let dma_start = fe.iter().find(|e| matches!(e.kind, EventKind::DmaStart { .. }));
        let dma_done = fe.iter().find(|e| matches!(e.kind, EventKind::DmaComplete { .. }));
        let (Some(s), Some(d)) = (dma_start, dma_done) else {
            panic!("delivered flight has both DMA events");
        };
        assert!(s.at <= d.at && d.at <= recv.at);
    }
}

/// On a multi-HUB mesh, some flight is forwarded by at least two
/// distinct HUBs, and the hops appear in increasing timestamp order.
#[test]
fn a_flight_spans_multiple_hubs_on_a_mesh() {
    let mut sys = NectarSystem::mesh(1, 3, 1, SystemConfig::default());
    sys.world_mut().enable_observability();
    // CAB 0 hangs off HUB 0, CAB 2 off HUB 2: the route crosses HUBs.
    sys.world_mut().send_stream_now(0, 2, 1, 2, &[3u8; 200]);
    sys.world_mut().run_until(Time::ZERO + Dur::from_millis(50));
    assert!(!sys.world().deliveries.is_empty(), "message must arrive");

    let events = sys.world_mut().telemetry_events();
    let mut best: Option<(FlightId, Vec<(Time, u8)>)> = None;
    for e in &events {
        if !e.flight.is_some() {
            continue;
        }
        if let EventKind::CrossbarForward { hub, .. } = e.kind {
            match &mut best {
                Some((f, hops)) if *f == e.flight => hops.push((e.at, hub)),
                Some(_) => {}
                None => best = Some((e.flight, vec![(e.at, hub)])),
            }
        }
    }
    let (_, hops) = best.expect("some flight crossed a crossbar");
    let mut hubs: Vec<u8> = hops.iter().map(|&(_, h)| h).collect();
    hubs.dedup();
    hubs.sort_unstable();
    hubs.dedup();
    assert!(hubs.len() >= 2, "flight should traverse >= 2 HUBs, saw {hubs:?}");
    for w in hops.windows(2) {
        assert!(w[0].0 <= w[1].0, "hops in causal order");
    }
}

/// With observability off (the default), nothing is recorded and no
/// flight latency accumulates.
#[test]
fn disabled_recorder_stays_empty() {
    let mut sys = NectarSystem::single_hub(2, SystemConfig::default());
    sys.world_mut().send_stream_now(0, 1, 1, 2, &[1u8; 100]);
    sys.world_mut().run_until(Time::ZERO + Dur::from_millis(10));
    assert!(!sys.world().deliveries.is_empty());
    assert!(sys.world().telemetry_events().is_empty());
    assert!(!sys.world().observability_enabled());
}

/// The metrics registry carries the former ad-hoc counters: per-HUB
/// crossbar counters, per-CAB datalink counters, and the flight-latency
/// histogram when observability is on.
#[test]
fn metrics_registry_subsumes_counters() {
    let mut sys = NectarSystem::single_hub(2, SystemConfig::default());
    sys.world_mut().enable_observability();
    sys.world_mut().send_stream_now(0, 1, 1, 2, &[9u8; 1000]);
    sys.world_mut().run_until(Time::ZERO + Dur::from_millis(50));
    assert!(!sys.world().deliveries.is_empty());

    let reg = sys.world_mut().metrics();
    assert_eq!(
        reg.counter("cab0.packets_tx"),
        sys.world().cab_counters(0).packets_tx,
        "registry mirrors CabCounters"
    );
    assert!(reg.counter("hub0.packets_forwarded") > 0);
    assert!(reg.counter("cab0.checksum_ops") > 0);
    assert!(reg.counter("cab1.kernel.interrupts") > 0);
    let h = reg.histogram("latency.flight_ns").expect("flight latency recorded");
    assert!(h.count() > 0);
    assert!(h.quantile(0.5) > 0.0);
}

/// A recorded stream `TransportTimeout` is a live timer expiring: one
/// that resent the window or sent a persist probe. A re-armed
/// retransmission timer cancels the one it supersedes, so no stale
/// expiry is charged as an interrupt and recorded before the transport
/// finds its token out of date.
#[test]
fn every_recorded_stream_timeout_is_a_live_expiry() {
    let topo = Topology::mesh2d(4, 4, 4, 16);
    let cabs = topo.cab_count();
    // The standing benchmark's `lattice` program, 20 ms of it.
    let spec = WorkloadSpec::parse(
        1,
        "closed(96,0ns,fixed(960),neighbor,datagram)[0ns..20ms];\
         closed(16,500ns,fixed(8192),ring,stream)[0ns..20ms]",
    )
    .expect("the program parses");
    let mut world = World::new(topo, SystemConfig::default());
    world.enable_observability();
    world.set_telemetry_capacity(1 << 21);
    world.set_workload(&spec).expect("the program compiles on the mesh");
    world.run_to_quiescence(Time::from_millis(200));
    assert_eq!(world.telemetry_pressure().1, 0, "the capture is whole");

    let recorded = world
        .telemetry_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TransportTimeout { peer, .. } if peer != u16::MAX))
        .count() as u64;
    let expiries: u64 = (0..cabs)
        .flat_map(|src| (0..cabs).map(move |dst| (src, dst)))
        .filter_map(|(src, dst)| world.stream_stats(src, dst))
        .map(|s| s.timeouts + s.window_probes)
        .sum();
    assert!(expiries > 0, "the program loses enough to time out");
    assert_eq!(recorded, expiries);
}
