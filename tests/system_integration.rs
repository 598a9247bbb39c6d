//! Cross-crate integration tests through the `nectar` facade: whole
//! systems, mixed workloads, fault injection, and determinism.

use nectar::core::nectarine::Nectarine;
use nectar::core::topology::{Topology, TopologyBuilder};
use nectar::core::world::{SwitchingMode, World};
use nectar::core::{NectarSystem, SystemConfig};
use nectar::hub::id::PortId;
use nectar::prelude::*;

#[test]
fn facade_prelude_reaches_every_layer() {
    // One expression from each crate through the re-exports.
    let _time = Time::from_nanos(700);
    let _bw = Bandwidth::from_mbit_per_sec(100);
    let cfg = SystemConfig::default();
    assert_eq!(cfg.hub.ports, 16);
    assert_eq!(cfg.cab.thread_switch.as_micros_f64(), 12.0);
    let _ = nectar::proto::header::HEADER_BYTES;
    let _ = nectar::cab::checksum::fletcher16(b"x");
    let _ = nectar::kernel::mailbox::Message::new(1, 0, vec![1u8]);
}

#[test]
fn mixed_workload_on_a_mesh_with_faults_stays_correct() {
    let mut sys = NectarSystem::mesh(2, 2, 3, SystemConfig::default());
    sys.world_mut().inject_faults(0.05, 0.05, 2026);
    let n = sys.world().topology().cab_count();
    let payloads: Vec<Vec<u8>> =
        (0..n).map(|i| (0..3000).map(|j| ((i * 7 + j) % 251) as u8).collect()).collect();
    for (i, p) in payloads.iter().enumerate() {
        let dst = (i + n / 2) % n;
        if dst != i {
            sys.world_mut().send_stream_now(i, dst, 1, 2, p);
        }
    }
    sys.world_mut().run_until(Time::from_millis(500));
    assert!(sys.world().faults_injected > 0, "faults actually fired");
    // Every message arrived intact despite drops and corruption.
    for (i, p) in payloads.iter().enumerate() {
        let dst = (i + n / 2) % n;
        if dst == i {
            continue;
        }
        let msg = sys
            .world_mut()
            .mailbox_take(dst, 2)
            .unwrap_or_else(|| panic!("message {i} -> {dst} missing"));
        assert_eq!(msg.data(), &p[..], "payload {i} corrupted end-to-end");
    }
}

#[test]
fn deliveries_are_deterministic_across_runs() {
    let run = || {
        let mut sys = NectarSystem::single_hub(6, SystemConfig::default());
        sys.world_mut().inject_faults(0.1, 0.0, 99);
        for i in 0..5usize {
            sys.world_mut().send_stream_now(i, (i + 1) % 6, 1, 2, &vec![i as u8; 2500]);
        }
        sys.world_mut().run_until(Time::from_millis(300));
        sys.world().deliveries.iter().map(|d| (d.cab, d.msg_id, d.len, d.at)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed, same world, same timeline");
}

#[test]
fn fig7_multicast_delivers_to_both_leaves() {
    // The §4.2.2 example, end to end: CAB2 multicasts to CAB4 and CAB5.
    let mut b = TopologyBuilder::new(4, 16);
    let _cab1 = b.add_cab(0, PortId::new(1)).unwrap();
    let cab2 = b.add_cab(0, PortId::new(2)).unwrap();
    let _cab3 = b.add_cab(1, PortId::new(4)).unwrap();
    let cab4 = b.add_cab(3, PortId::new(5)).unwrap();
    let cab5 = b.add_cab(2, PortId::new(6)).unwrap();
    b.link_hubs(1, PortId::new(8), 0, PortId::new(3)).unwrap();
    b.link_hubs(0, PortId::new(6), 3, PortId::new(7)).unwrap();
    b.link_hubs(3, PortId::new(3), 2, PortId::new(9)).unwrap();
    let mut world = World::new(b.build().unwrap(), SystemConfig::default());
    world.send_multicast_now(cab2, &[cab4, cab5], 1, 2, b"fig7 multicast");
    world.run_until(Time::from_millis(10));
    let mut got = Vec::new();
    for cab in [cab4, cab5] {
        let msg = world.mailbox_take(cab, 2).expect("leaf received the packet");
        assert_eq!(msg.data(), b"fig7 multicast");
        got.push(cab);
    }
    assert_eq!(got.len(), 2);
    // One packet left CAB2, fanned out in hardware.
    assert_eq!(world.cab_counters(cab2).packets_tx, 1);
}

#[test]
fn nectarine_tasks_span_a_mesh() {
    let mut app = Nectarine::mesh(1, 3, 2, SystemConfig::default());
    let a = app.create_task("left", 0);
    let b = app.create_task("right", 5); // farthest hub
    app.send(a, b, b"across the mesh");
    let msg = app.receive_blocking(b, Dur::from_millis(10)).expect("delivered");
    assert_eq!(msg.data(), b"across the mesh");
}

#[test]
fn switching_modes_agree_on_delivered_bytes_under_load() {
    for mode in [SwitchingMode::PacketSwitched, SwitchingMode::CircuitCached] {
        let cfg = SystemConfig { switching: mode, ..SystemConfig::default() };
        let mut sys = NectarSystem::single_hub(4, cfg);
        for _ in 0..10 {
            sys.world_mut().send_stream_now(0, 1, 1, 2, &[1u8; 800]);
            sys.world_mut().send_stream_now(2, 3, 1, 2, &[2u8; 800]);
        }
        sys.world_mut().run_until(Time::from_millis(100));
        assert_eq!(sys.world().deliveries.len(), 20, "{mode:?}");
        let bytes: usize = sys.world().deliveries.iter().map(|d| d.len as usize).sum();
        assert_eq!(bytes, 20 * 800, "{mode:?}");
    }
}

#[test]
fn conservation_under_sustained_load() {
    // 12 CABs, 8 messages each: every payload byte sent is delivered
    // exactly once (flow control never loses, transport never dups).
    let mut sys = NectarSystem::single_hub(12, SystemConfig::default());
    let msgs = 8usize;
    for src in 0..12usize {
        for m in 0..msgs {
            let dst = (src + 1 + m) % 12;
            if dst != src {
                sys.world_mut().send_stream_now(src, dst, 1, 2, &vec![src as u8; 1200]);
            }
        }
    }
    let expected = (0..12usize)
        .map(|src| (0..msgs).filter(|m| (src + 1 + m) % 12 != src).count())
        .sum::<usize>();
    sys.world_mut().run_until(Time::from_millis(400));
    assert_eq!(sys.world().deliveries.len(), expected);
    // No overruns, no mailbox rejects, no corruption on a clean net.
    for cab in 0..12 {
        let c = sys.world().cab_counters(cab);
        assert_eq!(c.overruns, 0);
        assert_eq!(c.corrupted_rx, 0);
        assert_eq!(c.mailbox_rejects, 0);
    }
}

#[test]
fn lan_and_nectar_probes_share_one_story() {
    use nectar::lan::lan::{LanConfig, LanSystem};
    let mut lan = LanSystem::new(4, LanConfig::default());
    let mut nec = NectarSystem::single_hub(4, SystemConfig::default());
    let lan_lat = lan.measure_latency(0, 1, 64);
    let nec_lat =
        nec.measure_node_to_node(0, 1, 64, nectar::core::node::NodeInterface::SharedMemory).latency;
    assert!(
        lan_lat.nanos() >= 10 * nec_lat.nanos(),
        "order-of-magnitude claim: LAN {lan_lat} vs Nectar {nec_lat}"
    );
}

#[test]
fn topology_scales_to_hundreds_of_nodes() {
    // "Nectar should scale up to a network of hundreds of
    // supercomputer-class machines" (§2.2): an 8x8 mesh of clusters
    // with 10 CABs each = 640 CABs, all mutually routable.
    let topo = Topology::mesh2d(8, 8, 10, 16);
    assert_eq!(topo.cab_count(), 640);
    assert!(topo.route(0, 639).is_ok());
    let mut sys = NectarSystem::custom(topo, SystemConfig::default());
    let r = sys.measure_cab_to_cab(0, 639, 64);
    assert!(
        r.latency.as_micros_f64() < 45.0,
        "cross-system latency {} stays in the same order as one hop",
        r.latency
    );
}
