//! Property-based tests for the assembled system: random topologies
//! route correctly, random traffic is conserved, and loss never breaks
//! payload integrity.

use nectar_core::prelude::*;
use nectar_hub::id::PortId;
use nectar_sim::time::Time;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn meshes_route_all_pairs_with_manhattan_hops(
        rows in 1usize..4,
        cols in 1usize..4,
        cabs in 1usize..3,
    ) {
        let topo = Topology::mesh2d(rows, cols, cabs, 16);
        for a in 0..topo.cab_count() {
            for b in 0..topo.cab_count() {
                if a == b { continue; }
                let route = topo.route(a, b).expect("mesh is connected");
                // Hop count = Manhattan distance between hubs + 1.
                let (ha, _) = topo.cab_attachment(a);
                let (hb, _) = topo.cab_attachment(b);
                let (ra, ca) = (ha / cols, ha % cols);
                let (rb, cb) = (hb / cols, hb % cols);
                let manhattan = ra.abs_diff(rb) + ca.abs_diff(cb);
                prop_assert_eq!(route.len(), manhattan + 1, "route {} -> {}", a, b);
                // The final hop lands on the destination's port.
                let last = route.hops().last().unwrap();
                prop_assert_eq!(last.hub.index(), hb);
                prop_assert_eq!(topo.peer(hb, last.out), Peer::Cab(b));
            }
        }
    }

    #[test]
    fn random_chains_stay_connected(links in prop::collection::vec(0u8..12, 1..6)) {
        // Build a chain of hubs with one CAB each; every consecutive
        // pair linked on deterministic ports derived from the input.
        let hubs = links.len() + 1;
        let mut b = TopologyBuilder::new(hubs, 16);
        let mut cabs = Vec::new();
        for h in 0..hubs {
            cabs.push(b.add_cab(h, PortId::new(0)).unwrap());
        }
        for (i, &salt) in links.iter().enumerate() {
            let pa = PortId::new(2 + (salt % 12));
            let pb = PortId::new(15 - (salt % 2));
            b.link_hubs(i, pa, i + 1, pb).unwrap();
        }
        let topo = b.build().unwrap();
        for &a in &cabs {
            for &c in &cabs {
                if a != c {
                    let route = topo.route(a, c).expect("chain connects everything");
                    prop_assert_eq!(route.len(), a.abs_diff(c) + 1);
                }
            }
        }
    }

    #[test]
    fn traffic_is_conserved_on_a_clean_net(
        sends in prop::collection::vec((0usize..6, 0usize..6, 1usize..2500), 1..12)
    ) {
        let mut world = World::new(Topology::single_hub(6, 16), SystemConfig::default());
        let mut expected = 0usize;
        let mut expected_bytes = 0usize;
        for &(src, dst, len) in &sends {
            if src == dst { continue; }
            world.send_stream_now(src, dst, 1, 2, &vec![0xAAu8; len]);
            expected += 1;
            expected_bytes += len;
        }
        world.run_until(Time::from_millis(200));
        prop_assert_eq!(world.deliveries.len(), expected);
        let got_bytes: usize = world.deliveries.iter().map(|d| d.len as usize).sum();
        prop_assert_eq!(got_bytes, expected_bytes);
        for cab in 0..6 {
            let c = world.cab_counters(cab);
            prop_assert_eq!(c.overruns, 0);
            prop_assert_eq!(c.corrupted_rx, 0);
        }
    }

    #[test]
    fn loss_and_corruption_never_break_integrity(
        payload in prop::collection::vec(any::<u8>(), 1..6000),
        drop_pct in 0u32..20,
        corrupt_pct in 0u32..20,
        seed in any::<u64>(),
    ) {
        let mut world = World::new(Topology::single_hub(2, 16), SystemConfig::default());
        world.inject_faults(drop_pct as f64 / 100.0, corrupt_pct as f64 / 100.0, seed);
        world.send_stream_now(0, 1, 1, 2, &payload);
        world.run_until(Time::from_millis(800));
        let msg = world.mailbox_take(1, 2);
        prop_assert!(msg.is_some(), "message lost despite reliable transport");
        let msg = msg.unwrap();
        prop_assert_eq!(msg.data(), &payload[..]);
    }
}
