//! Property-based tests for HUB invariants.

use nectar_hub::prelude::*;
use nectar_sim::prelude::*;
use proptest::prelude::*;

// ------------------------------------------------------------------
// Crossbar: at most one input drives an output, ever.
// ------------------------------------------------------------------

#[derive(Clone, Debug)]
enum XbarOp {
    Connect(u8, u8),
    DisconnectOut(u8),
    DisconnectIn(u8),
}

fn xbar_op() -> impl Strategy<Value = XbarOp> {
    prop_oneof![
        (0u8..16, 0u8..16).prop_map(|(a, b)| XbarOp::Connect(a, b)),
        (0u8..16).prop_map(XbarOp::DisconnectOut),
        (0u8..16).prop_map(XbarOp::DisconnectIn),
    ]
}

proptest! {
    #[test]
    fn crossbar_invariants_hold_under_random_ops(ops in prop::collection::vec(xbar_op(), 1..200)) {
        let mut xb = Crossbar::new(16);
        for op in ops {
            match op {
                XbarOp::Connect(a, b) => {
                    let _ = xb.connect(PortId::new(a), PortId::new(b));
                }
                XbarOp::DisconnectOut(p) => {
                    xb.disconnect_output(PortId::new(p));
                }
                XbarOp::DisconnectIn(p) => {
                    xb.disconnect_input(PortId::new(p));
                }
            }
            // Invariant 1: input_for is the inverse of outputs_for.
            for out in 0..16u8 {
                let out = PortId::new(out);
                if let Some(input) = xb.input_for(out) {
                    prop_assert!(xb.outputs_for(input).contains(&out));
                    prop_assert_ne!(input, out, "no self-connections");
                }
            }
            // Invariant 2: fan-out sets are disjoint across inputs.
            let mut seen = std::collections::HashSet::new();
            for input in 0..16u8 {
                for out in xb.outputs_for(PortId::new(input)) {
                    prop_assert!(seen.insert(out), "output driven by two inputs");
                }
            }
            prop_assert_eq!(seen.len(), xb.connection_count());
        }
    }

    /// The fan-out index the forwarding path reads is the reference
    /// `outputs_for` scan, port for port and in the same order, after
    /// every step of a random connect / disconnect sequence — on the
    /// prototype's 16 ports and on the full 256-port id space (where
    /// ids past the crossbar's size must be refused without a trace).
    #[test]
    fn port_set_iteration_equals_outputs_for(
        ops in prop::collection::vec((0u8..24, any::<u8>(), any::<u8>()), 1..120),
        wide in any::<bool>(),
    ) {
        let ports = if wide { 256 } else { 16 };
        let mut xb = Crossbar::new(ports);
        // On the small crossbar fold ids onto 0..20: mostly in range,
        // sometimes just past it.
        let id = |raw: u8| PortId::new(if wide { raw } else { raw % 20 });
        for (kind, a, b) in ops {
            match kind {
                0..=13 => {
                    let _ = xb.connect(id(a), id(b));
                }
                14..=18 => {
                    xb.disconnect_output(id(a));
                }
                19..=22 => {
                    let freed = xb.disconnect_input(id(a));
                    prop_assert!(freed.windows(2).all(|w| w[0] < w[1]), "ascending");
                }
                _ => xb.disconnect_all(),
            }
            for input in 0..=if wide { 255u8 } else { 24 } {
                let input = PortId::new(input);
                let set = xb.output_set(input);
                let list = xb.outputs_for(input);
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), &list[..]);
                prop_assert_eq!(set.len(), list.len());
                prop_assert_eq!(set.is_empty(), list.is_empty());
            }
        }
    }

    // --------------------------------------------------------------
    // Commands: encode/decode is the identity on valid commands.
    // --------------------------------------------------------------

    #[test]
    fn command_wire_roundtrip(
        op_idx in 0usize..20,
        hub in any::<u8>(),
        param in any::<u8>(),
    ) {
        let op = UserOp::all()[op_idx];
        let cmd = Command::user(op, HubId::new(hub), PortId::new(param));
        prop_assert_eq!(Command::decode(cmd.encode()), Some(cmd));
    }

    #[test]
    fn unknown_opcodes_never_panic(bytes in any::<[u8; 3]>()) {
        // Decoding arbitrary wire bytes is total: Some(valid) or None.
        let _ = Command::decode(bytes);
    }

    // --------------------------------------------------------------
    // Output registers never interleave two items.
    // --------------------------------------------------------------

    #[test]
    fn emissions_on_one_port_never_overlap(
        sends in prop::collection::vec((0u64..1_000_000, 1usize..800), 1..40)
    ) {
        let cfg = HubConfig::prototype();
        let wire = |bytes: usize| cfg.wire_time(bytes);
        let mut hub = Hub::new(HubId::new(0), cfg.clone());
        let mut eng: Engine<(u8, Item)> = Engine::new();
        // One connection 0 -> 5; packets race in on port 0.
        eng.schedule_at(
            Time::ZERO,
            (0, Command::open(false, false, false, HubId::new(0), PortId::new(5)).into()),
        );
        for (i, (at, len)) in sends.iter().enumerate() {
            eng.schedule_at(
                Time::from_nanos(1_000 + at),
                (0, Packet::new(i as u64, vec![0u8; *len]).into()),
            );
        }
        let mut fx = Effects::new();
        let mut emissions: Vec<Emission> = Vec::new();
        // Simple driver: arrivals carry (port, item); internals loop back.
        #[allow(clippy::type_complexity)]
        let mut internals: Vec<(Time, InternalEv)> = Vec::new();
        loop {
            // Interleave engine events and hub internal events by time.
            internals.sort_by_key(|(t, _)| *t);
            let next_internal = internals.first().map(|(t, _)| *t);
            let next_external = eng.peek_time();
            fx.clear();
            match (next_internal, next_external) {
                (None, None) => break,
                (Some(ti), te) if te.is_none() || ti <= te.unwrap() => {
                    let (t, ev) = internals.remove(0);
                    hub.internal(t, ev, &mut fx);
                }
                _ => {
                    let (port, item) = eng.step().unwrap();
                    hub.item_arrives(eng.now(), PortId::new(port), item, &mut fx);
                }
            }
            emissions.append(&mut fx.emissions);
            for i in fx.internal.drain(..) {
                internals.push((i.at, i.ev));
            }
        }
        // Property: per-port, queued (non-reply) emissions are serialized
        // at wire rate — no two items overlap on the fiber.
        let mut by_port: std::collections::HashMap<PortId, Vec<&Emission>> = Default::default();
        for e in emissions.iter().filter(|e| e.item.is_queued()) {
            by_port.entry(e.port).or_default().push(e);
        }
        for (_, mut es) in by_port {
            es.sort_by_key(|e| e.at);
            for w in es.windows(2) {
                prop_assert!(
                    w[1].at >= w[0].at + wire(w[0].item.wire_bytes()),
                    "overlapping emissions: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        // Conservation: every forwarded packet is either emitted or
        // accounted as a loss.
        let emitted = emissions.iter().filter(|e| matches!(e.item, Item::Packet(_))).count() as u64;
        prop_assert_eq!(emitted, hub.counters().packets_forwarded);
        prop_assert_eq!(
            emitted + hub.counters().overflows,
            sends.len() as u64,
            "every packet is forwarded or overflows"
        );
    }
}
