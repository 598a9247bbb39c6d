//! The exactness oracle for trains: one HUB driven two ways — a
//! packet-switched flow delivered as one [`Train`], and the same items
//! delivered one by one at their own arrival instants — must produce
//! the same emissions, ready signals, remaining internal events,
//! counters, crossbar, status answers and telemetry.
//!
//! Around the flow, each case randomises what can interfere with it:
//! the hop it arrives at (spacing and opens behind), the payload, an
//! earlier flow through the same output (its busy time and ready bit),
//! a cleared ready bit, ready signals at random instants, competing
//! parked `test open`s, a multicast open on the same output, status
//! queries mid-train, and on which side of the HUB's own events the
//! outside events fall when they share an instant. Times lie on a
//! 10 ns grid, like every HUB constant, so same-instant ties happen.

mod common;

use common::Gen;
use nectar_hub::prelude::*;
use nectar_sim::prelude::*;
use nectar_sim::telemetry::TelemetryEvent;
use proptest::prelude::*;

/// The HUB under test and the ports of the scenario.
const HUB: HubId = HubId::new(0);
const TRAIN_IN: PortId = PortId::new(2);
const TRAIN_OUT: PortId = PortId::new(9);
const EARLIER_IN: PortId = PortId::new(3);
const MULTICAST_IN: PortId = PortId::new(7);
const MULTICAST_OTHER_OUT: PortId = PortId::new(10);
const QUERY_IN: PortId = PortId::new(8);
const MANAGER_IN: PortId = PortId::new(1);
/// Competing `test open`s come in on these.
const COMPETITORS: [PortId; 3] = [PortId::new(4), PortId::new(5), PortId::new(6)];

/// What reaches the HUB from outside.
#[derive(Clone)]
enum Input {
    Item(PortId, Item),
    Train(PortId, Train),
    Ready(PortId),
}

enum Ev {
    Input(Input),
    Internal(InternalEv),
}

/// One run, as comparable data.
#[derive(Debug, PartialEq)]
struct Run {
    emissions: Vec<(Time, PortId, String)>,
    ready_signals: Vec<(Time, PortId)>,
    internal: Vec<(Time, PortId, u8)>,
    counters: HubCounters,
    connections: Vec<(PortId, PortId)>,
    status: Vec<PortStatus>,
    telemetry: Vec<TelemetryEvent>,
}

/// The flow under test.
struct Flow {
    arrival: Time,
    key: u64,
    /// Gap after each item's last byte.
    spacing: Dur,
    /// The `test open`s behind this HUB's, for the HUBs after it.
    downstream: Vec<Command>,
    packet: Packet,
}

impl Flow {
    /// The items on the fibre, in order.
    fn items(&self) -> Vec<Item> {
        let mut items = vec![Item::from(Command::open(true, true, false, HUB, TRAIN_OUT))];
        items.extend(self.downstream.iter().map(|&c| Item::from(c)));
        items.push(self.packet.clone().into());
        items.push(Item::CloseAll);
        items
    }

    fn train(&self) -> Train {
        Train {
            out: TRAIN_OUT,
            opens_behind: self.downstream.len() as u8,
            packet: self.packet.clone(),
            spacing: self.spacing,
            route: 0,
            key: self.key,
        }
    }

    /// The flow's items one by one, each at its own arrival instant,
    /// all with the flow's key.
    fn item_inputs(&self, cfg: &HubConfig) -> Vec<(Time, u64, Input)> {
        let mut at = self.arrival;
        self.items()
            .into_iter()
            .map(|item| {
                let input = (at, self.key, Input::Item(TRAIN_IN, item.clone()));
                at += cfg.wire_time(item.wire_bytes()) + self.spacing;
                input
            })
            .collect()
    }
}

/// One case: the flow, everything around it, and the keys its ready
/// signals and status queries arrive with.
struct Scenario {
    key_base: u64,
    flow: Flow,
    around: Vec<(Time, u64, Input)>,
    ready_key: u64,
    query_key: u64,
}

fn scenario(seed: u64, cfg: &HubConfig) -> Scenario {
    let mut g = Gen(seed | 1);
    // Keys: the HUB's own sort either before or after every outside
    // source's; outside sources take distinct keys in a shuffled order.
    let key_base = if g.chance(2) { 0 } else { 1 << 40 };
    let mut keys: Vec<u64> = (0..16).map(|i| 4096 + 8 * i).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, g.below(i as u64 + 1) as usize);
    }
    let mut key = keys.into_iter();
    let mut key = move || key.next().expect("enough keys");

    let hop = g.below(7);
    let behind = g.below(7 - hop);
    let flow = Flow {
        arrival: Time::from_nanos(2_000) + g.dur(20_000),
        key: key(),
        spacing: if hop == 0 { Dur::ZERO } else { cfg.transit },
        downstream: (0..behind)
            .map(|h| Command::open(true, true, false, HubId::new(1 + h as u8), PortId::new(5)))
            .collect(),
        packet: Packet::new(7, vec![0x5A; g.below(1023) as usize]),
    };

    let mut inputs = Vec::new();
    let item = |at: Time, key: u64, port: PortId, item: Item| (at, key, Input::Item(port, item));
    let cmd_wire = cfg.wire_time(3);
    if g.chance(2) {
        // An earlier flow through the train's output: busy time and a
        // cleared ready bit.
        let (k, at) = (key(), g.at(20_000));
        let packet = Packet::new(1, vec![1; g.below(200) as usize]);
        let tail = at + cmd_wire + cfg.wire_time(packet.wire_bytes());
        inputs.push(item(
            at,
            k,
            EARLIER_IN,
            Command::open(false, false, false, HUB, TRAIN_OUT).into(),
        ));
        inputs.push(item(at + cmd_wire, k, EARLIER_IN, packet.into()));
        inputs.push(item(tail, k, EARLIER_IN, Item::CloseAll));
    }
    if g.chance(3) {
        let op = UserOp::ClearReady;
        inputs.push(item(Time::ZERO, key(), MANAGER_IN, Command::user(op, HUB, TRAIN_OUT).into()));
    }
    // The downstream peer's ready signals.
    let ready_key = key();
    for _ in 0..g.below(4) {
        inputs.push((g.at(60_000), ready_key, Input::Ready(TRAIN_OUT)));
    }
    for &port in COMPETITORS.iter().take(g.below(4) as usize) {
        let (k, at) = (key(), g.at(40_000));
        let open = Command::open(true, true, false, HUB, TRAIN_OUT);
        inputs.push(item(at, k, port, open.into()));
        inputs.push(item(at + cmd_wire + g.dur(5_000), k, port, Item::CloseAll));
    }
    if g.chance(3) {
        // A multicast: one input driving another output asks for the
        // train's output too.
        let (k, at) = (key(), g.at(30_000));
        let opens =
            [MULTICAST_OTHER_OUT, TRAIN_OUT].map(|o| Command::open(false, false, false, HUB, o));
        let packet = Packet::new(2, vec![2; 16]);
        let tail = at + cmd_wire * 2 + cfg.wire_time(packet.wire_bytes());
        inputs.push(item(at, k, MULTICAST_IN, opens[0].into()));
        inputs.push(item(at + cmd_wire, k, MULTICAST_IN, opens[1].into()));
        inputs.push(item(at + cmd_wire * 2, k, MULTICAST_IN, packet.into()));
        inputs.push(item(tail, k, MULTICAST_IN, Item::CloseAll));
    }
    let query_key = key();
    for _ in 0..g.below(3) {
        let at = flow.arrival + g.dur(30_000);
        inputs.push((at, query_key, query(&mut g)));
    }
    Scenario { key_base, flow, around: inputs, ready_key, query_key }
}

/// A status query about the train's output.
fn query(g: &mut Gen) -> Input {
    let op = if g.chance(2) { UserOp::QueryStatus } else { UserOp::QueryReady };
    Input::Item(QUERY_IN, Command::user(op, HUB, TRAIN_OUT).into())
}

/// Drives `hub` with `inputs` the way the world does: events pop in
/// `(time, late, key)` order, the HUB is settled before each one, and
/// its deferred transitions come back keyed by their wire — a
/// controller attempt armed at its own instant among that instant's
/// events not yet dispatched. At the end the HUB is settled through its
/// last controller attempt. Trains the HUB emits are flattened into
/// their items (`downstream` names the opens they carry).
fn drive(mut hub: Hub, inputs: Vec<(Time, u64, Input)>, downstream: &[Command]) -> Run {
    let cfg = hub.config().clone();
    hub.telemetry_mut().set_enabled(true);
    let mut eng: Engine<Ev> = Engine::new();
    for (at, key, input) in inputs {
        eng.schedule_at_keyed(at, key, Ev::Input(input));
    }
    let mut run = Run {
        emissions: Vec::new(),
        ready_signals: Vec::new(),
        internal: Vec::new(),
        counters: HubCounters::default(),
        connections: Vec::new(),
        status: Vec::new(),
        telemetry: Vec::new(),
    };
    let (mut fx, mut batch, mut last) = (Effects::new(), Vec::new(), None);
    while let Some(now) = eng.step_batch(&mut batch) {
        let late = last == Some(now);
        last = Some(now);
        // Dispatched from the back: ascending keys.
        batch.reverse();
        while let Some((key, ev)) = batch.pop() {
            hub.settle(now, Tie { late, key });
            match ev {
                Ev::Input(Input::Item(port, item)) => hub.item_arrives(now, port, item, &mut fx),
                Ev::Input(Input::Train(port, train)) => {
                    assert!(hub.train_arrives(now, port, train, &mut fx).is_ok(), "taken whole");
                }
                Ev::Input(Input::Ready(port)) => hub.ready_signal_arrives(now, port, &mut fx),
                Ev::Internal(ie) => hub.internal(now, ie, &mut fx),
            }
            for em in fx.emissions.drain(..) {
                run.emissions.push((em.at, em.port, em.item.to_string()));
            }
            for tr in fx.trains.drain(..) {
                let mut items: Vec<Item> = downstream[downstream.len() - tr.opens as usize..]
                    .iter()
                    .map(|&c| c.into())
                    .collect();
                items.push(tr.packet.into());
                items.push(Item::CloseAll);
                let mut at = tr.at;
                for item in items {
                    run.emissions.push((at, tr.port, item.to_string()));
                    at += cfg.wire_time(item.wire_bytes()) + cfg.transit;
                }
            }
            for rs in fx.ready_signals.drain(..) {
                run.ready_signals.push((rs.at, rs.port));
            }
            for int in fx.internal.drain(..) {
                let (port, wire) = (int.ev.port(), int.ev.wire());
                run.internal.push((int.at, port, wire as u8));
                let key = hub.wire_key(port, wire);
                if int.at == now && wire == Wire::CtrlExec {
                    let i = batch.partition_point(|&(k, _)| k > key);
                    batch.insert(i, (key, Ev::Internal(int.ev)));
                } else {
                    eng.schedule_at_keyed(int.at, key, Ev::Internal(int.ev));
                }
            }
        }
    }
    hub.settle(last.unwrap_or(Time::ZERO).max(hub.last_command_at()), Tie::LAST);
    run.emissions.sort();
    run.ready_signals.sort();
    run.internal.sort();
    run.counters = *hub.counters();
    run.connections = hub.connections();
    run.status = (0..cfg.ports).map(|p| hub.status(PortId::new(p as u8))).collect();
    run.telemetry = hub.telemetry().events().copied().collect();
    run.telemetry.sort_by_key(|e| e.canonical_key());
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_train_crosses_a_hub_exactly_as_its_items_do(seed in any::<u64>()) {
        let cfg = HubConfig::prototype();
        let Scenario { key_base, flow, mut around, ready_key, query_key } = scenario(seed, &cfg);
        let hub = || {
            let mut hub = Hub::new(HUB, cfg.clone());
            hub.set_key_base(key_base);
            hub
        };
        let as_items = |around: &[(Time, u64, Input)]| {
            let mut inputs = around.to_vec();
            inputs.extend(flow.item_inputs(&cfg));
            inputs
        };

        // Probe the instants at which the item-by-item HUB works on the
        // train — its items' arrivals and its transitions on the
        // train's input — with a ready signal for the output, or a
        // status query whose controller slot falls there.
        let probed = drive(hub(), as_items(&around), &flow.downstream);
        let mut critical: Vec<Time> = flow.item_inputs(&cfg).iter().map(|&(at, ..)| at).collect();
        critical.extend(probed.internal.iter().filter(|i| i.1 == TRAIN_IN).map(|i| i.0));
        let mut g = Gen(seed.rotate_left(17) | 1);
        let query_lead = cfg.wire_time(3) + cfg.controller_latency;
        let (mut readies, mut queries) = (Vec::new(), Vec::new());
        for _ in 0..g.below(4) {
            let at = critical[g.below(critical.len() as u64) as usize];
            if g.chance(2) {
                readies.push(at);
            } else if let Some(sent) = at.nanos().checked_sub(query_lead.nanos()) {
                queries.push(Time::from_nanos(sent));
            }
        }
        for (times, key) in [(&mut readies, ready_key), (&mut queries, query_key)] {
            times.sort();
            times.dedup();
            for &at in times.iter() {
                let probe = if key == ready_key { Input::Ready(TRAIN_OUT) } else { query(&mut g) };
                if !around.iter().any(|&(t, k, _)| (t, k) == (at, key)) {
                    around.push((at, key, probe));
                }
            }
        }

        let mut as_train = around.clone();
        as_train.push((flow.arrival, flow.key, Input::Train(TRAIN_IN, flow.train())));
        let train = drive(hub(), as_train, &flow.downstream);

        let mut items = drive(hub(), as_items(&around), &flow.downstream);
        // A train defers one head-done, for its `close all`; the items
        // take one each. Drop all but the last on the train's input.
        let last_head_done = items
            .internal
            .iter()
            .filter(|&&(_, port, wire)| port == TRAIN_IN && wire == Wire::HeadDone as u8)
            .map(|&(at, _, _)| at)
            .max();
        items.internal.retain(|&(at, port, wire)| {
            port != TRAIN_IN || wire != Wire::HeadDone as u8 || Some(at) == last_head_done
        });
        prop_assert_eq!(train, items, "seed {}", seed);
    }
}
