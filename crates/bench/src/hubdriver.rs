//! Minimal single-HUB drivers: [`drive_hub`] for the hardware-level
//! experiments (E01/E02), which feeds timed items into one [`Hub`] and
//! collects timed emissions with no CAB software in the path, and
//! [`contend`] for the controller under contention.

use nectar_hub::prelude::*;
use nectar_sim::prelude::*;

enum Ev {
    Arrive(PortId, Item),
    Internal(InternalEv),
}

/// Runs `hub` against timed arrivals; returns all emissions. The HUB is
/// settled through its last controller attempt, so its counters and
/// crossbar read as after the last command.
pub fn drive_hub(hub: &mut Hub, arrivals: Vec<(Time, PortId, Item)>) -> Vec<Emission> {
    let mut eng: Engine<Ev> = Engine::new();
    for (at, port, item) in arrivals {
        eng.schedule_at(at, Ev::Arrive(port, item));
    }
    let mut emissions = Vec::new();
    let mut fx = Effects::new();
    while let Some(ev) = eng.step() {
        let now = eng.now();
        fx.clear();
        match ev {
            Ev::Arrive(port, item) => hub.item_arrives(now, port, item, &mut fx),
            Ev::Internal(ie) => hub.internal(now, ie, &mut fx),
        }
        emissions.append(&mut fx.emissions);
        for i in fx.internal.drain(..) {
            eng.schedule_at(i.at, Ev::Internal(i.ev));
        }
    }
    hub.settle(eng.now().max(hub.last_command_at()), Tie::LAST);
    emissions
}

/// The data-packet emissions among `emissions`, in time order.
pub fn packet_emissions(emissions: &[Emission]) -> Vec<&Emission> {
    let mut out: Vec<&Emission> =
        emissions.iter().filter(|e| matches!(e.item, Item::Packet(_))).collect();
    out.sort_by_key(|e| e.at);
    out
}

enum Keyed {
    Train(PortId, Train),
    Ready(PortId),
    Internal(InternalEv),
}

/// `inputs` ports (P0, P1, …) each send one single-hop train — a `test
/// open with retry` for the HUB's last port, a 32-byte packet and a
/// `close all` — at the same instant, and the output's downstream peer
/// drains every packet as it arrives. Runs `hub` (key base 0) to
/// quiescence the way the world drives a HUB: events pop in `(time,
/// late, key)` order, the HUB is settled before each, its deferred
/// transitions come back keyed by their wire, and a controller attempt
/// armed at its own instant joins that instant's batch. Returns the
/// grants.
///
/// # Panics
///
/// Panics if `inputs` reaches the output port.
pub fn contend(hub: &mut Hub, inputs: u8) -> u64 {
    let out = PortId::new(hub.config().ports as u8 - 1);
    assert!(inputs as usize <= out.index(), "{inputs} inputs reach the output port");
    // Outside keys sort after the HUB's own.
    let outside = |i: u64| 1 << 40 | i;
    let mut eng: Engine<Keyed> = Engine::new();
    for p in 0..inputs {
        let packet = Packet::new(p as u64, vec![p; 32]);
        let key = outside(p as u64);
        let train = Train { out, opens_behind: 0, packet, spacing: Dur::ZERO, route: 0, key };
        eng.schedule_at_keyed(Time::ZERO, key, Keyed::Train(PortId::new(p), train));
    }
    let ready_key = outside(u8::MAX as u64);
    let (mut fx, mut batch, mut last) = (Effects::new(), Vec::new(), None);
    while let Some(now) = eng.step_batch(&mut batch) {
        let late = last == Some(now);
        last = Some(now);
        batch.reverse();
        while let Some((key, ev)) = batch.pop() {
            hub.settle(now, Tie { late, key });
            match ev {
                Keyed::Train(port, train) => {
                    hub.train_arrives(now, port, train, &mut fx)
                        .expect("an idle port takes it whole");
                }
                Keyed::Ready(port) => hub.ready_signal_arrives(now, port, &mut fx),
                Keyed::Internal(ie) => hub.internal(now, ie, &mut fx),
            }
            for tr in fx.trains.drain(..) {
                eng.schedule_at_keyed(tr.at, ready_key, Keyed::Ready(tr.port));
            }
            for int in fx.internal.drain(..) {
                let key = hub.wire_key(int.ev.port(), int.ev.wire());
                if int.at == now && matches!(int.ev, InternalEv::CtrlExec { .. }) {
                    let i = batch.partition_point(|&(k, _)| k > key);
                    batch.insert(i, (key, Keyed::Internal(int.ev)));
                } else {
                    eng.schedule_at_keyed(int.at, key, Keyed::Internal(int.ev));
                }
            }
            fx.clear();
        }
    }
    hub.settle(last.unwrap_or(Time::ZERO).max(hub.last_command_at()), Tie::LAST);
    hub.counters().opens_succeeded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_reproduces_the_700ns_figure() {
        let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
        let open = Command::open(false, false, false, HubId::new(0), PortId::new(8));
        let emissions = drive_hub(
            &mut hub,
            vec![
                (Time::ZERO, PortId::new(4), open.into()),
                (Time::from_nanos(240), PortId::new(4), Packet::new(1, vec![0u8; 64]).into()),
            ],
        );
        let data = packet_emissions(&emissions);
        assert_eq!(data[0].at, Time::from_nanos(700));
    }

    /// Fifteen trains for one output: each is granted once. The ones
    /// still waiting are woken, and refused while the output is held,
    /// by every packet's ready signal and every `close all`.
    #[test]
    fn every_contending_train_is_granted_once() {
        let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
        assert_eq!(contend(&mut hub, 15), 15);
        let c = hub.counters();
        assert_eq!((c.commands_executed, c.opens_retried), (180, 165));
        assert_eq!(c.packets_forwarded, 15);
    }
}
