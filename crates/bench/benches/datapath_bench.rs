//! Datapath microbenchmarks: the per-layer costs an end-to-end
//! messages-per-second figure is made of.
//!
//! * `route/mesh_4x4` — one `Topology::route` lookup on the 16-HUB,
//!   64-CAB mesh.
//! * `hub_train/3_hops` — one packet-switched train (three test-opens,
//!   a 32-byte packet, `close all`) through three chained [`Hub`]s on
//!   a private engine, run until every connection is closed again.
//! * `send_deliver/{32,960}` — one datagram through a whole [`World`]
//!   on a two-HUB mesh: send, run to quiescence, take the message.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nectar_core::prelude::*;
use nectar_hub::prelude::*;
use nectar_sim::engine::Engine;
use nectar_sim::time::{Dur, Time};

fn bench_route(c: &mut Criterion) {
    let topo = Topology::mesh2d(4, 4, 4, 16);
    let cabs = topo.cab_count();
    let mut g = c.benchmark_group("route");
    g.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    g.bench_function("mesh_4x4", |b| {
        b.iter(|| {
            i = (i + 1) % cabs;
            black_box(
                topo.route(i, (i + cabs / 2 + 1) % cabs).expect("the mesh is connected").len(),
            )
        })
    });
    g.finish();
}

/// The chain's wiring: every HUB takes the train in on `IN` and sends
/// it on through `OUT`, which is the next HUB's `IN` (or the CAB).
const IN: PortId = PortId::new(4);
const OUT: PortId = PortId::new(8);
const CHAIN: usize = 3;

enum ChainEv {
    Arrive(usize, Item),
    Ready(usize),
    Internal(usize, InternalEv),
}

fn bench_hub_train(c: &mut Criterion) {
    let cfg = HubConfig::prototype();
    let mut hubs: Vec<Hub> =
        (0..CHAIN).map(|h| Hub::new(HubId::new(h as u8), cfg.clone())).collect();
    let mut eng: Engine<ChainEv> = Engine::new();
    let mut fx = Effects::new();
    let mut id = 0u64;
    let mut g = c.benchmark_group("hub_train");
    g.throughput(Throughput::Elements(1));
    g.bench_function("3_hops", |b| {
        b.iter(|| {
            id += 1;
            // The CAB puts the train on its fibre back to back.
            let mut at = Dur::ZERO;
            let mut put = |eng: &mut Engine<ChainEv>, item: Item| {
                let wire = cfg.wire_time(item.wire_bytes());
                eng.schedule(at, ChainEv::Arrive(0, item));
                at += wire;
            };
            for h in 0..CHAIN {
                put(&mut eng, Command::open(true, true, false, HubId::new(h as u8), OUT).into());
            }
            put(&mut eng, Packet::new(id, vec![0u8; 32]).into());
            put(&mut eng, Item::CloseAll);
            while let Some(ev) = eng.step() {
                let now = eng.now();
                let h = match ev {
                    ChainEv::Arrive(h, item) => {
                        hubs[h].item_arrives(now, IN, item, &mut fx);
                        h
                    }
                    ChainEv::Ready(h) => {
                        hubs[h].ready_signal_arrives(now, OUT, &mut fx);
                        h
                    }
                    ChainEv::Internal(h, ie) => {
                        hubs[h].internal(now, ie, &mut fx);
                        h
                    }
                };
                for em in fx.emissions.drain(..) {
                    if h + 1 < CHAIN {
                        eng.schedule_at(em.at, ChainEv::Arrive(h + 1, em.item));
                    } else if matches!(em.item, Item::Packet(_)) {
                        // The CAB at the end drains the packet and says so.
                        eng.schedule_at(em.at + Dur::from_micros(1), ChainEv::Ready(h));
                    }
                }
                for rs in fx.ready_signals.drain(..) {
                    if h > 0 {
                        eng.schedule_at(rs.at, ChainEv::Ready(h - 1));
                    }
                }
                for int in fx.internal.drain(..) {
                    eng.schedule_at(int.at, ChainEv::Internal(h, int.ev));
                }
            }
        })
    });
    g.finish();
    for hub in &hubs {
        assert_eq!(hub.counters().packets_forwarded, id, "every train crossed every HUB");
        assert!(hub.connections().is_empty(), "close all tore the route down");
    }
}

fn bench_send_deliver(c: &mut Criterion) {
    let mut g = c.benchmark_group("send_deliver");
    g.throughput(Throughput::Elements(1));
    for len in [32usize, 960] {
        let mut world = World::new(Topology::mesh2d(1, 2, 1, 16), SystemConfig::default());
        let data = vec![0x5Au8; len];
        let mut sent = 0u64;
        g.bench_function(len.to_string(), |b| {
            b.iter(|| {
                sent += 1;
                world.send_datagram_now(0, 1, 1, 2, &data);
                world.run_to_quiescence(world.now() + Dur::from_millis(1));
                world.deliveries.clear();
                black_box(world.mailbox_take(1, 2).expect("the datagram was delivered"))
            })
        });
        assert_eq!(world.cab_counters(1).packets_rx, sent);
        assert!(world.now() > Time::ZERO);
    }
    g.finish();
}

criterion_group!(benches, bench_route, bench_hub_train, bench_send_deliver);
criterion_main!(benches);
