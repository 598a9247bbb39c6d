//! Datapath microbenchmarks: the per-layer costs an end-to-end
//! messages-per-second figure is made of.
//!
//! * `route/mesh_4x4` — one `Topology::route` lookup on the 16-HUB,
//!   64-CAB mesh.
//! * `hub_train/3_hops` — one packet-switched [`Train`] (three
//!   test-opens, a 32-byte packet, `close all`) through three chained
//!   [`Hub`]s on a private engine, one event per HUB for the train and
//!   one for its `close all`, run until every connection is closed
//!   again.
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
    Arrive(usize, Train),
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
            // The CAB puts the train on its fibre: every HUB's test-open,
            // the packet and `close all`, back to back.
            let train = |opens_behind: usize, packet: Packet, spacing: Dur| Train {
                out: OUT,
                opens_behind: opens_behind as u8,
                packet,
                spacing,
                route: 0,
                key: 0,
            };
            let packet = Packet::new(id, vec![0u8; 32]);
            eng.schedule(Dur::ZERO, ChainEv::Arrive(0, train(CHAIN - 1, packet, Dur::ZERO)));
            while let Some(ev) = eng.step() {
                let now = eng.now();
                let h = match ev {
                    ChainEv::Arrive(h, t) => {
                        hubs[h].train_arrives(now, IN, t, &mut fx).expect("taken whole");
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
                for tr in fx.trains.drain(..) {
                    if h + 1 < CHAIN {
                        let next = train(tr.opens as usize - 1, tr.packet, cfg.transit);
                        eng.schedule_at(tr.at, ChainEv::Arrive(h + 1, next));
                    } else {
                        // The CAB at the end drains the packet and says so.
                        eng.schedule_at(tr.at + Dur::from_micros(1), ChainEv::Ready(h));
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
    for hub in &mut hubs {
        hub.settle(eng.now(), Tie::LAST);
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
