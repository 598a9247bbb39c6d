//! Criterion benches for the HUB model (experiments E01/E02/E06, and
//! the controller under contention): wall-clock cost of simulating the
//! switching fabric.

use criterion::{criterion_group, criterion_main, Criterion};
use nectar_bench::hubdriver::{contend, drive_hub};
use nectar_hub::prelude::*;
use nectar_sim::time::Time;
use std::hint::black_box;

/// E01: one connection setup + packet through a single HUB.
fn bench_e01_setup_and_transfer(c: &mut Criterion) {
    c.bench_function("e01_hub_setup_and_packet", |b| {
        b.iter(|| {
            let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
            let open = Command::open(false, false, false, HubId::new(0), PortId::new(8));
            let emissions = drive_hub(
                &mut hub,
                vec![
                    (Time::ZERO, PortId::new(4), open.into()),
                    (Time::from_nanos(240), PortId::new(4), Packet::new(1, vec![0u8; 64]).into()),
                ],
            );
            black_box(emissions.len())
        })
    });
}

/// E02: a batch of serialized controller commands.
fn bench_e02_controller_batch(c: &mut Criterion) {
    c.bench_function("e02_controller_16_opens", |b| {
        b.iter(|| {
            let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
            let arrivals = (0..8u8)
                .map(|p| {
                    let cmd = Command::open(false, false, false, HubId::new(0), PortId::new(8 + p));
                    (Time::ZERO, PortId::new(p), Item::from(cmd))
                })
                .collect();
            black_box(drive_hub(&mut hub, arrivals).len())
        })
    });
}

/// E06: a multicast fan-out through the crossbar.
fn bench_e06_multicast_fanout(c: &mut Criterion) {
    c.bench_function("e06_multicast_4way", |b| {
        b.iter(|| {
            let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
            let mut arrivals: Vec<(Time, PortId, Item)> = (0..4u8)
                .map(|i| {
                    let cmd = Command::open(false, false, false, HubId::new(0), PortId::new(4 + i));
                    (Time::from_nanos(i as u64 * 240), PortId::new(0), Item::from(cmd))
                })
                .collect();
            arrivals.push((
                Time::from_micros(2),
                PortId::new(0),
                Packet::new(1, vec![0u8; 512]).into(),
            ));
            black_box(drive_hub(&mut hub, arrivals).len())
        })
    });
}

/// The controller under contention: 15 single-hop trains for one output
/// arrive at once and the HUB runs to quiescence. Every ready signal and
/// every `close all` wakes the trains still waiting, and all but one
/// are refused again: 165 refused attempts for 15 grants.
fn bench_contention(c: &mut Criterion) {
    const INPUTS: u8 = 15;
    c.bench_function("hub_contention_15_to_1", |b| {
        b.iter(|| {
            let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
            black_box(contend(&mut hub, INPUTS))
        })
    });
    if let Some(mean) = c.mean_of("hub_contention_15_to_1").filter(|m| !m.is_zero()) {
        println!(
            "hub_contention_15_to_1: {:.0} ns per grant",
            mean.as_nanos() as f64 / INPUTS as f64
        );
    }
}

/// Crossbar primitive operations.
fn bench_crossbar_ops(c: &mut Criterion) {
    c.bench_function("crossbar_connect_disconnect", |b| {
        let mut xb = Crossbar::new(16);
        b.iter(|| {
            for i in 0..8u8 {
                xb.connect(PortId::new(i), PortId::new(15 - i)).unwrap();
            }
            for i in 0..8u8 {
                xb.disconnect_output(PortId::new(15 - i));
            }
            black_box(xb.connection_count())
        })
    });
}

criterion_group!(
    benches,
    bench_e01_setup_and_transfer,
    bench_e02_controller_batch,
    bench_e06_multicast_fanout,
    bench_contention,
    bench_crossbar_ops
);
criterion_main!(benches);
