//! Criterion benches for the sharded runner's hot path: the batched
//! exchange (a full windowed run, whose per-window cost is the
//! rendezvous plus the outbox swap) and the SoA engine feeding it,
//! the all-in price of one window on lattice-shaped traffic, and the
//! bare rendezvous under it. The sharded numbers on a single-core CI
//! host measure protocol *overhead*, not speedup — which is exactly
//! what a microbench of the exchange should measure: how much a window
//! costs when it buys no parallelism.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nectar_core::prelude::*;
use nectar_core::shard::rendezvous_ping;
use nectar_sim::time::Time;
use nectar_sim::workload::preset;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small cross-shard-heavy workload: every CAB streams to its
/// counterpart half the system away, so every flow crosses the root
/// HUB and (under sharding) the exchange grid carries real batches.
fn cross_traffic(topo: &Topology) -> Vec<(Time, usize, AppSend)> {
    let cabs = topo.cab_count();
    let mut sends = Vec::new();
    for round in 0..4u64 {
        for src in 0..cabs {
            let dst = (src + cabs / 2) % cabs;
            if dst == src {
                continue;
            }
            let data: Arc<[u8]> = vec![(src as u64 + round) as u8; 512].into();
            sends.push((
                Time::from_micros(2 + 11 * round),
                src,
                AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: 50, data },
            ));
        }
    }
    sends
}

/// End-to-end cost of the windowed run at 1 vs 4 shards on a fixed
/// workload. The 1-shard run never enters the window protocol, so the
/// ratio is the all-in price of barriers + batched exchange.
fn bench_windowed_run(c: &mut Criterion) {
    let topo = Topology::fat_star(4, 4, 16);
    let sends = cross_traffic(&topo);
    let mut g = c.benchmark_group("barrier_exchange");
    g.sample_size(10);
    for shards in [1usize, 4] {
        g.bench_function(format!("fat_star_4x4_{shards}_shards"), |b| {
            b.iter(|| {
                let mut world = ShardedWorld::new(topo.clone(), SystemConfig::default(), shards);
                for (at, cab, send) in &sends {
                    world.schedule_send(*at, *cab, send.clone());
                }
                let (events, _) = world.run_to_quiescence(Time::from_millis(50));
                black_box(events)
            })
        });
    }
    g.finish();
}

/// A 2-shard world on the 16-HUB mesh with the `lattice` preset armed
/// (nearest-neighbour datagrams plus a stream ring, 2 ms of offered
/// traffic) — the shape whose windows hold only a handful of events.
fn lattice_world() -> ShardedWorld {
    let topo = Topology::mesh2d(4, 4, 4, 16);
    let mut world = ShardedWorld::new(topo, SystemConfig::default(), 2);
    world.set_workload(&preset("lattice").expect("lattice preset exists")).expect("spec compiles");
    world
}

/// The all-in price of one window: wall time of the lattice run
/// (world construction excluded) over `runner.windows`.
fn bench_window_price(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded_window");
    g.sample_size(10);
    let (mut run, mut windows) = (Duration::ZERO, 0u64);
    g.bench_function("lattice_2_shards", |b| {
        b.iter(|| {
            let mut world = lattice_world();
            let start = Instant::now();
            let (events, _) = world.run_to_quiescence(Time::from_millis(50));
            run += start.elapsed();
            windows += world.runtime_metrics().counter("runner.windows");
            black_box(events)
        })
    });
    g.finish();
    if c.mean_of("sharded_window/lattice_2_shards").is_some_and(|m| !m.is_zero()) {
        println!(
            "sharded_window/lattice_2_shards: {:.0} ns per window",
            run.as_nanos() as f64 / windows as f64
        );
    }
}

/// The floor under that price: two threads crossing the bare
/// rendezvous, nothing in the windows between.
fn bench_bare_rendezvous(c: &mut Criterion) {
    const CROSSINGS: u64 = 100_000;
    let mut g = c.benchmark_group("rendezvous");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CROSSINGS));
    g.bench_function("2_threads_empty_windows", |b| {
        b.iter(|| black_box(rendezvous_ping(2, CROSSINGS)))
    });
    g.finish();
    if let Some(mean) = c.mean_of("rendezvous/2_threads_empty_windows").filter(|m| !m.is_zero()) {
        println!(
            "rendezvous/2_threads_empty_windows: {:.0} ns per crossing",
            mean.as_nanos() as f64 / CROSSINGS as f64
        );
    }
}

criterion_group!(benches, bench_windowed_run, bench_window_price, bench_bare_rendezvous);
criterion_main!(benches);
