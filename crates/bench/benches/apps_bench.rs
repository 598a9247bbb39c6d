//! Criterion benches for the application workloads (E16, E16b, E17).

use criterion::{criterion_group, criterion_main, Criterion};
use nectar_apps::prelude::*;
use nectar_core::world::SystemConfig;
use std::hint::black_box;

/// E16: a reduced vision pipeline (2 frames of 64 KB).
fn bench_e16_vision(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16_vision");
    g.sample_size(10);
    g.bench_function("2_frames_64kb", |b| {
        b.iter(|| {
            let cfg = VisionConfig {
                frames: 2,
                image_bytes: 64 * 1024,
                queries_per_frame: 4,
                ..VisionConfig::default()
            };
            black_box(run_vision(&cfg, SystemConfig::default()).frames)
        })
    });
    g.finish();
}

/// E17: a 100-token production-system run.
fn bench_e17_production(c: &mut Criterion) {
    let mut g = c.benchmark_group("e17_production");
    g.sample_size(10);
    g.bench_function("100_tokens", |b| {
        b.iter(|| {
            let cfg = ProductionConfig { max_tokens: 100, ..ProductionConfig::default() };
            black_box(run_production(&cfg, SystemConfig::default()).tokens_matched)
        })
    });
    g.finish();
}

/// E16b: Jacobi halo exchanges and the annealing ring.
fn bench_e16b_scientific(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16b_scientific");
    g.sample_size(10);
    g.bench_function("jacobi_5_iters", |b| {
        b.iter(|| {
            let cfg = JacobiConfig { nodes: 4, points_per_node: 256, iterations: 5 };
            black_box(run_jacobi(&cfg, SystemConfig::default()).comm_per_iteration.count())
        })
    });
    g.bench_function("annealing_2_rounds", |b| {
        b.iter(|| {
            let cfg =
                AnnealingConfig { rounds: 2, steps_per_round: 50, ..AnnealingConfig::default() };
            black_box(run_annealing(&cfg, SystemConfig::default()).best_cost)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_e16_vision, bench_e17_production, bench_e16b_scientific);
criterion_main!(benches);
