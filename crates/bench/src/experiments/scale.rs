//! E26 — conservative-parallel scale: one simulated Nectar on all
//! cores, bit-identical to the sequential run.
//!
//! The paper's network is parallel in space: HUB clusters joined by
//! fibers whose minimum transit latency lower-bounds cross-cluster
//! influence. The `e26` family builds the two topologies where that
//! structure is big enough to matter — an 8-leaf fat-star and a 4×4
//! mesh, 64 CABs each — floods them with mostly cluster-local stream
//! traffic, and runs the same workload on a [`ShardedWorld`] at
//! `report --shards N`.
//!
//! Each experiment builds one world. That its results do not depend on
//! the shard count is checked elsewhere: the golden test
//! (`crates/bench/tests/golden.rs`) pins e26 and e26b at 1 and 2 shards,
//! and `report --scaling` compares every point of its sweep with the
//! 1-shard point and exits 1 when one differs (the ignored test
//! `every_scaling_point_agrees_and_is_attributed` in
//! `crates/bench/tests/gates.rs` runs that sweep at 1 and 2 shards).

use crate::experiments::ExpCtx;
use crate::table::Table;
use nectar_core::prelude::*;
use nectar_core::world::AppSend;
use nectar_sim::bytes::Bytes;
use nectar_sim::chaos::{ChaosSchedule, Clause, Fault};
use nectar_sim::time::Time;
use std::time::Instant;

/// Traffic rounds per run. Sized so a run is long enough to measure
/// (about a million simulation events on the 64-CAB topologies) yet
/// quick enough for CI.
const ROUNDS: u64 = 24;

/// A dense, schedule-upfront stream workload over `topo`: every CAB
/// streams to a rotating neighbour on its own HUB each round, and
/// every third CAB also streams to its counterpart half the system
/// away (cross-HUB, and under sharding cross-shard). The mix mirrors
/// the locality argument of the paper — most traffic stays inside a
/// cluster, the backbone carries the rest — and gives every shard
/// enough same-window work to amortize the barrier.
fn scaled_workload(topo: &Topology) -> Vec<(Time, usize, AppSend)> {
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); topo.hub_count()];
    for c in 0..topo.cab_count() {
        clusters[topo.cab_attachment(c).0].push(c);
    }
    clusters.retain(|m| !m.is_empty());
    let mut sends = Vec::new();
    for round in 0..ROUNDS {
        let at = Time::from_micros(3 + 15 * round);
        for (ci, members) in clusters.iter().enumerate() {
            for (mi, &src) in members.iter().enumerate() {
                if members.len() > 1 {
                    let dst = members[(mi + 1 + round as usize) % members.len()];
                    if dst != src {
                        let data: Bytes =
                            vec![(src as u64 * 13 + round) as u8; 640 + 96 * (round as usize % 3)]
                                .into();
                        sends.push((
                            at,
                            src,
                            AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: 40, data },
                        ));
                    }
                }
                if clusters.len() > 1 && mi % 3 == 0 {
                    let far = &clusters[(ci + clusters.len() / 2) % clusters.len()];
                    let dst = far[mi % far.len()];
                    if dst != src {
                        let data: Bytes = vec![(src as u64 + 7 * round) as u8; 512].into();
                        sends.push((
                            at,
                            src,
                            AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: 41, data },
                        ));
                    }
                }
            }
        }
    }
    sends
}

/// Simulated-time drain deadline of every e26 and e27 run; each drains
/// long before it.
const DEADLINE: Time = Time::from_millis(100);

/// Builds a `shards`-way world over `topo`, arms it for `ctx`, lets
/// `load` put its traffic on it and runs it to quiescence: the one run
/// of every e26 and e27 experiment and of every `--scaling` point.
/// Returns the world with the events it processed and the wall-clock
/// seconds all of that took.
pub(crate) fn timed_run(
    topo: &Topology,
    shards: usize,
    ctx: &ExpCtx,
    load: impl FnOnce(&mut ShardedWorld),
) -> (ShardedWorld, u64, f64) {
    let t0 = Instant::now();
    let mut world = ShardedWorld::new(topo.clone(), SystemConfig::default(), shards);
    ctx.prepare_sharded(&mut world);
    load(&mut world);
    let (events, _) = world.run_to_quiescence(DEADLINE);
    (world, events, t0.elapsed().as_secs_f64())
}

/// Puts the scaled workload, and the chaos schedule if any, on `world`.
fn load_scaled(
    world: &mut ShardedWorld,
    sends: &[(Time, usize, AppSend)],
    chaos: Option<&ChaosSchedule>,
) {
    if let Some(s) = chaos {
        world.set_chaos(s.clone());
    }
    for (at, cab, send) in sends {
        world.schedule_send(*at, *cab, send.clone());
    }
}

/// Shared runner: the workload at `ctx.shards`, one world.
fn run_scale(id: &'static str, title: &str, topo: Topology, ctx: &ExpCtx) -> Table {
    let mut table =
        Table::new(id, title.to_string(), &["config", "shards", "events", "wall", "events/sec"]);
    let shards = ctx.shard_count().min(topo.hub_count());
    let sends = scaled_workload(&topo);
    let (mut world, events, wall) = timed_run(&topo, shards, ctx, |w| load_scaled(w, &sends, None));
    assert!(
        world.transport_quiescent(),
        "{id}: scale workload failed to drain — deadline too tight"
    );
    let runtime = world.runtime_metrics();
    ctx.absorb_sharded(&mut table, &mut world);
    table.record_events(events);
    table.row(&[
        format!("{} HUBs / {} CABs / {} sends", topo.hub_count(), topo.cab_count(), sends.len()),
        shards.to_string(),
        events.to_string(),
        format!("{:.1} ms", wall * 1e3),
        format!("{:.0}", events as f64 / wall.max(1e-9)),
    ]);
    if shards > 1 {
        table.note(format!(
            "runner: {} windows, {:.1} ms total barrier wait, {} cross-shard events exchanged",
            runtime.counter("runner.windows"),
            runtime.counter("runner.barrier_wait_ns") as f64 / 1e6,
            runtime.counter("runner.exchanged_events"),
        ));
    }
    let lookahead = SystemConfig::default().hub.lookahead();
    table.note(format!(
        "conservative window: HubConfig::lookahead() = {} ns per round",
        lookahead.nanos()
    ));
    table
}

/// E26: 8-leaf fat-star (a root HUB fanning out to 8 leaf HUBs, 8
/// CABs each — 64 CABs). Leaf-local traffic dominates; the root
/// carries the cross-leaf flows, exactly the shape where sharding by
/// HUB cluster should pay.
pub fn e26_fat_star(ctx: &ExpCtx) -> Table {
    run_scale("e26", "scale: sharded fat-star (64 CABs)", Topology::fat_star(8, 8, 16), ctx)
}

/// E26b: 4×4 mesh of HUBs, 4 CABs each (64 CABs). The mesh has no
/// privileged root, so cross-shard edges appear on every side of
/// every contiguous block — the stress case for the window barrier.
pub fn e26b_mesh(ctx: &ExpCtx) -> Table {
    run_scale("e26b", "scale: sharded 4x4 mesh (64 CABs)", Topology::mesh2d(4, 4, 4, 16), ctx)
}

/// One measured point on the speedup curve produced by
/// [`scaling_sweep`].
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Experiment id (`e26`, `e26b`).
    pub experiment: &'static str,
    /// Human-readable topology description.
    pub topology: &'static str,
    /// Shard count this point ran at (clamped to the HUB count).
    pub shards: usize,
    /// Whether the run carried the sweep's chaos schedule.
    pub chaos: bool,
    /// Simulation events processed.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// YAWNS windows executed (0 for the 1-shard run, which skips the
    /// window protocol entirely).
    pub windows: u64,
    /// Total nanoseconds all shards spent waiting at barriers.
    pub barrier_wait_ns: u64,
    /// Cross-shard events moved through the batched exchange.
    pub exchanged_events: u64,
    /// Whether this point's results digest equals the 1-shard point's
    /// for the same topology and schedule.
    pub deterministic: bool,
    /// Host-time bottleneck attribution for this point — per-shard
    /// phase breakdown, parallel efficiency, Karp–Flatt estimate, and
    /// the scaling doctor's ranked verdict. Present when the sweep ran
    /// with profiling on.
    pub profile: Option<nectar_sim::profile::ProfileAnalysis>,
}

/// Measures the speedup curve behind `report --scaling`: each e26
/// topology, clean and under a fixed chaos schedule, at every shard
/// count in `shard_counts` (deduplicated, clamped to the HUB count, 1
/// always included and run first). Every point's results digest is
/// compared with the 1-shard point's — the curve is only worth plotting
/// if it measures the *same* computation at every x. With `profile`
/// set, every point also carries the scaling doctor's bottleneck
/// attribution.
pub fn scaling_sweep(shard_counts: &[usize], profile: bool) -> Vec<ScalingPoint> {
    let chaos = ChaosSchedule::new(0xC0FFEE)
        .with(Clause::new(Fault::Loss { rate: 0.02 }))
        .with(Clause::new(Fault::Duplicate { rate: 0.01 }));
    let topologies: [(&'static str, &'static str, Topology); 2] = [
        ("e26", "fat_star(8,8,16)", Topology::fat_star(8, 8, 16)),
        ("e26b", "mesh2d(4,4,4,16)", Topology::mesh2d(4, 4, 4, 16)),
    ];
    let ctx = ExpCtx { profile, ..ExpCtx::off() };
    let mut points = Vec::new();
    for (id, desc, topo) in topologies {
        let hubs = topo.hub_count();
        let mut counts: Vec<usize> =
            shard_counts.iter().map(|&s| s.clamp(1, hubs)).chain(std::iter::once(1)).collect();
        counts.sort_unstable();
        counts.dedup();
        let sends = scaled_workload(&topo);
        for use_chaos in [false, true] {
            let schedule = use_chaos.then_some(&chaos);
            let mut reference = None;
            for &shards in &counts {
                let (world, events, wall_s) =
                    timed_run(&topo, shards, &ctx, |w| load_scaled(w, &sends, schedule));
                assert!(
                    use_chaos || world.transport_quiescent(),
                    "{id} at {shards} shards failed to drain — deadline too tight"
                );
                let results = world.results_digest();
                let runtime = world.runtime_metrics();
                points.push(ScalingPoint {
                    experiment: id,
                    topology: desc,
                    shards,
                    chaos: use_chaos,
                    events,
                    wall_s,
                    windows: runtime.counter("runner.windows"),
                    barrier_wait_ns: runtime.counter("runner.barrier_wait_ns"),
                    exchanged_events: runtime.counter("runner.exchanged_events"),
                    deterministic: *reference.get_or_insert(results) == results,
                    profile: world.profile_analysis(),
                });
            }
        }
    }
    points
}
