//! E27 — the workload scenario library: spec-driven traffic against
//! the full simulated system, with the doctor's verdict as the
//! pass/fail criterion.
//!
//! Where the e26 family schedules its sends up front, the e27 family
//! drives a [`nectar_sim::workload`] generator off the engine clock:
//! open-loop arrival processes and closed-loop token circulation,
//! with per-(class, CAB) RNG streams so the offered load is
//! bit-identical at any shard count. Each experiment defaults to one
//! registered preset and honors `report --workload SPEC|PRESET` as an
//! override (the CLI validates the grammar before anything runs).
//!
//! The scenario verdict is structural, not a wall-clock number: zero
//! HUB drops, zero mailbox rejects, and — when the streaming doctor
//! rode along (`--doctor`) — a confident capture with no critical
//! findings (retransmit storm, head-of-line blocking, mailbox
//! saturation, silent drops). The verdict lands in the table notes and
//! in `BENCH_sim.json`, so CI can gate on it.

use crate::experiments::ExpCtx;
use crate::table::Table;
use nectar_core::prelude::*;
use nectar_sim::time::Time;
use nectar_sim::workload::{preset, Shape, WorkloadSpec};
use std::time::Instant;

/// Simulated-time drain deadline: generous against every preset's
/// traffic window (4 ms at most) plus in-flight tail.
const DEADLINE: Time = Time::from_millis(100);

/// Seed an inline `--workload` spec is parsed with. Presets carry
/// their own seeds; a raw spec needs one, and a fixed value keeps the
/// replayability story simple: same flag, same traffic.
const INLINE_SPEC_SEED: u64 = 0xE27;

/// Resolves the scenario: the `--workload` override (preset name, then
/// inline spec) wins over the experiment's default preset.
fn resolve(ctx: &ExpCtx, default_preset: &str) -> WorkloadSpec {
    match &ctx.workload {
        Some(w) => preset(w).unwrap_or_else(|| {
            WorkloadSpec::parse(INLINE_SPEC_SEED, w).unwrap_or_else(|e| panic!("--workload: {e}"))
        }),
        None => preset(default_preset).expect("default preset is registered"),
    }
}

/// The standing closed-loop population `spec` puts on `cabs` sources
/// (open-loop classes contribute no standing tokens).
fn standing_flows(spec: &WorkloadSpec, cabs: usize) -> u64 {
    spec.classes
        .iter()
        .map(|c| match c.shape {
            Shape::Closed { tokens, .. } => tokens as u64 * cabs as u64,
            Shape::Open { .. } => 0,
        })
        .sum()
}

/// One timed scenario run at `shards` shards. Only the `absorb` run
/// feeds the table's metrics/trace/stream so a reference run never
/// double-counts.
fn timed_run(
    topo: &Topology,
    spec: &WorkloadSpec,
    shards: usize,
    ctx: &ExpCtx,
    table: &mut Table,
    absorb: bool,
) -> (u64, f64, String) {
    let t0 = Instant::now();
    let mut world = ShardedWorld::new(topo.clone(), SystemConfig::default(), shards);
    ctx.prepare_sharded(&mut world);
    world.set_workload(spec).unwrap_or_else(|e| panic!("{}: workload rejected: {e}", table.id));
    let (events, _) = world.run_to_quiescence(DEADLINE);
    let wall_s = t0.elapsed().as_secs_f64();
    let fingerprint = world.metrics().to_json();
    if absorb {
        ctx.absorb_sharded(table, &mut world);
    } else if ctx.stream {
        world.finish_streaming();
    }
    (events, wall_s, fingerprint)
}

/// Sums a per-CAB counter family from the table's harvested metrics.
fn summed(table: &Table, cabs: usize, suffix: &str) -> Option<u64> {
    let m = table.metrics.as_ref()?;
    Some((0..cabs).map(|c| m.counter(&format!("cab{c}.{suffix}"))).sum())
}

/// Appends the scenario's pass/fail note. Structural criteria only:
/// silent-drop counters from the metrics registry, plus the streaming
/// doctor's confidence and critical findings when one rode along.
fn verdict_note(table: &mut Table, topo: &Topology) {
    let Some(m) = table.metrics.as_ref() else {
        table.note("scenario verdict: not evaluated (run with --metrics or --doctor)");
        return;
    };
    let hub_drops: u64 = (0..topo.hub_count())
        .map(|h| m.counter(&format!("hub{h}.drops")) + m.counter(&format!("hub{h}.overflows")))
        .sum();
    let rejects = summed(table, topo.cab_count(), "mailbox_rejects").expect("metrics present");
    let mut failures = Vec::new();
    if hub_drops > 0 {
        failures.push(format!("{hub_drops} HUB drops/overflows"));
    }
    if rejects > 0 {
        failures.push(format!("{rejects} mailbox rejects"));
    }
    if let Some(s) = &table.stream {
        if !s.confident {
            failures.push("doctor capture truncated (not confident)".to_string());
        }
        for f in &s.findings {
            if f.severity == nectar_sim::analysis::pathology::Severity::Critical {
                failures.push(format!("critical finding: {} at {}", f.detector, f.subject));
            }
        }
    }
    if failures.is_empty() {
        table.note(format!(
            "scenario verdict: PASS — 0 drops, 0 rejects{}",
            if table.stream.is_some() { ", doctor confident, no critical findings" } else { "" }
        ));
    } else {
        table.note(format!("scenario verdict: FAIL — {}", failures.join("; ")));
    }
}

/// Shared runner: the scenario at `ctx.shards`, plus (when parallel)
/// the 1-shard reference and the determinism diff, then the verdict.
fn run_workload(
    id: &'static str,
    title: &str,
    topo: Topology,
    default_preset: &str,
    ctx: &ExpCtx,
) -> Table {
    let spec = resolve(ctx, default_preset);
    let mut table = Table::new(
        id,
        title.to_string(),
        &["scenario", "shards", "flows offered", "events", "wall", "events/sec"],
    );
    let shards = ctx.shard_count().min(topo.hub_count());
    let scenario = match &ctx.workload {
        Some(w) if preset(w).is_some() => format!("preset {w}"),
        Some(_) => "inline spec".to_string(),
        None => format!("preset {default_preset}"),
    };

    let (events, wall, fingerprint) = timed_run(&topo, &spec, shards, ctx, &mut table, true);
    table.record_events(events);
    let flows = summed(&table, topo.cab_count(), "workload.flows");
    let eps = events as f64 / wall.max(1e-9);
    table.row(&[
        scenario.clone(),
        shards.to_string(),
        flows.map_or_else(|| "-".to_string(), |f| f.to_string()),
        events.to_string(),
        format!("{:.1} ms", wall * 1e3),
        format!("{eps:.0}"),
    ]);
    let standing = standing_flows(&spec, topo.cab_count());
    table.note(format!(
        "{} classes, {standing} standing closed-loop flows on {} CABs / {} HUBs",
        spec.classes.len(),
        topo.cab_count(),
        topo.hub_count()
    ));

    if shards > 1 {
        let (ref_events, ref_wall, ref_fingerprint) =
            timed_run(&topo, &spec, 1, ctx, &mut table, false);
        table.record_events(ref_events);
        let ref_eps = ref_events as f64 / ref_wall.max(1e-9);
        table.row(&[
            scenario,
            "1 (reference)".to_string(),
            "-".to_string(),
            ref_events.to_string(),
            format!("{:.1} ms", ref_wall * 1e3),
            format!("{ref_eps:.0}"),
        ]);
        if ref_events != events {
            table.note(format!(
                "DETERMINISM VIOLATED: {events} events at {shards} shards vs {ref_events} at 1"
            ));
        } else if fingerprint != ref_fingerprint {
            table.note(format!(
                "DETERMINISM VIOLATED: metrics registries differ between 1 and {shards} shards"
            ));
        } else {
            table.note(format!("determinism: metrics bit-identical across 1 and {shards} shards"));
        }
    }
    verdict_note(&mut table, &topo);
    table
}

/// E27: the lattice-collective preset on the e26b mesh — QCDSP-style
/// nearest-neighbor halo exchange plus an all-reduce ring of byte
/// streams.
pub fn e27_lattice(ctx: &ExpCtx) -> Table {
    run_workload(
        "e27",
        "workload: lattice collective on a 4x4 mesh (64 CABs)",
        Topology::mesh2d(4, 4, 4, 16),
        "lattice",
        ctx,
    )
}

/// E27b: the spike-stream preset on the e26b mesh — 1600 closed-loop
/// tokens per CAB, a standing population above 10^5 concurrent flows
/// on 64 CABs. The bounded-memory acceptance run in CI drives exactly
/// this experiment under `--doctor`.
pub fn e27b_spike(ctx: &ExpCtx) -> Table {
    run_workload(
        "e27b",
        "workload: spike stream on a 4x4 mesh (10^5 flows)",
        Topology::mesh2d(4, 4, 4, 16),
        "spike",
        ctx,
    )
}

/// E27c: the datacenter RPC fan-out preset on the e26 fat-star — a hot
/// service behind a hotspot matrix plus open-loop background
/// datagrams.
pub fn e27c_rpc_fanout(ctx: &ExpCtx) -> Table {
    run_workload(
        "e27c",
        "workload: RPC fan-out on an 8-leaf fat-star (64 CABs)",
        Topology::fat_star(8, 8, 16),
        "rpc-fanout",
        ctx,
    )
}
