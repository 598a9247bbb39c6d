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
//! Each experiment builds one world. The golden test
//! (`crates/bench/tests/golden.rs`) pins e27 and e27c, and its ignored
//! half e27b, at 1 and 2 shards.
//!
//! The scenario verdict is structural, not a wall-clock number: zero
//! HUB drops, zero mailbox rejects, and — when the streaming doctor
//! rode along (`--doctor`) — a confident capture with no critical
//! findings (retransmit storm, head-of-line blocking, mailbox
//! saturation, silent drops). [`scenario_failures`] decides it; the
//! verdict lands in the table notes and in `BENCH_sim.json`. The tests
//! in `crates/bench/tests/gates.rs` hold every scenario to it at 2
//! shards with the doctor: e27c in Tier-1, e27 and e27b ignored.

use crate::experiments::scale::timed_run;
use crate::experiments::ExpCtx;
use crate::table::Table;
use nectar_core::prelude::*;
use nectar_sim::analysis::pathology::Severity;
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::workload::{preset, Shape, WorkloadSpec};

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

/// Sums the counters named `<prefix><N><suffix>` — one per HUB or CAB.
fn summed(m: &MetricsRegistry, prefix: &str, suffix: &str) -> u64 {
    m.counters().filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix)).map(|(_, v)| v).sum()
}

/// Why a scenario run fails its verdict. Structural criteria only:
/// HUB drops and overflows and mailbox rejects from the metrics
/// registry, plus a truncated capture or a critical finding when the
/// streaming doctor rode along. Empty when the run passes; `None` when
/// no metrics were harvested to judge it by.
pub fn scenario_failures(table: &Table) -> Option<Vec<String>> {
    let m = table.metrics.as_ref()?;
    let hub_drops = summed(m, "hub", ".drops") + summed(m, "hub", ".overflows");
    let rejects = summed(m, "cab", ".mailbox_rejects");
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
            if f.severity == Severity::Critical {
                failures.push(format!("critical finding: {} at {}", f.detector, f.subject));
            }
        }
    }
    Some(failures)
}

/// Appends the scenario's pass/fail note.
fn verdict_note(table: &mut Table) {
    let note = match scenario_failures(table) {
        None => "scenario verdict: not evaluated (run with --metrics or --doctor)".to_string(),
        Some(failures) if failures.is_empty() => format!(
            "scenario verdict: PASS — 0 drops, 0 rejects{}",
            if table.stream.is_some() { ", doctor confident, no critical findings" } else { "" }
        ),
        Some(failures) => format!("scenario verdict: FAIL — {}", failures.join("; ")),
    };
    table.note(note);
}

/// Shared runner: the scenario at `ctx.shards`, one world, then the
/// verdict.
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

    let (mut world, events, wall) = timed_run(&topo, shards, ctx, |w| {
        w.set_workload(&spec).unwrap_or_else(|e| panic!("{id}: workload rejected: {e}"))
    });
    ctx.absorb_sharded(&mut table, &mut world);
    table.record_events(events);
    let flows = table.metrics.as_ref().map(|m| summed(m, "cab", ".workload.flows"));
    table.row(&[
        scenario,
        shards.to_string(),
        flows.map_or_else(|| "-".to_string(), |f| f.to_string()),
        events.to_string(),
        format!("{:.1} ms", wall * 1e3),
        format!("{:.0}", events as f64 / wall.max(1e-9)),
    ]);
    let standing = standing_flows(&spec, topo.cab_count());
    table.note(format!(
        "{} classes, {standing} standing closed-loop flows on {} CABs / {} HUBs",
        spec.classes.len(),
        topo.cab_count(),
        topo.hub_count()
    ));
    verdict_note(&mut table);
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
/// on 64 CABs. The bounded-memory test `crates/bench/tests/memory.rs`
/// drives exactly this experiment under `--doctor`.
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
