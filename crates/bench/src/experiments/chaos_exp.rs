//! E25 — the chaos family: seeded fault schedules against the
//! transport invariants, as a reportable experiment.
//!
//! Each row arms a [`ChaosSchedule`], drives a mixed workload to
//! quiescence, and audits with the
//! [`InvariantChecker`].
//! The default rows use fixed seeds (deterministic, CI-friendly);
//! `report --chaos-seed N [--chaos-spec 'PROG']` replaces them with
//! one replay row — the flags a failing campaign test prints.

use crate::experiments::ExpCtx;
use crate::table::Table;
use nectar_core::invariants::{replay_line, InvariantChecker};
use nectar_core::prelude::*;
use nectar_sim::chaos::ChaosSchedule;
use nectar_sim::time::Dur;

/// The schedules a chaos experiment runs: the operator's replay
/// override if present, else `random(seed, cabs)` over `seeds`.
fn schedules(ctx: &ExpCtx, seeds: &[u64], cabs: u16) -> Vec<ChaosSchedule> {
    if let Some(seed) = ctx.chaos_seed {
        let sched = match ctx.chaos_spec.as_deref() {
            Some(spec) => {
                ChaosSchedule::parse(seed, spec).unwrap_or_else(|e| panic!("--chaos-spec: {e}"))
            }
            None => ChaosSchedule::random(seed, cabs),
        };
        return vec![sched];
    }
    seeds.iter().map(|&s| ChaosSchedule::random(s, cabs)).collect()
}

/// One campaign: streams (and optionally RPC) under `schedule`,
/// audited at quiescence. Returns `(verdict, faults, retransmissions)`.
fn campaign(
    world: &mut World,
    streams: &[(usize, usize, u16)],
    rpc: Option<(usize, usize)>,
    schedule: &ChaosSchedule,
) -> (String, u64, u64) {
    world.set_chaos(schedule.clone());
    let mut checker = InvariantChecker::new();
    for &(src, dst, mailbox) in streams {
        for i in 0..3usize {
            let payload = vec![(11 + 29 * src + 5 * i) as u8; 300 + 500 * i];
            world.send_stream_now(src, dst, 1, mailbox, &payload);
            checker.expect_stream(src, dst, mailbox, &payload);
        }
    }
    if let Some((client, server)) = rpc {
        for i in 0..4usize {
            let t0 = world.now();
            let before = world.deliveries.len();
            let tx = world.send_rpc_now(client, server, 5, 80, &[i as u8; 40]);
            checker.expect_rpc(server);
            let deadline = t0 + Dur::from_millis(20);
            let mut responded = false;
            while let Some(next) = world.next_event_time() {
                if next > deadline {
                    break;
                }
                world.run_until(next);
                if !responded
                    && world.deliveries[before..].iter().any(|d| d.cab == server && d.mailbox == 80)
                {
                    world.rpc_respond_now(server, client, tx, &[0x5A; 24]);
                    responded = true;
                }
                if world.deliveries[before..].iter().any(|d| d.cab == client && d.mailbox == 5) {
                    break;
                }
            }
            while world.mailbox_take(server, 80).is_some() {}
            while world.mailbox_take(client, 5).is_some() {}
        }
    }
    // Generous: RTO backoff caps at 64x and flap down-windows can
    // deny a majority of each period, so convergence can take a
    // while. Simulated time is cheap.
    let deadline = world.now() + Dur::from_secs(2);
    world.run_to_quiescence(deadline);
    let violations = checker.check(world);
    let verdict = if violations.is_empty() {
        "pass".to_string()
    } else {
        format!("VIOLATED: {}", violations[0])
    };
    let stats = world.chaos_stats().unwrap_or_default();
    let faults = stats.total_drops() + stats.duplicates + stats.reorders + stats.corruptions;
    let rtx = streams
        .iter()
        .filter_map(|&(src, dst, _)| world.stream_stats(src, dst))
        .map(|s| s.retransmissions)
        .sum();
    (verdict, faults, rtx)
}

fn spec_cell(schedule: &ChaosSchedule) -> String {
    let spec = schedule.spec();
    if spec.len() > 48 {
        format!("{}…", &spec[..spec.char_indices().take_while(|(i, _)| *i < 48).count()])
    } else {
        spec
    }
}

/// E25 — byte streams on the single-HUB star under random schedules.
pub fn e25_stream_chaos(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "E25",
        "chaos: byte streams on the star",
        &["seed", "schedule", "faults applied", "retransmissions", "invariants"],
    );
    for sched in schedules(ctx, &[101, 202, 303], 4) {
        let mut world = World::new(Topology::single_hub(4, 16), SystemConfig::default());
        ctx.prepare(&mut world);
        let (verdict, faults, rtx) =
            campaign(&mut world, &[(0, 1, 2), (1, 0, 3), (2, 3, 4)], None, &sched);
        t.record_events(world.events_processed());
        t.row(&[
            format!("{}", sched.seed),
            spec_cell(&sched),
            format!("{faults}"),
            format!("{rtx}"),
            verdict.clone(),
        ]);
        if verdict != "pass" {
            t.note(format!("replay: report e25 {}", replay_line(&sched)));
        }
        ctx.absorb(&mut t, &mut world);
    }
    t.note("exactly-once in-order delivery and counter coherence at quiescence");
    t
}

/// E25b — request-response at-most-once under random schedules.
pub fn e25b_rpc_chaos(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "E25b",
        "chaos: request-response (at-most-once)",
        &["seed", "schedule", "faults applied", "executions", "invariants"],
    );
    for sched in schedules(ctx, &[404, 505], 2) {
        let mut world = World::new(Topology::single_hub(2, 16), SystemConfig::default());
        ctx.prepare(&mut world);
        let (verdict, faults, _) = campaign(&mut world, &[], Some((0, 1)), &sched);
        let (executed, _, _) = world.rpc_server_stats(1);
        t.record_events(world.events_processed());
        t.row(&[
            format!("{}", sched.seed),
            spec_cell(&sched),
            format!("{faults}"),
            format!("{executed}"),
            verdict.clone(),
        ]);
        if verdict != "pass" {
            t.note(format!("replay: report e25b {}", replay_line(&sched)));
        }
        ctx.absorb(&mut t, &mut world);
    }
    t.note("a server never executes a transaction twice, however lossy or duplicative the wire");
    t
}

/// E25c — mixed streams + RPC across a 2x2 mesh (multi-hop routes).
pub fn e25c_mesh_chaos(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "E25c",
        "chaos: 2x2 mesh, multi-hop",
        &["seed", "schedule", "faults applied", "retransmissions", "invariants"],
    );
    for sched in schedules(ctx, &[606, 707], 4) {
        let mut world = World::new(Topology::mesh2d(2, 2, 1, 16), SystemConfig::default());
        ctx.prepare(&mut world);
        let (verdict, faults, rtx) =
            campaign(&mut world, &[(0, 3, 2), (3, 0, 3), (1, 2, 4)], Some((0, 1)), &sched);
        t.record_events(world.events_processed());
        t.row(&[
            format!("{}", sched.seed),
            spec_cell(&sched),
            format!("{faults}"),
            format!("{rtx}"),
            verdict.clone(),
        ]);
        if verdict != "pass" {
            t.note(format!("replay: report e25c {}", replay_line(&sched)));
        }
        ctx.absorb(&mut t, &mut world);
    }
    t.note("broad clauses disturb only CAB links (ready-timeout recovers); hubN.P targets trunks");
    t
}
