//! The chaos campaign: random fault schedules against the transport
//! invariants.
//!
//! Each case builds a mixed stream + RPC workload, arms a
//! [`ChaosSchedule`], runs to quiescence, and audits with the
//! [`InvariantChecker`]. A violation is shrunk to a locally minimal
//! fault program and printed as a replayable
//! `--chaos-seed`/`--chaos-spec` pair for the `report` binary.

use nectar_core::invariants::{replay_line, InvariantChecker, Violation};
use nectar_core::prelude::*;
use nectar_sim::chaos::{self, ChaosSchedule, Clause, Fault};
use nectar_sim::time::Dur;
use proptest::prelude::*;

/// What one campaign run produced: the audit verdicts plus a digest
/// of every delivery, for determinism comparisons.
#[derive(Debug, PartialEq)]
struct Outcome {
    violations: Vec<Violation>,
    deliveries: Vec<Delivery>,
    /// Total faults the injector applied (drops + dups + reorders +
    /// corruptions + ...): proof the campaign exercised the wire.
    faults_applied: u64,
}

/// Runs the standard workload on `topo` under `schedule`: four
/// byte-stream flows (two on a two-CAB topology) and five RPC calls,
/// then a generous run to quiescence and the invariant audit.
fn run_campaign(topo: &Topology, schedule: &ChaosSchedule) -> Outcome {
    let mut world = World::new(topo.clone(), SystemConfig::default());
    world.set_chaos(schedule.clone());
    let mut checker = InvariantChecker::new();

    // Byte streams: each flow gets its own destination mailbox so the
    // checker can demand exact in-order content per flow.
    let cabs = topo.cab_count();
    let mut flows = vec![(0usize, 1usize, 2u16), (1, 0, 3)];
    if cabs >= 4 {
        flows.push((2, 3, 4));
        flows.push((3, 2, 6));
    }
    for &(src, dst, mailbox) in &flows {
        for i in 0..4usize {
            let fill = (17 + 31 * src + 7 * i) as u8;
            let payload = vec![fill; 200 + 650 * i];
            world.send_stream_now(src, dst, 1, mailbox, &payload);
            checker.expect_stream(src, dst, mailbox, &payload);
        }
    }

    // RPC: client 0 calls server 1 five times, one call outstanding at
    // a time. The drive loop plays the server application: it answers
    // a request when it lands in the service mailbox. Client timeouts
    // are legal under chaos; double execution is not.
    for i in 0..5usize {
        let t0 = world.now();
        let before = world.deliveries.len();
        let tx = world.send_rpc_now(0, 1, 5, 80, &[i as u8; 48]);
        checker.expect_rpc(1);
        let deadline = t0 + Dur::from_millis(20);
        let mut responded = false;
        while let Some(next) = world.next_event_time() {
            if next > deadline {
                break;
            }
            world.run_until(next);
            if !responded
                && world.deliveries[before..].iter().any(|d| d.cab == 1 && d.mailbox == 80)
            {
                world.rpc_respond_now(1, 0, tx, &[0xA5; 32]);
                responded = true;
            }
            if world.deliveries[before..].iter().any(|d| d.cab == 0 && d.mailbox == 5) {
                break;
            }
        }
        while world.mailbox_take(1, 80).is_some() {}
        while world.mailbox_take(0, 5).is_some() {}
    }

    // Let retransmissions, persist probes, and flap windows play out.
    let deadline = world.now() + Dur::from_millis(400);
    world.run_to_quiescence(deadline);
    let s = world.chaos_stats().unwrap_or_default();
    let faults_applied = s.total_drops() + s.duplicates + s.reorders + s.corruptions + s.cmd_drops;
    Outcome {
        violations: checker.check(&mut world),
        deliveries: world.deliveries.clone(),
        faults_applied,
    }
}

/// Shrinks a violating schedule and renders the failure report the
/// campaign prints: the original and minimal programs, both as
/// replayable `report` flags.
fn shrink_report(topo: &Topology, schedule: &ChaosSchedule, violations: &[Violation]) -> String {
    let minimal = chaos::shrink(schedule, |cand| !run_campaign(topo, cand).violations.is_empty());
    let mut msg = String::new();
    for v in violations {
        msg.push_str(&format!("  violation: {v}\n"));
    }
    msg.push_str(&format!("  replay:  {}\n", replay_line(schedule)));
    msg.push_str(&format!("  minimal: {}\n", replay_line(&minimal)));
    msg
}

/// Acceptance: the same seed produces a byte-identical fault schedule
/// and identical invariant verdicts (and deliveries) across two runs.
#[test]
fn same_seed_same_schedule_same_verdicts() {
    let topo = Topology::single_hub(4, 16);
    for seed in [3u64, 0xDEAD_BEEF, 9_182_736_455] {
        let a = ChaosSchedule::random(seed, 4);
        let b = ChaosSchedule::random(seed, 4);
        assert_eq!(a.spec(), b.spec(), "schedule generation must be deterministic");
        assert_eq!(a.seed, b.seed);
        let run1 = run_campaign(&topo, &a);
        let run2 = run_campaign(&topo, &b);
        assert_eq!(run1.violations, run2.violations, "verdicts diverged for seed {seed}");
        assert_eq!(run1.deliveries, run2.deliveries, "deliveries diverged for seed {seed}");
    }
}

/// The full clause crop — loss, burst, duplication, reordering,
/// corruption, and a link flap at once — on the single-HUB star.
#[test]
fn full_campaign_single_hub() {
    let topo = Topology::single_hub(4, 16);
    let schedule = full_schedule(11);
    let out = run_campaign(&topo, &schedule);
    assert!(
        out.violations.is_empty(),
        "invariants violated on single hub:\n{}",
        shrink_report(&topo, &schedule, &out.violations)
    );
    assert!(out.faults_applied > 10, "campaign barely exercised chaos: {}", out.faults_applied);
}

/// The same crop on a 2x2 mesh (multi-hop routes, trunk links).
#[test]
fn full_campaign_mesh() {
    let topo = Topology::mesh2d(2, 2, 1, 16);
    let schedule = full_schedule(23);
    let out = run_campaign(&topo, &schedule);
    assert!(
        out.violations.is_empty(),
        "invariants violated on mesh:\n{}",
        shrink_report(&topo, &schedule, &out.violations)
    );
    assert!(out.faults_applied > 10, "campaign barely exercised chaos: {}", out.faults_applied);
}

/// Regression for a campaign find: `loss(0.1);flap(200us,1ms)` at seed
/// 42 eats a `close all` on the way into a HUB, the crossbar keeps the
/// old circuit member, and the next forward drives *two* outputs — the
/// intended path plus a CAB the packet was never addressed to. Before
/// the fix the stray was fed straight into the wrong CAB's transport
/// state. Now the HUB counts the extra copy (`fanout_copies`), the
/// receiving CAB refuses the misaddressed packet (`misrouted_rx`), and a
/// retransmission rebuilds the sender's cached circuit from scratch. The
/// two counts at the end pin the case: exactly one stale copy, refused
/// exactly once.
#[test]
fn stale_circuit_member_is_counted_and_contained() {
    let topo = Topology::mesh2d(2, 2, 1, 16);
    let schedule = ChaosSchedule::parse(42, "loss(0.1);flap(200us,1ms)").unwrap();
    let mut world = World::new(topo, SystemConfig::default());
    world.set_chaos(schedule);
    let mut checker = InvariantChecker::new();
    let flows = [(0usize, 3usize, 2u16), (3, 0, 3), (1, 2, 4)];
    for &(src, dst, mailbox) in &flows {
        for i in 0..3usize {
            let payload = vec![(11 + 29 * src + 5 * i) as u8; 300 + 500 * i];
            world.send_stream_now(src, dst, 1, mailbox, &payload);
            checker.expect_stream(src, dst, mailbox, &payload);
        }
    }
    // The RPC phase is part of the repro: its circuit switches between
    // CAB 0's two peers are what give the lost close-all its window.
    for i in 0..4usize {
        let t0 = world.now();
        let before = world.deliveries.len();
        let tx = world.send_rpc_now(0, 1, 5, 80, &[i as u8; 40]);
        checker.expect_rpc(1);
        let deadline = t0 + Dur::from_millis(20);
        let mut responded = false;
        while let Some(next) = world.next_event_time() {
            if next > deadline {
                break;
            }
            world.run_until(next);
            if !responded
                && world.deliveries[before..].iter().any(|d| d.cab == 1 && d.mailbox == 80)
            {
                world.rpc_respond_now(1, 0, tx, &[0x5A; 24]);
                responded = true;
            }
            if world.deliveries[before..].iter().any(|d| d.cab == 0 && d.mailbox == 5) {
                break;
            }
        }
        while world.mailbox_take(1, 80).is_some() {}
        while world.mailbox_take(0, 5).is_some() {}
    }
    world.run_to_quiescence(world.now() + Dur::from_secs(2));
    let violations = checker.check(&mut world);
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
    // The schedule deterministically manufactures exactly one stale
    // member; its copy lands on CAB 3 with a foreign destination.
    assert_eq!(world.hub_fanout_copies(), 1, "expected the stale-circuit fan-out");
    let metrics = world.metrics();
    let misrouted: u64 = (0..4).map(|c| metrics.counter(&format!("cab{c}.misrouted_rx"))).sum();
    assert_eq!(misrouted, 1, "the stray copy must be refused at the CAB, not consumed");
}

/// Loss + burst + dup + reorder + corrupt + flap, all live at once.
fn full_schedule(seed: u64) -> ChaosSchedule {
    ChaosSchedule::new(seed)
        .with(Clause::new(Fault::Loss { rate: 0.08 }))
        .with(Clause::new(Fault::Burst { loss: 0.6, p_bad: 0.01, p_recover: 0.3 }))
        .with(Clause::new(Fault::Duplicate { rate: 0.08 }))
        .with(Clause::new(Fault::Reorder { rate: 0.10, max_delay: Dur::from_micros(80) }))
        .with(Clause::new(Fault::Corrupt { rate: 0.05 }))
        .with(Clause::new(Fault::Flap { down: Dur::from_micros(300), up: Dur::from_millis(2) }))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The campaign proper: random schedules, shrunk on violation to a
    /// minimal replayable fault program.
    #[test]
    fn random_schedules_preserve_transport_invariants(seed in any::<u64>()) {
        let topo = Topology::single_hub(4, 16);
        let schedule = ChaosSchedule::random(seed, 4);
        let out = run_campaign(&topo, &schedule);
        prop_assert!(
            out.violations.is_empty(),
            "invariants violated under seed {seed}:\n{}",
            shrink_report(&topo, &schedule, &out.violations)
        );
    }

    /// Same campaign over the mesh: multi-hop routes under chaos.
    #[test]
    fn random_schedules_hold_on_meshes(seed in any::<u64>()) {
        let topo = Topology::mesh2d(2, 2, 1, 16);
        let schedule = ChaosSchedule::random(seed, 4);
        let out = run_campaign(&topo, &schedule);
        prop_assert!(
            out.violations.is_empty(),
            "invariants violated under seed {seed}:\n{}",
            shrink_report(&topo, &schedule, &out.violations)
        );
    }
}
