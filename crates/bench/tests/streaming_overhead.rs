//! The streaming doctor folds on a thread of its own, so attaching one
//! must cost a run little more than recording its telemetry does.
//!
//! A wall-clock measurement: it is ignored in Tier-1 and runs with
//! `cargo test --release -- --ignored`, and it is the only test of its
//! binary so that no other test competes for the cores it times.

use nectar_bench::experiments::{run, ExpCtx};
use std::time::Instant;

/// Limit on the ratio of the medians. On a 2-vCPU host the fold on a
/// thread of its own measured 1.17–1.29x, and the fold on the run's own
/// thread, as it was before, 1.44–1.65x.
const LIMIT: f64 = 1.4;

/// Wall-clock milliseconds of `report e27b`, or of `report --doctor
/// e27b`: the spike preset's 102,400 standing flows, from building the
/// world to the doctor's finished report.
fn e27b_wall(doctor: bool) -> f64 {
    let start = Instant::now();
    run("e27b", &ExpCtx { stream: doctor, ..ExpCtx::off() });
    start.elapsed().as_secs_f64() * 1e3
}

#[test]
#[ignore = "a wall-clock measurement; run with --release -- --ignored"]
fn the_streaming_doctor_stays_off_the_critical_path() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < 2 {
        println!("skipped: {cores} core available, and the fold thread would share it");
        return;
    }
    // Neither side gets the process's first run.
    e27b_wall(true);
    // Three walls each way, alternating; the medians are compared.
    let (mut off, mut on): (Vec<f64>, Vec<f64>) =
        (0..3).map(|_| (e27b_wall(false), e27b_wall(true))).unzip();
    off.sort_by(f64::total_cmp);
    on.sort_by(f64::total_cmp);
    let ratio = on[1] / off[1];
    println!("e27b: {:.1} ms without the doctor, {:.1} ms with it ({ratio:.2}x)", off[1], on[1]);
    assert!(ratio <= LIMIT, "the streaming doctor slowed e27b {ratio:.2}x (limit {LIMIT}x)");
}
