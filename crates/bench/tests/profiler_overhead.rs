//! The host-time profiler costs a branch and one clock read per span,
//! so turning it on must not slow a sharded run beyond noise.
//!
//! A wall-clock measurement: it is ignored in Tier-1 and runs with
//! `cargo test --release -- --ignored`, and it is the only test of its
//! binary so that no other test competes for the cores it times.

use nectar_bench::experiments::{run, ExpCtx};

/// The wall-clock milliseconds `report --shards 2 e26` prints in its
/// run row, with or without `--profile`: building, loading and running
/// the world, but not the profile's analysis afterwards.
fn e26_wall(profile: bool) -> f64 {
    let table = run("e26", &ExpCtx { shards: 2, profile, ..ExpCtx::off() });
    let col = table.columns.iter().position(|c| c == "wall").expect("a wall column");
    let cell = &table.rows[0][col];
    let ms = cell.strip_suffix(" ms").and_then(|ms| ms.parse().ok());
    ms.unwrap_or_else(|| panic!("wall cell {cell:?} is not milliseconds"))
}

#[test]
#[ignore = "a wall-clock measurement; run with --release -- --ignored"]
fn the_profiler_stays_within_noise() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < 2 {
        println!("skipped: {cores} core available, and 2 shards would be oversubscribed");
        return;
    }
    // A first sharded run in a process is slow; neither side gets it.
    e26_wall(true);
    // Three walls each way, alternating; the medians are compared.
    let (mut off, mut on): (Vec<f64>, Vec<f64>) =
        (0..3).map(|_| (e26_wall(false), e26_wall(true))).unzip();
    off.sort_by(f64::total_cmp);
    on.sort_by(f64::total_cmp);
    let ratio = on[1] / off[1];
    println!(
        "e26 at 2 shards: {:.1} ms unprofiled, {:.1} ms profiled ({ratio:.2}x)",
        off[1], on[1]
    );
    assert!(ratio <= 1.5, "profiling slowed e26 {ratio:.2}x (limit 1.5x)");
}
