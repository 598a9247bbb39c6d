//! Correctness gates over the experiment registry, driven through
//! [`ExpCtx`] exactly as `report` drives it.
//!
//! A gate that takes about a second or less in a debug build runs in
//! Tier-1 (`cargo test`). The others are ignored there and run with
//! `cargo test --release -- --ignored`.

use nectar_bench::experiments::scale::scaling_sweep;
use nectar_bench::experiments::workload_exp::scenario_failures;
use nectar_bench::experiments::{run, ExpCtx};
use nectar_sim::json::{parse, Json};
use std::process::Command;

/// Every fixed-seed campaign of the e25 family ends with the transport
/// invariants intact.
#[test]
fn chaos_campaigns_keep_every_invariant() {
    for id in ["e25", "e25b", "e25c"] {
        let table = run(id, &ExpCtx::off());
        let col = table.columns.iter().position(|c| c == "invariants").expect("a verdict column");
        assert!(!table.rows.is_empty(), "{id}: no campaign ran");
        for row in &table.rows {
            assert_eq!(row[col], "pass", "{id}: {row:?}\n{}", table.notes.join("\n"));
        }
    }
}

/// `report --chaos-seed 707 e25c`, twice: the same schedule gives the
/// same rows, notes and simulated results.
#[test]
fn a_chaos_seed_replays_exactly() {
    let ctx = ExpCtx { chaos_seed: Some(707), metrics: true, ..ExpCtx::off() };
    let (a, b) = (run("e25c", &ctx), run("e25c", &ctx));
    assert_eq!(a.rows.len(), 1, "one replay row");
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.notes, b.notes);
    assert!(!a.digests.is_empty());
    assert_eq!(a.digests, b.digests);
}

/// `report --scaling` at 1 and 2 shards, profiled: every point
/// simulated the same thing as its 1-shard point, and carries the
/// scaling doctor's attribution.
#[test]
#[ignore = "over a second in a debug build; run with --release -- --ignored"]
fn every_scaling_point_agrees_and_is_attributed() {
    let points = scaling_sweep(&[1, 2], true);
    assert_eq!(points.len(), 8, "2 topologies x clean/chaos x 2 shard counts");
    for p in &points {
        let at = format!("{} at {} shards (chaos: {})", p.experiment, p.shards, p.chaos);
        assert!(p.deterministic, "{at}: results differ from the 1-shard point");
        let a = p.profile.as_ref().unwrap_or_else(|| panic!("{at}: no profile"));
        assert!(!a.verdicts.is_empty(), "{at}: no verdict");
        assert!((0.0..=1.0).contains(&a.efficiency), "{at}: efficiency {}", a.efficiency);
        assert!(!a.per_shard.is_empty(), "{at}: no per-shard breakdown");
    }
}

/// `report --shards 2 --doctor <id>`: the scenario verdict passes, and
/// the doctor dropped nothing and folded nothing late.
fn scenario_passes(id: &str) {
    let table = run(id, &ExpCtx { shards: 2, metrics: true, stream: true, ..ExpCtx::off() });
    assert_eq!(scenario_failures(&table), Some(Vec::new()), "{id}");
    let s = table.stream.expect("the doctor rode along").summary;
    assert_eq!((s.ring_dropped, s.late_events), (0, 0), "{id}: dropped, late");
}

#[test]
fn the_rpc_fanout_scenario_passes() {
    scenario_passes("e27c");
}

#[test]
#[ignore = "seconds in a debug build; run with --release -- --ignored"]
fn the_lattice_and_spike_scenarios_pass() {
    scenario_passes("e27");
    scenario_passes("e27b");
}

/// `report --help` and `report -h` print the synopsis to stdout and
/// exit 0; an unknown flag still exits 2.
#[test]
fn report_help_prints_usage_and_succeeds() {
    let report = |flag: &str| {
        Command::new(env!("CARGO_BIN_EXE_report")).arg(flag).output().expect("report runs")
    };
    for flag in ["--help", "-h"] {
        let out = report(flag);
        assert_eq!(out.status.code(), Some(0), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:"), "{flag} printed `{stdout}`");
    }
    assert_eq!(report("--halp").status.code(), Some(2));
}

/// `report --metrics --json PATH e03 e14` writes a `BENCH_sim.json` with
/// every experiment's timing and metrics object.
#[test]
fn report_writes_metrics_json() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let path = format!("{dir}/gates_metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--metrics", "--json", &path, "e03", "e14"])
        .current_dir(dir)
        .output()
        .expect("report runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("report wrote its JSON");
    let v = parse(&text).unwrap_or_else(|e| panic!("not JSON: {e}"));
    let exps = v.get("experiments").and_then(Json::as_array).expect("an experiments array");
    let ids: Vec<&str> = exps.iter().filter_map(|e| e.get("id").and_then(Json::as_str)).collect();
    assert_eq!(ids, ["e03", "e14"]);
    for (id, e) in ids.iter().zip(exps) {
        for field in ["wall_ms", "events", "events_per_sec"] {
            assert!(e.get(field).and_then(Json::as_f64).is_some(), "{id}: no numeric {field}");
        }
        let m = e.get("metrics").unwrap_or_else(|| panic!("{id}: no metrics"));
        assert!(m.get("counters").and_then(Json::as_object).is_some(), "{id}: no counters");
        let hists = m.get("histograms").and_then(Json::as_object);
        for (name, h) in hists.into_iter().flatten() {
            for q in ["p50", "p99"] {
                assert!(h.get(q).and_then(Json::as_f64).is_some(), "{id}: {name} has no {q}");
            }
        }
    }
}
