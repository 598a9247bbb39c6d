//! Contract tests: the registry obeys the `BENCHMARK.json` limits, the
//! committed `BENCHMARK.json` is the registry, every declared name is
//! printed (and nothing else), and quick-mode results repeat.

use crate::metrics::{manifest_json, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::output::contract_line;
use crate::run::{traced, untraced, Options};
use crate::workloads::WORKLOADS;
use std::collections::BTreeSet;

const QUICK: Options = Options { seed: 7, seconds: 1.0, quick: true };

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_are_within_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut seen = BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| (w.name, "count"))
        .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in names {
        assert!(valid_name(name), "bad name `{name}`");
        assert!(valid_unit(unit), "bad unit `{unit}` on `{name}`");
        assert!(seen.insert(name), "`{name}` is used twice");
    }
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "`why` of `{}`", w.name);
        assert!(
            !w.why.contains('"') && !w.why.contains('\\'),
            "`why` of `{}` needs escaping",
            w.name
        );
    }
    for m in &END_TO_END {
        assert!(m.bound >= 0.0 && m.bound <= 0.25, "bound of `{}`", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    assert!(manifest_json().len() <= 64 * 1024);
}

#[test]
fn every_per_layer_metric_declares_what_it_should_move_and_where() {
    for m in &PER_LAYER {
        assert!(m.name.contains('.'), "`{}` has no layer prefix", m.name);
        for target in m.moves.split(',') {
            assert!(
                target == "none" || END_TO_END.iter().any(|e| e.name == target),
                "`{}` moves unknown end-to-end metric `{target}`",
                m.name
            );
        }
        for on in m.on.split(',') {
            assert!(
                on == "all" || on == "none" || WORKLOADS.iter().any(|w| w.name == on),
                "`{}` names unknown workload `{on}`",
                m.name
            );
        }
        assert_eq!(m.moves == "none", m.on == "none", "`{}`: watch-only goes both ways", m.name);
    }
}

#[test]
fn committed_benchmark_json_is_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, manifest_json(), "regenerate with `benchmark manifest > BENCHMARK.json`");
}

#[test]
fn workloads_keep_their_thread_counts() {
    for w in &WORKLOADS {
        let expected = if w.name == "lattice_sharded2" { 2 } else { 1 };
        assert_eq!(w.threads, expected, "`{}`", w.name);
    }
}

/// Quick mode on every workload, both ways: the printed names are
/// exactly the declared ones, in order; the output checks pass (which
/// includes: repetitions, the traced repetition and the sequential
/// reference all share one digest); and a second run repeats the
/// digest and every simulated-time metric.
#[test]
fn quick_runs_print_the_declared_names_and_repeat() {
    for w in &WORKLOADS {
        let first = untraced(w, &QUICK).expect("untraced quick run");
        assert!(first.correct(), "`{}` failed its checks: {:?}", w.name, first.failures);
        let printed: Vec<&str> = first.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared);
        assert!(first.metrics.iter().all(|m| m.value > 0.0), "end-to-end metrics are never 0");
        assert_eq!(first.failed, 0, "`{}`: no operation fails", w.name);
        assert!(first.attempted >= 1);

        let layers = traced(w, &QUICK).expect("traced quick run");
        assert!(layers.correct(), "`{}` failed its checks: {:?}", w.name, layers.failures);
        let printed: Vec<&str> = layers.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared);
        assert_eq!(layers.sim_digest, first.sim_digest, "`{}`: traced digest", w.name);
        let shares: f64 = layers
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".est_share") || m.name == "world.residual_share")
            .map(|m| m.value)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "`{}`: shares sum to {shares}", w.name);

        let again = untraced(w, &QUICK).expect("second untraced quick run");
        assert_eq!(again.sim_digest, first.sim_digest, "`{}`: digest repeats", w.name);
        for (a, b) in first.metrics.iter().zip(&again.metrics) {
            if a.name.starts_with("sim_") {
                assert_eq!(a.value, b.value, "`{}`: {} repeats exactly", w.name, a.name);
            }
        }

        let line = contract_line(&first);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"setup_s\": {\"value\": ") && !line.contains('\n'));
    }
}
