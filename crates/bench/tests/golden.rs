//! Golden digests: what standing scenarios simulate, pinned.
//!
//! Every case runs at 1 and 2 shards; each run yields a results digest
//! (metrics, canonical delivery list, quiescence clock — no event
//! count) and an event digest (engine events, total and by kind). The
//! lines live in `docs/golden-digests.txt`. A change that only fuses
//! events that decide nothing moves `events=` and nothing else; any
//! change to `results=` needs a reason in its commit message.
//!
//! Each line also carries one short hash per metric family (the metric
//! name with its `cabN`/`hubN` component index replaced by `*`), so a
//! mismatch names the first metric that moved. A failing run prints the
//! replacement line; paste it into the golden file to accept a change.
//!
//! The cases: `e26`, `e26b`, `e27` and `e27c` through the experiment
//! registry, and scaled-down versions of the five standing benchmark
//! workloads. The 1-shard line of `spike`, `spike_observed`, `lattice`
//! and `rpc_chaos` comes from a sequential [`World`]; every other line
//! from a [`ShardedWorld`]. `e27b` (10^5 standing flows) has its lines in
//! the same file but is checked by an ignored test:
//! `cargo test --release -- --ignored`.

use nectar_bench::experiments::{self, ExpCtx};
use nectar_core::digest::{fold_metric, simulated_metrics};
use nectar_core::prelude::*;
use nectar_sim::analysis::streaming::StreamConfig;
use nectar_sim::chaos::ChaosSchedule;
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::time::Time;
use nectar_sim::workload::WorkloadSpec;
use std::collections::BTreeMap;

/// What one run left behind.
struct Outcome {
    results: u64,
    events: u64,
    metrics: MetricsRegistry,
}

/// A scaled-down benchmark workload.
struct Shape {
    name: &'static str,
    topology: fn() -> Topology,
    traffic: &'static str,
    chaos: Option<&'static str>,
    /// Streaming doctor attached (the benchmark's `spike_observed`).
    observed: bool,
    /// The 1-shard line also runs on the sharded runner (the
    /// benchmark's `lattice_sharded2`).
    sharded_only: bool,
}

fn mesh() -> Topology {
    Topology::mesh2d(4, 4, 4, 16)
}

fn fat_star() -> Topology {
    Topology::fat_star(8, 8, 16)
}

const SPIKE: &str = "closed(16,0ns,fixed(32),uniform,datagram)[0ns..200us]";
const LATTICE: &str = "closed(4,0ns,fixed(960),neighbor,datagram)[0ns..300us];\
                       closed(1,500ns,fixed(8192),ring,stream)[0ns..300us]";
const RPC_CHAOS: &str = "closed(1,400us,uniform(64,256),hotspot(0.05,cab0),rpc)[0ns..4ms];\
                         open(poisson(2ms),uniform(64,512),uniform,datagram)[0ns..4ms]";

const SHAPES: [Shape; 5] = [
    Shape {
        name: "spike",
        topology: mesh,
        traffic: SPIKE,
        chaos: None,
        observed: false,
        sharded_only: false,
    },
    Shape {
        name: "spike_observed",
        topology: mesh,
        traffic: SPIKE,
        chaos: None,
        observed: true,
        sharded_only: false,
    },
    Shape {
        name: "lattice",
        topology: mesh,
        traffic: LATTICE,
        chaos: None,
        observed: false,
        sharded_only: false,
    },
    Shape {
        name: "lattice_sharded2",
        topology: mesh,
        traffic: LATTICE,
        chaos: None,
        observed: false,
        sharded_only: true,
    },
    Shape {
        name: "rpc_chaos",
        topology: fat_star,
        traffic: RPC_CHAOS,
        chaos: Some("loss(0.02);dup(0.05)"),
        observed: false,
        sharded_only: false,
    },
];

/// Simulated-time deadline of every scaled run; all of them drain long
/// before it.
const DEADLINE: Time = Time::from_millis(2000);

fn run_shape(shape: &Shape, shards: usize) -> Outcome {
    let spec = WorkloadSpec::parse(1, shape.traffic).expect("valid traffic program");
    let chaos = shape.chaos.map(|c| ChaosSchedule::parse(2, c).expect("valid fault program"));
    let cfg = SystemConfig::default();
    if shards == 1 && !shape.sharded_only {
        let mut w = World::new((shape.topology)(), cfg);
        if let Some(c) = chaos {
            w.set_chaos(c);
        }
        if shape.observed {
            w.attach_streaming(StreamConfig::default());
        }
        w.set_workload(&spec).expect("workload fits the topology");
        w.run_to_quiescence(DEADLINE);
        w.finish_streaming();
        Outcome { results: w.results_digest(), events: w.event_digest(), metrics: w.metrics() }
    } else {
        let mut w = ShardedWorld::new((shape.topology)(), cfg, shards);
        if let Some(c) = chaos {
            w.set_chaos(c);
        }
        if shape.observed {
            w.attach_streaming(StreamConfig::default());
        }
        w.set_workload(&spec).expect("workload fits the topology");
        w.run_to_quiescence(DEADLINE);
        w.finish_streaming();
        Outcome { results: w.results_digest(), events: w.event_digest(), metrics: w.metrics() }
    }
}

/// An experiment from the registry, harvested through [`ExpCtx`].
fn run_experiment(id: &str, shards: usize) -> Outcome {
    let table = experiments::run(id, &ExpCtx { metrics: true, shards, ..ExpCtx::off() });
    let d = *table.digests.first().expect("the measured world was absorbed");
    Outcome {
        results: d.results,
        events: d.events,
        metrics: table.metrics.expect("metrics were requested"),
    }
}

/// `cab12.dma.bytes` → `cab*.dma.bytes`: the family a metric belongs to.
fn family(metric: &str) -> String {
    let letters = metric.find(|c: char| !c.is_ascii_lowercase()).unwrap_or(metric.len());
    let digits = metric[letters..].find(|c: char| !c.is_ascii_digit()).map_or(0, |n| n);
    if digits > 0 && metric[letters + digits..].starts_with('.') {
        format!("{}*{}", &metric[..letters], &metric[letters + digits..])
    } else {
        metric.to_string()
    }
}

/// One short hash per metric family, families in name order. Metrics
/// that read zero are left out, so a family that is zero throughout
/// takes no room — and shows up by name the moment it is not.
fn families(reg: &MetricsRegistry) -> BTreeMap<String, u32> {
    let mut hashes: BTreeMap<String, u64> = BTreeMap::new();
    for (name, value) in simulated_metrics(reg).filter(|(_, v)| *v != [0; 8]) {
        let h = hashes.entry(family(name)).or_insert(0);
        *h = fold_metric(*h, name, value);
    }
    hashes.into_iter().map(|(f, h)| (f, (h ^ (h >> 32)) as u32)).collect()
}

/// The golden line of one run.
fn line(case: &str, shards: usize, o: &Outcome) -> String {
    let mut s =
        format!("{case} shards={shards} results={:016x} events={:016x}", o.results, o.events);
    for (f, h) in families(&o.metrics) {
        s.push_str(&format!(" {f}={h:08x}"));
    }
    s
}

/// The `key=value` fields of a golden line after its case and shard
/// count.
fn fields(line: &str) -> BTreeMap<&str, &str> {
    line.split_whitespace().skip(2).filter_map(|f| f.split_once('=')).collect()
}

/// Why `got` differs from `want`, naming the first metric family that
/// moved.
fn explain(want: &str, got: &str) -> String {
    let (w, g) = (fields(want), fields(got));
    if w.get("results") == g.get("results") {
        return "event digest moved; simulated results are unchanged".to_string();
    }
    let mut names: Vec<&str> = w.keys().chain(g.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    let moved = names
        .into_iter()
        .filter(|n| !matches!(*n, "results" | "events"))
        .find(|n| w.get(n) != g.get(n));
    match moved {
        Some(metric) => format!("results digest moved; first metric that differs: {metric}"),
        None => "results digest moved; every metric agrees, so the delivery list or the \
                 quiescence clock differs"
            .to_string(),
    }
}

/// The first metric on which two registries disagree.
fn first_difference(a: &MetricsRegistry, b: &MetricsRegistry) -> Option<String> {
    let a: BTreeMap<&str, [u8; 8]> = simulated_metrics(a).collect();
    let b: BTreeMap<&str, [u8; 8]> = simulated_metrics(b).collect();
    a.keys().chain(b.keys()).find(|k| a.get(*k) != b.get(*k)).map(|k| k.to_string())
}

/// Experiments whose lines the ignored test checks: each takes seconds
/// even in a release build.
const SLOW_EXPERIMENTS: [&str; 1] = ["e27b"];

/// The golden file's lines, keyed by `"<case> shards=<n>"`.
fn golden_lines() -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/golden-digests.txt");
    let golden = std::fs::read_to_string(path).expect("docs/golden-digests.txt is readable");
    golden
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| (l.split_whitespace().take(2).collect::<Vec<_>>().join(" "), l.to_string()))
        .collect()
}

/// Runs every case at 1 and 2 shards and checks it against (and removes
/// it from) `want`; returns what failed.
fn check<'a>(
    cases: impl Iterator<Item = (&'a str, Option<&'a Shape>)>,
    want: &mut BTreeMap<String, String>,
) -> Vec<String> {
    let run = |id: &str, shape: Option<&Shape>, shards| match shape {
        Some(shape) => run_shape(shape, shards),
        None => run_experiment(id, shards),
    };
    let mut failures = Vec::new();
    for (case, shape) in cases {
        let runs: Vec<Outcome> = [1, 2].iter().map(|&n| run(case, shape, n)).collect();
        if let Some(metric) = first_difference(&runs[0].metrics, &runs[1].metrics) {
            failures.push(format!("{case}: 1 and 2 shards disagree, first on {metric}"));
        } else if (runs[0].results, runs[0].events) != (runs[1].results, runs[1].events) {
            failures
                .push(format!("{case}: 1 and 2 shards disagree on deliveries, clock or events"));
        }
        for (shards, outcome) in [1, 2].into_iter().zip(&runs) {
            let got = line(case, shards, outcome);
            match want.remove(&format!("{case} shards={shards}")) {
                Some(w) if w == got => {}
                Some(w) => failures.push(format!("{}\n  replace with:\n{got}", explain(&w, &got))),
                None => failures
                    .push(format!("no golden line for {case} at {shards} shards; add:\n{got}")),
            }
        }
    }
    failures
}

#[test]
fn golden_digests_hold() {
    let mut want = golden_lines();
    let experiments = ["e26", "e26b", "e27", "e27c"].map(|id| (id, None));
    let shapes = SHAPES.iter().map(|shape| (shape.name, Some(shape)));
    let mut failures = check(experiments.into_iter().chain(shapes), &mut want);
    for stale in want.keys() {
        let case = stale.split(' ').next().expect("a case name");
        if !SLOW_EXPERIMENTS.contains(&case) {
            failures.push(format!("golden line {stale} names no case; delete it"));
        }
    }
    assert!(failures.is_empty(), "golden digests:\n{}", failures.join("\n"));
}

#[test]
#[ignore = "seconds per run even in release; run with --release -- --ignored"]
fn slow_golden_digests_hold() {
    let failures = check(SLOW_EXPERIMENTS.iter().map(|&id| (id, None)), &mut golden_lines());
    assert!(failures.is_empty(), "golden digests:\n{}", failures.join("\n"));
}
