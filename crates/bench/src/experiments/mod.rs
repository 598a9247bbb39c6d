//! The experiment registry: every table and figure of the paper's
//! evaluation, one function each. See DESIGN.md §4 for the index.

pub mod apps_exp;
pub mod chaos_exp;
pub mod comparison;
pub mod extensions;
pub mod hub_level;
pub mod latency;
pub mod scale;
pub mod throughput;
pub mod transport_exp;
pub mod workload_exp;

use crate::table::{Table, WorldDigests};
use nectar_core::shard::ShardedWorld;
use nectar_core::world::World;
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::telemetry::TelemetryEvent;

/// What the harness wants an experiment to collect beyond its table.
/// Passed to every runner; [`ExpCtx::off`] is the plain-report default.
#[derive(Clone, Debug, Default)]
pub struct ExpCtx {
    /// Harvest a [`nectar_sim::metrics::MetricsRegistry`] from every
    /// world the experiment drives.
    pub metrics: bool,
    /// Capture the flight-recorder event stream for a Chrome trace.
    pub trace: bool,
    /// Override the chaos experiments' fault-schedule seed
    /// (`report --chaos-seed`): replay a campaign failure exactly.
    pub chaos_seed: Option<u64>,
    /// Override the fault program itself (`report --chaos-spec`,
    /// the [`nectar_sim::chaos`] clause grammar). Used with
    /// [`chaos_seed`](ExpCtx::chaos_seed); wins over the generated
    /// schedule.
    pub chaos_spec: Option<String>,
    /// Override the traffic scenario for the workload experiments (the
    /// `e27` family; `report --workload SPEC|PRESET`): either a
    /// registered preset name or an inline
    /// [`nectar_sim::workload`] spec. Validated by the CLI before any
    /// experiment runs.
    pub workload: Option<String>,
    /// Shard count for the conservative-parallel experiments (the
    /// `e26` scale family; `report --shards N`). `0` and `1` both mean
    /// sequential execution; counts above a topology's HUB count are
    /// clamped by the [`ShardPlan`](nectar_core::shard::ShardPlan).
    pub shards: usize,
    /// Attach a streaming doctor to every world (`report --doctor`):
    /// telemetry folds incrementally instead of being kept for a
    /// second pass, so rings never fill and analysis memory stays
    /// bounded no matter the run length. An experiment that is also
    /// [`trace`](ExpCtx::trace)d keeps its rings for the exporter and
    /// hands them to the same fold when the world is absorbed.
    pub stream: bool,
    /// Resize every telemetry ring before traffic flows
    /// (`report --telemetry-cap N`). Mainly for demonstrating that the
    /// fold survives capacities a kept capture cannot.
    pub telemetry_cap: Option<usize>,
    /// Hard cap on the streaming fold's estimated footprint in bytes
    /// (`report --stream-budget BYTES`); see
    /// [`StreamConfig::memory_budget`].
    pub stream_budget: Option<usize>,
    /// Collect a host-time profile from every sharded world
    /// (`report --profile`): phase spans per shard worker, straggler
    /// attribution, efficiency/Karp–Flatt estimates, and a ranked
    /// scaling-doctor verdict. Purely observational — simulated
    /// metrics stay bit-identical with this on or off.
    pub profile: bool,
}

/// What [`ExpCtx::absorb`] and [`ExpCtx::absorb_sharded`] read off a
/// finished world before the shared harvest.
struct Harvest {
    /// The world's registry, when metrics or the doctor want it.
    metrics: Option<MetricsRegistry>,
    /// Runner/runtime counters.
    runtime: MetricsRegistry,
    /// `telemetry_pressure()`: ring high-water mark and drops.
    pressure: (u64, u64),
    /// The retained capture, when the experiment is being traced.
    rings: Vec<TelemetryEvent>,
    /// The doctor that streamed during the run, if one was attached.
    doctor: Option<StreamingDoctor>,
    /// The world's digests, when metrics were requested.
    digests: Option<WorldDigests>,
}

impl ExpCtx {
    /// No collection: the experiment produces only its table.
    pub fn off() -> ExpCtx {
        ExpCtx::default()
    }

    /// `true` when the experiment should switch the flight recorder on.
    pub fn observing(&self) -> bool {
        self.metrics || self.trace || self.stream
    }

    /// `true` when the doctor streams during the run. A traced
    /// experiment's rings must survive for the exporter, so there the
    /// fold waits for [`absorb`](ExpCtx::absorb).
    fn streams_live(&self) -> bool {
        self.stream && !self.trace
    }

    /// The [`StreamConfig`] the doctor folds with: defaults plus the
    /// CLI memory budget.
    fn stream_config(&self) -> StreamConfig {
        StreamConfig { memory_budget: self.stream_budget, ..Default::default() }
    }

    /// Arms a freshly built world, before any traffic flows.
    pub fn prepare(&self, world: &mut World) {
        if let Some(cap) = self.telemetry_cap {
            world.set_telemetry_capacity(cap);
        }
        if self.streams_live() {
            world.attach_streaming(self.stream_config());
        } else if self.observing() {
            world.enable_observability();
        }
    }

    /// [`prepare`](ExpCtx::prepare) for a sharded world.
    pub fn prepare_sharded(&self, world: &mut ShardedWorld) {
        if let Some(cap) = self.telemetry_cap {
            world.set_telemetry_capacity(cap);
        }
        if self.streams_live() {
            world.attach_streaming(self.stream_config());
        } else if self.observing() {
            world.enable_observability();
        }
        if self.profile {
            world.enable_profiling();
        }
    }

    /// The effective shard count (`0` means "not set" → sequential).
    pub fn shard_count(&self) -> usize {
        self.shards.max(1)
    }

    /// Harvests a world into the table: metrics merge (so experiments
    /// driving several worlds accumulate), trace events append, the
    /// streaming doctor is detached into its final report — one per
    /// world, because packet ids restart with every world — and
    /// capture pressure lands in the runtime registry.
    pub fn absorb(&self, table: &mut Table, world: &mut World) {
        let harvest = Harvest {
            metrics: (self.metrics || self.stream).then(|| world.metrics()),
            runtime: world.runtime_metrics(),
            pressure: world.telemetry_pressure(),
            rings: if self.trace { world.telemetry_events() } else { Vec::new() },
            doctor: world.finish_streaming(),
            digests: self.metrics.then(|| WorldDigests {
                results: world.results_digest(),
                events: world.event_digest(),
            }),
        };
        self.absorb_harvest(table, harvest);
    }

    /// [`absorb`](ExpCtx::absorb) for a sharded world: identical
    /// semantics, because the sharded metrics registry and the
    /// canonically sorted telemetry stream are bit-identical to a
    /// sequential run's (the determinism contract of DESIGN.md §11) —
    /// plus the runner's own counters into the runtime registry and,
    /// under [`profile`](ExpCtx::profile), the world's host-time profile.
    pub fn absorb_sharded(&self, table: &mut Table, world: &mut ShardedWorld) {
        let harvest = Harvest {
            metrics: (self.metrics || self.stream).then(|| world.metrics()),
            runtime: world.runtime_metrics(),
            pressure: world.telemetry_pressure(),
            rings: if self.trace { world.telemetry_events() } else { Vec::new() },
            doctor: world.finish_streaming(),
            digests: self.metrics.then(|| WorldDigests {
                results: world.results_digest(),
                events: world.event_digest(),
            }),
        };
        self.absorb_harvest(table, harvest);
        if self.profile {
            table.profile = world.profile_analysis();
            if self.trace {
                table.host_profile = world.host_profile();
            }
        }
    }

    /// The part of absorbing that does not care which kind of world
    /// the harvest came from.
    fn absorb_harvest(&self, table: &mut Table, mut h: Harvest) {
        table.trace.extend_from_slice(&h.rings);
        table.digests.extend(h.digests);
        let doctor = if self.stream && self.trace {
            // Traced: nothing streamed, the rings hold the capture.
            // The same fold takes it in one batch.
            let mut doctor = StreamingDoctor::new(self.stream_config());
            doctor.ingest(&mut h.rings);
            doctor.note_ring(h.pressure.0, h.pressure.1);
            Some(doctor)
        } else {
            h.doctor
        };
        if let Some(doctor) = doctor {
            let summary = doctor.summary();
            let report = doctor.into_report(h.metrics.as_ref());
            table.absorb_stream(&summary, &report);
        }
        if self.metrics {
            if let Some(m) = h.metrics {
                match &mut table.metrics {
                    Some(t) => t.merge(&m),
                    None => table.metrics = Some(m),
                }
            }
            // The ring high-water mark is per-ring and therefore
            // shard-variant, which is exactly why it lives in the
            // runtime registry and not in the bit-compared `metrics`.
            let (hwm, dropped) = h.pressure;
            let rt = table.runtime.get_or_insert_with(MetricsRegistry::new);
            rt.merge(&h.runtime);
            rt.gauge_max("telemetry.ring_hwm", hwm as f64);
            rt.counter_add("telemetry.dropped_events", dropped);
        }
    }
}

/// One registry entry: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn(&ExpCtx) -> Table);

/// Experiments that honor [`ExpCtx::trace`] (they call
/// [`ExpCtx::absorb`] on their worlds). `report --trace` accepts exactly
/// this list, and the test `traceable_experiments_produce_traces`
/// exports and validates each one's trace; an experiment that starts
/// absorbing telemetry should be added here so its trace gets validated
/// too.
pub const TRACEABLE: &[&str] = &[
    "e03", "e05", "e06", "e07", "e12", "e14", "e25", "e25b", "e25c", "e26", "e26b", "e27", "e27c",
];

/// All experiments in DESIGN.md order.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("e01", "HUB latency & pipelining", hub_level::e01_hub_latency as fn(&ExpCtx) -> Table),
        ("e02", "controller switching rate", hub_level::e02_switch_rate),
        ("e03", "latency goals (§2.3)", latency::e03_latency_goals),
        ("e04", "aggregate bandwidth", throughput::e04_aggregate_bandwidth),
        ("e05", "Fig. 7 circuit walk", hub_level::e05_fig7_circuit),
        ("e06", "multicast vs unicast", hub_level::e06_multicast),
        ("e07", "packet vs circuit switching", hub_level::e07_circuit_vs_packet),
        ("e08", "Nectar vs LAN", comparison::e08_lan_comparison),
        ("e09", "kernel operation costs", latency::e09_kernel_ops),
        ("e10", "transport protocols", transport_exp::e10_transports),
        ("e10b", "loss recovery", transport_exp::e10_loss_recovery),
        ("e10c", "window sweep", transport_exp::e10_window_sweep),
        ("e10d", "RPC under loss", transport_exp::e10_rpc_loss),
        ("e11", "packet pipeline", throughput::e11_packet_pipeline),
        ("e12", "CAB-node interfaces", latency::e12_node_interfaces),
        ("e13", "CAB memory system", throughput::e13_cab_memory),
        ("e14", "mesh scaling", latency::e14_mesh_scaling),
        ("e15", "contention vs LAN", comparison::e15_contention),
        ("e16", "vision application", apps_exp::e16_vision),
        ("e16b", "scientific kernels", apps_exp::e16b_scientific),
        ("e17", "production system", apps_exp::e17_production),
        ("e18", "CAB full duplex", throughput::e18_full_duplex),
        ("e19", "shared virtual memory", extensions::e19_dsm),
        ("e20", "VLSI projection", extensions::e20_vlsi_projection),
        ("e21", "IP over Nectar", extensions::e21_ip_over_nectar),
        ("e22", "heterogeneous nodes", extensions::e22_heterogeneity),
        ("e23", "distributed transactions", extensions::e23_transactions),
        ("e24", "automatic task mapping", extensions::e24_task_mapping),
        ("e25", "chaos: byte streams", chaos_exp::e25_stream_chaos),
        ("e25b", "chaos: request-response", chaos_exp::e25b_rpc_chaos),
        ("e25c", "chaos: mesh", chaos_exp::e25c_mesh_chaos),
        ("e26", "scale: sharded fat-star", scale::e26_fat_star),
        ("e26b", "scale: sharded 4x4 mesh", scale::e26b_mesh),
        ("e27", "workload: lattice collective", workload_exp::e27_lattice),
        ("e27b", "workload: spike stream", workload_exp::e27b_spike),
        ("e27c", "workload: RPC fan-out", workload_exp::e27c_rpc_fanout),
        ("abl", "design ablations", apps_exp::ablations),
    ]
}

/// Runs the registered experiment `id` under `ctx`.
///
/// # Panics
/// If no experiment is registered as `id`.
pub fn run(id: &str, ctx: &ExpCtx) -> Table {
    let (_, _, run) = registry()
        .into_iter()
        .find(|(rid, _, _)| *rid == id)
        .unwrap_or_else(|| panic!("no experiment {id}"));
    run(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_sim::export::{chrome_trace_with_host, HOST_PID};
    use nectar_sim::json::{parse, Json};
    use nectar_sim::profile::Phase;
    use nectar_sim::telemetry::EventKind;
    use nectar_sim::time::{Dur, Time};
    use std::collections::HashMap;

    #[test]
    fn registry_ids_are_unique() {
        let reg = registry();
        let mut ids: Vec<_> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
    }

    /// Checks a Chrome trace-event file the way a viewer reads it: a
    /// non-empty `traceEvents` array, a `ph` and a `pid` on every event,
    /// a `ts` on every event but metadata, and on every host-time slice
    /// (pid at or above [`HOST_PID`]) a profiler phase name and a `dur`.
    /// Returns the number of host-time slices.
    fn check_trace(id: &str, trace: &str) -> usize {
        let v = parse(trace).unwrap_or_else(|e| panic!("{id}: trace is not JSON: {e}"));
        let events = v.get("traceEvents").and_then(Json::as_array);
        let events = events.unwrap_or_else(|| panic!("{id}: no traceEvents array"));
        assert!(!events.is_empty(), "{id}: empty trace");
        let phases: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        let mut host_slices = 0;
        for (i, e) in events.iter().enumerate() {
            let ph = e.get("ph").and_then(Json::as_str);
            let ph = ph.unwrap_or_else(|| panic!("{id}: event {i} has no ph"));
            let pid = e.get("pid").and_then(Json::as_f64);
            let pid = pid.unwrap_or_else(|| panic!("{id}: event {i} has no pid"));
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "{id}: event {i} has no ts");
            }
            if ph == "X" && pid >= f64::from(HOST_PID) {
                let name = e.get("name").and_then(Json::as_str);
                assert!(name.is_some_and(|n| phases.contains(&n)), "{id}: host slice {name:?}");
                assert!(e.get("dur").and_then(Json::as_f64).is_some(), "{id}: slice {i} no dur");
                host_slices += 1;
            }
        }
        host_slices
    }

    /// The traceable experiment whose 52 MB trace takes seconds to
    /// export and parse in a debug build; an ignored test checks its
    /// export.
    const BIG_TRACE: &str = "e27";

    /// Runs `id` traced (`report --trace`) and checks that it recorded
    /// events.
    fn traced(id: &str) -> Table {
        let table = run(id, &ExpCtx { trace: true, ..ExpCtx::off() });
        assert!(!table.trace.is_empty(), "{id} is listed TRACEABLE but produced no events");
        table
    }

    /// Validates the Chrome trace `report --trace` writes for a run
    /// without `--profile`.
    fn check_unprofiled_trace(id: &str, table: &Table) {
        let trace = chrome_trace_with_host(&table.trace, table.host_profile.as_ref());
        assert_eq!(check_trace(id, &trace), 0, "{id}: host slices without --profile");
    }

    /// Every traceable experiment records events, and they export as a
    /// well-formed Chrome trace.
    #[test]
    fn traceable_experiments_produce_traces() {
        for id in TRACEABLE {
            let table = traced(id);
            if *id != BIG_TRACE {
                check_unprofiled_trace(id, &table);
            }
        }
    }

    #[test]
    #[ignore = "seconds in a debug build; run with --release -- --ignored"]
    fn the_biggest_trace_exports_well_formed() {
        check_unprofiled_trace(BIG_TRACE, &traced(BIG_TRACE));
    }

    /// `report --shards 2 --profile --trace e26`: the trace gains
    /// host-time tracks, and profiling leaves the simulated results
    /// alone.
    #[test]
    #[ignore = "over a second in a debug build; run with --release -- --ignored"]
    fn profiled_trace_has_host_tracks_and_the_same_results() {
        let plain = ExpCtx { metrics: true, shards: 2, ..ExpCtx::off() };
        let profiled = ExpCtx { trace: true, profile: true, ..plain.clone() };
        let (plain, profiled) = (run("e26", &plain), run("e26", &profiled));
        let trace = chrome_trace_with_host(&profiled.trace, profiled.host_profile.as_ref());
        assert!(check_trace("e26", &trace) > 0, "no host-time slices in the profiled trace");
        assert_eq!(profiled.digests, plain.digests);
    }

    /// What `report --doctor` runs an experiment with.
    fn doctor_ctx() -> ExpCtx {
        ExpCtx { metrics: true, stream: true, ..ExpCtx::off() }
    }

    /// The flights a fold that retires as it goes has retired once the
    /// capture ends: the terminal ones (delivered, or an ack consumed)
    /// whose last event lies at least the doctor's 1 ms retirement
    /// horizon before the capture's last event.
    fn retired_by_the_end(capture: &[TelemetryEvent]) -> u64 {
        let end = capture.iter().map(|e| e.at).max().unwrap_or(Time::ZERO);
        let mut flights: HashMap<u64, (Time, bool)> = HashMap::new();
        for e in capture.iter().filter(|e| e.flight.is_some()) {
            let (last, terminal) = flights.entry(e.flight.0).or_insert((e.at, false));
            *last = (*last).max(e.at);
            *terminal |=
                matches!(e.kind, EventKind::AppRecv { .. } | EventKind::TransportAck { .. });
        }
        let horizon = Dur::from_millis(1);
        flights.values().filter(|&&(last, terminal)| terminal && last + horizon <= end).count()
            as u64
    }

    /// Every traceable experiment streamed: no drop, no late fold, no
    /// budget eviction, every flight accounted for, a confident verdict.
    /// The scale family runs under 4096-slot rings — far too small to
    /// keep its capture — and must retire its flights as the run goes:
    /// by the end exactly those a horizon older than its last event.
    #[test]
    fn traceable_experiments_fold_every_world() {
        for id in TRACEABLE {
            let tight = matches!(*id, "e26" | "e26b");
            let ctx = ExpCtx { telemetry_cap: tight.then_some(4096), ..doctor_ctx() };
            let table = run(id, &ctx);
            let s = table.stream.unwrap_or_else(|| panic!("{id} absorbed no doctor"));
            let sm = &s.summary;
            assert_eq!(sm.late_events, 0, "{id}: late folds");
            assert_eq!(sm.ring_dropped, 0, "{id}: dropped events");
            assert_eq!(sm.forced_retirements, 0, "{id}: budget eviction fired");
            assert_eq!(sm.flights_retired + sm.open_flights as u64, sm.flights_seen, "{id}");
            if tight {
                let capture = run(id, &ExpCtx { trace: true, ..ExpCtx::off() }).trace;
                assert_eq!(capture.len() as u64, sm.events_folded, "{id}: a partial capture");
                let retired = retired_by_the_end(&capture);
                assert_eq!(sm.flights_retired, retired, "{id}: flights left for the report");
            }
            assert!(s.confident, "{id}: verdict not confident");
            if *id == "e12" {
                // Nine worlds, one delivered message each. A doctor
                // over the nine captures merged — packet ids restart
                // per world — attributes none of them.
                assert_eq!(s.attributed, 9);
                // No head-of-line finding: on every port the mean
                // queue wait stays under twice the mean service, which
                // on a hop into a CAB lasts until the receive DMA
                // completes.
                let hol = s.findings.iter().filter(|f| f.detector == "head_of_line").count();
                assert_eq!(hol, 0, "{:?}", s.findings);
            }
        }
    }

    #[test]
    fn traced_experiment_keeps_its_rings_and_its_doctor() {
        let live = run("e07", &doctor_ctx());
        let traced = run("e07", &ExpCtx { trace: true, ..doctor_ctx() });
        assert!(live.trace.is_empty());
        assert_eq!(traced.trace.len(), 1_728);
        let (live, traced) = (live.stream.expect("folded"), traced.stream.expect("folded"));
        assert_eq!(traced.rendered, live.rendered);
        assert_eq!(traced.summary.events_folded, live.summary.events_folded);
        assert!(traced.confident);
    }
}
