//! The metric registry: every name the benchmark prints, with its unit,
//! direction and — for per-layer metrics — the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` at the repository
//! root is generated from this table (`benchmark manifest`), and a test
//! keeps the two identical.

use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the simulator would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Exact count read from a public counter.
    Count,
    /// Isolated ns/op loop over the layer's public functions.
    Isolated,
    /// Harness span around a public call.
    Span,
    /// Derived from the others (shares, ratios).
    Derived,
}

impl Source {
    /// The one-letter tag the README's tables use.
    pub fn tag(self) -> &'static str {
        match self {
            Source::Count => "C",
            Source::Isolated => "I",
            Source::Span => "S",
            Source::Derived => "D",
        }
    }
}

/// A metric of one layer. Layer = the part of the name before the
/// first dot, which is the simulator module it measures.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// End-to-end metrics it should move (comma-separated), or `none`
    /// for watch-only numbers.
    pub moves: &'static str,
    /// Workloads on which it should move them: names, `all` or `none`.
    pub on: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    // Application mailbox deliveries per host second of the timed
    // region. Messages, not events, on purpose: an optimisation that
    // *removes* events must not read as a slowdown. The bound is wide
    // because one bound serves all workloads and `lattice_sharded2`
    // spreads by 6-16 % between runs on a shared 2-vCPU host (README,
    // "Noise"); the sequential workloads spread by 1.5-5.5 %.
    EndToEnd { name: "msgs_per_sec", unit: "msgs/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // Simulated-time results are correctness: for one seed they repeat
    // exactly. The bound only has to cover the spread *between seeds*.
    EndToEnd { name: "sim_makespan_us", unit: "us", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "sim_goodput_mbps", unit: "Mbit/s", better: Better::Higher, bound: 0.05 },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, source, moves, on }
}

use Better::{Higher, Lower};
use Source::{Count, Derived, Isolated, Span};

pub const PER_LAYER: [PerLayer; 87] = [
    // engine — sim::engine
    layer("engine.events", "count", Lower, Count, "msgs_per_sec", "all"),
    layer("engine.host_ns_per_event", "ns", Lower, Derived, "msgs_per_sec", "all"),
    layer("engine.sched_pop_ns.d1k", "ns", Lower, Isolated, "msgs_per_sec", "lattice,rpc_chaos"),
    layer(
        "engine.sched_pop_ns.d100k",
        "ns",
        Lower,
        Isolated,
        "msgs_per_sec",
        "spike,spike_observed",
    ),
    layer("engine.cancel_ns", "ns", Lower, Isolated, "msgs_per_sec", "rpc_chaos"),
    layer("engine.pending_max", "count", Lower, Span, "peak_rss_mb", "spike,spike_observed"),
    layer("engine.est_share", "ratio", Lower, Derived, "msgs_per_sec", "spike,rpc_chaos"),
    // hub
    layer("hub.packets_forwarded", "count", Lower, Count, "msgs_per_sec", "spike,rpc_chaos"),
    layer("hub.commands_executed", "count", Lower, Count, "msgs_per_sec", "spike,rpc_chaos"),
    layer("hub.opens_retried", "count", Lower, Count, "sim_makespan_us", "rpc_chaos,lattice"),
    layer("hub.drops_overflows", "count", Lower, Count, "sim_goodput_mbps", "rpc_chaos"),
    layer("hub.forward_ns", "ns", Lower, Isolated, "msgs_per_sec", "spike,rpc_chaos"),
    layer("hub.crossbar_connect_ns", "ns", Lower, Isolated, "msgs_per_sec", "spike,rpc_chaos"),
    layer("hub.est_share", "ratio", Lower, Derived, "msgs_per_sec", "spike,rpc_chaos"),
    // cab
    layer("cab.checksum_ops", "count", Lower, Count, "msgs_per_sec", "lattice,lattice_sharded2"),
    layer("cab.dma_ops", "count", Lower, Count, "msgs_per_sec", "lattice,lattice_sharded2"),
    layer(
        "cab.pool_hit_ratio",
        "ratio",
        Higher,
        Count,
        "peak_rss_mb,msgs_per_sec",
        "lattice,lattice_sharded2",
    ),
    layer("cab.checksum_ns.32", "ns", Lower, Isolated, "msgs_per_sec", "spike,spike_observed"),
    layer("cab.checksum_ns.960", "ns", Lower, Isolated, "msgs_per_sec", "lattice,lattice_sharded2"),
    layer(
        "cab.checksum_ns.8192",
        "ns",
        Lower,
        Isolated,
        "msgs_per_sec",
        "lattice,lattice_sharded2",
    ),
    layer("cab.est_share", "ratio", Lower, Derived, "msgs_per_sec", "lattice,lattice_sharded2"),
    // kernel
    layer("kernel.thread_switches", "count", Lower, Count, "msgs_per_sec", "spike,spike_observed"),
    layer("kernel.interrupts", "count", Lower, Count, "msgs_per_sec", "spike,spike_observed"),
    layer("kernel.mailbox_rejects", "count", Lower, Count, "sim_goodput_mbps", "all"),
    layer("kernel.sched_run_ns", "ns", Lower, Isolated, "msgs_per_sec", "spike,spike_observed"),
    layer(
        "kernel.mailbox_append_take_ns",
        "ns",
        Lower,
        Isolated,
        "msgs_per_sec",
        "spike,spike_observed",
    ),
    layer("kernel.est_share", "ratio", Lower, Derived, "msgs_per_sec", "spike,spike_observed"),
    // proto
    layer("proto.packets_tx", "count", Lower, Count, "msgs_per_sec", "lattice,rpc_chaos"),
    layer(
        "proto.stream_retransmissions",
        "count",
        Lower,
        Count,
        "sim_goodput_mbps",
        "lattice,lattice_sharded2",
    ),
    layer("proto.rpc_retransmissions", "count", Lower, Count, "sim_makespan_us", "rpc_chaos"),
    layer("proto.rpc_timeouts", "count", Lower, Count, "sim_goodput_mbps", "rpc_chaos"),
    layer("proto.retx_ratio", "ratio", Lower, Derived, "sim_goodput_mbps", "lattice,rpc_chaos"),
    layer("proto.retx_per_kmsg", "1/kmsg", Lower, Derived, "sim_goodput_mbps", "lattice,rpc_chaos"),
    layer("proto.header_encode_ns", "ns", Lower, Isolated, "msgs_per_sec", "lattice,rpc_chaos"),
    layer("proto.header_decode_ns", "ns", Lower, Isolated, "msgs_per_sec", "lattice,rpc_chaos"),
    layer(
        "proto.bytestream_msg_ns.8192",
        "ns",
        Lower,
        Isolated,
        "msgs_per_sec",
        "lattice,lattice_sharded2",
    ),
    layer("proto.reqresp_call_ns", "ns", Lower, Isolated, "msgs_per_sec", "rpc_chaos"),
    layer("proto.datagram_send_ns", "ns", Lower, Isolated, "msgs_per_sec", "spike,spike_observed"),
    layer("proto.est_share", "ratio", Lower, Derived, "msgs_per_sec", "lattice,rpc_chaos"),
    // workload — sim::workload
    layer("workload.flows", "count", Higher, Count, "sim_goodput_mbps", "all"),
    layer("workload.rearms", "count", Higher, Count, "sim_goodput_mbps", "all"),
    layer("workload.gen_ns_per_flow", "ns", Lower, Isolated, "msgs_per_sec", "spike"),
    layer("workload.compile_ns", "ns", Lower, Isolated, "setup_s", "all"),
    // chaos — sim::chaos
    layer("chaos.drops", "count", Lower, Count, "sim_goodput_mbps", "rpc_chaos"),
    layer("chaos.duplicates", "count", Lower, Count, "sim_goodput_mbps", "rpc_chaos"),
    layer("chaos.on_packet_ns", "ns", Lower, Isolated, "msgs_per_sec", "rpc_chaos"),
    layer("chaos.est_share", "ratio", Lower, Derived, "msgs_per_sec", "rpc_chaos"),
    // telemetry — sim::telemetry
    layer(
        "telemetry.events_recorded",
        "count",
        Lower,
        Count,
        "msgs_per_sec,peak_rss_mb",
        "spike_observed",
    ),
    layer("telemetry.dropped_events", "count", Lower, Count, "none", "none"),
    layer("telemetry.ring_hwm", "count", Lower, Count, "peak_rss_mb", "spike_observed"),
    layer("telemetry.record_ns.enabled", "ns", Lower, Isolated, "msgs_per_sec", "spike_observed"),
    layer("telemetry.record_ns.disabled", "ns", Lower, Isolated, "msgs_per_sec", "spike"),
    layer("telemetry.est_share", "ratio", Lower, Derived, "msgs_per_sec", "spike_observed,spike"),
    // streaming — sim::analysis::streaming
    layer("streaming.events_folded", "count", Lower, Count, "msgs_per_sec", "spike_observed"),
    layer("streaming.mem_estimate_bytes", "B", Lower, Count, "peak_rss_mb", "spike_observed"),
    layer("streaming.ingest_ns_per_event", "ns", Lower, Isolated, "msgs_per_sec", "spike_observed"),
    layer("streaming.finish_ns", "ns", Lower, Span, "msgs_per_sec", "spike_observed"),
    layer("streaming.est_share", "ratio", Lower, Derived, "msgs_per_sec", "spike_observed"),
    // metrics — sim::metrics (harvest is outside the timed region)
    layer("metrics.harvest_ns", "ns", Lower, Span, "none", "none"),
    // world — core::world
    layer("world.new_ns", "ns", Lower, Span, "setup_s", "all"),
    layer("world.set_workload_ns", "ns", Lower, Span, "setup_s", "all"),
    layer("world.run_ns", "ns", Lower, Span, "msgs_per_sec", "all"),
    layer("world.slice_ns_p50", "ns", Lower, Span, "msgs_per_sec", "all"),
    layer("world.slice_ns_max", "ns", Lower, Span, "msgs_per_sec", "all"),
    layer("world.deliveries", "count", Higher, Count, "msgs_per_sec,sim_goodput_mbps", "all"),
    layer("world.sim_flight_p50_us", "us", Lower, Count, "sim_makespan_us", "all"),
    layer("world.sim_flight_p99_us", "us", Lower, Count, "sim_makespan_us", "all"),
    layer("world.failed_share", "ratio", Lower, Derived, "sim_goodput_mbps", "rpc_chaos"),
    layer("world.residual_share", "ratio", Lower, Derived, "msgs_per_sec", "all"),
    // shard — core::shard (zero on the sequential workloads)
    layer("shard.windows", "count", Lower, Count, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.barrier_wait_ns", "ns", Lower, Count, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.exchanged_events", "count", Lower, Count, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.events_per_window", "count", Higher, Derived, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.barrier_share", "ratio", Lower, Derived, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.step_share", "ratio", Higher, Span, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.exchange_share", "ratio", Lower, Span, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.efficiency", "ratio", Higher, Span, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.karp_flatt", "ratio", Lower, Span, "msgs_per_sec", "lattice_sharded2"),
    layer("shard.profile_spans_dropped", "count", Lower, Span, "none", "none"),
    layer("shard.speedup_vs_lattice", "ratio", Higher, Derived, "msgs_per_sec", "lattice_sharded2"),
    // topology — core::topology
    layer("topology.build_ns", "ns", Lower, Isolated, "setup_s", "all"),
    layer("topology.route_ns", "ns", Lower, Isolated, "setup_s,msgs_per_sec", "all"),
    // harness — trust in the numbers
    layer("harness.trace_overhead_pct", "%", Lower, Derived, "none", "none"),
    layer("harness.rep_iqr_pct", "%", Lower, Derived, "none", "none"),
    layer("harness.untraced_reps", "count", Higher, Derived, "none", "none"),
    layer("harness.host_loadavg", "load", Lower, Derived, "none", "none"),
    layer("harness.isolated_s", "s", Lower, Span, "none", "none"),
];

/// The contents of the root `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| -> String {
        items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name, w.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The interaction table: for each per-layer metric its source and the
/// end-to-end metric and workloads it is expected to move.
pub fn layers_table() -> String {
    let mut out = String::from(
        "| metric | unit | better | source | should move | on |\n|---|---|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.label(),
            m.source.tag(),
            m.moves,
            m.on
        );
    }
    out
}
