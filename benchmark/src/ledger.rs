//! The per-layer ledger: every `layer.metric` value of one traced run,
//! from three outside sources — exact counts (C) of an untraced
//! repetition, isolated ns/op loops (I), and harness spans (S) of the
//! traced repetition — plus the shares derived from them.
//!
//! `<layer>.est_share` = count × ns/op ÷ untraced wall: the outside-in
//! estimate of how much of the wall a layer's own functions account
//! for. `world.residual_share` = 1 − Σ shares, so the shares add up to
//! one by construction; the residual is dispatch in `core::world` plus
//! everything the isolated loops do not cover (allocation, cache misses
//! between layers), and goes negative if the estimates overshoot.

use crate::run::{ops, Rep};
use crate::stats::{iqr_share, median};
use crate::sut::Isolated;
use crate::workloads::Workload;

pub struct Inputs<'a> {
    pub workload: &'a Workload,
    /// The untraced repetitions: the first is the source of every
    /// exact count (they repeat), all of them of the host-time medians.
    pub untraced: &'a [Rep],
    pub traced: &'a Rep,
    /// Wall of the sequential reference repetition, if there was one.
    pub reference_wall_s: Option<f64>,
    pub isolated: &'a Isolated,
    pub isolated_s: f64,
    pub loadavg: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Piecewise-linear interpolation through `points` (sorted by x),
/// clamped at both ends.
fn interpolate(points: &[(f64, f64)], x: f64) -> f64 {
    let (first, last) = (points[0], points[points.len() - 1]);
    if x <= first.0 {
        return first.1;
    }
    for pair in points.windows(2) {
        let ((x0, y0), (x1, y1)) = (pair[0], pair[1]);
        if x <= x1 {
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
    }
    last.1
}

pub fn per_layer(inp: &Inputs) -> Vec<(&'static str, f64)> {
    let (w, iso) = (inp.workload, inp.isolated);
    let first = &inp.untraced[0];
    let (h, t) = (&first.harvest, &inp.traced.harvest);
    let median_of =
        |pick: fn(&Rep) -> f64| median(&inp.untraced.iter().map(pick).collect::<Vec<f64>>());
    let walls: Vec<f64> = inp.untraced.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let wall_ns = wall_s * 1e9;
    let share = |host_ns: f64| ratio(host_ns, wall_ns);
    let n = |v: u64| v as f64;

    // engine: pop+schedule per event at the depth the traced run saw
    // (log-interpolated between the 1k and 100k hold models), plus one
    // timer arm/cancel per RPC call.
    let pending_max = inp.traced.pending_max.unwrap_or(0) as f64;
    let depth_mix = ((pending_max.max(1.0).log10() - 3.0) / 2.0).clamp(0.0, 1.0);
    let pop_ns = iso.sched_pop_d1k + depth_mix * (iso.sched_pop_d100k - iso.sched_pop_d1k);
    let engine = share(n(h.events) * pop_ns + n(h.rpc_calls) * iso.cancel);

    // hub: one isolated hop (test-open, packet, close-all) per packet
    // forwarded; crossbar_connect_ns is part of that hop already.
    let hub = share(n(h.hub_packets_forwarded) * iso.hub_forward);

    // cab: one checksum per op at the mean DMA transfer size.
    let mean_bytes = ratio(n(h.cab_dma_bytes), n(h.cab_dma_ops));
    let checksum_ns = interpolate(
        &[(32.0, iso.checksum_32), (960.0, iso.checksum_960), (8192.0, iso.checksum_8192)],
        mean_bytes,
    );
    let cab = share(n(h.cab_checksum_ops) * checksum_ns);

    // kernel: one scheduler burst per switch or interrupt, one mailbox
    // append+take per delivery.
    let kernel = share(
        n(h.thread_switches + h.interrupts) * iso.sched_run
            + n(h.deliveries) * iso.mailbox_append_take,
    );

    // proto: header codec per packet, plus the transport state machine
    // per message of each kind (every flow is exactly one of the three).
    let stream_msgs = ratio(n(h.stream_data_sent), n(iso.bytestream_segments_8192));
    let datagrams = (n(h.flows) - n(h.rpc_calls) - stream_msgs).max(0.0);
    let proto = share(
        n(h.cab_packets_tx) * (iso.header_encode + iso.header_decode)
            + stream_msgs * iso.bytestream_msg_8192
            + n(h.rpc_calls) * iso.reqresp_call
            + datagrams * iso.datagram_send,
    );

    // chaos: consulted on every CAB packet arrival and HUB item arrival.
    let chaos = if w.chaos.is_some() {
        share(
            n(h.cab_packets_rx + h.hub_packets_forwarded + h.hub_commands_executed)
                * iso.chaos_on_packet,
        )
    } else {
        0.0
    };

    // telemetry: the traced run counts the record calls; an unobserved
    // workload pays the disabled branch at each of them.
    let folded = inp.traced.doctor.map_or(0, |d| d.events_folded);
    let recorded = folded + t.telemetry_dropped;
    let record_ns =
        if w.observed { iso.telemetry_record_enabled } else { iso.telemetry_record_disabled };
    let telemetry = share(n(recorded) * record_ns);

    // streaming: the fold exists only on the observed workload.
    let doctor = first.doctor;
    let streaming_folded = doctor.map_or(0, |d| d.events_folded);
    let streaming = share(n(streaming_folded) * iso.streaming_ingest_per_event);

    let residual = 1.0 - (engine + hub + cab + kernel + proto + chaos + telemetry + streaming);

    let slices: Vec<f64> = inp.traced.slices_ns.iter().map(|&s| s as f64).collect();
    let slice_max = slices.iter().copied().fold(0.0, f64::max);
    let (attempted, failed) = ops(h);
    let retx = n(h.stream_retransmissions + h.rpc_retransmissions);
    let shard = h.shard.as_ref();
    let profile = t.shard.as_ref().and_then(|s| s.profile);
    let threads = shard.map_or(1.0, |s| s.threads as f64);

    vec![
        ("engine.events", n(h.events)),
        ("engine.host_ns_per_event", ratio(wall_ns, n(h.events))),
        ("engine.sched_pop_ns.d1k", iso.sched_pop_d1k),
        ("engine.sched_pop_ns.d100k", iso.sched_pop_d100k),
        ("engine.cancel_ns", iso.cancel),
        ("engine.pending_max", pending_max),
        ("engine.est_share", engine),
        ("hub.packets_forwarded", n(h.hub_packets_forwarded)),
        ("hub.commands_executed", n(h.hub_commands_executed)),
        ("hub.opens_retried", n(h.hub_opens_retried)),
        ("hub.drops_overflows", n(h.hub_drops_overflows)),
        ("hub.forward_ns", iso.hub_forward),
        ("hub.crossbar_connect_ns", iso.crossbar_connect),
        ("hub.est_share", hub),
        ("cab.checksum_ops", n(h.cab_checksum_ops)),
        ("cab.dma_ops", n(h.cab_dma_ops)),
        ("cab.pool_hit_ratio", ratio(n(h.pool_hits), n(h.pool_hits + h.pool_misses))),
        ("cab.checksum_ns.32", iso.checksum_32),
        ("cab.checksum_ns.960", iso.checksum_960),
        ("cab.checksum_ns.8192", iso.checksum_8192),
        ("cab.est_share", cab),
        ("kernel.thread_switches", n(h.thread_switches)),
        ("kernel.interrupts", n(h.interrupts)),
        ("kernel.mailbox_rejects", n(h.mailbox_rejects)),
        ("kernel.sched_run_ns", iso.sched_run),
        ("kernel.mailbox_append_take_ns", iso.mailbox_append_take),
        ("kernel.est_share", kernel),
        ("proto.packets_tx", n(h.cab_packets_tx)),
        ("proto.stream_retransmissions", n(h.stream_retransmissions)),
        ("proto.rpc_retransmissions", n(h.rpc_retransmissions)),
        ("proto.rpc_timeouts", n(h.rpc_timeouts)),
        ("proto.retx_ratio", ratio(retx, n(h.cab_packets_tx))),
        ("proto.retx_per_kmsg", ratio(retx * 1e3, n(h.deliveries))),
        ("proto.header_encode_ns", iso.header_encode),
        ("proto.header_decode_ns", iso.header_decode),
        ("proto.bytestream_msg_ns.8192", iso.bytestream_msg_8192),
        ("proto.reqresp_call_ns", iso.reqresp_call),
        ("proto.datagram_send_ns", iso.datagram_send),
        ("proto.est_share", proto),
        ("workload.flows", n(h.flows)),
        ("workload.rearms", n(h.rearms)),
        ("workload.gen_ns_per_flow", iso.workload_gen_per_flow),
        ("workload.compile_ns", iso.workload_compile),
        ("chaos.drops", n(h.chaos_drops)),
        ("chaos.duplicates", n(h.chaos_duplicates)),
        ("chaos.on_packet_ns", iso.chaos_on_packet),
        ("chaos.est_share", chaos),
        ("telemetry.events_recorded", n(recorded)),
        ("telemetry.dropped_events", n(t.telemetry_dropped)),
        ("telemetry.ring_hwm", n(t.telemetry_ring_hwm)),
        ("telemetry.record_ns.enabled", iso.telemetry_record_enabled),
        ("telemetry.record_ns.disabled", iso.telemetry_record_disabled),
        ("telemetry.est_share", telemetry),
        ("streaming.events_folded", n(streaming_folded)),
        ("streaming.mem_estimate_bytes", doctor.map_or(0.0, |d| n(d.mem_estimate_bytes))),
        ("streaming.ingest_ns_per_event", iso.streaming_ingest_per_event),
        ("streaming.finish_ns", doctor.map_or(0.0, |_| median_of(|r| r.finish_ns as f64))),
        ("streaming.est_share", streaming),
        ("metrics.harvest_ns", median_of(|r| r.harvest_ns as f64)),
        ("world.new_ns", median_of(|r| r.setup.world_new as f64)),
        ("world.set_workload_ns", median_of(|r| r.setup.set_workload as f64)),
        ("world.run_ns", wall_ns),
        ("world.slice_ns_p50", median(&slices)),
        ("world.slice_ns_max", slice_max),
        ("world.deliveries", n(h.deliveries)),
        ("world.sim_flight_p50_us", t.flight.map_or(0.0, |f| f.p50_us)),
        ("world.sim_flight_p99_us", t.flight.map_or(0.0, |f| f.p99_us)),
        ("world.failed_share", ratio(n(failed), n(attempted))),
        ("world.residual_share", residual),
        ("shard.windows", shard.map_or(0.0, |s| n(s.windows))),
        ("shard.barrier_wait_ns", shard.map_or(0.0, |s| n(s.barrier_wait_ns))),
        ("shard.exchanged_events", shard.map_or(0.0, |s| n(s.exchanged_events))),
        ("shard.events_per_window", shard.map_or(0.0, |s| ratio(n(h.events), n(s.windows)))),
        (
            "shard.barrier_share",
            shard.map_or(0.0, |s| ratio(n(s.barrier_wait_ns), threads * first.wall_s * 1e9)),
        ),
        ("shard.step_share", profile.map_or(0.0, |p| p.step_share)),
        ("shard.exchange_share", profile.map_or(0.0, |p| p.exchange_share)),
        ("shard.efficiency", profile.map_or(0.0, |p| p.efficiency)),
        ("shard.karp_flatt", profile.map_or(0.0, |p| p.karp_flatt)),
        ("shard.profile_spans_dropped", profile.map_or(0.0, |p| n(p.spans_dropped))),
        ("shard.speedup_vs_lattice", inp.reference_wall_s.map_or(0.0, |r| ratio(r, wall_s))),
        ("topology.build_ns", iso.topology_build),
        ("topology.route_ns", iso.topology_route),
        ("harness.trace_overhead_pct", 100.0 * ratio(inp.traced.wall_s - wall_s, wall_s)),
        ("harness.rep_iqr_pct", 100.0 * iqr_share(&walls)),
        ("harness.untraced_reps", walls.len() as f64),
        ("harness.host_loadavg", inp.loadavg),
        ("harness.isolated_s", inp.isolated_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_is_linear_between_points_and_clamped_outside() {
        let pts = [(32.0, 10.0), (960.0, 200.0), (8192.0, 1700.0)];
        assert_eq!(interpolate(&pts, 1.0), 10.0);
        assert_eq!(interpolate(&pts, 32.0), 10.0);
        assert_eq!(interpolate(&pts, 496.0), 105.0);
        assert_eq!(interpolate(&pts, 960.0), 200.0);
        assert_eq!(interpolate(&pts, 100_000.0), 1700.0);
    }
}
