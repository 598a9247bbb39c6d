//! The adapter to the system under test. This is the only file of the
//! benchmark that names a `nectar_*` API: build / run / harvest for
//! `World` and `ShardedWorld`, and the isolated per-layer loops. The
//! rest of the benchmark (workloads, statistics, spans, output) sees
//! plain data.
//!
//! Everything here is a call into a *public* function or a read of a
//! *public* counter of the simulator: the layers are measured from
//! outside.

use nectar_cab::board::CabId;
use nectar_cab::checksum::fletcher16;
use nectar_cab::timings::CabTimings;
use nectar_core::prelude::*;
use nectar_core::world::QuiescenceOutcome;
use nectar_hub::prelude::*;
use nectar_kernel::mailbox::{Mailbox, Message};
use nectar_kernel::thread::Scheduler;
use nectar_proto::header::{Header, PacketKind};
use nectar_proto::transport::bytestream::{ByteStream, ByteStreamConfig};
use nectar_proto::transport::datagram::Datagram;
use nectar_proto::transport::reqresp::{ReqRespClient, ReqRespConfig, ReqRespServer};
use nectar_proto::transport::Action;
use nectar_sim::analysis::streaming::StreamConfig;
use nectar_sim::chaos::ChaosSchedule;
use nectar_sim::engine::Engine;
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::profile::Phase;
use nectar_sim::telemetry::{EventKind, FlightId, Telemetry, TelemetryEvent};
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::WorkloadSpec;
use std::hint::black_box;

use crate::stats::{fnv1a, ns_per_op};
use crate::workloads::Fabric;

/// A built topology, opaque to the harness.
pub struct Topo(Topology);

/// A parsed traffic program plus its optional fault program.
pub struct Program {
    spec: WorkloadSpec,
    chaos: Option<ChaosSchedule>,
}

/// The system under test: the sequential world or the sharded runner.
pub enum Sut {
    /// One thread.
    Seq(Box<World>),
    /// `threads` shard workers.
    Sharded(Box<ShardedWorld>),
}

/// Evaluates `$body` on whichever world `$sut` holds; the two types
/// share these method names but no trait.
macro_rules! on_world {
    ($sut:expr, $w:ident => $body:expr) => {
        match $sut {
            Sut::Seq($w) => $body,
            Sut::Sharded($w) => $body,
        }
    };
}

/// Simulated-time drain deadline of every workload.
const DEADLINE: Time = Time::from_millis(2000);

/// Builds the fabric a workload names.
pub fn build_topology(fabric: Fabric) -> Topo {
    Topo(match fabric {
        Fabric::Mesh2d { rows, cols, cabs_per_hub, ports } => {
            Topology::mesh2d(rows, cols, cabs_per_hub, ports)
        }
        Fabric::FatStar { leaves, cabs_per_leaf, ports } => {
            Topology::fat_star(leaves, cabs_per_leaf, ports)
        }
    })
}

/// Parses the generated traffic (and fault) program. The simulator
/// receives only these strings and the two seeds.
pub fn parse_program(
    traffic: &str,
    traffic_seed: u64,
    chaos: Option<&str>,
    chaos_seed: u64,
) -> Result<Program, String> {
    let spec = WorkloadSpec::parse(traffic_seed, traffic)?;
    let chaos = chaos.map(|c| ChaosSchedule::parse(chaos_seed, c)).transpose()?;
    Ok(Program { spec, chaos })
}

impl Sut {
    /// A fresh world over `topo`: sequential for one thread, the
    /// sharded runner otherwise.
    pub fn new(topo: &Topo, threads: usize) -> Sut {
        let cfg = SystemConfig::default();
        if threads == 1 {
            Sut::Seq(Box::new(World::new(topo.0.clone(), cfg)))
        } else {
            Sut::Sharded(Box::new(ShardedWorld::new(topo.0.clone(), cfg, threads)))
        }
    }

    /// Installs the fault program, if the workload has one.
    pub fn set_chaos(&mut self, program: &Program) {
        if let Some(chaos) = &program.chaos {
            on_world!(self, w => w.set_chaos(chaos.clone()));
        }
    }

    /// Compiles and arms the traffic program.
    pub fn set_workload(&mut self, program: &Program) -> Result<(), String> {
        on_world!(self, w => w.set_workload(&program.spec))
    }

    /// Attaches the streaming doctor (implies observability).
    pub fn attach_streaming(&mut self) {
        on_world!(self, w => w.attach_streaming(StreamConfig::default()));
    }

    /// Switches the flight recorder on (and, on the sharded runner,
    /// the host-time profiler). Used by observed and traced repetitions
    /// only.
    pub fn enable_tracing(&mut self) {
        match self {
            Sut::Seq(w) => w.enable_observability(),
            Sut::Sharded(w) => {
                w.enable_observability();
                w.enable_profiling();
            }
        }
    }

    /// Runs to quiescence; `true` when the outcome was `Quiescent`.
    pub fn run_to_quiescence(&mut self) -> bool {
        let (_, outcome) = on_world!(self, w => w.run_to_quiescence(DEADLINE));
        outcome == QuiescenceOutcome::Quiescent
    }

    /// Runs one slice up to simulated `until_us`; returns the events
    /// the slice processed.
    pub fn run_slice(&mut self, until_us: u64) -> u64 {
        let until = Time::from_micros(until_us);
        on_world!(self, w => w.run_until(until))
    }

    /// Events still queued, where the system exposes it (the sharded
    /// runner does not).
    pub fn pending_events(&self) -> Option<usize> {
        match self {
            Sut::Seq(w) => Some(w.pending_events()),
            Sut::Sharded(_) => None,
        }
    }

    /// Finishes the streaming doctor and builds its report — part of
    /// the timed region on the observed workload.
    pub fn finish_doctor(&mut self) -> Option<DoctorOutcome> {
        let doctor = on_world!(self, w => w.finish_streaming())?;
        let summary = doctor.summary();
        let mem_estimate = doctor.mem_estimate();
        let metrics = self.metrics();
        let report = doctor.into_report(Some(&metrics));
        Some(DoctorOutcome {
            confident: report.confident,
            events_folded: summary.events_folded,
            mem_estimate_bytes: mem_estimate.max(summary.peak_mem_bytes) as u64,
            ring_dropped: summary.ring_dropped,
        })
    }

    fn metrics(&self) -> MetricsRegistry {
        on_world!(self, w => w.metrics())
    }

    /// Reads every public counter the benchmark reports. Outside the
    /// timed region.
    pub fn harvest(&self) -> Harvest {
        let reg = self.metrics();
        let (topo, now, events, transport_quiescent, pool, ring) = on_world!(self, w => (
            w.topology(),
            w.now(),
            w.events_processed(),
            w.transport_quiescent(),
            w.pool_stats(),
            w.telemetry_pressure(),
        ));
        let mut deliveries = match self {
            Sut::Seq(w) => w.deliveries.clone(),
            Sut::Sharded(w) => w.deliveries(),
        };
        let (cabs, hubs) = (topo.cab_count(), topo.hub_count());
        let cab_sum = |suffix: &str| -> u64 {
            (0..cabs).map(|c| reg.counter(&format!("cab{c}.{suffix}"))).sum()
        };
        let hub_sum = |suffix: &str| -> u64 {
            (0..hubs).map(|h| reg.counter(&format!("hub{h}.{suffix}"))).sum()
        };
        let (mut rpc_calls, mut rpc_retx, mut rpc_timeouts) = (0, 0, 0);
        for c in 0..cabs {
            let (calls, _responses, timeouts, retx) = on_world!(self, w => w.rpc_client_stats(c));
            rpc_calls += calls;
            rpc_retx += retx;
            rpc_timeouts += timeouts;
        }

        // The digest covers every simulated counter and gauge plus the
        // sorted delivery list. `telemetry.*` and `latency.*` exist
        // only when the flight recorder is on; leaving them out makes
        // the digest comparable between observed and unobserved
        // repetitions, so "observability does not change simulated
        // results" is checked by the same equality.
        let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, b"nectar-benchmark");
        for (name, v) in reg.counters() {
            if !name.starts_with("telemetry.") {
                digest = fnv1a(fnv1a(digest, name.as_bytes()), &v.to_le_bytes());
            }
        }
        for (name, v) in reg.gauges() {
            digest = fnv1a(fnv1a(digest, name.as_bytes()), &v.to_bits().to_le_bytes());
        }
        canonical_delivery_sort(&mut deliveries);
        let mut payload_bytes = 0u64;
        for d in &deliveries {
            payload_bytes += d.len as u64;
            for word in [d.cab as u64, d.mailbox as u64, d.msg_id, d.len as u64, d.at.nanos()] {
                digest = fnv1a(digest, &word.to_le_bytes());
            }
        }
        digest = fnv1a(fnv1a(digest, &events.to_le_bytes()), &now.nanos().to_le_bytes());

        let flight = reg.histogram("latency.flight_ns").map(|h| FlightQuantiles {
            p50_us: h.quantile(0.50) / 1e3,
            p99_us: h.quantile(0.99) / 1e3,
        });
        let shard = match self {
            Sut::Seq(_) => None,
            Sut::Sharded(w) => {
                let rt = w.runtime_metrics();
                let profile = w.profile_analysis().map(|a| {
                    let phase_ns = |phases: &[Phase]| -> u64 {
                        a.per_shard
                            .iter()
                            .map(|s| phases.iter().map(|p| s.phase_ns[p.index()]).sum::<u64>())
                            .sum()
                    };
                    let total = phase_ns(&Phase::ALL).max(1) as f64;
                    ShardProfile {
                        step_share: phase_ns(&[Phase::Step]) as f64 / total,
                        exchange_share: phase_ns(&[Phase::OutboxFill, Phase::ExchangeDrain]) as f64
                            / total,
                        efficiency: a.efficiency,
                        karp_flatt: a.karp_flatt,
                        spans_dropped: a.spans_dropped,
                    }
                });
                Some(ShardCounts {
                    threads: w.shards(),
                    windows: rt.counter("runner.windows"),
                    barrier_wait_ns: rt.counter("runner.barrier_wait_ns"),
                    exchanged_events: rt.counter("runner.exchanged_events"),
                    profile,
                })
            }
        };

        Harvest {
            digest,
            transport_quiescent,
            makespan_ns: now.nanos(),
            events,
            deliveries: deliveries.len() as u64,
            payload_bytes,
            flows: cab_sum("workload.flows"),
            rearms: cab_sum("workload.rearms"),
            replies: cab_sum("workload.replies"),
            hub_packets_forwarded: hub_sum("packets_forwarded"),
            hub_commands_executed: hub_sum("commands_executed"),
            hub_opens_retried: hub_sum("opens_retried"),
            hub_drops_overflows: hub_sum("drops") + hub_sum("overflows"),
            cab_checksum_ops: cab_sum("checksum_ops"),
            cab_dma_ops: cab_sum("dma.transfers"),
            cab_dma_bytes: cab_sum("dma.bytes_moved"),
            cab_packets_tx: cab_sum("packets_tx"),
            cab_packets_rx: cab_sum("packets_rx"),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            thread_switches: cab_sum("kernel.thread_switches"),
            interrupts: cab_sum("kernel.interrupts"),
            mailbox_rejects: cab_sum("mailbox_rejects"),
            stream_data_sent: cab_sum("transport.data_sent"),
            stream_retransmissions: cab_sum("transport.retransmissions"),
            rpc_calls,
            rpc_retransmissions: rpc_retx,
            rpc_timeouts,
            chaos_drops: ["drops", "burst_drops", "flap_drops", "cmd_drops", "port_drops"]
                .iter()
                .map(|k| reg.counter(&format!("chaos.{k}")))
                .sum(),
            chaos_duplicates: reg.counter("chaos.duplicates"),
            telemetry_dropped: ring.1,
            telemetry_ring_hwm: ring.0,
            flight,
            shard,
        }
    }
}

/// What the streaming doctor concluded, as plain numbers.
#[derive(Clone, Copy, Debug)]
pub struct DoctorOutcome {
    pub confident: bool,
    pub events_folded: u64,
    pub mem_estimate_bytes: u64,
    pub ring_dropped: u64,
}

/// Flight-latency quantiles (flight recorder on).
#[derive(Clone, Copy, Debug)]
pub struct FlightQuantiles {
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Host-time profile shares of the sharded runner (traced only).
#[derive(Clone, Copy, Debug)]
pub struct ShardProfile {
    pub step_share: f64,
    pub exchange_share: f64,
    pub efficiency: f64,
    pub karp_flatt: f64,
    pub spans_dropped: u64,
}

/// Counters of the sharded runner itself.
#[derive(Clone, Copy, Debug)]
pub struct ShardCounts {
    pub threads: usize,
    pub windows: u64,
    pub barrier_wait_ns: u64,
    pub exchanged_events: u64,
    pub profile: Option<ShardProfile>,
}

/// Every count one repetition yields. All exact and repeatable except
/// `shard.barrier_wait_ns`, the profile shares and `telemetry_ring_hwm`.
#[derive(Clone, Debug)]
pub struct Harvest {
    pub digest: u64,
    pub transport_quiescent: bool,
    pub makespan_ns: u64,
    pub events: u64,
    pub deliveries: u64,
    pub payload_bytes: u64,
    pub flows: u64,
    pub rearms: u64,
    pub replies: u64,
    pub hub_packets_forwarded: u64,
    pub hub_commands_executed: u64,
    pub hub_opens_retried: u64,
    pub hub_drops_overflows: u64,
    pub cab_checksum_ops: u64,
    pub cab_dma_ops: u64,
    pub cab_dma_bytes: u64,
    pub cab_packets_tx: u64,
    pub cab_packets_rx: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub thread_switches: u64,
    pub interrupts: u64,
    pub mailbox_rejects: u64,
    pub stream_data_sent: u64,
    pub stream_retransmissions: u64,
    pub rpc_calls: u64,
    pub rpc_retransmissions: u64,
    pub rpc_timeouts: u64,
    pub chaos_drops: u64,
    pub chaos_duplicates: u64,
    pub telemetry_dropped: u64,
    pub telemetry_ring_hwm: u64,
    pub flight: Option<FlightQuantiles>,
    pub shard: Option<ShardCounts>,
}

// ---------------------------------------------------------------
// Isolated per-layer loops (I): host ns per call of a layer's public
// functions, with the operand sizes the workloads use.
// ---------------------------------------------------------------

/// Host nanoseconds per operation, one field per `(I)` metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct Isolated {
    pub sched_pop_d1k: f64,
    pub sched_pop_d100k: f64,
    pub cancel: f64,
    pub hub_forward: f64,
    pub crossbar_connect: f64,
    pub checksum_32: f64,
    pub checksum_960: f64,
    pub checksum_8192: f64,
    pub sched_run: f64,
    pub mailbox_append_take: f64,
    pub header_encode: f64,
    pub header_decode: f64,
    pub bytestream_msg_8192: f64,
    /// Data segments one 8 KiB byte-stream message fragments into.
    pub bytestream_segments_8192: u64,
    pub reqresp_call: f64,
    pub datagram_send: f64,
    pub workload_gen_per_flow: f64,
    pub workload_compile: f64,
    pub chaos_on_packet: f64,
    pub telemetry_record_enabled: f64,
    pub telemetry_record_disabled: f64,
    pub streaming_ingest_per_event: f64,
    pub topology_build: f64,
    pub topology_route: f64,
}

/// A cheap deterministic sequence for operand variation inside loops.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// The classic hold model: a queue kept at `depth` pending events, each
/// operation pops the earliest and schedules a replacement.
fn sched_pop_ns(depth: usize) -> f64 {
    let mut eng: Engine<u32> = Engine::with_capacity(depth);
    let mut rng = depth as u64;
    for i in 0..depth {
        eng.schedule(Dur::from_nanos(1 + lcg(&mut rng) % 1_000_000), i as u32);
    }
    ns_per_op(|| {
        let ev = eng.step().expect("hold model keeps the queue full");
        eng.schedule(Dur::from_nanos(1 + lcg(&mut rng) % 1_000_000), black_box(ev));
    })
}

/// Timer arm + cancel against a 1,000-deep queue (one RPC call's
/// retransmission timer that never fires).
fn cancel_ns() -> f64 {
    let mut eng: Engine<u32> = Engine::with_capacity(1024);
    let mut rng = 7u64;
    for i in 0..1000 {
        eng.schedule(Dur::from_nanos(1 + lcg(&mut rng) % 1_000_000), i);
    }
    ns_per_op(|| {
        let id = eng.schedule(Dur::from_millis(1), 0);
        black_box(eng.cancel(id));
    })
}

/// One packet-switched hop through one HUB: test-open with retry, a
/// 32-byte packet, close-all — driven to idle on a private engine.
fn hub_forward_ns() -> f64 {
    enum HubEv {
        Arrive(PortId, Item),
        Internal(InternalEv),
    }
    let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
    let mut eng: Engine<HubEv> = Engine::new();
    let mut fx = Effects::new();
    let (input, output) = (PortId::new(4), PortId::new(8));
    let mut id = 0u64;
    let ns = ns_per_op(|| {
        id += 1;
        let open = Command::open(true, true, false, HubId::new(0), output);
        eng.schedule(Dur::from_nanos(0), HubEv::Arrive(input, open.into()));
        eng.schedule(
            Dur::from_nanos(240),
            HubEv::Arrive(input, Packet::new(id, vec![0u8; 32]).into()),
        );
        eng.schedule(Dur::from_nanos(3_000), HubEv::Arrive(input, Item::CloseAll));
        while let Some(ev) = eng.step() {
            let now = eng.now();
            fx.clear();
            match ev {
                HubEv::Arrive(port, item) => hub.item_arrives(now, port, item, &mut fx),
                HubEv::Internal(ie) => hub.internal(now, ie, &mut fx),
            }
            black_box(fx.emissions.len());
            for i in fx.internal.drain(..) {
                eng.schedule_at(i.at, HubEv::Internal(i.ev));
            }
        }
        // The downstream peer acknowledges start-of-packet, as a CAB
        // would, so the output is ready for the next test-open.
        fx.clear();
        hub.ready_signal_arrives(eng.now(), output, &mut fx);
    });
    assert_eq!(hub.counters().packets_forwarded, id, "every isolated HUB hop forwards its packet");
    ns
}

fn crossbar_connect_ns() -> f64 {
    let mut xb = Crossbar::new(16);
    let mut i = 0u8;
    ns_per_op(|| {
        i = (i + 1) % 8;
        xb.connect(PortId::new(i), PortId::new(15 - i)).expect("output was just released");
        black_box(xb.disconnect_output(PortId::new(15 - i)));
    })
}

fn checksum_ns(len: usize) -> f64 {
    let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
    ns_per_op(|| {
        black_box(fletcher16(black_box(&data)));
    })
}

/// Alternating bursts on two threads, so every call pays the modelled
/// switch as a delivery to an application thread does.
fn sched_run_ns() -> f64 {
    let mut sched = Scheduler::new(CabTimings::prototype());
    let threads = [sched.spawn("protocol"), sched.spawn("application")];
    let (mut now, mut i) = (Time::ZERO, 0usize);
    ns_per_op(|| {
        i ^= 1;
        let (_, end) = sched.run(now, threads[i], Dur::from_micros(2));
        now = black_box(end);
    })
}

fn mailbox_append_take_ns() -> f64 {
    let mut mb = Mailbox::new("isolated", 256 * 1024);
    let payload: std::sync::Arc<[u8]> = vec![0u8; 32].into();
    let mut id = 0u64;
    ns_per_op(|| {
        id += 1;
        mb.append(Message::new(id, 0, payload.clone())).expect("mailbox drained each round");
        black_box(mb.take_next());
    })
}

fn header_codec_ns() -> (f64, f64) {
    let payload = vec![0xA5u8; 960];
    let header = Header {
        payload_len: payload.len() as u16,
        ..Header::new(PacketKind::Data, CabId::new(0), CabId::new(1))
    };
    let wire = header.encode_with(&payload);
    let encode = ns_per_op(|| {
        black_box(header.encode_with(black_box(&payload)));
    });
    let decode = ns_per_op(|| {
        black_box(Header::decode(black_box(&wire)).expect("round-trips"));
    });
    (encode, decode)
}

/// One 8 KiB message through a sender and a receiver byte-stream state
/// machine, packets and acks handed across directly. Returns ns per
/// message and the data segments per message.
fn bytestream_msg_ns() -> (f64, u64) {
    let data = vec![7u8; 8192];
    let mut segments = 0u64;
    let mut messages = 0u64;
    let ns = ns_per_op(|| {
        let cfg = ByteStreamConfig::default();
        let mut tx = ByteStream::new(CabId::new(0), CabId::new(1), cfg);
        let mut rx = ByteStream::new(CabId::new(1), CabId::new(0), cfg);
        let mut pending = Vec::new();
        tx.send_message(Time::ZERO, 1, 2, &data, &mut pending);
        messages += 1;
        let mut delivered = 0usize;
        while !pending.is_empty() {
            let mut next = Vec::new();
            for action in pending.drain(..) {
                if let Action::Send { header, payload, .. } = action {
                    let to_rx = header.dst_cab == CabId::new(1);
                    segments += (to_rx && header.kind == PacketKind::Data) as u64;
                    let target = if to_rx { &mut rx } else { &mut tx };
                    let mut out = Vec::new();
                    target.on_packet(Time::ZERO, &header, &payload, &mut out);
                    for a in out {
                        match a {
                            Action::Deliver { .. } => delivered += 1,
                            a @ Action::Send { .. } => next.push(a),
                            _ => {}
                        }
                    }
                }
            }
            pending = next;
        }
        assert_eq!(delivered, 1, "the 8 KiB message reassembles exactly once");
    });
    (ns, segments / messages.max(1))
}

/// One request-response call: client call, server receive + respond,
/// client receive (which cancels the retransmission timer).
fn reqresp_call_ns() -> f64 {
    let cfg = ReqRespConfig::default();
    let mut client = ReqRespClient::new(CabId::new(0), cfg);
    let mut server = ReqRespServer::new(CabId::new(1), cfg);
    let (request, response) = (vec![1u8; 160], vec![2u8; 160]);
    let (mut out, mut reply) = (Vec::new(), Vec::new());
    ns_per_op(|| {
        out.clear();
        let tx = client.call(Time::ZERO, CabId::new(1), 5, 80, &request, &mut out);
        let Some(Action::Send { header, payload, .. }) = out.first() else {
            unreachable!("a call within the packet limit sends its request first")
        };
        reply.clear();
        server.on_packet(Time::ZERO, header, payload, &mut reply);
        reply.clear();
        server.respond(Time::ZERO, CabId::new(0), tx, &response, &mut reply);
        let Some(Action::Send { header, payload, .. }) = reply.first() else {
            unreachable!("a pending request is answered with a send")
        };
        out.clear();
        client.on_packet(Time::ZERO, header, payload, &mut out);
        black_box(out.len());
    })
}

fn datagram_send_ns() -> f64 {
    let mut tx = Datagram::new(CabId::new(0));
    let mut rx = Datagram::new(CabId::new(1));
    let data = vec![3u8; 32];
    let (mut out, mut delivered) = (Vec::new(), Vec::new());
    ns_per_op(|| {
        out.clear();
        tx.send(Time::ZERO, CabId::new(1), 1, 2, &data, &mut out);
        let Some(Action::Send { header, payload, .. }) = out.first() else {
            unreachable!("a 32-byte datagram fits one packet")
        };
        delivered.clear();
        rx.on_packet(Time::ZERO, header, payload, &mut delivered);
        black_box(delivered.len());
    })
}

fn cluster_of(topo: &Topology) -> Vec<u16> {
    (0..topo.cab_count()).map(|c| topo.cab_attachment(c).0 as u16).collect()
}

fn workload_ns(traffic: &str) -> Result<(f64, f64), String> {
    let topo = Topology::mesh2d(4, 4, 4, 16);
    let compile = ns_per_op(|| {
        let spec = WorkloadSpec::parse(1, traffic).expect("checked by the caller's own parse");
        black_box(spec.compile(cluster_of(&topo)).expect("compiles on the mesh"));
    });
    let mut gen = WorkloadSpec::parse(1, traffic)?.compile(cluster_of(&topo))?;
    let mut cab = 0u16;
    let per_flow = ns_per_op(|| {
        cab = (cab + 1) % 64;
        black_box(gen.closed_flow(0, cab));
    });
    Ok((per_flow, compile))
}

fn chaos_on_packet_ns(chaos: &str) -> Result<f64, String> {
    let mut injector = ChaosSchedule::parse(1, chaos)?.compile();
    let (mut now, mut cab) = (0u64, 0u16);
    Ok(ns_per_op(|| {
        now += 1_000;
        cab = (cab + 1) % 64;
        black_box(injector.on_cab_packet(Time::from_nanos(now), cab, 64));
    }))
}

fn telemetry_record_ns(enabled: bool) -> f64 {
    let mut tel = Telemetry::with_capacity(1 << 16);
    tel.set_enabled(enabled);
    let mut now = 0u64;
    ns_per_op(|| {
        now += 70;
        tel.record(
            Time::from_nanos(now),
            FlightId(now),
            black_box(EventKind::CrossbarForward { hub: 0, input: 3, output: 8, bytes: 96 }),
        );
    })
}

/// Captures the telemetry of a short observed run on the mesh, then
/// times a fresh streaming doctor folding it in time-disjoint batches.
fn streaming_ingest_ns() -> Result<f64, String> {
    const CAPTURE: &str = "closed(16,0ns,fixed(32),uniform,datagram)[0ns..2ms]";
    let mut world = World::new(Topology::mesh2d(4, 4, 4, 16), SystemConfig::default());
    world.enable_observability();
    world.set_workload(&WorkloadSpec::parse(1, CAPTURE)?)?;
    world.run_to_quiescence(DEADLINE);
    let events = world.telemetry_events();
    if events.is_empty() {
        return Err("the capture run recorded no telemetry".into());
    }
    // Batches must be time-disjoint: cut only where the timestamp changes.
    let mut batches: Vec<Vec<TelemetryEvent>> = vec![Vec::new()];
    for ev in &events {
        let last = batches.last_mut().expect("starts non-empty");
        if last.len() >= 2048 && last.last().is_some_and(|p| p.at < ev.at) {
            batches.push(vec![*ev]);
        } else {
            last.push(*ev);
        }
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut replay = batches.clone();
            let t0 = std::time::Instant::now();
            let mut doctor =
                nectar_sim::analysis::streaming::StreamingDoctor::new(StreamConfig::default());
            for batch in &mut replay {
                doctor.ingest(batch);
            }
            black_box(doctor.events_folded());
            t0.elapsed().as_nanos() as f64 / events.len() as f64
        })
        .collect();
    Ok(crate::stats::median(&samples))
}

fn topology_ns(fabric: Fabric) -> (f64, f64) {
    let build = ns_per_op(|| {
        black_box(build_topology(fabric));
    });
    let topo = build_topology(fabric).0;
    let cabs = topo.cab_count();
    let mut i = 0usize;
    let route = ns_per_op(|| {
        i = (i + 1) % cabs;
        black_box(topo.route(i, (i + cabs / 2 + 1) % cabs).expect("the fabric is connected"));
    });
    (build, route)
}

/// Runs every isolated loop (about two seconds in total). `traffic`,
/// `chaos` and `fabric` are the workload's own, so generator, injector
/// and topology costs are measured on its operands; workloads without a
/// fault program time the standing loss + duplication pair.
pub fn isolated(fabric: Fabric, traffic: &str, chaos: Option<&str>) -> Result<Isolated, String> {
    let (header_encode, header_decode) = header_codec_ns();
    let (bytestream_msg_8192, bytestream_segments_8192) = bytestream_msg_ns();
    let (workload_gen_per_flow, workload_compile) = workload_ns(traffic)?;
    let (topology_build, topology_route) = topology_ns(fabric);
    Ok(Isolated {
        sched_pop_d1k: sched_pop_ns(1_000),
        sched_pop_d100k: sched_pop_ns(100_000),
        cancel: cancel_ns(),
        hub_forward: hub_forward_ns(),
        crossbar_connect: crossbar_connect_ns(),
        checksum_32: checksum_ns(32),
        checksum_960: checksum_ns(960),
        checksum_8192: checksum_ns(8192),
        sched_run: sched_run_ns(),
        mailbox_append_take: mailbox_append_take_ns(),
        header_encode,
        header_decode,
        bytestream_msg_8192,
        bytestream_segments_8192,
        reqresp_call: reqresp_call_ns(),
        datagram_send: datagram_send_ns(),
        workload_gen_per_flow,
        workload_compile,
        chaos_on_packet: chaos_on_packet_ns(chaos.unwrap_or("loss(0.003);dup(0.01)"))?,
        telemetry_record_enabled: telemetry_record_ns(true),
        telemetry_record_disabled: telemetry_record_ns(false),
        streaming_ingest_per_event: streaming_ingest_ns()?,
        topology_build,
        topology_route,
    })
}
