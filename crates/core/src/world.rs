//! The world: every HUB and CAB wired to one discrete-event engine.
//!
//! [`World`] is the executable form of a [`Topology`]: it owns the HUB
//! state machines, one board model per CAB and the event queue, runs
//! the event loop and the workload generator, and records every
//! delivery, completion and error for the experiment harness.

use crate::cab::{self, Cab, Ctx, TimerSource};
use crate::fold::StreamFold;
use crate::shard::{ShardCtx, ShardPlan};
use crate::topology::{Peer, Topology};
use nectar_cab::timings::CabTimings;
use nectar_hub::command::Reply;
use nectar_hub::config::HubConfig;
use nectar_hub::effects::{Effects, InternalEv, Wire};
use nectar_hub::hub::Hub;
use nectar_hub::id::{HubId, PortId};
use nectar_hub::item::{Item, Packet};
use nectar_hub::train::{Tie, Train};
use nectar_kernel::mailbox::Mailbox;
use nectar_kernel::thread::Scheduler;
use nectar_proto::header::MAX_FRAGMENT_PAYLOAD;
use nectar_proto::transport::bytestream::{ByteStreamConfig, ByteStreamStats};
use nectar_proto::transport::reqresp::ReqRespConfig;
use nectar_proto::transport::{TimerToken, TransportError};
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::bytes::Bytes;
use nectar_sim::chaos::{ChaosInjector, ChaosSchedule, ChaosStats, Clause, Fault};
use nectar_sim::engine::Engine;
use nectar_sim::hash::FoldMap;
use nectar_sim::metrics::{Histogram, MetricsRegistry};
use nectar_sim::telemetry::{Telemetry, TelemetryEvent};
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::{
    Shape, SizeDist, Transport as FlowTransport, WorkloadGen, WorkloadSpec,
};

pub use crate::cab::{CabCounters, READY_TIMEOUT};

/// How the datalink moves data packets (DESIGN.md §5 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchingMode {
    /// §4.2.3: per-packet `test open` commands, data, `close all`.
    /// Flow-controlled by the HUB ready bits; the default.
    PacketSwitched,
    /// §4.2.1 with a one-entry connection cache: open a circuit to the
    /// current destination and keep it; packets to the same CAB flow
    /// with no commands at all. (A CAB has one input port at its HUB,
    /// so at most one circuit can be open at a time — a second one
    /// would multicast.)
    CircuitCached,
}

/// Configuration of a whole Nectar system.
///
/// Fibres add no propagation delay: the paper quotes its latencies
/// "excluding the transmission delays of the optical fibers".
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// HUB hardware parameters.
    pub hub: HubConfig,
    /// CAB cost model.
    pub cab: CabTimings,
    /// Byte-stream transport tuning.
    pub stream: ByteStreamConfig,
    /// Request-response transport tuning.
    pub rpc: ReqRespConfig,
    /// Node OS cost model (used by the node-level probes).
    pub node: crate::node::NodeConfig,
    /// Datalink switching policy.
    pub switching: SwitchingMode,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            hub: HubConfig::prototype(),
            cab: CabTimings::prototype(),
            stream: ByteStreamConfig::default(),
            rpc: ReqRespConfig::default(),
            node: crate::node::NodeConfig::sun_workstation(),
            switching: SwitchingMode::PacketSwitched,
        }
    }
}

/// Why [`World::run_to_quiescence`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuiescenceOutcome {
    /// The event queue drained; the clock reads the settling time.
    Quiescent,
    /// Events were still pending past the deadline.
    DeadlineReached,
}

/// A world event.
#[derive(Clone, Debug)]
pub(crate) enum Ev {
    /// An item's head reaches a HUB port.
    HubItem {
        /// HUB index.
        hub: usize,
        /// Arrival port.
        port: PortId,
        /// The item.
        item: Item,
    },
    /// The head of a packet-switched train reaches a HUB port: the
    /// route's last `opens` test-opens (the first addressed to this
    /// HUB), the packet and `close all`, back to back.
    HubTrain {
        /// HUB index.
        hub: usize,
        /// Arrival port.
        port: PortId,
        /// Test-opens still at the front of the train.
        opens: u8,
        /// The packet.
        packet: Packet,
        /// The route: `(source CAB << 32) | destination CAB`.
        route: u64,
    },
    /// A flow-control ready signal reaches a HUB port.
    HubReady {
        /// HUB index.
        hub: usize,
        /// The port whose ready bit is set.
        port: PortId,
    },
    /// A deferred HUB-internal transition comes due.
    HubInternal {
        /// HUB index.
        hub: usize,
        /// The transition.
        ev: InternalEv,
    },
    /// An item's head reaches a CAB's fiber input.
    CabItem {
        /// CAB index.
        cab: usize,
        /// The item.
        item: Item,
    },
    /// A chaos-injected re-arrival (a duplicated or reorder-delayed
    /// packet). Processed exactly like [`Ev::CabItem`] but bypasses the
    /// injector, so chaos cannot cascade on its own products.
    CabItemReplay {
        /// CAB index.
        cab: usize,
        /// The item.
        item: Item,
    },
    /// A flow-control ready signal reaches a CAB.
    CabReadySignal {
        /// CAB index.
        cab: usize,
    },
    /// A received packet has fully DMA'd into CAB memory. The event
    /// holds the packet itself: its wire bytes (header + payload) are
    /// the buffer the sender encoded, never copied on the way.
    CabPacketReady {
        /// CAB index.
        cab: usize,
        /// The packet; its id is the flight id.
        packet: Packet,
    },
    /// A protocol timer expires on a CAB.
    CabTimer {
        /// CAB index.
        cab: usize,
        /// Which protocol armed it.
        source: TimerSource,
        /// The protocol's token.
        token: TimerToken,
    },
    /// The CAB's datalink ready-timeout fires (lost-command recovery).
    CabReadyTimeout {
        /// CAB index.
        cab: usize,
        /// Generation guard (stale timeouts are ignored).
        gen: u64,
    },
    /// A scheduled application send fires.
    AppSend {
        /// Sending CAB index.
        cab: usize,
        /// What to send.
        send: AppSend,
    },
    /// An open-loop workload arrival fires on a CAB: emit one flow and
    /// schedule the next arrival from the class's per-CAB stream.
    WorkloadTick {
        /// Source CAB index.
        cab: usize,
        /// Workload class index.
        class: usize,
    },
    /// Closed-loop workload tokens launch their next flows from `cab`:
    /// the CAB's whole population at the class window start, one token
    /// on every re-arm after a delivery plus think time.
    WorkloadLaunch {
        /// Source CAB index.
        cab: usize,
        /// Workload class index.
        class: usize,
        /// Flows to launch, in order.
        count: u32,
    },
    /// The workload auto-responder on `cab` answers a pending RPC.
    WorkloadReply {
        /// Serving CAB index.
        cab: usize,
        /// Workload class index.
        class: usize,
        /// Calling CAB index.
        client: usize,
        /// RPC transaction id.
        tx: u32,
    },
}

// Every queued event is an `Ev` in the engine's slab, and `spike` keeps
// up to 7,519 of them pending; a packet rides in one as an id and a
// pointer, never inline.
const _: () = assert!(size_of::<Ev>() <= 56);

/// Names of the per-kind event counters, in [`Ev::kind`] order. A HUB
/// item arrival is split by what arrived and a HUB-internal event by
/// its transition, because those are the units events per message
/// decompose into.
const EV_KINDS: [&str; 20] = [
    "hub_item.command",
    "hub_item.packet",
    "hub_item.close_all",
    "hub_item.reply",
    "hub_train",
    "hub_ready",
    "hub_internal.ctrl_exec",
    "hub_internal.head_done",
    "hub_internal.overflow_check",
    "hub_internal.stuck_check",
    "cab_item",
    "cab_item_replay",
    "cab_ready_signal",
    "cab_packet_ready",
    "cab_timer",
    "cab_ready_timeout",
    "app_send",
    "workload_tick",
    "workload_launch",
    "workload_reply",
];

impl Ev {
    /// Index of this event's counter in [`EV_KINDS`].
    fn kind(&self) -> usize {
        match self {
            Ev::HubItem { item: Item::Command(_), .. } => 0,
            Ev::HubItem { item: Item::Packet(_), .. } => 1,
            Ev::HubItem { item: Item::CloseAll, .. } => 2,
            Ev::HubItem { item: Item::Reply(_), .. } => 3,
            Ev::HubTrain { .. } => 4,
            Ev::HubReady { .. } => 5,
            Ev::HubInternal { ev: InternalEv::CtrlExec { .. }, .. } => 6,
            Ev::HubInternal { ev: InternalEv::HeadDone { .. }, .. } => 7,
            Ev::HubInternal { ev: InternalEv::OverflowCheck { .. }, .. } => 8,
            Ev::HubInternal { ev: InternalEv::StuckCheck { .. }, .. } => 9,
            Ev::CabItem { .. } => 10,
            Ev::CabItemReplay { .. } => 11,
            Ev::CabReadySignal { .. } => 12,
            Ev::CabPacketReady { .. } => 13,
            Ev::CabTimer { .. } => 14,
            Ev::CabReadyTimeout { .. } => 15,
            Ev::AppSend { .. } => 16,
            Ev::WorkloadTick { .. } => 17,
            Ev::WorkloadLaunch { .. } => 18,
            Ev::WorkloadReply { .. } => 19,
        }
    }
}

/// An application-level send request.
#[derive(Clone, Debug)]
pub enum AppSend {
    /// Reliable byte-stream message.
    Stream {
        /// Destination CAB.
        dst: usize,
        /// Sending mailbox.
        src_mailbox: u16,
        /// Destination mailbox.
        dst_mailbox: u16,
        /// Payload.
        data: Bytes,
    },
    /// Unreliable datagram.
    Datagram {
        /// Destination CAB.
        dst: usize,
        /// Sending mailbox.
        src_mailbox: u16,
        /// Destination mailbox.
        dst_mailbox: u16,
        /// Payload.
        data: Bytes,
    },
    /// Request-response call.
    Rpc {
        /// Destination CAB.
        dst: usize,
        /// Local mailbox for the response.
        reply_mailbox: u16,
        /// Remote service mailbox.
        service_mailbox: u16,
        /// Request payload.
        data: Bytes,
    },
    /// Hardware multicast datagram (§4.2.2/4.2.4).
    Multicast {
        /// Destination CABs.
        dsts: Vec<usize>,
        /// Sending mailbox.
        src_mailbox: u16,
        /// Destination mailbox on every receiver.
        dst_mailbox: u16,
        /// Payload.
        data: Bytes,
    },
}

/// One recorded message delivery (receiver side, after the application
/// thread has been handed the message).
///
/// The log keeps one per delivered message for the whole run, so each
/// field is as wide as the model needs: a CAB index fits 16 bits (at
/// most 256 HUBs of 256 ports) and a delivered message fits its
/// 256 KiB mailbox, so its length fits 32. Field order packs the
/// record into 24 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving CAB.
    pub cab: u16,
    /// Receiving mailbox.
    pub mailbox: u16,
    /// Payload length.
    pub len: u32,
    /// Message id (per sender protocol instance).
    pub msg_id: u64,
    /// When the application thread had the message.
    pub at: Time,
}

/// One sender-side completion: `(cab, msg_id, at)`, 16 bytes.
pub type Completion = (u16, u32, Time);

const _: () = assert!(std::mem::size_of::<Delivery>() == 24);
const _: () = assert!(std::mem::size_of::<Completion>() == 16);

/// What [`World::pool_stats`] returns: always zero. The world keeps no
/// pool of wire buffers — a packet is its header plus a shared payload,
/// freed when the last holder drops it. The type is kept only because
/// the standing benchmark's harness (`benchmark/src/sut.rs`) reads
/// these two fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub misses: u64,
}

/// First mailbox id the workload generator reserves for itself. Class
/// `c` delivers data (and RPC requests) to `BASE + 2c` and RPC replies
/// to `BASE + 2c + 1`; the delivery hook consumes workload mailboxes
/// immediately, so they never accumulate memory.
const WORKLOAD_MAILBOX_BASE: u16 = 0x7000;

/// Per-CAB workload accounting. Each counter is only ever incremented
/// by the CAB's owning shard, so summing across shard registries — the
/// same merge every `cab{c}.*` counter uses — yields the global value.
#[derive(Clone, Copy, Debug, Default)]
struct WorkloadCounters {
    /// Flows launched (open-loop arrivals + closed-loop launches).
    flows: u64,
    /// Payload bytes offered across those flows.
    bytes: u64,
    /// Closed-loop tokens re-armed by a delivery.
    rearms: u64,
    /// RPC requests auto-answered by the serving CAB.
    replies: u64,
}

/// An attached traffic generator: the compiled spec plus accounting.
pub(crate) struct WorkloadState {
    generator: WorkloadGen,
    counters: Vec<WorkloadCounters>,
    /// Zeros as many as the largest flow the program can draw (at most
    /// `MAX_FLOW_BYTES`), made once: every flow's payload, and every
    /// reply's, is a slice of it, so no flow allocates or copies a
    /// payload and the bytes in flight all live in one buffer.
    zeros: Bytes,
}

impl WorkloadState {
    /// Delivery hook: a message landing in a workload mailbox is
    /// consumed immediately (workload mailboxes never accumulate), RPC
    /// requests schedule the auto-responder, and closed-loop tokens
    /// re-arm after think time. `id`/`tag` come from the delivered
    /// message: the RPC server delivers requests with id = transaction
    /// and tag = calling CAB. Returns the event for that CAB to schedule.
    pub(crate) fn on_deliver(
        &mut self,
        delivery: &Delivery,
        tag: u32,
        mailbox: &mut Mailbox,
    ) -> Option<(Time, Ev)> {
        let Delivery { cab, mailbox: address, msg_id: id, at: end, .. } = *delivery;
        let cab = usize::from(cab);
        let idx = address.checked_sub(WORKLOAD_MAILBOX_BASE)? as usize;
        let (class, is_reply_mb) = (idx >> 1, idx & 1 == 1);
        if class >= self.generator.class_count() {
            return None; // not a workload mailbox after all
        }
        let spec = *self.generator.class(class);
        mailbox.take_next();
        if matches!(spec.transport, FlowTransport::Rpc) && !is_reply_mb {
            // A request at the service mailbox: answer it. The reply
            // leaves when the responder event runs, charging the
            // server's application thread at that instant.
            return Some((
                end,
                Ev::WorkloadReply { cab, class, client: tag as usize, tx: id as u32 },
            ));
        }
        // A datagram/stream delivery — or an RPC reply back at the
        // caller: the token now lives here and re-arms after thinking.
        let Shape::Closed { think, .. } = spec.shape else { return None };
        let at = end.checked_add(think).filter(|&at| at < spec.until)?;
        self.counters[cab].rearms += 1;
        Some((at, Ev::WorkloadLaunch { cab, class, count: 1 }))
    }
}

/// The assembled, runnable Nectar system.
pub struct World {
    cfg: SystemConfig,
    topo: Topology,
    engine: Engine<Ev>,
    hubs: Vec<Hub>,
    cabs: Vec<Cab>,
    /// Every message delivery, in order.
    pub deliveries: Vec<Delivery>,
    /// Sender-side completions.
    pub completions: Vec<Completion>,
    /// Transport errors: `(cab, error, at)`.
    pub errors: Vec<(usize, TransportError, Time)>,
    /// Replies received by CABs (circuit acks, status answers).
    replies: Vec<(usize, Reply, Time)>,
    /// The compiled chaos schedule, consulted on every CAB packet
    /// arrival and every HUB item arrival. `None` = a clean network.
    chaos: Option<ChaosInjector>,
    /// The attached workload generator (`None` = externally driven).
    workload: Option<Box<WorkloadState>>,
    /// Packets destroyed by fault injection.
    pub faults_injected: u64,
    /// Events dispatched so far, by [`Ev::kind`]. Always on: one array
    /// increment per event.
    events_by_kind: [u64; EV_KINDS.len()],
    /// The batch [`run_window`](World::run_window) is dispatching
    /// (events with their keys, in descending key order: dispatched
    /// from the back); kept across calls so the steady state never
    /// allocates.
    batch: Vec<(u64, Ev)>,
    /// The place of the event being dispatched among the events of its
    /// instant, for [`Hub::settle`].
    tie: Tie,
    /// The instant of the last batch drained: a batch at the same
    /// instant holds events scheduled while that instant ran.
    last_batch_at: Option<Time>,
    /// Scratch the HUB entry points append their consequences to;
    /// drained into engine events after every call, capacity kept.
    hub_fx: Effects,
    /// World-level flight recorder: transport, DMA, app, and datalink
    /// events. Per-HUB and per-scheduler rings are separate; see
    /// [`telemetry_events`](World::telemetry_events) for the merge.
    telemetry: Telemetry,
    /// Send-to-delivery flight latency accounting.
    flights: Flights,
    /// Sharded-execution context (`None` when this world runs alone).
    shard: Option<ShardCtx>,
    /// Where the run loop drains the telemetry rings to, if anywhere.
    sink: TelemetrySink,
    /// Engine events processed since the last sink drain.
    sink_since: u64,
    /// Sink drain cadence in engine events.
    sink_drain_every: u64,
}

/// What the run loop does with the telemetry rings every
/// `sink_drain_every` events. Draining on an event cadence (rather than
/// per batch or per window) is what keeps a same-instant event burst
/// from overflowing a ring.
enum TelemetrySink {
    /// Nothing drains: the rings keep the most recent events for a
    /// post-hoc read.
    Rings,
    /// An attached streaming doctor folds every drain on its own
    /// thread (see [`attach_streaming`](World::attach_streaming)).
    Fold(Box<StreamFold>),
    /// Sharded streaming: drains buffer here; the owning worker thread
    /// collects the buffer after every window, and worker 0 hands the
    /// shards' drains to the fold thread at a rendezvous.
    Spill(Vec<TelemetryEvent>),
}

/// Send-to-delivery flight latency accounting, on with observability.
pub(crate) struct Flights {
    /// Master switch for flight tracking (latency accounting and the
    /// per-component telemetry rings). Off by default: the hot path
    /// pays one branch.
    on: bool,
    /// `true` when a unicast flight, alone and packet-switched, reaches
    /// one CAB only and settles at its first delivery. Multicast and a
    /// stale cached circuit (see `misrouted_rx`) reach several; those
    /// wait for the min-join at metrics time.
    settles_unicast: bool,
    /// `true` in a shard of a partitioned world: a flight born in
    /// another shard may end in this one.
    sharded: bool,
    /// Flight id -> time the packet was handed to the datalink, for
    /// flights that settle at delivery. A CAB's deliveries end in the
    /// order they are processed, so the first delivery is the
    /// earliest: it settles the latency into `latency` and drops the
    /// birth — the table holds flights in flight, not flights ever
    /// sent.
    open: FoldMap<u64, Time>,
    /// Latencies settled at delivery.
    latency: Histogram,
    /// Births of every other flight. These are never removed; their
    /// latency is a birth/end join at metrics time, so the accounting
    /// is insertion-order-independent (and therefore shardable).
    births: FoldMap<u64, Time>,
    /// Flight id -> earliest time any receiver's application had the
    /// packet, for the flights in `births` (min over deliveries:
    /// multicast delivers one flight to many CABs, and the receiver
    /// processed first need not finish first).
    ends: FoldMap<u64, Time>,
}

impl Flights {
    pub(crate) fn new(sharded: bool, switching: SwitchingMode) -> Flights {
        Flights {
            on: false,
            settles_unicast: !sharded && switching == SwitchingMode::PacketSwitched,
            sharded,
            open: FoldMap::default(),
            latency: Histogram::new(),
            births: FoldMap::default(),
            ends: FoldMap::default(),
        }
    }

    /// A packet was handed to the datalink at `at`: flight `id` is born.
    pub(crate) fn born(&mut self, id: u64, at: Time, multicast: bool) {
        if !self.on {
            return;
        }
        if self.settles_unicast && !multicast {
            self.open.insert(id, at);
        } else {
            self.births.insert(id, at);
        }
    }

    /// A receiver's application had flight `id`'s packet at `end`.
    pub(crate) fn ended(&mut self, id: u64, end: Time) {
        if !self.on {
            return;
        }
        if let Some(birth) = self.open.remove(&id) {
            self.latency.observe(end.saturating_since(birth).nanos());
        } else if self.sharded || self.births.contains_key(&id) {
            // Min-join, not first-wins: the earliest delivery of a
            // flight defines its latency, no matter which shard (or
            // batch position) processed it first.
            let slot = self.ends.entry(id).or_insert(end);
            *slot = (*slot).min(end);
        }
    }
}

/// Every recorder ring of world `$w`: its own, each HUB's, each CAB
/// kernel's. The other arguments pick a shared or an exclusive borrow.
macro_rules! rings {
    ($w:expr, $iter:ident, $ring:ident, $($borrow:tt)+) => {
        std::iter::once($($borrow)+ $w.telemetry)
            .chain($w.hubs.$iter().map(|hub| hub.$ring()))
            .chain($w.cabs.$iter().map(|cab| cab.$ring()))
    };
}

/// The exclusive window end that makes `deadline` inclusive: one
/// nanosecond later. Saturating, so nothing stamped `Time::MAX` ever
/// runs — the sharded runner reserves that instant for "no event".
fn just_after(deadline: Time) -> Time {
    Time::from_nanos(deadline.nanos().saturating_add(1))
}

impl World {
    /// Builds a world over `topo`.
    pub fn new(topo: Topology, cfg: SystemConfig) -> World {
        World::build(topo, cfg, None)
    }

    /// Builds one shard of a partitioned world: a full-topology world
    /// that only ever processes events for the components
    /// [`ShardPlan`] assigns to shard `id`. Cross-shard HUB traffic
    /// goes to the outbox instead of the local engine; everything
    /// else (non-owned component state) stays pristine, which is what
    /// makes the per-shard metrics registries merge into exactly the
    /// sequential one.
    pub(crate) fn new_shard(
        topo: Topology,
        cfg: SystemConfig,
        plan: std::sync::Arc<ShardPlan>,
        id: usize,
    ) -> World {
        let outbox = (0..plan.shards()).map(|_| Vec::new()).collect();
        World::build(topo, cfg, Some(ShardCtx { plan, id, outbox }))
    }

    fn build(topo: Topology, cfg: SystemConfig, shard: Option<ShardCtx>) -> World {
        let hubs = (0..topo.hub_count())
            .map(|i| {
                let mut hub = Hub::new(HubId::new(i as u8), cfg.hub.clone());
                // HUB keys sit above every CAB's `(cab << 40) | counter`.
                hub.set_key_base(((topo.cab_count() + i) as u64) << 40);
                hub
            })
            .collect();
        let cabs = (0..topo.cab_count()).map(|i| Cab::new(i, &cfg)).collect();
        let flights = Flights::new(shard.is_some(), cfg.switching);
        World {
            cfg,
            topo,
            engine: Engine::new(),
            hubs,
            cabs,
            deliveries: Vec::new(),
            completions: Vec::new(),
            errors: Vec::new(),
            replies: Vec::new(),
            chaos: None,
            workload: None,
            faults_injected: 0,
            events_by_kind: [0; EV_KINDS.len()],
            batch: Vec::new(),
            tie: Tie::FIRST,
            last_batch_at: None,
            hub_fx: Effects::new(),
            telemetry: Telemetry::default(),
            flights,
            shard,
            sink: TelemetrySink::Rings,
            sink_since: 0,
            sink_drain_every: u64::MAX,
        }
    }

    /// Switches on the flight recorder: typed telemetry in every HUB,
    /// every CAB kernel scheduler, and the world itself, plus
    /// send-to-delivery flight latency accounting. The default-off
    /// state costs the hot path one predictable branch per event.
    pub fn enable_observability(&mut self) {
        self.flights.on = true;
        for ring in rings!(self, iter_mut, telemetry_mut, &mut) {
            ring.set_enabled(true);
        }
    }

    /// `true` once [`enable_observability`](World::enable_observability)
    /// has been called.
    pub fn observability_enabled(&self) -> bool {
        self.flights.on
    }

    /// Every recorded telemetry event — the world's transport/DMA/app
    /// events merged with each HUB's crossbar events and each kernel
    /// scheduler's thread switches — sorted by timestamp.
    pub fn telemetry_events(&self) -> Vec<TelemetryEvent> {
        let mut all: Vec<TelemetryEvent> =
            rings!(self, iter, telemetry, &).flat_map(|ring| ring.events().copied()).collect();
        all.sort_by_key(|e| e.at);
        all
    }

    /// Moves every retained telemetry event (all component rings) onto
    /// `out`, leaving the rings empty. Order across rings is arbitrary;
    /// the streaming doctor takes a batch in any order.
    pub(crate) fn drain_telemetry_into(&mut self, out: &mut Vec<TelemetryEvent>) {
        for ring in rings!(self, iter_mut, telemetry_mut, &mut) {
            ring.drain_into(out);
        }
    }

    /// Smallest ring capacity across every component recorder — the
    /// bound the streaming drain cadence is derived from.
    pub(crate) fn min_telemetry_capacity(&self) -> usize {
        rings!(self, iter, telemetry, &)
            .map(Telemetry::capacity)
            .min()
            .expect("the world has a ring of its own")
    }

    /// Highest occupancy any component ring ever reached, and total
    /// events lost to ring overflow — the capture-pressure pair. The
    /// high-water mark depends on ring layout (per shard, per
    /// component) and on the streaming drain cadence, so it belongs in
    /// runtime reporting, not in the bit-compared metrics registry.
    pub fn telemetry_pressure(&self) -> (u64, u64) {
        rings!(self, iter, telemetry, &).fold((0, 0), |(hwm, dropped), ring| {
            (hwm.max(ring.high_water_mark() as u64), dropped + ring.dropped())
        })
    }

    /// Resizes every component telemetry ring (world, HUBs, kernel
    /// schedulers). Smaller rings stress capture pressure; streaming
    /// keeps analysis exact anyway because it drains before they fill.
    pub fn set_telemetry_capacity(&mut self, capacity: usize) {
        for ring in rings!(self, iter_mut, telemetry_mut, &mut) {
            ring.set_capacity(capacity);
        }
        self.retune_drain_cadence();
    }

    /// Sizes the sink drain cadence to the smallest ring, so no ring can
    /// reach capacity between drains.
    fn retune_drain_cadence(&mut self) {
        self.sink_drain_every = (self.min_telemetry_capacity() as u64 / 32).max(1);
    }

    /// Installs `sink` and restarts the drain cadence. Implies
    /// [`enable_observability`](World::enable_observability).
    fn set_sink(&mut self, sink: TelemetrySink) {
        self.enable_observability();
        self.sink = sink;
        self.sink_since = 0;
        self.retune_drain_cadence();
    }

    /// Arms the sharded-streaming spill path: ring drains on the
    /// in-window cadence, buffered locally for the shard runner to
    /// collect with [`take_spill`](World::take_spill).
    pub(crate) fn enable_telemetry_spill(&mut self) {
        self.set_sink(TelemetrySink::Spill(Vec::new()));
    }

    /// Moves everything captured so far — the spill buffer and the
    /// rings — into `out`.
    pub(crate) fn take_spill(&mut self, out: &mut Vec<TelemetryEvent>) {
        if let TelemetrySink::Spill(sp) = &mut self.sink {
            out.append(sp);
        }
        self.drain_telemetry_into(out);
    }

    /// Attaches a [`StreamingDoctor`]: from now on the run loop drains
    /// the telemetry rings into the incremental fold often enough that
    /// they can never fill, so analysis stays exact (and confident) at
    /// ring capacities far below the event count. The fold runs on a
    /// thread of its own, started by the first drain that holds an
    /// event; dropping the world joins it.
    pub fn attach_streaming(&mut self, cfg: StreamConfig) {
        self.set_sink(TelemetrySink::Fold(Box::new(StreamFold::new(cfg))));
    }

    /// Drains the rings into the sink. A streaming doctor is sent the
    /// drain with the clock as its boundary: it folds every event
    /// stamped before it. The drain runs between two events of one
    /// same-instant batch, and the rest of that batch still records at
    /// the clock's instant — never earlier, because every record site
    /// stamps at-or-after its processing instant — so no later batch
    /// reaches back before the clock. Each ring event is copied once,
    /// into the drain; the doctor holds those stamped at the clock or
    /// into the future back for a later one. (The next event time is
    /// not the boundary: with the batch popped it lies past events
    /// this instant has yet to record.) With `finish` the boundary is
    /// lifted and everything held back folds.
    fn drain_sink(&mut self, finish: bool) {
        match std::mem::replace(&mut self.sink, TelemetrySink::Rings) {
            TelemetrySink::Rings => {}
            TelemetrySink::Fold(mut fold) => {
                self.drain_telemetry_into(&mut fold.drain);
                fold.send((!finish).then(|| self.now()));
                self.sink = TelemetrySink::Fold(fold);
            }
            TelemetrySink::Spill(mut sp) => {
                self.drain_telemetry_into(&mut sp);
                self.sink = TelemetrySink::Spill(sp);
            }
        }
    }

    /// Counts one processed event toward the drain cadence and drains
    /// when due. One branch when no sink is attached.
    #[inline]
    fn telemetry_tick(&mut self) {
        if matches!(self.sink, TelemetrySink::Rings) {
            return;
        }
        self.sink_since += 1;
        if self.sink_since >= self.sink_drain_every {
            self.sink_since = 0;
            self.drain_sink(false);
        }
    }

    /// Detaches the streaming doctor after folding everything still
    /// pending (rings included) and joining the fold thread, stamping
    /// the observed ring pressure into it. A panic on the fold thread
    /// is raised here, if no earlier drain raised it. Returns `None` if
    /// streaming was never attached. Call at end of run, then build the
    /// report with [`StreamingDoctor::into_report`] over
    /// [`metrics`](World::metrics).
    pub fn finish_streaming(&mut self) -> Option<StreamingDoctor> {
        if !matches!(self.sink, TelemetrySink::Fold(_)) {
            return None;
        }
        self.drain_sink(true);
        let TelemetrySink::Fold(fold) = std::mem::replace(&mut self.sink, TelemetrySink::Rings)
        else {
            return None;
        };
        let mut doctor = fold.finish();
        let (hwm, dropped) = self.telemetry_pressure();
        doctor.note_ring(hwm, dropped);
        Some(doctor)
    }

    /// Harvests every counter in the system into one registry: HUB
    /// crossbar counters, CAB datalink counters, DMA accounting, kernel
    /// scheduler statistics, mailbox high-water marks, fiber
    /// utilization, and (when observability is on) the flight-latency
    /// histogram.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = self.metrics_without_flights();
        let mut flights = self.flights.latency.clone();
        join_flights(&self.flights.births, &self.flights.ends, &mut flights);
        if !flights.is_empty() {
            reg.merge_histogram("latency.flight_ns", &flights);
        }
        reg
    }

    /// The flight birth (send) and end (first delivery) time maps, for
    /// the cross-shard latency join: a flight born in one shard may
    /// end in another, so the sharded runner joins globally. A shard
    /// world settles nothing at delivery, so these hold every flight.
    pub(crate) fn flight_times(&self) -> (&FoldMap<u64, Time>, &FoldMap<u64, Time>) {
        (&self.flights.births, &self.flights.ends)
    }

    /// Counters that describe how the run was executed rather than what
    /// was simulated: `engine.events_by_kind.*`, the events dispatched
    /// so far split by kind (they sum to
    /// [`events_processed`](World::events_processed); a kind that never
    /// fired is absent). Kept out of
    /// [`metrics`](World::metrics) so that fusing two events into one —
    /// same simulated behaviour, fewer events — leaves the bit-compared
    /// registry alone.
    pub fn runtime_metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (name, &n) in EV_KINDS.iter().zip(&self.events_by_kind) {
            if n > 0 {
                reg.counter_add(&format!("engine.events_by_kind.{name}"), n);
            }
        }
        reg
    }

    /// A hash of what the run simulated: every metric except the
    /// observation ones (`telemetry.*`, `latency.*`), the delivery list
    /// in canonical order, and the clock — no event count. Two runs of
    /// one scenario agree on it exactly when they simulated the same
    /// thing, at any shard count and with the recorder on or off.
    pub fn results_digest(&self) -> u64 {
        let mut deliveries: Vec<&Delivery> = self.deliveries.iter().collect();
        crate::shard::canonical_delivery_sort(&mut deliveries);
        crate::digest::results(&self.metrics(), deliveries, self.now())
    }

    /// A hash of the engine events the run took: the total and the
    /// split by kind of [`runtime_metrics`](World::runtime_metrics).
    pub fn event_digest(&self) -> u64 {
        crate::digest::events(self.events_processed(), &self.runtime_metrics())
    }

    /// Everything [`metrics`](World::metrics) collects except the
    /// flight-latency join (which needs global birth/end maps under
    /// sharded execution).
    pub(crate) fn metrics_without_flights(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (h, hub) in self.hubs.iter().enumerate() {
            hub.counters().register_into(&mut reg, &format!("hub{h}."));
        }
        for cab in &self.cabs {
            cab.register_into(&mut reg, self.now());
        }
        if let Some(wl) = &self.workload {
            for (c, k) in wl.counters.iter().enumerate() {
                reg.counter_add(&format!("cab{c}.workload.flows"), k.flows);
                reg.counter_add(&format!("cab{c}.workload.bytes"), k.bytes);
                reg.counter_add(&format!("cab{c}.workload.rearms"), k.rearms);
                reg.counter_add(&format!("cab{c}.workload.replies"), k.replies);
            }
        }
        if let Some(chaos) = self.chaos_stats() {
            reg.counter_add("chaos.drops", chaos.drops);
            reg.counter_add("chaos.burst_drops", chaos.burst_drops);
            reg.counter_add("chaos.flap_drops", chaos.flap_drops);
            reg.counter_add("chaos.duplicates", chaos.duplicates);
            reg.counter_add("chaos.reorders", chaos.reorders);
            reg.counter_add("chaos.corruptions", chaos.corruptions);
            reg.counter_add("chaos.cmd_drops", chaos.cmd_drops);
            reg.counter_add("chaos.port_drops", chaos.port_drops);
        }
        // Ring overflow across every recorder: nonzero means the event
        // stream is truncated and doctor findings must not be trusted.
        // The companion high-water mark is per-ring and therefore
        // shard-variant, so it lives in the runtime registry (see
        // `ExpCtx::absorb`), never in this bit-compared one.
        let (_, dropped) = self.telemetry_pressure();
        reg.counter_add("telemetry.dropped_events", dropped);
        reg
    }

    /// Installs a chaos schedule, replacing any previous one (and any
    /// clauses the [`inject_faults`](World::inject_faults) /
    /// [`inject_command_loss`](World::inject_command_loss) wrappers
    /// added). The compiled injector is consulted on every CAB packet
    /// arrival and every HUB item arrival; same schedule + same
    /// workload = byte-identical fault sequence.
    pub fn set_chaos(&mut self, schedule: ChaosSchedule) {
        self.chaos = Some(schedule.compile());
    }

    /// Applied-fault counters from the chaos injector.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.stats())
    }

    /// Appends `clause` to the active chaos schedule (seeding a fresh
    /// schedule with `seed` if none is armed) and recompiles. Clause
    /// RNG streams derive from the schedule seed and clause position,
    /// so earlier clauses keep their draws.
    fn add_chaos_clause(&mut self, seed: u64, clause: Clause) {
        let schedule = match self.chaos.take() {
            Some(inj) => inj.schedule().clone().with(clause),
            None => ChaosSchedule::new(seed).with(clause),
        };
        self.chaos = Some(schedule.compile());
    }

    /// Arms fault injection: arriving packets are dropped with
    /// `drop_probability` or bit-flipped with `corrupt_probability`
    /// (checksum-detected at the receiver), deterministically from
    /// `seed`. The transport protocols must recover (E10).
    ///
    /// Thin wrapper over the chaos subsystem: appends i.i.d.
    /// [`Fault::Loss`] and [`Fault::Corrupt`] clauses. For anything
    /// richer (bursts, duplication, reordering, flaps), build a
    /// [`ChaosSchedule`] and call [`set_chaos`](World::set_chaos).
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn inject_faults(&mut self, drop_probability: f64, corrupt_probability: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&drop_probability), "probability in [0,1]");
        assert!((0.0..=1.0).contains(&corrupt_probability), "probability in [0,1]");
        self.add_chaos_clause(seed, Clause::new(Fault::Loss { rate: drop_probability }));
        self.add_chaos_clause(seed, Clause::new(Fault::Corrupt { rate: corrupt_probability }));
    }

    /// Arms HUB-command loss: each command item arriving at a HUB is
    /// silently discarded with `drop_probability`. The datalink's
    /// stuck-item and ready-timeout recovery paths must keep traffic
    /// flowing (§6.2.1).
    ///
    /// Thin wrapper over the chaos subsystem (a
    /// [`Fault::CommandLoss`] clause); see
    /// [`set_chaos`](World::set_chaos).
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn inject_command_loss(&mut self, drop_probability: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&drop_probability), "probability in [0,1]");
        self.add_chaos_clause(seed, Clause::new(Fault::CommandLoss { rate: drop_probability }));
    }

    // ---------------------------------------------------------------
    // Workload generator
    // ---------------------------------------------------------------

    /// `true` when this world processes CAB `cab`'s events (always,
    /// unless sharded and the plan assigns the cluster elsewhere).
    fn owns_cab(&self, cab: usize) -> bool {
        match &self.shard {
            None => true,
            Some(ctx) => ctx.plan.shard_of_cab(&self.topo, cab) == ctx.id,
        }
    }

    /// Attaches a workload program: compiles `spec` against this
    /// topology and seeds the initial events — open-loop classes get
    /// one arrival tick per (class, owned CAB) offset by a first
    /// inter-arrival draw; closed-loop classes get one launch per
    /// (class, owned CAB) at the class window start, carrying that
    /// CAB's whole token population. Replaces any
    /// previous workload. Single-packet transports (datagram, RPC)
    /// cap flows at [`MAX_FRAGMENT_PAYLOAD`]; specs whose explicit
    /// sizes exceed it are rejected rather than silently clamped.
    pub fn set_workload(&mut self, spec: &WorkloadSpec) -> Result<(), String> {
        let cab_count = self.topo.cab_count();
        let cluster_of: Vec<u16> =
            (0..cab_count).map(|c| self.topo.cab_attachment(c).0 as u16).collect();
        let generator = spec.compile(cluster_of)?;
        for c in 0..generator.class_count() {
            let class = generator.class(c);
            if matches!(class.transport, FlowTransport::Stream) {
                continue; // byte streams fragment; any grammar size fits
            }
            let explicit_max = match class.size {
                SizeDist::Fixed(b) => b,
                SizeDist::Uniform { hi, .. } => hi,
                SizeDist::Pareto { mean, .. } => mean, // tail draws clamp at send
            };
            if explicit_max as usize > MAX_FRAGMENT_PAYLOAD {
                return Err(format!(
                    "class {c}: {} flows are single-packet, max {MAX_FRAGMENT_PAYLOAD} bytes \
                     (got {explicit_max})",
                    class.transport
                ));
            }
        }
        // Sized to the program rather than to `MAX_FLOW_BYTES`: a
        // buffer no larger than the flows keeps set-up from faulting
        // in pages no flow reads.
        let largest = (0..generator.class_count())
            .map(|c| generator.class(c).size.largest())
            .max()
            .unwrap_or(0);
        self.workload = Some(Box::new(WorkloadState {
            generator,
            counters: vec![WorkloadCounters::default(); cab_count],
            zeros: Bytes::zeroed(largest as usize),
        }));
        let wl = self.workload.as_ref().expect("just attached");
        let class_specs: Vec<nectar_sim::workload::ClassSpec> =
            (0..wl.generator.class_count()).map(|c| *wl.generator.class(c)).collect();
        for (c, class) in class_specs.into_iter().enumerate() {
            for cab in 0..cab_count {
                if !self.owns_cab(cab) {
                    continue;
                }
                let (at, ev) = match class.shape {
                    Shape::Open { .. } => {
                        let wl = self.workload.as_mut().expect("attached");
                        let delay = wl.generator.first_delay(c, self.cabs[cab].id().raw());
                        match class.from.checked_add(delay) {
                            Some(at) if at < class.until => {
                                (at, Ev::WorkloadTick { cab, class: c })
                            }
                            _ => continue,
                        }
                    }
                    Shape::Closed { tokens, .. } => {
                        (class.from, Ev::WorkloadLaunch { cab, class: c, count: tokens })
                    }
                };
                let key = self.cabs[cab].take_key();
                self.engine.schedule_at_keyed(at, key, ev);
            }
        }
        Ok(())
    }

    /// Emits one workload flow from `cab` at `now`: a zeroed payload
    /// of the drawn size — a slice of the shared zero buffer — over the
    /// class's transport, addressed to the class's data mailbox (reply
    /// mailbox for RPC responses).
    fn workload_send(&mut self, now: Time, cab: usize, class: usize, dst: usize, bytes: u32) {
        let wl = self.workload.as_mut().expect("workload event without a workload");
        let transport = wl.generator.class(class).transport;
        wl.counters[cab].flows += 1;
        wl.counters[cab].bytes += bytes as u64;
        let data_mb = WORKLOAD_MAILBOX_BASE + (class as u16) * 2;
        // Single-packet transports clamp heavy-tail draws; an RPC's
        // reply comes back to the mailbox after its class's.
        let single = (bytes as usize).min(MAX_FRAGMENT_PAYLOAD);
        let (src_mb, len) = match transport {
            FlowTransport::Stream => (data_mb, bytes as usize),
            FlowTransport::Datagram => (data_mb, single),
            FlowTransport::Rpc => (data_mb + 1, single),
        };
        let data = wl.zeros.slice(0..len);
        self.with_cab(cab, |c, x| c.send(x, now, transport, dst, src_mb, data_mb, data));
    }

    /// An open-loop arrival: emit the flow, schedule the next tick.
    fn workload_tick(&mut self, now: Time, cab: usize, class: usize) {
        let Some(wl) = self.workload.as_mut() else { return };
        let until = wl.generator.class(class).until;
        let (flow, next) = wl.generator.next_open(class, self.cabs[cab].id().raw());
        self.workload_send(now, cab, class, flow.dst as usize, flow.bytes);
        if let Some(at) = now.checked_add(next) {
            if at < until {
                let key = self.cabs[cab].take_key();
                self.engine.schedule_at_keyed(at, key, Ev::WorkloadTick { cab, class });
            }
        }
    }

    /// `count` closed-loop tokens fire: draw each one's flow and emit
    /// it. The drain cadence ticks per flow, as it would per event: a
    /// CAB's population fills the recorder's rings faster than one
    /// drain per launch empties them.
    fn workload_launch(&mut self, now: Time, cab: usize, class: usize, count: u32) {
        for i in 0..count {
            if i > 0 {
                self.telemetry_tick();
            }
            let Some(wl) = self.workload.as_mut() else { return };
            let flow = wl.generator.closed_flow(class, self.cabs[cab].id().raw());
            self.workload_send(now, cab, class, flow.dst as usize, flow.bytes);
        }
    }

    /// The serving CAB answers a workload RPC: response size drawn
    /// from the server's own stream. `respond` returning `false`
    /// (transaction retired by a client timeout) is fine — the
    /// transport already counted it.
    fn workload_reply(&mut self, cab: usize, class: usize, client: usize, tx: u32) {
        let Some(wl) = self.workload.as_mut() else { return };
        let id = self.cabs[cab].id().raw();
        let bytes = (wl.generator.reply_bytes(class, id) as usize).min(MAX_FRAGMENT_PAYLOAD);
        wl.counters[cab].replies += 1;
        let data = wl.zeros.slice(0..bytes);
        let now = self.now();
        self.with_cab(cab, |c, x| c.rpc_respond(x, now, client, tx, data));
    }

    /// The system configuration.
    pub(crate) fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The topology this world runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// The HUB at `idx` (for counters and status assertions).
    pub fn hub(&self, idx: usize) -> &Hub {
        &self.hubs[idx]
    }

    /// Replies received by each CAB, in arrival order: `(cab, reply,
    /// at)`. Populated by circuit-open acks and `query status` answers.
    pub fn replies(&self) -> &[(usize, Reply, Time)] {
        &self.replies
    }

    /// Interrogates a HUB's status table from `cab` (§4.1: "the status
    /// table ... can be interrogated by the CABs"). The three-byte
    /// `query status` command travels up the CAB's fiber; the reply
    /// comes back on the reverse path and lands in
    /// [`replies`](World::replies).
    ///
    /// For HUBs beyond the first, an open route must exist for the
    /// reply to traverse (§4.2.1) — queries about the first HUB always
    /// work.
    pub fn query_hub_status(&mut self, cab: usize, hub: HubId, port: PortId) {
        let now = self.now();
        self.with_cab(cab, |c, x| c.query_hub_status(x, now, hub, port));
    }

    /// Counters for CAB `idx`.
    pub fn cab_counters(&self, idx: usize) -> CabCounters {
        self.cabs[idx].counters()
    }

    /// The kernel scheduler of CAB `idx` (switch/interrupt statistics).
    pub fn cab_scheduler(&self, idx: usize) -> &Scheduler {
        self.cabs[idx].scheduler()
    }

    /// Fraction of elapsed time CAB `idx`'s outgoing fiber carried
    /// bits (raw wire occupancy, headers and commands included).
    pub fn fiber_utilization(&self, idx: usize) -> f64 {
        self.cabs[idx].fiber_utilization(self.now())
    }

    /// Byte-stream statistics from `src` towards `dst`, if any traffic
    /// has flowed.
    pub fn stream_stats(&self, src: usize, dst: usize) -> Option<ByteStreamStats> {
        self.cabs[src].stream_stats(dst)
    }

    /// `true` when every byte stream has drained (nothing in flight or
    /// backlogged) and no RPC calls are outstanding — the transport
    /// layer's part of the quiescence invariant.
    pub fn transport_quiescent(&self) -> bool {
        self.cabs.iter().all(Cab::transport_quiescent)
    }

    /// RPC client counters for CAB `idx`: `(calls, responses,
    /// timeouts, retransmissions)`.
    pub fn rpc_client_stats(&self, idx: usize) -> (u64, u64, u64, u64) {
        self.cabs[idx].rpc_client_stats()
    }

    /// RPC server counters for CAB `idx`: `(requests executed,
    /// duplicate requests suppressed, cached replays)`.
    pub fn rpc_server_stats(&self, idx: usize) -> (u64, u64, u64) {
        self.cabs[idx].rpc_server_stats()
    }

    // ---------------------------------------------------------------
    // Running
    // ---------------------------------------------------------------

    /// Processes events until the queue drains or the clock passes
    /// `deadline`; either way the clock ends at `deadline` (or later if
    /// it was already past it). Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let n = self.run_window(just_after(deadline));
        self.advance_clock(deadline);
        n
    }

    /// Live events still queued.
    pub fn pending_events(&self) -> usize {
        self.engine.pending()
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }

    /// Total extra packet copies the HUBs emitted beyond one per
    /// forward (multicast fan-out and stale circuit members).
    pub fn hub_fanout_copies(&self) -> u64 {
        self.hubs.iter().map(|h| h.counters().fanout_copies).sum()
    }

    /// All zero: the world keeps no buffer pool. See [`PoolStats`].
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }

    /// Timestamp of the next live event, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.engine.peek_time()
    }

    /// Runs for `dur` beyond the current clock.
    pub(crate) fn run_for(&mut self, dur: Dur) -> u64 {
        let deadline = self.now() + dur;
        self.run_until(deadline)
    }

    /// Runs until the event queue is empty or the clock would pass
    /// `deadline`, whichever comes first.
    ///
    /// Unlike [`run_until`](World::run_until), the clock is **not**
    /// advanced to the deadline when the system goes quiet early: it
    /// stays at the last event — or at the last controller attempt, if
    /// a HUB refused one after it — so the caller can read off when the
    /// system actually settled. Returns the events processed and which
    /// condition stopped the run.
    pub fn run_to_quiescence(&mut self, deadline: Time) -> (u64, QuiescenceOutcome) {
        let n = self.run_window(just_after(deadline));
        let end = self.now().max(self.last_command_at());
        if self.engine.peek_time().is_none() && end <= deadline {
            self.advance_clock(end);
            return (n, QuiescenceOutcome::Quiescent);
        }
        self.advance_clock(deadline);
        (n, QuiescenceOutcome::DeadlineReached)
    }

    /// When the last command any HUB has given a controller slot
    /// executes. A HUB resolves an attempt it refuses without an
    /// engine event, so a run can end on one after its last event.
    pub(crate) fn last_command_at(&self) -> Time {
        self.hubs.iter().map(Hub::last_command_at).max().unwrap_or(Time::ZERO)
    }

    /// Puts `item` on HUB `hub`'s `port` at `at`, keyed from CAB 0's
    /// counter: in call order, below every HUB key.
    #[cfg(test)]
    pub(crate) fn inject_hub_item(&mut self, at: Time, hub: usize, port: PortId, item: Item) {
        let key = self.cabs[0].take_key();
        self.engine.schedule_at_keyed(at, key, Ev::HubItem { hub, port, item });
    }

    // ---------------------------------------------------------------
    // Sharded execution hooks (driven by `shard::ShardedWorld`)
    // ---------------------------------------------------------------

    /// The one event loop: processes every queued event strictly
    /// before `end` and leaves the clock at the last processed event.
    /// Returns events processed. [`run_until`](World::run_until) and
    /// [`run_to_quiescence`](World::run_to_quiescence) are this with an
    /// inclusive deadline; the sharded runner calls it directly as a
    /// YAWNS window, where events *at* `end` must stay queued: they may
    /// tie with cross-shard events still in another shard's outbox, and
    /// ties must be broken by key with both sides present.
    ///
    /// The drain is batched: every event sharing the earliest pending
    /// timestamp is popped in one scheduler operation (a HUB cycle's
    /// worth of emissions, ready signals, and internal transitions all
    /// land on the same 70 ns grid), then dispatched in key order — a
    /// HUB may add a controller attempt of the instant to the batch
    /// (see [`apply_hub_effects`](World::apply_hub_effects)).
    /// Timer events cancelled by an earlier event in the same batch are
    /// filtered by each CAB's timer slots when they fire.
    pub(crate) fn run_window(&mut self, end: Time) -> u64 {
        let mut n = 0;
        while self.engine.peek_time().is_some_and(|at| at < end) {
            let at = self.engine.step_batch(&mut self.batch).expect("an event is pending");
            // A second batch at one instant holds events scheduled while
            // the instant ran: they come after all of the first's.
            let late = self.last_batch_at == Some(at);
            self.last_batch_at = Some(at);
            // Dispatched from the back: ascending keys.
            self.batch.reverse();
            // Tick the drain cadence per event, not per batch: the
            // cadence counts work done, and a batch holds every event
            // sharing one timestamp however many that is.
            while let Some((key, ev)) = self.batch.pop() {
                n += 1;
                self.tie = Tie { late, key };
                self.dispatch(ev);
                self.telemetry_tick();
            }
        }
        n
    }

    /// Swaps the outbox batch for shard `dst` with `into` — the
    /// allocation-free exchange primitive. `into` must be empty; after
    /// the swap it holds this window's batch for `dst` and the outbox
    /// holds `into`'s old buffer, so the two vectors' capacities
    /// ping-pong between producer and exchange slot and the steady
    /// state never allocates.
    pub(crate) fn swap_outbox(&mut self, dst: usize, into: &mut Vec<(Time, u64, Ev)>) {
        debug_assert!(into.is_empty(), "exchange slot not drained");
        if let Some(ctx) = &mut self.shard {
            std::mem::swap(&mut ctx.outbox[dst], into);
        }
    }

    /// `true` when the outbox for shard `dst` has anything queued.
    pub(crate) fn outbox_filled(&self, dst: usize) -> bool {
        self.shard.as_ref().is_some_and(|ctx| !ctx.outbox[dst].is_empty())
    }

    /// Drains a cross-shard arrival batch into the engine, leaving
    /// the buffer's capacity in place for reuse by the batched barrier
    /// exchange. Keys are globally unique, so arrival order here is
    /// irrelevant — the heap pops them in the one total `(time, key)`
    /// order.
    pub(crate) fn ingest_drain(&mut self, arrivals: &mut Vec<(Time, u64, Ev)>) {
        for (at, key, ev) in arrivals.drain(..) {
            self.engine.schedule_at_keyed(at, key, ev);
        }
    }

    /// Deterministic load attribution for HUB `hub`'s cluster: the
    /// simulated busy time of the attached CABs' kernels plus one HUB
    /// cycle per item the HUB handled. Simulated-time quantities only,
    /// so every rerun computes the same weights. Non-owned components
    /// are pristine and contribute zero, so summing a cluster's weight
    /// across shards yields its global weight.
    pub(crate) fn cluster_weight(&self, hub: usize) -> u64 {
        let hc = self.hubs[hub].counters();
        let cycle = self.cfg.hub.cycle.nanos();
        let mut w = (hc.packets_forwarded + hc.commands_executed + hc.replies_forwarded)
            .saturating_mul(cycle);
        for (c, cab) in self.cabs.iter().enumerate() {
            if self.topo.cab_attachment(c).0 == hub {
                let sched = cab.scheduler();
                w += sched.thread_busy().nanos() + sched.interrupt_busy().nanos();
            }
        }
        w
    }

    /// Ends a run at `t`: advances the clock to `t` if it lags (every
    /// shard must end on the same instant, because time-derived gauges
    /// like fiber utilization read the clock) and applies what granted
    /// trains fixed for instants up to `t`, so the HUBs read as the
    /// item-by-item HUBs would.
    pub(crate) fn advance_clock(&mut self, t: Time) {
        self.engine.advance_to(t);
        for hub in &mut self.hubs {
            hub.settle(t, Tie::LAST);
        }
    }

    // ---------------------------------------------------------------
    // Application API
    // ---------------------------------------------------------------

    /// Schedules an application send at absolute time `at`.
    pub fn schedule_send(&mut self, at: Time, cab: usize, send: AppSend) {
        let key = self.cabs[cab].take_key();
        self.engine.schedule_at_keyed(at, key, Ev::AppSend { cab, send });
    }

    /// Sends a reliable byte-stream message right now; returns its
    /// message id (scoped to the `src`→`dst` stream).
    pub fn send_stream_now(
        &mut self,
        src: usize,
        dst: usize,
        src_mailbox: u16,
        dst_mailbox: u16,
        data: &[u8],
    ) -> u32 {
        let (now, data) = (self.now(), data.into());
        self.with_cab(src, |c, x| {
            c.send(x, now, FlowTransport::Stream, dst, src_mailbox, dst_mailbox, data)
        })
    }

    /// Sends an unreliable datagram right now; returns its message id.
    pub fn send_datagram_now(
        &mut self,
        src: usize,
        dst: usize,
        src_mailbox: u16,
        dst_mailbox: u16,
        data: &[u8],
    ) -> u32 {
        let (now, data) = (self.now(), data.into());
        self.with_cab(src, |c, x| {
            c.send(x, now, FlowTransport::Datagram, dst, src_mailbox, dst_mailbox, data)
        })
    }

    /// Issues a request-response call right now; returns the
    /// transaction id.
    pub fn send_rpc_now(
        &mut self,
        src: usize,
        dst: usize,
        reply_mailbox: u16,
        service_mailbox: u16,
        data: &[u8],
    ) -> u32 {
        let (now, data) = (self.now(), data.into());
        self.with_cab(src, |c, x| {
            c.send(x, now, FlowTransport::Rpc, dst, reply_mailbox, service_mailbox, data)
        })
    }

    /// Sends a hardware multicast datagram right now.
    pub fn send_multicast_now(
        &mut self,
        src: usize,
        dsts: &[usize],
        src_mailbox: u16,
        dst_mailbox: u16,
        data: &[u8],
    ) {
        let (now, data) = (self.now(), data.into());
        self.with_cab(src, |c, x| c.multicast(x, now, dsts, src_mailbox, dst_mailbox, data));
    }

    /// Answers a pending RPC (the application on `cab` responding to
    /// `client`'s transaction `tx`).
    pub fn rpc_respond_now(&mut self, cab: usize, client: usize, tx: u32, data: &[u8]) -> bool {
        let (now, data) = (self.now(), data.into());
        self.with_cab(cab, |c, x| c.rpc_respond(x, now, client, tx, data))
    }

    /// Takes the next message out of a mailbox (application receive).
    pub fn mailbox_take(
        &mut self,
        cab: usize,
        mailbox: u16,
    ) -> Option<nectar_kernel::mailbox::Message> {
        self.cabs[cab].mailbox_take(mailbox)
    }

    /// Runs `f` on CAB `cab` with the rest of the world lent as [`Ctx`].
    fn with_cab<R>(&mut self, cab: usize, f: impl FnOnce(&mut Cab, &mut Ctx) -> R) -> R {
        let mut x = Ctx {
            cfg: &self.cfg,
            topo: &self.topo,
            engine: &mut self.engine,
            telemetry: &mut self.telemetry,
            deliveries: &mut self.deliveries,
            completions: &mut self.completions,
            errors: &mut self.errors,
            replies: &mut self.replies,
            flights: &mut self.flights,
            workload: self.workload.as_deref_mut(),
        };
        f(&mut self.cabs[cab], &mut x)
    }

    // ---------------------------------------------------------------
    // Dispatch
    // ---------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        let now = self.engine.now();
        self.events_by_kind[ev.kind()] += 1;
        match ev {
            Ev::HubItem { hub, port, item } => {
                self.hubs[hub].settle(now, self.tie);
                self.hub_item(now, hub, port, item);
            }
            Ev::HubTrain { hub, port, opens, packet, route } => {
                self.hubs[hub].settle(now, self.tie);
                self.hub_train(now, hub, port, opens, packet, route);
            }
            Ev::HubReady { hub, port } => {
                self.hubs[hub].settle(now, self.tie);
                self.hubs[hub].ready_signal_arrives(now, port, &mut self.hub_fx);
                self.apply_hub_effects(hub);
            }
            Ev::HubInternal { hub, ev } => {
                self.hubs[hub].settle(now, self.tie);
                self.hubs[hub].internal(now, ev, &mut self.hub_fx);
                self.apply_hub_effects(hub);
            }
            Ev::CabItem { cab, item } => self.cab_item(now, cab, item, false),
            Ev::CabItemReplay { cab, item } => self.cab_item(now, cab, item, true),
            Ev::CabReadySignal { cab } => self.with_cab(cab, |c, x| c.ready_signal(x, now)),
            Ev::CabReadyTimeout { cab, gen } => {
                self.with_cab(cab, |c, x| c.ready_timeout(x, now, gen))
            }
            Ev::CabPacketReady { cab, packet } => {
                self.with_cab(cab, |c, x| c.packet_ready(x, now, packet))
            }
            Ev::CabTimer { cab, source, token } => {
                self.with_cab(cab, |c, x| c.timer_expires(x, now, source, token))
            }
            Ev::AppSend { cab, send } => self.with_cab(cab, |c, x| {
                let (transport, dst, src_mailbox, dst_mailbox, data) = match send {
                    AppSend::Stream { dst, src_mailbox, dst_mailbox, data } => {
                        (FlowTransport::Stream, dst, src_mailbox, dst_mailbox, data)
                    }
                    AppSend::Datagram { dst, src_mailbox, dst_mailbox, data } => {
                        (FlowTransport::Datagram, dst, src_mailbox, dst_mailbox, data)
                    }
                    AppSend::Rpc { dst, reply_mailbox, service_mailbox, data } => {
                        (FlowTransport::Rpc, dst, reply_mailbox, service_mailbox, data)
                    }
                    AppSend::Multicast { dsts, src_mailbox, dst_mailbox, data } => {
                        return c.multicast(x, now, &dsts, src_mailbox, dst_mailbox, data);
                    }
                };
                c.send(x, now, transport, dst, src_mailbox, dst_mailbox, data);
            }),
            Ev::WorkloadTick { cab, class } => self.workload_tick(now, cab, class),
            Ev::WorkloadLaunch { cab, class, count } => {
                self.workload_launch(now, cab, class, count)
            }
            Ev::WorkloadReply { cab, class, client, tx } => {
                self.workload_reply(cab, class, client, tx)
            }
        }
    }

    /// A wire item reaches a CAB's fiber input, through the chaos
    /// injector. `replay` marks items the injector itself produced; they
    /// bypass it so faults cannot cascade on their own products.
    fn cab_item(&mut self, now: Time, cab: usize, item: Item, replay: bool) {
        let item = match (item, replay, &mut self.chaos) {
            (Item::Packet(p), false, Some(chaos)) => {
                let verdict = chaos.on_cab_packet(now, self.cabs[cab].id().raw(), p.len());
                let (hub, port) = self.topo.cab_attachment(cab);
                let (board, engine) = (&mut self.cabs[cab], &mut self.engine);
                if verdict.drop {
                    // The packet vanishes; flow control must still be
                    // released or the sender wedges.
                    self.faults_injected += 1;
                    engine.schedule_at_keyed(now, board.take_key(), Ev::HubReady { hub, port });
                    return;
                }
                if verdict.duplicate {
                    // The copy shares the original packet (scheduled
                    // before corruption replaces it) and re-enters via
                    // the replay path so it cannot be faulted again.
                    let ev = Ev::CabItemReplay { cab, item: Item::Packet(p.clone()) };
                    engine.schedule_at_keyed(now, board.take_key(), ev);
                }
                let p = match verdict.corrupt {
                    Some((idx, bit)) if !p.is_empty() => {
                        self.faults_injected += 1;
                        cab::corrupt(&p, idx.min(p.len() - 1), bit & 7)
                    }
                    _ => p,
                };
                if let Some(d) = verdict.delay {
                    // Reordering: release the HUB port now so later
                    // traffic overtakes, then deliver the original
                    // after the extra delay.
                    engine.schedule_at_keyed(now, board.take_key(), Ev::HubReady { hub, port });
                    let ev = Ev::CabItemReplay { cab, item: Item::Packet(p) };
                    engine.schedule_at_keyed(now + d, board.take_key(), ev);
                    return;
                }
                Item::Packet(p)
            }
            (item, _, _) => item,
        };
        self.with_cab(cab, |c, x| c.item_arrives(x, now, item));
    }

    /// An item's head reaches HUB `hub`'s `port`, through the chaos
    /// injector.
    fn hub_item(&mut self, now: Time, hub: usize, port: PortId, item: Item) {
        if let Some(chaos) = &mut self.chaos {
            let is_command = matches!(item, Item::Command(_));
            let edge = matches!(self.topo.peer(hub, port), Peer::Cab(_));
            if chaos.on_hub_item(now, hub as u8, port.index() as u8, is_command, edge) {
                // The item dies at the HUB input port. Flow control is
                // NOT released — the sender's ready-timeout (§6.2.1)
                // recovers, exactly as with a dead physical port.
                self.faults_injected += 1;
                return;
            }
        }
        self.hubs[hub].item_arrives(now, port, item, &mut self.hub_fx);
        self.apply_hub_effects(hub);
    }

    /// A train's head reaches HUB `hub`'s `port`. The HUB takes it whole
    /// when its first open is addressed there, no chaos clause can
    /// destroy items at the port, and the HUB itself finds that exact
    /// ([`Hub::train_arrives`]). Otherwise it arrives item by item: the
    /// first now, each next one at its own arrival instant with this
    /// event's key — a train's items never share an instant, so they
    /// take the places the item-by-item fibre gave them.
    fn hub_train(
        &mut self,
        now: Time,
        hub: usize,
        port: PortId,
        opens: u8,
        packet: Packet,
        route: u64,
    ) {
        let key = self.tie.key;
        let prologue = train_route(&self.topo, route).test_opens();
        let first = prologue.len() - opens as usize;
        let open = prologue[first];
        // Off a CAB's fibre the items follow back to back; off a HUB's,
        // a transit apart.
        let spacing = if first == 0 { Dur::ZERO } else { self.cfg.hub.transit };
        let edge = matches!(self.topo.peer(hub, port), Peer::Cab(_));
        let destroyable = self
            .chaos
            .as_ref()
            .is_some_and(|c| c.can_destroy_at(hub as u8, port.index() as u8, edge));
        let packet = if open.hub.index() == hub && !destroyable {
            let train =
                Train { out: open.param, opens_behind: opens - 1, packet, spacing, route, key };
            match self.hubs[hub].train_arrives(now, port, train, &mut self.hub_fx) {
                Ok(()) => return self.apply_hub_effects(hub),
                Err(train) => train.packet,
            }
        } else {
            packet
        };
        let mut items = Vec::with_capacity(opens as usize + 2);
        train_items(&self.topo, route, opens, packet, |item| items.push(item));
        let mut at = now;
        for (i, item) in items.into_iter().enumerate() {
            let next = at + self.cfg.hub.wire_time(item.wire_bytes()) + spacing;
            if i == 0 {
                self.hub_item(now, hub, port, item);
            } else {
                self.engine.schedule_at_keyed(at, key, Ev::HubItem { hub, port, item });
            }
            at = next;
        }
    }

    // ---------------------------------------------------------------
    // HUB effects -> events
    // ---------------------------------------------------------------

    /// Turns what the last HUB entry point appended to `hub_fx` into
    /// engine events, leaving the buffer empty for the next call. Every
    /// event is keyed by the wire it travels ([`Hub::wire_key`]), not by when
    /// the HUB computed it.
    fn apply_hub_effects(&mut self, hub: usize) {
        let mut fx = std::mem::take(&mut self.hub_fx);
        for em in fx.emissions.drain(..) {
            let wire = if matches!(em.item, Item::Reply(_)) { Wire::Reply } else { Wire::Emission };
            let key = self.hubs[hub].wire_key(em.port, wire);
            match self.topo.peer(hub, em.port) {
                Peer::Hub(h2, p2) => {
                    let ev = Ev::HubItem { hub: h2, port: p2, item: em.item };
                    self.route_to_hub(h2, em.at, key, ev);
                }
                Peer::Cab(c) => {
                    // A CAB always shares its attachment HUB's shard,
                    // so this edge is never cross-shard.
                    let ev = Ev::CabItem { cab: c, item: em.item };
                    self.engine.schedule_at_keyed(em.at, key, ev);
                }
                Peer::None => { /* unwired port: the item vanishes */ }
            }
        }
        for tr in fx.trains.drain(..) {
            let key = self.hubs[hub].wire_key(tr.port, Wire::Emission);
            match self.topo.peer(hub, tr.port) {
                Peer::Hub(h2, p2) => {
                    let ev = Ev::HubTrain {
                        hub: h2,
                        port: p2,
                        opens: tr.opens,
                        packet: tr.packet,
                        route: tr.route,
                    };
                    self.route_to_hub(h2, tr.at, key, ev);
                }
                Peer::Cab(c) => {
                    // The last hop into a CAB stays item by item: the
                    // items leave one transit after each other's tail.
                    let World { cfg, topo, engine, .. } = self;
                    let mut at = tr.at;
                    train_items(topo, tr.route, tr.opens, tr.packet, |item| {
                        let next = at + cfg.hub.wire_time(item.wire_bytes()) + cfg.hub.transit;
                        engine.schedule_at_keyed(at, key, Ev::CabItem { cab: c, item });
                        at = next;
                    });
                }
                Peer::None => {}
            }
        }
        for rs in fx.ready_signals.drain(..) {
            let key = self.hubs[hub].wire_key(rs.port, Wire::Ready);
            match self.topo.peer(hub, rs.port) {
                Peer::Hub(h2, p2) => {
                    self.route_to_hub(h2, rs.at, key, Ev::HubReady { hub: h2, port: p2 });
                }
                Peer::Cab(c) => {
                    self.engine.schedule_at_keyed(rs.at, key, Ev::CabReadySignal { cab: c });
                }
                Peer::None => {}
            }
        }
        let now = self.engine.now();
        for int in fx.internal.drain(..) {
            let key = self.hubs[hub].wire_key(int.ev.port(), int.ev.wire());
            let joins = int.at == now && matches!(int.ev, InternalEv::CtrlExec { .. });
            let ev = Ev::HubInternal { hub, ev: int.ev };
            if joins {
                // A controller attempt scheduled before this instant
                // began, armed by the event being dispatched: it runs in
                // this batch, at its key (see `Hub::internal`).
                let i = self.batch.partition_point(|&(k, _)| k > key);
                self.batch.insert(i, (key, ev));
            } else {
                self.engine.schedule_at_keyed(int.at, key, ev);
            }
        }
        self.hub_fx = fx;
    }

    /// Routes a HUB-to-HUB event: locally when the destination HUB
    /// lives in this shard (or the world is unsharded), through the
    /// window-boundary outbox otherwise. These fiber edges are the
    /// *only* cross-shard channel — their minimum latency is the
    /// lookahead that makes the conservative window sound.
    fn route_to_hub(&mut self, dst_hub: usize, at: Time, key: u64, ev: Ev) {
        match &mut self.shard {
            Some(ctx) if ctx.plan.shard_of_hub(dst_hub) != ctx.id => {
                ctx.outbox[ctx.plan.shard_of_hub(dst_hub)].push((at, key, ev));
            }
            _ => {
                self.engine.schedule_at_keyed(at, key, ev);
            }
        }
    }
}

/// The route a train follows: `route` is `(source CAB << 32) |
/// destination CAB`.
fn train_route(topo: &Topology, route: u64) -> &nectar_proto::datalink::Route {
    topo.route((route >> 32) as usize, route as u32 as usize).expect("a train follows a route")
}

/// Hands `put` the items of a train on `route` that still has `opens`
/// test-opens at its front, in fibre order: those opens, the packet,
/// `close all`.
fn train_items(topo: &Topology, route: u64, opens: u8, packet: Packet, mut put: impl FnMut(Item)) {
    let prologue = train_route(topo, route).test_opens();
    for &open in &prologue[prologue.len() - opens as usize..] {
        put(open.into());
    }
    put(packet.into());
    put(Item::CloseAll);
}

/// Joins flight births against ends into a latency histogram. Map
/// iteration order does not matter: histogram observation is
/// commutative, which is exactly why the flight accounting is kept as
/// two maps until metrics time.
pub(crate) fn join_flights(
    births: &FoldMap<u64, Time>,
    ends: &FoldMap<u64, Time>,
    out: &mut Histogram,
) {
    for (id, birth) in births {
        if let Some(end) = ends.get(id) {
            out.observe(end.saturating_since(*birth).nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_hub::command::{Command, UserOp};
    use nectar_sim::telemetry::EventKind;

    /// A world with three inert events (stale ready-timeouts: the fiber
    /// is ready, so they dispatch to nothing) at `t-1`, `t`, `t+1`.
    fn three_events(t: Time) -> World {
        let mut w = World::new(Topology::single_hub(2, 16), SystemConfig::default());
        for at in [t.nanos() - 1, t.nanos(), t.nanos() + 1] {
            let key = w.cabs[0].take_key();
            let ev = Ev::CabReadyTimeout { cab: 0, gen: 0 };
            w.engine.schedule_at_keyed(Time::from_nanos(at), key, ev);
        }
        w
    }

    #[test]
    fn drain_loop_deadline_boundaries() {
        let t = Time::from_micros(5);
        let (before, after) = (Time::from_nanos(t.nanos() - 1), Time::from_nanos(t.nanos() + 1));

        // A window is exclusive and leaves the clock on the last event.
        let mut w = three_events(t);
        assert_eq!(w.run_window(t), 1);
        assert_eq!(w.now(), before);

        // `run_until` is inclusive and ends exactly at the deadline.
        let mut w = three_events(t);
        assert_eq!(w.run_until(t), 2);
        assert_eq!(w.now(), t);
        assert_eq!(w.next_event_time(), Some(after));

        // `run_to_quiescence` is inclusive too; the clock reads the
        // deadline when work remains, the last event when none does.
        let mut w = three_events(t);
        assert_eq!(w.run_to_quiescence(t), (2, QuiescenceOutcome::DeadlineReached));
        assert_eq!(w.now(), t);
        assert_eq!(w.run_to_quiescence(Time::from_millis(1)), (1, QuiescenceOutcome::Quiescent));
        assert_eq!(w.now(), after);

        // With no deadline to speak of, all three drain everything.
        assert_eq!(three_events(t).run_window(Time::MAX), 3);
        assert_eq!(three_events(t).run_until(Time::MAX), 3);
        assert_eq!(three_events(t).run_to_quiescence(Time::MAX), (3, QuiescenceOutcome::Quiescent));
    }

    /// A single-HUB world with items injected straight onto HUB 0's
    /// ports, then ready signals (the ports carry no CAB, so what the
    /// HUB emits vanishes).
    fn hub_world(items: &[(u64, u8, Item)], readies: &[(u64, u8)]) -> World {
        let mut w = World::new(Topology::single_hub(1, 16), SystemConfig::default());
        w.enable_observability();
        for (ns, port, item) in items {
            w.inject_hub_item(Time::from_nanos(*ns), 0, PortId::new(*port), item.clone());
        }
        for &(ns, port) in readies {
            let (key, port) = (w.cabs[0].take_key(), PortId::new(port));
            w.engine.schedule_at_keyed(Time::from_nanos(ns), key, Ev::HubReady { hub: 0, port });
        }
        w
    }

    fn open(test: bool, retry: bool, port: u8) -> Item {
        Command::open(test, retry, false, HubId::new(0), PortId::new(port)).into()
    }

    /// `(instant, input, output)` of every connection HUB 0 opened.
    fn opens(w: &World) -> Vec<(u64, u8, u8)> {
        let events = w.hubs[0].telemetry().events();
        let opens = events.filter_map(|e| match e.kind {
            EventKind::ConnectionOpen { input, output, .. } => Some((e.at.nanos(), input, output)),
            _ => None,
        });
        opens.collect()
    }

    /// A controller attempt judged refused when it was scheduled has no
    /// event. A ready signal at the attempt's own instant, ahead of it in
    /// key order, arms it; it must then run where its event would have:
    /// in that instant's batch, at its key — here before P9's `close all`
    /// tail, so P5's next command takes the controller's next slot and
    /// the open the tail wakes on P7 the one after.
    #[test]
    fn an_attempt_armed_at_its_own_instant_runs_at_its_key() {
        let clear = Command::user(UserOp::ClearReady, HubId::new(0), PortId::new(13));
        let mut w = hub_world(
            &[
                (0, 2, clear.into()),
                // P9 holds P15 until its `close all` tail at 1,010 ns.
                (0, 9, open(false, false, 15)),
                (320, 9, Item::CloseAll),
                // P7 parks on P15.
                (0, 7, open(false, true, 15)),
                // P5's `test open` waits for P13's ready bit; its slot
                // ends at 1,010 ns, and another open queues behind it.
                (660, 5, open(true, true, 13)),
                (900, 5, open(false, false, 14)),
            ],
            &[(1_010, 13)],
        );
        assert_eq!(w.run_to_quiescence(Time::from_millis(1)).1, QuiescenceOutcome::Quiescent);
        // Run after the tail, P5's open would leave P7 the slot at 1,120.
        assert_eq!(opens(&w), [(420, 9, 15), (1_010, 5, 13), (1_250, 5, 14), (1_320, 7, 15)]);
    }

    /// A run whose last act is a controller attempt refused without an
    /// event ends at that attempt's instant, with it counted.
    #[test]
    fn a_run_that_ends_on_a_refused_attempt_ends_at_its_instant() {
        let mut w =
            hub_world(&[(0, 9, open(false, false, 15)), (1_000, 7, open(false, true, 15))], &[]);
        assert_eq!(w.run_to_quiescence(Time::from_millis(1)).1, QuiescenceOutcome::Quiescent);
        // Fully in at 1,240 ns, executed 110 ns later.
        assert_eq!(w.now(), Time::from_nanos(1_350));
        let c = w.hubs[0].counters();
        assert_eq!((c.commands_executed, c.opens_retried), (2, 1));
        assert_eq!(w.runtime_metrics().counter("engine.events_by_kind.hub_internal.ctrl_exec"), 1);

        // A deadline before that instant finds the work unfinished.
        let mut w =
            hub_world(&[(0, 9, open(false, false, 15)), (1_000, 7, open(false, true, 15))], &[]);
        let deadline = Time::from_nanos(1_300);
        assert_eq!(w.run_to_quiescence(deadline).1, QuiescenceOutcome::DeadlineReached);
        assert_eq!(w.now(), deadline);
        assert_eq!(w.hubs[0].counters().opens_retried, 0);
    }

    /// A datagram moves by reference from the application to the
    /// receiving mailbox: the message taken out is the buffer the
    /// sender handed in (§6.2.1's pass-by-reference, end to end).
    #[test]
    fn a_datagram_reaches_the_mailbox_without_a_copy() {
        let mut w = World::new(Topology::single_hub(2, 16), SystemConfig::default());
        let data = Bytes::from(vec![9u8; 960]);
        let send = AppSend::Datagram { dst: 1, src_mailbox: 1, dst_mailbox: 7, data: data.clone() };
        w.schedule_send(Time::ZERO, 0, send);
        w.run_to_quiescence(Time::from_millis(1));
        let msg = w.mailbox_take(1, 7).expect("the datagram is delivered");
        assert_eq!(msg.data().as_ptr(), data.as_ptr(), "the payload was copied on its way");
    }

    /// A hardware multicast is a datagram: it takes the next of the
    /// sending CAB's datagram ids, so two multicasts and a datagram
    /// from one CAB carry three ids.
    #[test]
    fn multicasts_and_datagrams_draw_distinct_message_ids() {
        let mut w = World::new(Topology::single_hub(3, 16), SystemConfig::default());
        for _ in 0..2 {
            w.send_multicast_now(0, &[1, 2], 1, 7, &[5u8; 64]);
            w.run_to_quiescence(w.now() + Dur::from_millis(1));
        }
        w.send_datagram_now(0, 1, 1, 7, &[6u8; 64]);
        w.run_to_quiescence(w.now() + Dur::from_millis(1));
        let ids: Vec<(u16, u64)> = w.deliveries.iter().map(|d| (d.cab, d.msg_id)).collect();
        assert_eq!(ids, [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]);
    }

    /// A multicast too large for one packet is refused as a unicast
    /// datagram is — an error, a counted rejection, no packet — instead
    /// of panicking in the datalink (above the 990-byte payload limit)
    /// or truncating its 16-bit length field (above 65,535).
    #[test]
    fn an_oversize_multicast_is_an_error_not_a_panic() {
        for (len, fits) in [(64, true), (960, true), (2_000, false), (70_000, false)] {
            let mut w = World::new(Topology::single_hub(3, 16), SystemConfig::default());
            w.send_multicast_now(0, &[1, 2], 1, 7, &vec![5u8; len]);
            w.run_to_quiescence(Time::from_millis(1));
            let (tx, delivered) = (w.cab_counters(0).packets_tx, w.deliveries.len());
            let rejected = w.cabs[0].datagram_stats().2;
            if fits {
                assert_eq!((tx, delivered, rejected, w.errors.len()), (1, 2, 0, 0), "{len} B");
            } else {
                assert_eq!((tx, delivered, rejected), (0, 0, 1), "{len} B");
                let limit = MAX_FRAGMENT_PAYLOAD;
                let refused = (0, TransportError::TooLarge { size: len, limit }, Time::ZERO);
                assert_eq!(w.errors, [refused], "{len} B");
            }
        }
    }

    /// Chaos corruption damages a copy. Under `corrupt(...)` a
    /// datagram workload on the mesh loses exactly the packets the
    /// injector corrupted — every flip, in a header or in a payload, is
    /// caught at receive — delivers every other flow, and leaves the
    /// zero buffer all its payloads are slices of all zero.
    #[test]
    fn corruption_never_writes_the_shared_zero_buffer() {
        let mut w = World::new(Topology::mesh2d(2, 2, 4, 16), SystemConfig::default());
        w.set_chaos(ChaosSchedule::parse(7, "corrupt(0.2)").expect("parses"));
        let spec = "open(poisson(20us),uniform(32,990),uniform,datagram)[0ns..2ms]";
        w.set_workload(&WorkloadSpec::parse(1, spec).expect("parses")).expect("compiles");
        w.run_to_quiescence(Time::from_millis(50));

        let corruptions = w.chaos_stats().expect("chaos attached").corruptions;
        let corrupted_rx: u64 = (0..w.cabs.len()).map(|c| w.cab_counters(c).corrupted_rx).sum();
        let wl = w.workload.as_ref().expect("workload attached");
        let flows: u64 = wl.counters.iter().map(|c| c.flows).sum();
        assert!(corruptions > 100, "the run corrupts enough packets to hit both parts");
        assert_eq!(corrupted_rx, corruptions, "every corruption is caught by the checksum");
        assert_eq!(w.deliveries.len() as u64, flows - corruptions, "every other flow delivers");
        assert!(wl.zeros.iter().all(|&b| b == 0), "the shared zero buffer was written");
    }

    /// Every queued event is an `Ev` in the engine's slab, and `spike`
    /// keeps up to 7,519 of them pending: a new variant must not widen
    /// every slot.
    #[test]
    fn events_stay_within_56_bytes() {
        assert!(std::mem::size_of::<Ev>() <= 56, "{} bytes", std::mem::size_of::<Ev>());
    }

    /// What a queued packet-switched flow puts on its CAB's fibre — one
    /// train, read from the route table at flush time — is the item list
    /// `Route::packet_switched_items` builds eagerly, and it holds the
    /// fibre for their wire times back to back.
    #[test]
    fn lazy_train_equals_the_eager_item_list() {
        // Two CABs per HUB on a chain of six: CAB 0 reaches CAB 1 in
        // one hop, CAB 4 in three and CAB 10 in six.
        for (dst, hops) in [(1, 1), (4, 3), (10, 6)] {
            let mut w = World::new(Topology::mesh2d(1, 6, 2, 16), SystemConfig::default());
            w.send_datagram_now(0, dst, 1, 2, &[0xA5; 40]);
            let mut on_fibre = Vec::new();
            while let Some(ev) = w.engine.step() {
                if let Ev::HubTrain { hub, port, opens, packet, route } = ev {
                    assert_eq!((hub, port), w.topo.cab_attachment(0));
                    on_fibre.push((w.engine.now(), opens, packet, route));
                }
            }
            let [(head, opens, packet, route)] = &on_fibre[..] else {
                panic!("one train per packet, got {}", on_fibre.len());
            };
            assert!(*head > Time::ZERO, "the send path costs CPU time first");
            assert_eq!(*opens as usize, hops);
            let eager = w.topo.route(0, dst).unwrap().packet_switched_items(packet.clone(), 1024);
            let mut items = Vec::new();
            train_items(&w.topo, *route, *opens, packet.clone(), |item| items.push(item));
            assert_eq!(items, eager, "the train to CAB {dst}");
            let wire: Dur = eager.iter().map(|i| w.cfg.hub.wire_time(i.wire_bytes())).sum();
            assert_eq!(w.cabs[0].fiber_free(), *head + wire);
        }
    }
}
