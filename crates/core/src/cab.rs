//! One CAB: the board and the kernel it runs (§5) under its datalink
//! and its three transports (§6), driven like a HUB: one method per
//! input the board has, with a [`Ctx`] lent for the call.
//!
//! Every event a CAB causes takes the next of its own tie-break keys,
//! `(index << 40) | counter`, below every HUB's; same-instant events pop
//! in key order, so the order of the calls is the order of the events.

use crate::topology::Topology;
use crate::world::{Completion, Delivery, Ev, Flights, SwitchingMode, SystemConfig, WorkloadState};
use nectar_cab::board::CabId;
use nectar_cab::dma::{Channel, DmaController};
use nectar_cab::fiber::FiberPort;
use nectar_hub::command::{Command, Reply, UserOp};
use nectar_hub::id::{HubId, PortId};
use nectar_hub::item::{Item, Packet};
use nectar_kernel::mailbox::{Mailbox, Message};
use nectar_kernel::thread::{Scheduler, ThreadId};
use nectar_proto::header::{Header, PacketKind, HEADER_BYTES};
use nectar_proto::transport::bytestream::{ByteStream, ByteStreamConfig, ByteStreamStats};
use nectar_proto::transport::datagram::Datagram;
use nectar_proto::transport::reqresp::{ReqRespClient, ReqRespServer};
use nectar_proto::transport::{Action, TimerToken, TransportError};
use nectar_sim::bytes::Bytes;
use nectar_sim::engine::{Engine, EventId};
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::telemetry::{EventKind, FlightId, Telemetry};
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::Transport;
use std::collections::VecDeque;

/// Datalink recovery: if the HUB's ready signal does not return within
/// this time (e.g. the packet's test-open command was lost), the CAB
/// re-arms its transmit path and lets the transport retransmit (§6.2.1
/// "recovers from ... lost HUB commands").
pub const READY_TIMEOUT: Dur = Dur::from_millis(1);

/// Capacity of each auto-created mailbox, bytes.
const MAILBOX_CAPACITY: usize = 256 * 1024;

/// Which protocol armed a timer (to route the expiry back).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimerSource {
    /// The byte-stream to this peer CAB.
    Stream(CabId),
    /// The request-response client.
    Rpc,
}

/// What a CAB entry point borrows from the world for one call: what it
/// reads, the engine and recorder it writes, and where what the board
/// hands up lands (the world's lists, flights and workload hook).
pub(crate) struct Ctx<'a> {
    pub(crate) cfg: &'a SystemConfig,
    pub(crate) topo: &'a Topology,
    pub(crate) engine: &'a mut Engine<Ev>,
    pub(crate) telemetry: &'a mut Telemetry,
    pub(crate) deliveries: &'a mut Vec<Delivery>,
    pub(crate) completions: &'a mut Vec<Completion>,
    pub(crate) errors: &'a mut Vec<(usize, TransportError, Time)>,
    pub(crate) replies: &'a mut Vec<(usize, Reply, Time)>,
    pub(crate) flights: &'a mut Flights,
    pub(crate) workload: Option<&'a mut WorkloadState>,
}

/// Per-CAB event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CabCounters {
    /// Data packets handed to the fiber.
    pub packets_tx: u64,
    /// Data packets received (pre-decode).
    pub packets_rx: u64,
    /// Received packets dropped for checksum/format errors.
    pub corrupted_rx: u64,
    /// Received packets addressed to a different CAB (a stale
    /// crossbar circuit duplicated them here) and discarded.
    pub misrouted_rx: u64,
    /// Input-queue overruns (upcall missed its §6.2.1 deadline).
    pub overruns: u64,
    /// Stray items (commands/close-alls reaching the CAB).
    pub strays: u64,
    /// Circuit opens issued (CircuitCached mode).
    pub circuit_opens: u64,
    /// Mailbox appends refused for lack of space.
    pub mailbox_rejects: u64,
    /// Datalink ready-timeouts (lost-command recoveries).
    pub ready_timeouts: u64,
    /// Fletcher-16 checksum passes (one per packet encode or decode).
    pub checksum_ops: u64,
}

/// CAB `index`'s 16-bit id: the one place a CAB index is narrowed.
/// A fabric has at most 256 HUBs (ids are one byte) of at most 256
/// ports (so are port ids), so every CAB index fits.
pub(crate) fn cab_id(index: usize) -> CabId {
    CabId::new(u16::try_from(index).expect("a CAB index fits 16 bits: 256 HUBs of 256 ports"))
}

/// One CAB. The world reaches a board only through the methods below.
pub(crate) struct Cab {
    /// The board's index in the topology.
    index: usize,
    /// The same, as the 16-bit id headers and telemetry carry.
    id: CabId,
    dma: DmaController,
    fiber: FiberPort,
    sched: Scheduler,
    app_thread: ThreadId,
    fiber_ready: bool,
    /// Generation counter guarding ready-timeout staleness.
    ready_gen: u64,
    /// The armed ready-timeout (generation `ready_gen`), cancelled when
    /// the ready signal arrives so dead timers neither sit in the
    /// event queue nor hold the quiescence clock up to 1 ms late. The
    /// generation guard stays: a signal and its timeout popped in one
    /// same-instant batch can no longer be cancelled.
    ready_timeout: Option<EventId>,
    fiber_free: Time,
    /// Cumulative time this CAB's outgoing fiber has been busy.
    fiber_tx_busy: Dur,
    tx_bursts: VecDeque<Burst>,
    /// Byte-stream endpoints with their timers, indexed by peer CAB;
    /// grown to the highest peer this CAB has exchanged stream traffic
    /// with.
    streams: Vec<Option<Box<StreamSlot>>>,
    datagram: Datagram,
    rpc_client: ReqRespClient,
    rpc_server: ReqRespServer,
    /// CircuitCached mode: the destination of the currently open
    /// circuit, if any.
    open_circuit: Option<usize>,
    /// Mailboxes by address, in creation order. A CAB owns a handful
    /// and their addresses are sparse (`0x7000+` for workloads), so a
    /// linear search beats hashing every delivered packet.
    mailboxes: Vec<(u16, Mailbox)>,
    /// The RPC client's live retransmission timers.
    rpc_timers: RpcTimers,
    next_packet_id: u64,
    /// Tie-break keys drawn so far (see the module docs).
    keys: u64,
    /// Scratch the transports append their actions to, drained by
    /// [`exec_actions`](Cab::exec_actions) with its capacity kept.
    actions: Vec<Action>,
    counters: CabCounters,
}

/// One entry of a CAB's transmit queue: what goes on its fibre back to
/// back once the entry reaches the front.
enum Burst {
    /// One packet-switched packet to one CAB — nearly every entry. The
    /// `test open` prologue in front of it and the `close all` behind
    /// it are read from the route table when the burst goes on the
    /// fibre, so a queued flow holds its packet and nothing else.
    Packet { dst: usize, packet: Packet },
    /// Anything else, item by item: a multicast train, a circuit
    /// (re-)open with its packet, a status query.
    Items(Vec<Item>),
}

/// A byte-stream endpoint and its retransmission timer. A stream
/// cancels its live timer before it arms the next, so one slot is its
/// whole timer table.
struct StreamSlot {
    stream: ByteStream,
    /// The armed timer's token and engine event.
    timer: Option<(TimerToken, EventId)>,
}

/// The RPC client's live retransmission timers: one slot per
/// transaction, over the window of transaction ids with a timer armed.
/// The client numbers its transactions densely upward, and a
/// transaction has at most one timer armed (for its current attempt),
/// so the window spans the calls of one retransmission horizon.
#[derive(Default)]
struct RpcTimers {
    /// Transaction id of `slots[0]`.
    base: u32,
    /// `(attempt, event)` of each transaction's armed timer.
    slots: VecDeque<Option<(u32, EventId)>>,
}

impl RpcTimers {
    /// `(transaction, attempt)` of a client timer token.
    fn split(token: TimerToken) -> (u32, u32) {
        ((token.0 >> 32) as u32, token.0 as u32)
    }

    fn arm(&mut self, token: TimerToken, event: EventId) {
        let (tx, attempt) = Self::split(token);
        if self.slots.is_empty() {
            self.base = tx;
        }
        // A retransmission re-arms a transaction whose expiry may have
        // just moved the window past it.
        while tx < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let at = (tx - self.base) as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, None);
        }
        debug_assert!(self.slots[at].is_none(), "one armed timer per transaction");
        self.slots[at] = Some((attempt, event));
    }

    /// The event of timer `token`, taken out, if it is armed.
    fn disarm(&mut self, token: TimerToken) -> Option<EventId> {
        let (tx, attempt) = Self::split(token);
        let slot = self.slots.get_mut(tx.checked_sub(self.base)? as usize)?;
        let (armed, event) = (*slot)?;
        if armed != attempt {
            return None;
        }
        *slot = None;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(event)
    }
}

impl Burst {
    /// Data bytes carried, which decides whether the burst may jump
    /// the queue.
    fn payload_bytes(&self) -> usize {
        match self {
            Burst::Packet { packet, .. } => packet.len(),
            Burst::Items(items) => items
                .iter()
                .map(|i| match i {
                    Item::Packet(p) => p.len(),
                    _ => 0,
                })
                .sum(),
        }
    }

    /// `true` if the burst carries data and is therefore subject to
    /// flow control.
    fn has_packet(&self) -> bool {
        match self {
            Burst::Packet { .. } => true,
            Burst::Items(items) => items.iter().any(|i| matches!(i, Item::Packet(_))),
        }
    }
}

impl Cab {
    /// CAB `index`, idle, with nothing queued.
    pub(crate) fn new(index: usize, cfg: &SystemConfig) -> Cab {
        let mut sched = Scheduler::new(cfg.cab.clone());
        let id = cab_id(index);
        sched.telemetry_mut().set_subject(id.raw());
        let app_thread = sched.spawn("application");
        let idle = sched.spawn("idle");
        // The CAB boots into its idle loop; the first dispatch of any
        // other thread pays a real switch.
        sched.assume_running(idle);
        Cab {
            index,
            id,
            dma: DmaController::new(cfg.cab.clone()),
            // §5.2: the same circuit as a HUB I/O port, 1 KB queues.
            fiber: FiberPort::new(1024, cfg.cab.fiber_bw),
            sched,
            app_thread,
            fiber_ready: true,
            ready_gen: 0,
            ready_timeout: None,
            fiber_free: Time::ZERO,
            fiber_tx_busy: Dur::ZERO,
            tx_bursts: VecDeque::new(),
            streams: Vec::new(),
            datagram: Datagram::new(id),
            rpc_client: ReqRespClient::new(id, cfg.rpc),
            rpc_server: ReqRespServer::new(id, cfg.rpc),
            open_circuit: None,
            mailboxes: Vec::new(),
            rpc_timers: RpcTimers::default(),
            next_packet_id: (index as u64) << 40,
            keys: 0,
            actions: Vec::new(),
            counters: CabCounters::default(),
        }
    }

    /// The next tie-break key for an event this board causes.
    #[inline]
    pub(crate) fn take_key(&mut self) -> u64 {
        let key = ((self.index as u64) << 40) | self.keys;
        self.keys += 1;
        key
    }

    /// Schedules `ev` at `at` with the board's next key.
    fn schedule(&mut self, engine: &mut Engine<Ev>, at: Time, ev: Ev) -> EventId {
        let key = self.take_key();
        engine.schedule_at_keyed(at, key, ev)
    }

    /// A wire item, past the chaos injector, reaches the fibre input.
    pub(crate) fn item_arrives(&mut self, x: &mut Ctx, now: Time, item: Item) {
        match item {
            Item::Packet(p) => {
                let size = p.wire_bytes();
                let (hub, port) = x.topo.cab_attachment(self.index);
                self.counters.packets_rx += 1;
                // §6.2.1: the start-of-packet interrupt runs the upcall
                // chain; the DMA must start before the 1 KB input queue
                // fills.
                let (_, handler_done) = self.sched.run_interrupt(now, x.cfg.cab.recv_path());
                let deadline = self.fiber.drain_deadline(now, size);
                if handler_done > deadline {
                    self.counters.overruns += 1;
                    // The queue overran; the packet is lost. Free the
                    // flow-control path so the network is not wedged.
                    self.schedule(x.engine, handler_done, Ev::HubReady { hub, port });
                    return;
                }
                // The DMA drains the input queue concurrently with the
                // arrival: the packet is in CAB memory when the last
                // byte has crossed the fiber and the handler has set up
                // the destination (whichever is later).
                let xfer = self.dma.start(now, Channel::FiberIn, p.len());
                let done = xfer.complete.max(now + x.cfg.hub.wire_time(size)).max(handler_done);
                x.telemetry.record(
                    xfer.start,
                    FlightId(p.id()),
                    EventKind::DmaStart {
                        cab: self.id.raw(),
                        channel: Channel::FiberIn.number(),
                        bytes: xfer.bytes as u32,
                    },
                );
                // Zero-copy receive: the event keeps the in-flight
                // packet instead of copying it into CAB memory. (The
                // real DMA copies; the model only charges its time.)
                // The packet emerges from the CAB input queue when the
                // DMA starts draining it: restore the HUB's ready bit.
                self.schedule(x.engine, handler_done, Ev::HubReady { hub, port });
                let ev = Ev::CabPacketReady { cab: self.index, packet: p };
                self.schedule(x.engine, done, ev);
            }
            Item::Reply(reply) => {
                // Circuit-open acks and status replies: the datalink
                // notes them; our send path does not block on them.
                self.sched.run_interrupt(now, x.cfg.cab.datalink_packet);
                x.replies.push((self.index, reply, now));
            }
            Item::Command(_) | Item::CloseAll => {
                // `close all` trailing a packet-switched transfer, or a
                // multicast command that leaked to a leaf: discard.
                self.counters.strays += 1;
            }
        }
    }

    /// A received packet has fully DMA'd into CAB memory: decode it and
    /// hand it to its transport.
    pub(crate) fn packet_ready(&mut self, x: &mut Ctx, now: Time, packet: Packet) {
        let id = self.id.raw();
        let flight = FlightId(packet.id());
        x.telemetry.record(
            now,
            flight,
            EventKind::DmaComplete {
                cab: id,
                channel: Channel::FiberIn.number(),
                bytes: packet.len() as u32,
            },
        );
        self.counters.checksum_ops += 1;
        let head = packet.head().try_into().expect("a CAB sends header-framed packets");
        let body = packet.payload();
        let Ok(header) = Header::decode_parts(head, body) else {
            self.counters.corrupted_rx += 1;
            return;
        };
        let peer = header.src_cab;
        if header.kind != PacketKind::Datagram && header.dst_cab != self.id {
            // A crossbar circuit with a stale member (its close was
            // lost in transit) duplicates packets to a CAB they were
            // never addressed to. Feeding them into transport state
            // would execute another CAB's RPCs or inject bytes into an
            // unrelated stream; discard and count instead. Multicast
            // datagrams are exempt: their dst field is advisory.
            self.counters.misrouted_rx += 1;
            return;
        }
        if header.kind == PacketKind::Ack {
            x.telemetry.record(
                now,
                flight,
                EventKind::TransportAck { cab: id, peer: peer.raw(), ack: header.ack },
            );
        }
        let out = &mut self.actions;
        let source = match header.kind {
            PacketKind::Datagram => {
                self.datagram.on_packet(now, &header, body, out);
                None
            }
            PacketKind::Data | PacketKind::Ack => {
                let slot = stream_to(&mut self.streams, self.id, peer, x.cfg.stream);
                slot.stream.on_packet(now, &header, body, out);
                Some(TimerSource::Stream(peer))
            }
            PacketKind::Request => {
                self.rpc_server.on_packet(now, &header, body, out);
                None
            }
            PacketKind::Response => {
                self.rpc_client.on_packet(now, &header, body, out);
                Some(TimerSource::Rpc)
            }
        };
        self.exec_actions(x, now, source, false, flight);
    }

    /// The HUB's flow-control ready signal: the next packet may go.
    pub(crate) fn ready_signal(&mut self, x: &mut Ctx, now: Time) {
        self.fiber_ready = true;
        self.ready_gen += 1; // invalidate pending timeout
        self.disarm_ready_timeout(x.engine);
        self.try_flush(x, now);
    }

    /// The datalink's ready timeout of generation `gen` fires.
    pub(crate) fn ready_timeout(&mut self, x: &mut Ctx, now: Time, gen: u64) {
        if self.ready_gen != gen || self.fiber_ready {
            return;
        }
        // The ready signal never came back: a command (or the packet
        // itself) was lost. Re-arm as the signal would, and let the
        // transport's retransmission recover.
        self.counters.ready_timeouts += 1;
        let kind = EventKind::DatalinkRetry { cab: self.id.raw() };
        x.telemetry.record(now, FlightId::NONE, kind);
        self.ready_timeout = None; // this event was it
        self.ready_signal(x, now);
    }

    /// A protocol timer armed by `source` with `token` expires.
    pub(crate) fn timer_expires(
        &mut self,
        x: &mut Ctx,
        now: Time,
        source: TimerSource,
        token: TimerToken,
    ) {
        // The timer slots are the source of truth: a timer cancelled by
        // an earlier event in the same batch has already left its slot
        // (its engine event was popped with the batch and could no
        // longer be cancelled), so its expiry must be ignored here.
        if self.disarm_timer(source, token).is_none() {
            return;
        }
        let (_, done) = self.sched.run_interrupt(now, x.cfg.cab.timer_op);
        let peer = match source {
            TimerSource::Stream(peer) => {
                if let Some(Some(slot)) = self.streams.get_mut(peer.index()) {
                    slot.stream.on_timer(done, token, &mut self.actions);
                }
                peer.raw()
            }
            TimerSource::Rpc => {
                self.rpc_client.on_timer(done, token, &mut self.actions);
                u16::MAX
            }
        };
        let kind = EventKind::TransportTimeout { cab: self.id.raw(), peer };
        x.telemetry.record(now, FlightId::NONE, kind);
        self.exec_actions(x, done, Some(source), false, FlightId::NONE);
    }

    /// The application sends `data` to `dst` over `transport` (an RPC's
    /// mailboxes are its reply and service ones); returns the message id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send(
        &mut self,
        x: &mut Ctx,
        now: Time,
        transport: Transport,
        dst: usize,
        src_mailbox: u16,
        dst_mailbox: u16,
        data: Bytes,
    ) -> u32 {
        assert_ne!(self.index, dst, "a CAB does not message itself over the net");
        // The application thread is the caller (procedure-call
        // invocation, §6.2.2): it is already running.
        self.sched.assume_running(self.app_thread);
        let bytes = data.len() as u32;
        let (to, out) = (cab_id(dst), &mut self.actions);
        let (id, source) = match transport {
            Transport::Stream => {
                let slot = stream_to(&mut self.streams, self.id, to, x.cfg.stream);
                let id = slot.stream.send_message(now, src_mailbox, dst_mailbox, data, out);
                (id, Some(TimerSource::Stream(to)))
            }
            Transport::Datagram => {
                (self.datagram.send(now, to, src_mailbox, dst_mailbox, data, out), None)
            }
            Transport::Rpc => (
                self.rpc_client.call(now, to, src_mailbox, dst_mailbox, data, out),
                Some(TimerSource::Rpc),
            ),
        };
        let kind = EventKind::AppSend { cab: self.id.raw(), dst: to.raw(), bytes };
        x.telemetry.record(now, FlightId::NONE, kind);
        self.exec_actions(x, now, source, true, FlightId::NONE);
        id
    }

    /// The application sends `data` as one hardware multicast datagram
    /// (§4.2.2/4.2.4) to every CAB in `dsts`.
    pub(crate) fn multicast(
        &mut self,
        x: &mut Ctx,
        now: Time,
        dsts: &[usize],
        src_mailbox: u16,
        dst_mailbox: u16,
        data: Bytes,
    ) {
        let (src, first) = (self.id, cab_id(dsts[0]));
        let mc = x
            .topo
            .multicast_route(self.index, dsts)
            .expect("multicast destinations must be reachable");
        self.sched.assume_running(self.app_thread);
        let bytes = data.len() as u32;
        let kind = EventKind::AppSend { cab: src.raw(), dst: first.raw(), bytes };
        x.telemetry.record(now, FlightId::NONE, kind);
        // One datagram header, the next of the CAB's datagram ids;
        // receivers deliver by mailbox address. dst_cab is advisory for
        // multicast; receivers don't check. Too large for one packet,
        // it is refused as a unicast datagram is: an error, no packet.
        let header = match self.datagram.frame(first, src_mailbox, dst_mailbox, data.len()) {
            Ok(header) => header,
            Err(e) => return x.errors.push((self.index, e, now)),
        };
        let head = header.encode(&data);
        self.counters.checksum_ops += 1;
        let (_, done) = self.sched.run(now, self.app_thread, x.cfg.cab.send_path());
        let packet = self.next_packet(head, data);
        x.flights.born(packet.id(), done, true);
        x.telemetry.record(
            done,
            FlightId(packet.id()),
            EventKind::TransportSend {
                cab: src.raw(),
                peer: first.raw(),
                seq: header.msg_id,
                bytes,
                retransmit: false,
            },
        );
        let items = mc.packet_switched_items(packet, x.cfg.hub.queue_capacity);
        self.counters.packets_tx += 1;
        self.enqueue_burst(x, Burst::Items(items), done);
    }

    /// The application answers `client`'s pending RPC `tx`. `false` if
    /// the transaction is no longer pending.
    pub(crate) fn rpc_respond(
        &mut self,
        x: &mut Ctx,
        now: Time,
        client: usize,
        tx: u32,
        data: Bytes,
    ) -> bool {
        let ok = self.rpc_server.respond(now, cab_id(client), tx, data, &mut self.actions);
        self.exec_actions(x, now, None, true, FlightId::NONE);
        ok
    }

    /// The application interrogates HUB `hub`'s status table about
    /// `port` (§4.1): a `query status` command up the fibre.
    pub(crate) fn query_hub_status(&mut self, x: &mut Ctx, now: Time, hub: HubId, port: PortId) {
        let cmd = Command::user(UserOp::QueryStatus, hub, port);
        self.sched.assume_running(self.app_thread);
        let (_, done) = self.sched.run(now, self.app_thread, x.cfg.cab.datalink_packet);
        self.enqueue_burst(x, Burst::Items(vec![cmd.into()]), done);
    }

    pub(crate) fn mailbox_take(&mut self, mailbox: u16) -> Option<Message> {
        let slot = self.mailboxes.iter_mut().find(|(a, _)| *a == mailbox)?;
        slot.1.take_next()
    }

    /// Executes the actions the last transport call appended.
    /// `app_context` selects the CPU charging: `true` for
    /// procedure-call sends from the application thread, `false` for
    /// interrupt-context activity (acks, retransmissions, timer
    /// handlers). `flight` is the flight id of the packet whose
    /// processing produced these actions (or [`FlightId::NONE`]);
    /// deliveries inherit it for latency accounting.
    fn exec_actions(
        &mut self,
        x: &mut Ctx,
        now: Time,
        source: Option<TimerSource>,
        app_context: bool,
        flight: FlightId,
    ) {
        let (cab, id) = (self.index, self.id.raw());
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { header, payload, retransmit } => {
                    let done = if app_context {
                        self.sched.run(now, self.app_thread, x.cfg.cab.send_path()).1
                    } else {
                        let cost = x.cfg.cab.datalink_packet + x.cfg.cab.dma_setup;
                        self.sched.run_interrupt(now, cost).1
                    };
                    self.counters.checksum_ops += 1;
                    let packet = self.next_packet(header.encode(&payload), payload);
                    self.send_packet(x, &header, packet, done, retransmit);
                }
                Action::Deliver { mailbox, msg } => {
                    let (_, end) = self.sched.run(now, self.app_thread, x.cfg.cab.mailbox_op);
                    let (msg_id, len, tag) = (msg.id(), msg.len(), msg.tag());
                    let mb = self.mailbox_or_create(mailbox);
                    if mb.append(msg).is_err() {
                        self.counters.mailbox_rejects += 1;
                        continue;
                    }
                    let len = u32::try_from(len).expect("a delivered message fits its mailbox");
                    let kind = EventKind::AppRecv { cab: id, mailbox, bytes: len };
                    x.telemetry.record(end, flight, kind);
                    if flight.is_some() {
                        x.flights.ended(flight.0, end);
                    }
                    let delivery = Delivery { cab: id, mailbox, len, msg_id, at: end };
                    // The workload's hook runs here, between the actions
                    // around it: the key a reply or re-arm draws is the
                    // next one.
                    let next =
                        x.workload.as_deref_mut().and_then(|w| w.on_deliver(&delivery, tag, mb));
                    x.deliveries.push(delivery);
                    if let Some((at, ev)) = next {
                        self.schedule(x.engine, at, ev);
                    }
                }
                Action::SetTimer { token, delay } => {
                    let src = source.expect("timer from a timerless protocol");
                    let at = now.max(x.engine.now()) + delay;
                    let event =
                        self.schedule(x.engine, at, Ev::CabTimer { cab, source: src, token });
                    self.arm_timer(src, token, event);
                }
                Action::CancelTimer { token } => {
                    let src = source.expect("timer from a timerless protocol");
                    if let Some(event) = self.disarm_timer(src, token) {
                        x.engine.cancel(event);
                    }
                }
                Action::Complete { msg_id } => x.completions.push((id, msg_id, now)),
                Action::Error(e) => x.errors.push((cab, e, now)),
            }
        }
        self.actions = actions;
    }

    /// Keeps `event`, the engine event of `source`'s timer `token`.
    fn arm_timer(&mut self, source: TimerSource, token: TimerToken, event: EventId) {
        match source {
            TimerSource::Stream(peer) => {
                let slot =
                    self.streams[peer.index()].as_mut().expect("a stream arms only its own timer");
                debug_assert!(slot.timer.is_none(), "a stream cancels its live timer first");
                slot.timer = Some((token, event));
            }
            TimerSource::Rpc => self.rpc_timers.arm(token, event),
        }
    }

    /// The engine event of `source`'s timer `token`, taken out, if the
    /// timer is armed.
    fn disarm_timer(&mut self, source: TimerSource, token: TimerToken) -> Option<EventId> {
        match source {
            TimerSource::Stream(peer) => {
                let slot = self.streams.get_mut(peer.index())?.as_mut()?;
                let (armed, event) = slot.timer?;
                if armed != token {
                    return None;
                }
                slot.timer = None;
                Some(event)
            }
            TimerSource::Rpc => self.rpc_timers.disarm(token),
        }
    }

    /// The packet this board puts on the fiber next: its encoded header
    /// and the payload it shares with the transport.
    fn next_packet(&mut self, head: [u8; HEADER_BYTES], payload: Bytes) -> Packet {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Packet::framed(id, head, payload)
    }

    /// The mailbox at `address`, created on first use.
    fn mailbox_or_create(&mut self, address: u16) -> &mut Mailbox {
        let slot = match self.mailboxes.iter().position(|(a, _)| *a == address) {
            Some(slot) => slot,
            None => {
                let mailbox = Mailbox::new(format!("mb{address}"), MAILBOX_CAPACITY);
                self.mailboxes.push((address, mailbox));
                self.mailboxes.len() - 1
            }
        };
        &mut self.mailboxes[slot].1
    }

    /// Hands `packet`, framed with `header` and ready at `ready`, to the
    /// datalink.
    fn send_packet(
        &mut self,
        x: &mut Ctx,
        header: &Header,
        packet: Packet,
        ready: Time,
        retransmit: bool,
    ) {
        let (cab, dst) = (self.index, header.dst_cab.index());
        let (id, peer) = (self.id.raw(), header.dst_cab.raw());
        // The flight id is born here, where the CAB hands the packet to
        // its datalink; the recorder traces it through every HUB hop to
        // the receiving application.
        x.flights.born(packet.id(), ready, false);
        x.telemetry.record(
            ready,
            FlightId(packet.id()),
            EventKind::TransportSend {
                cab: id,
                peer,
                seq: header.seq,
                bytes: u32::from(header.payload_len),
                retransmit,
            },
        );
        let burst = match x.cfg.switching {
            SwitchingMode::PacketSwitched => {
                let queue_cap = x.cfg.hub.queue_capacity;
                assert!(
                    packet.wire_bytes() <= queue_cap,
                    "packet-switched packets must fit the {queue_cap}-byte input queue"
                );
                // Fail here, at the send, not when the burst is flushed.
                x.topo.route(cab, dst).expect("destination must be reachable");
                Burst::Packet { dst, packet }
            }
            SwitchingMode::CircuitCached => {
                let mut items = Vec::new();
                let reopen = match self.open_circuit {
                    // A retransmission means packets are vanishing on
                    // this path; the cached circuit (or its close-all,
                    // leaving a stale member multicasting our data) is
                    // suspect, so rebuild it from scratch.
                    Some(open_dst) if open_dst == dst && !retransmit => false,
                    Some(_) => {
                        // Tear down the old circuit first: a CAB has one
                        // input port, a second circuit would multicast.
                        items.push(Item::CloseAll);
                        true
                    }
                    None => true,
                };
                if reopen {
                    let route = x.topo.route(cab, dst).expect("destination must be reachable");
                    // Data follows the opens in FIFO order through the
                    // same queues, so no reply wait is needed: the HUB
                    // serializes the opens ahead of the packet.
                    items.extend(route.circuit_open_items());
                    self.counters.circuit_opens += 1;
                    self.open_circuit = Some(dst);
                }
                items.push(packet.into());
                Burst::Items(items)
            }
        };
        self.counters.packets_tx += 1;
        self.enqueue_burst(x, burst, ready);
    }

    fn enqueue_burst(&mut self, x: &mut Ctx, burst: Burst, ready: Time) {
        // Small control packets (acknowledgements, RPC headers) jump
        // ahead of queued bulk data: an ack stuck behind a window of
        // 1 KB packets on the shared fiber starves the reverse stream
        // into spurious go-back-N retransmission.
        if burst.payload_bytes() <= 128 && !self.tx_bursts.is_empty() {
            self.tx_bursts.push_front(burst);
        } else {
            self.tx_bursts.push_back(burst);
        }
        self.try_flush(x, ready);
    }

    /// Puts queued bursts on the fibre, back to back, until the queue
    /// is empty or a packet must wait for the HUB's ready signal.
    fn try_flush(&mut self, x: &mut Ctx, now: Time) {
        let (cfg, topo, cab, id) = (x.cfg, x.topo, self.index, self.id.raw());
        let (hub, port) = topo.cab_attachment(cab);
        while let Some(front) = self.tx_bursts.front() {
            let has_packet = front.has_packet();
            // The CAB-side ready bit is part of the same hardware
            // flow-control system as the HUB's (§4.2.3); the ablation
            // switches both off.
            if has_packet && cfg.hub.flow_control && !self.fiber_ready {
                break;
            }
            if has_packet {
                // One packet outstanding toward the HUB until it signals
                // that its input queue drained (§4.2.3 flow control).
                self.fiber_ready = false;
                self.ready_gen += 1;
                self.disarm_ready_timeout(x.engine);
                let at = now.max(x.engine.now()) + READY_TIMEOUT;
                let ev = Ev::CabReadyTimeout { cab, gen: self.ready_gen };
                self.ready_timeout = Some(self.schedule(x.engine, at, ev));
            }
            let burst = self.tx_bursts.pop_front().expect("front exists");
            // One event's worth of fibre, `wire` long; `packet` is the
            // packet it carries (its offset, flight, wire bytes), if any.
            let mut send = |wire: Dur, packet: Option<(Dur, FlightId, u32)>, ev: Ev| {
                let head = now.max(self.fiber_free);
                if let Some((offset, flight, bytes)) = packet {
                    // Span boundary: transmit queueing ends, fiber
                    // serialization begins.
                    let kind = EventKind::FiberTx { cab: id, bytes };
                    x.telemetry.record(head + offset, flight, kind);
                }
                self.fiber_free = head + wire;
                self.fiber_tx_busy += wire;
                self.schedule(x.engine, head, ev);
            };
            let wire_of = |item: &Item| cfg.hub.wire_time(item.wire_bytes());
            match burst {
                Burst::Packet { dst, packet } => {
                    // §4.2.3: the route's test-opens, the data, `close
                    // all` — back to back, one train on the fibre.
                    let route = topo.route(cab, dst).expect("checked when the packet was queued");
                    let opens: Dur = route.test_opens().iter().map(|&c| wire_of(&c.into())).sum();
                    let packet_wire = cfg.hub.wire_time(packet.wire_bytes());
                    let wire = opens + packet_wire + wire_of(&Item::CloseAll);
                    let tx = (opens, FlightId(packet.id()), packet.wire_bytes() as u32);
                    let opens =
                        u8::try_from(route.len()).expect("a route crosses at most 255 HUBs");
                    let route = ((cab as u64) << 32) | dst as u64;
                    send(wire, Some(tx), Ev::HubTrain { hub, port, opens, packet, route });
                }
                Burst::Items(items) => {
                    for item in items {
                        let tx = match &item {
                            Item::Packet(p) => {
                                Some((Dur::ZERO, FlightId(p.id()), p.wire_bytes() as u32))
                            }
                            _ => None,
                        };
                        send(wire_of(&item), tx, Ev::HubItem { hub, port, item });
                    }
                }
            }
        }
    }

    /// Cancels the armed ready-timeout, if any: its generation was just
    /// bumped, so it could only ever fire as a no-op.
    fn disarm_ready_timeout(&mut self, engine: &mut Engine<Ev>) {
        if let Some(id) = self.ready_timeout.take() {
            engine.cancel(id);
        }
    }

    /// The board's 16-bit id.
    pub(crate) fn id(&self) -> CabId {
        self.id
    }

    pub(crate) fn counters(&self) -> CabCounters {
        self.counters
    }

    pub(crate) fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    pub(crate) fn telemetry(&self) -> &Telemetry {
        self.sched.telemetry()
    }

    pub(crate) fn telemetry_mut(&mut self) -> &mut Telemetry {
        self.sched.telemetry_mut()
    }

    /// Fraction of the time up to `now` the outgoing fiber was busy.
    pub(crate) fn fiber_utilization(&self, now: Time) -> f64 {
        let elapsed = now.saturating_since(Time::ZERO);
        if elapsed.is_zero() {
            0.0
        } else {
            self.fiber_tx_busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    pub(crate) fn stream_stats(&self, dst: usize) -> Option<ByteStreamStats> {
        self.streams.get(dst)?.as_ref().map(|s| s.stream.stats())
    }

    /// `true` when no stream has data in flight and no RPC is pending.
    pub(crate) fn transport_quiescent(&self) -> bool {
        self.open_streams().all(|s| s.is_quiescent()) && self.rpc_client.outstanding() == 0
    }

    pub(crate) fn rpc_client_stats(&self) -> (u64, u64, u64, u64) {
        self.rpc_client.stats()
    }

    pub(crate) fn rpc_server_stats(&self) -> (u64, u64, u64) {
        self.rpc_server.stats()
    }

    /// Every byte-stream endpoint this CAB has, in peer order.
    fn open_streams(&self) -> impl Iterator<Item = &ByteStream> {
        self.streams.iter().flatten().map(|s| &s.stream)
    }

    /// Adds every counter of the board to `reg` under `cab{index}.`.
    pub(crate) fn register_into(&self, reg: &mut MetricsRegistry, now: Time) {
        let (c, k, sched) = (self.index, self.counters, &self.sched);
        let mut streams = [0; 5];
        for st in self.open_streams().map(ByteStream::stats) {
            let each = [st.data_sent, st.retransmissions, st.timeouts, st.accepted];
            for (sum, v) in
                streams.iter_mut().zip(each.into_iter().chain([st.reassembly_mismatches]))
            {
                *sum += v;
            }
        }
        let counters: [(&str, u64); 19] = [
            ("packets_tx", k.packets_tx),
            ("packets_rx", k.packets_rx),
            ("corrupted_rx", k.corrupted_rx),
            ("misrouted_rx", k.misrouted_rx),
            ("overruns", k.overruns),
            ("strays", k.strays),
            ("circuit_opens", k.circuit_opens),
            ("mailbox_rejects", k.mailbox_rejects),
            ("ready_timeouts", k.ready_timeouts),
            ("checksum_ops", k.checksum_ops),
            ("kernel.thread_switches", sched.switches()),
            ("kernel.interrupts", sched.interrupts()),
            ("kernel.thread_busy_ns", sched.thread_busy().nanos()),
            ("kernel.interrupt_busy_ns", sched.interrupt_busy().nanos()),
            ("transport.data_sent", streams[0]),
            ("transport.retransmissions", streams[1]),
            ("transport.timeouts", streams[2]),
            ("transport.accepted", streams[3]),
            ("transport.reassembly_mismatches", streams[4]),
        ];
        for (name, v) in counters {
            reg.counter_add(&format!("cab{c}.{name}"), v);
        }
        self.dma.register_into(reg, &format!("cab{c}.dma."));
        for (_, mb) in &self.mailboxes {
            reg.gauge_max("mailbox.capacity_bytes", mb.capacity() as f64);
        }
        let peak = |of: fn(&Mailbox) -> usize| {
            self.mailboxes.iter().map(|(_, mb)| of(mb)).max().unwrap_or(0) as f64
        };
        reg.gauge_max(&format!("cab{c}.mailbox.peak_bytes"), peak(Mailbox::peak_used));
        reg.gauge_max(&format!("cab{c}.mailbox.peak_depth"), peak(Mailbox::peak_len));
        reg.gauge_max(&format!("cab{c}.fiber.utilization"), self.fiber_utilization(now));
    }

    /// `(sent, received, oversize_rejected)` of the datagram transport.
    #[cfg(test)]
    pub(crate) fn datagram_stats(&self) -> (u64, u64, u64) {
        self.datagram.stats()
    }

    /// When the outgoing fibre is next free.
    #[cfg(test)]
    pub(crate) fn fiber_free(&self) -> Time {
        self.fiber_free
    }
}

/// The byte-stream endpoint from `local` to `peer`, made on first use.
fn stream_to(
    streams: &mut Vec<Option<Box<StreamSlot>>>,
    local: CabId,
    peer: CabId,
    cfg: ByteStreamConfig,
) -> &mut StreamSlot {
    if peer.index() >= streams.len() {
        streams.resize_with(peer.index() + 1, || None);
    }
    streams[peer.index()].get_or_insert_with(|| {
        Box::new(StreamSlot { stream: ByteStream::new(local, peer, cfg), timer: None })
    })
}

/// `packet` with bit `bit` of byte `idx` flipped. The damaged part —
/// header or payload — is copied and the flip made in the copy: a
/// payload is shared with the sender's retransmission state and with
/// other flows, and is never written. A damaged payload is a buffer of
/// its own, so its checksum sidecar is summed from the damaged bytes.
pub(crate) fn corrupt(packet: &Packet, idx: usize, bit: u8) -> Packet {
    let mut header: [u8; HEADER_BYTES] =
        packet.head().try_into().expect("a CAB sends header-framed packets");
    let payload = packet.payload();
    match idx.checked_sub(HEADER_BYTES) {
        None => {
            header[idx] ^= 1 << bit;
            Packet::framed(packet.id(), header, payload.clone())
        }
        Some(at) => {
            let mut damaged = payload.to_vec();
            damaged[at] ^= 1 << bit;
            Packet::framed(packet.id(), header, damaged.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a board on `single_hub(2, 16)` is lent, with the recorder on.
    struct Bench {
        cfg: SystemConfig,
        topo: Topology,
        engine: Engine<Ev>,
        telemetry: Telemetry,
        deliveries: Vec<Delivery>,
        completions: Vec<Completion>,
        errors: Vec<(usize, TransportError, Time)>,
        replies: Vec<(usize, Reply, Time)>,
        flights: Flights,
    }

    impl Bench {
        fn new() -> Bench {
            let cfg = SystemConfig::default();
            Bench {
                flights: Flights::new(false, cfg.switching),
                cfg,
                topo: Topology::single_hub(2, 16),
                engine: Engine::new(),
                telemetry: Telemetry::with_capacity(1024),
                deliveries: Vec::new(),
                completions: Vec::new(),
                errors: Vec::new(),
                replies: Vec::new(),
            }
        }

        fn ctx(&mut self) -> Ctx<'_> {
            Ctx {
                cfg: &self.cfg,
                topo: &self.topo,
                engine: &mut self.engine,
                telemetry: &mut self.telemetry,
                deliveries: &mut self.deliveries,
                completions: &mut self.completions,
                errors: &mut self.errors,
                replies: &mut self.replies,
                flights: &mut self.flights,
                workload: None,
            }
        }

        /// Every queued event with its instant, in pop order.
        fn drain(&mut self) -> Vec<(Time, Ev)> {
            std::iter::from_fn(|| self.engine.step().map(|ev| (self.engine.now(), ev))).collect()
        }
    }

    /// CAB 0 sends a 100-byte datagram to CAB 1 at `at`.
    fn send_datagram(b: &mut Bench, cab: &mut Cab, at: Time) {
        cab.send(&mut b.ctx(), at, Transport::Datagram, 1, 1, 2, vec![7u8; 100].into());
    }

    #[test]
    fn a_datagram_send_queues_one_train_when_the_send_path_is_done() {
        let mut b = Bench::new();
        let mut cab = Cab::new(0, &b.cfg);
        let at = Time::from_micros(3);
        send_datagram(&mut b, &mut cab, at);

        // The application thread is the caller: no switch, just the path.
        let done = at + b.cfg.cab.send_path();
        let (hub, port) = b.topo.cab_attachment(0);
        let opens = b.topo.route(0, 1).expect("CAB 1 is reachable").len();
        let events = b.drain();
        let [(t_train, Ev::HubTrain { hub: h, port: p, opens: o, route, .. }), (t_timeout, Ev::CabReadyTimeout { cab: 0, gen: 1 })] =
            &events[..]
        else {
            panic!("one train and its ready timeout, got {events:?}");
        };
        assert_eq!((*t_train, *h, *p, *o as usize, *route), (done, hub, port, opens, 1));
        assert_eq!(*t_timeout, done + READY_TIMEOUT);
    }

    #[test]
    fn an_arriving_packet_frees_its_port_then_is_ready_at_the_latest_finish() {
        let mut b = Bench::new();
        let mut cab = Cab::new(1, &b.cfg);
        let payload = Bytes::from(vec![0u8; 960]);
        let header = Header {
            payload_len: 960,
            ..Header::new(PacketKind::Datagram, CabId::new(0), CabId::new(1))
        };
        let packet = Packet::framed(42, header.encode(&payload), payload);
        let at = Time::from_micros(10);
        cab.item_arrives(&mut b.ctx(), at, Item::Packet(packet.clone()));

        // The handler pays the trap entry, then the receive path.
        let t = &b.cfg.cab;
        let handler_end = at + t.interrupt_entry + t.recv_path();
        // One DMA channel runs at the fibre's rate or the memory's,
        // whichever is slower.
        let slower = if t.data_memory_bw.bits_per_sec() < t.fiber_bw.bits_per_sec() {
            t.data_memory_bw
        } else {
            t.fiber_bw
        };
        let dma_end = at + slower.transfer_time(packet.len());
        let wire_end = at + b.cfg.hub.wire_time(packet.wire_bytes());
        let ready = dma_end.max(wire_end).max(handler_end);
        let (hub, port) = b.topo.cab_attachment(1);

        let events = b.drain();
        let [(t_free, Ev::HubReady { hub: h, port: p }), (t_ready, Ev::CabPacketReady { cab: 1, packet: got })] =
            &events[..]
        else {
            panic!("the port's ready signal and the packet, got {events:?}");
        };
        assert_eq!((*t_free, *h, *p), (handler_end, hub, port));
        assert_eq!(*t_ready, ready);
        assert_eq!(got.id(), 42);
    }

    #[test]
    fn a_ready_timeout_of_a_stale_generation_does_nothing() {
        let mut b = Bench::new();
        let mut cab = Cab::new(0, &b.cfg);
        send_datagram(&mut b, &mut cab, Time::ZERO);
        let (pending, counters, recorded) = (b.engine.pending(), cab.counters(), b.telemetry.len());
        let later = Time::from_millis(2);

        // Generation 0 was superseded when the packet went out.
        cab.ready_timeout(&mut b.ctx(), later, 0);
        assert_eq!((b.engine.pending(), cab.counters()), (pending, counters));
        assert_eq!(b.telemetry.len(), recorded, "a stale timeout records nothing");

        // The live generation recovers the datalink.
        cab.ready_timeout(&mut b.ctx(), later, 1);
        assert_eq!(cab.counters().ready_timeouts, 1);
        assert_eq!(b.telemetry.len(), recorded + 1);
    }

    #[test]
    fn rpc_timers_hold_one_slot_per_transaction_and_only_its_armed_attempt() {
        let mut engine: Engine<()> = Engine::new();
        let mut event = || engine.schedule(Dur::ZERO, ());
        let token = |tx: u64, attempt: u64| TimerToken((tx << 32) | attempt);
        let mut timers = RpcTimers::default();
        let (a, b, c) = (event(), event(), event());
        timers.arm(token(5, 1), a);
        timers.arm(token(6, 1), b);
        timers.arm(token(7, 1), c);
        assert_eq!(timers.disarm(token(6, 2)), None, "attempt 2 was never armed");
        assert_eq!(timers.disarm(token(6, 1)), Some(b));
        // Transaction 5 expires: the window moves past 5 and the empty 6...
        assert_eq!(timers.disarm(token(5, 1)), Some(a));
        assert_eq!((timers.base, timers.slots.len()), (7, 1));
        // ...and its retransmission re-arms below the window.
        let d = event();
        timers.arm(token(5, 2), d);
        assert_eq!(timers.disarm(token(7, 1)), Some(c));
        assert_eq!(timers.disarm(token(5, 2)), Some(d));
        assert!(timers.slots.is_empty());
        assert_eq!(timers.disarm(token(5, 2)), None, "a timer is disarmed once");
    }
}
