//! The HUB state machine: ports, central controller, and forwarding.
//!
//! [`Hub`] is driven by three entry points, all timestamped:
//!
//! * [`Hub::item_arrives`] — the head byte of an [`Item`] reaches a
//!   port's incoming fiber.
//! * [`Hub::ready_signal_arrives`] — the downstream peer of a port
//!   reports that its input queue drained a start-of-packet.
//! * [`Hub::internal`] — a deferred transition previously emitted via
//!   [`Effects`] comes due.
//!
//! Consequences are appended to an [`Effects`] buffer; the caller owns
//! the event queue. See the crate docs for the timing calibration.
//!
//! # Modelling notes (vs. the hardware)
//!
//! * Data moves as whole [`Item`]s with byte-exact serialization times,
//!   not per-byte events. Cut-through is modelled by forwarding an item
//!   [`HubConfig::transit`] after its head reaches the queue head.
//! * The ready bit of an output port is cleared when a packet *commits*
//!   to that output (at most [`HubConfig::transit`] earlier than the
//!   hardware's "start of packet at the output register"), which is
//!   conservative and race-free.
//! * A `close all` marker breaks the connections it travelled over at
//!   the instant its last byte has left the output registers. That is
//!   also the instant its queue slot frees, so both happen in the one
//!   [`InternalEv::HeadDone`] deferred for it: close, wake the retries
//!   parked on the freed outputs, then start the next head.
//! * Queue occupancy is charged per item up to the free space at
//!   arrival; an item too large for the free space must begin
//!   forwarding before the residue would arrive ([`InternalEv::OverflowCheck`])
//!   or it is dropped as an overflow, mirroring a real cut-through
//!   queue overrun.

use crate::command::{Command, Op, Reply, SupervisorOp, UserOp};
use crate::config::HubConfig;
use crate::counters::HubCounters;
use crate::crossbar::Crossbar;
use crate::effects::{Effects, InternalEv};
use crate::id::{HubId, PortId};
use crate::item::Item;
use crate::status::PortStatus;
use nectar_sim::telemetry::{EventKind, FlightId, Telemetry};
use nectar_sim::time::Time;
use std::collections::VecDeque;

#[derive(Clone, Debug, PartialEq, Eq)]
enum HeadState {
    /// No head is being processed (queue may be empty).
    Idle,
    /// Head command submitted to the controller.
    AwaitingController { seq: u64 },
    /// Head command failed and sits in the retry list.
    AwaitingRetry { seq: u64 },
    /// Head item needs a crossbar connection from this input.
    AwaitingConnection { seq: u64 },
    /// Head item is being forwarded.
    Draining { seq: u64 },
}

#[derive(Clone, Debug)]
struct Queued {
    seq: u64,
    item: Item,
    /// When the item's first byte arrived.
    head_at: Time,
    /// Bytes charged against queue capacity for this item.
    charged: usize,
}

#[derive(Clone, Debug)]
struct Port {
    queue: VecDeque<Queued>,
    queued_bytes: usize,
    head: HeadState,
    out_busy_until: Time,
    /// Downstream input queue can accept a packet (flow control).
    ready: bool,
    locked_by: Option<PortId>,
    enabled: bool,
    loopback: bool,
}

impl Port {
    fn new() -> Port {
        Port {
            queue: VecDeque::new(),
            queued_bytes: 0,
            head: HeadState::Idle,
            out_busy_until: Time::ZERO,
            ready: true,
            locked_by: None,
            enabled: true,
            loopback: false,
        }
    }
}

#[derive(Clone, Debug)]
struct PendingRetry {
    port: PortId,
    seq: u64,
    cmd: Command,
}

/// One Nectar HUB: an N×N crossbar, N I/O ports, and the central
/// controller.
///
/// # Examples
///
/// Establishing a connection and pushing a packet through it — the
/// paper's headline "700 ns to set up a connection and transfer the
/// first byte":
///
/// ```
/// use nectar_hub::prelude::*;
/// use nectar_sim::time::Time;
///
/// let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
/// let mut fx = Effects::new();
/// let t0 = Time::ZERO;
///
/// // Command packet: "open HUB0 P8" followed by the data packet.
/// let open = Command::open(false, false, false, HubId::new(0), PortId::new(8));
/// hub.item_arrives(t0, PortId::new(4), open.into(), &mut fx);
/// let exec = fx.internal[0].clone();
/// hub.item_arrives(t0 + hub.config().wire_time(3), PortId::new(4),
///                  Packet::new(1, vec![0u8; 64]).into(), &mut fx);
/// fx.clear();
/// hub.internal(exec.at, exec.ev, &mut fx);
/// // First data byte leaves P8's output register 700 ns after t0.
/// assert_eq!(fx.emissions[0].at, Time::from_nanos(700));
/// assert_eq!(fx.emissions[0].port, PortId::new(8));
/// ```
#[derive(Clone, Debug)]
pub struct Hub {
    id: HubId,
    cfg: HubConfig,
    xbar: Crossbar,
    ports: Vec<Port>,
    ctrl_free: Time,
    retries: Vec<PendingRetry>,
    counters: HubCounters,
    telemetry: Telemetry,
    next_seq: u64,
}

impl Hub {
    /// Creates a HUB with every port idle, enabled, and ready.
    pub fn new(id: HubId, cfg: HubConfig) -> Hub {
        let ports = (0..cfg.ports).map(|_| Port::new()).collect();
        Hub {
            id,
            xbar: Crossbar::new(cfg.ports),
            ports,
            cfg,
            ctrl_free: Time::ZERO,
            retries: Vec::new(),
            counters: HubCounters::new(),
            telemetry: Telemetry::default(),
            next_seq: 0,
        }
    }

    /// The configuration the HUB was built with.
    pub fn config(&self) -> &HubConfig {
        &self.cfg
    }

    /// Event counters since power-on (or `clear counters`).
    pub fn counters(&self) -> &HubCounters {
        &self.counters
    }

    /// The typed flight-recorder events (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the flight recorder, e.g. to enable it.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// The status-table entry for `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn status(&self, port: PortId) -> PortStatus {
        let p = &self.ports[port.index()];
        PortStatus {
            driven_by: self.xbar.input_for(port),
            locked_by: p.locked_by,
            ready: p.ready,
            enabled: p.enabled,
            loopback: p.loopback,
        }
    }

    /// Live crossbar connections, for assertions and display.
    pub fn connections(&self) -> Vec<(PortId, PortId)> {
        self.xbar.connections().collect()
    }

    /// Bytes currently buffered in `port`'s input queue (charged model).
    pub fn queue_occupancy(&self, port: PortId) -> usize {
        self.ports[port.index()].queued_bytes
    }

    fn in_range(&self, port: PortId) -> bool {
        port.index() < self.ports.len()
    }

    // ---------------------------------------------------------------
    // Entry points
    // ---------------------------------------------------------------

    /// The head byte of `item` reaches `port`'s incoming fiber at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range (a wiring error in the caller,
    /// not a protocol error).
    pub fn item_arrives(&mut self, now: Time, port: PortId, item: Item, fx: &mut Effects) {
        assert!(self.in_range(port), "arrival on out-of-range port {port}");
        if !self.ports[port.index()].enabled {
            self.counters.drops += 1;
            return;
        }
        if self.ports[port.index()].loopback {
            // Link test: echo straight back out the same port.
            let at = now.max(self.ports[port.index()].out_busy_until) + self.cfg.transit;
            let busy = at + self.cfg.wire_time(item.wire_bytes());
            self.ports[port.index()].out_busy_until = busy;
            fx.emit(at, port, item);
            return;
        }
        if let Item::Reply(reply) = item {
            self.forward_reply(now, port, reply, fx);
            return;
        }

        let seq = self.next_seq;
        self.next_seq += 1;
        let size = item.wire_bytes();
        // Only data packets occupy the 1 KB queue accounting: command
        // and close-all symbols are "extracted from the incoming byte
        // stream" by the I/O port (§4.1) rather than buffered with data.
        let accountable = matches!(item, Item::Packet(_));
        let free = self.cfg.queue_capacity.saturating_sub(self.ports[port.index()].queued_bytes);
        let charged = if accountable { size.min(free) } else { 0 };
        if accountable && size > free {
            // The residue cannot buffer; forwarding must start before it
            // arrives or the queue overruns.
            let deadline = now + self.cfg.wire_time(free);
            fx.defer(deadline, InternalEv::OverflowCheck { port, seq });
        }
        if let Item::Packet(pkt) = &item {
            // Span boundary: fiber serialization ends, crossbar queue
            // wait begins. Paired with this flight's crossbar_forward
            // on the same HUB, the gap is the hop's queue wait.
            self.telemetry.record(
                now,
                FlightId(pkt.id()),
                EventKind::CrossbarEnqueue {
                    hub: self.id.raw(),
                    input: port.index() as u8,
                    bytes: size as u32,
                },
            );
        }
        let p = &mut self.ports[port.index()];
        p.queued_bytes += charged;
        p.queue.push_back(Queued { seq, item, head_at: now, charged });
        if p.queue.len() == 1 && p.head == HeadState::Idle {
            self.start_head(now, port, fx);
        }
    }

    /// The downstream peer of `port` reports its input queue drained a
    /// start-of-packet: set the ready bit and wake blocked `test open`s.
    pub fn ready_signal_arrives(&mut self, now: Time, port: PortId, fx: &mut Effects) {
        if !self.in_range(port) {
            return;
        }
        self.ports[port.index()].ready = true;
        self.wake_retries_for(now, port, fx);
    }

    /// Feeds back a deferred transition at its due time.
    pub fn internal(&mut self, now: Time, ev: InternalEv, fx: &mut Effects) {
        match ev {
            InternalEv::CtrlExec { port } => self.ctrl_exec(now, port, fx),
            InternalEv::HeadDone { port, seq } => {
                let p = &self.ports[port.index()];
                if p.head == (HeadState::Draining { seq }) {
                    if p.queue.front().is_some_and(|q| q.item == Item::CloseAll) {
                        self.close_behind(now, port, fx);
                    }
                    self.head_done_now(now, port, fx);
                }
            }
            InternalEv::OverflowCheck { port, seq } => self.overflow_check(now, port, seq, fx),
            InternalEv::StuckCheck { port, seq } => {
                let p = &mut self.ports[port.index()];
                if p.head == (HeadState::AwaitingConnection { seq }) {
                    let dropped = p.queue.pop_front().expect("waiting head exists");
                    p.queued_bytes -= dropped.charged;
                    p.head = HeadState::Idle;
                    self.counters.drops += 1;
                    self.start_head(now, port, fx);
                }
            }
        }
    }

    /// The `close all` at the head of `input`'s queue has fully passed
    /// through the output registers: break the connections it travelled
    /// over and give every command parked on one of them a controller
    /// slot. Runs inside the marker's own [`InternalEv::HeadDone`],
    /// before the head is popped. (These used to be two events, a
    /// "close behind" and the head-done, deferred back to back for the
    /// same instant; a caller that feeds same-instant transitions back
    /// in the order they were deferred can never run anything between
    /// the two, so one event does both, in that order — one engine
    /// event fewer per marker per hop.)
    ///
    /// The set closed is the input's fan-out *now*, not a copy taken
    /// when the marker was forwarded. Under the `Draining { seq }`
    /// guard of the caller the two agree: outputs are only ever added
    /// to an input's fan-out by that input's own commands, and those
    /// wait in the queue behind the draining head; outputs that left
    /// the fan-out in between (a `close`, a `disable port`) are exactly
    /// the ones a captured copy would have had to skip. If the guard
    /// fails — a supervisor `disable port` emptied this queue while the
    /// marker drained, which already broke every connection it had —
    /// nothing is closed: whatever the port connected after being
    /// re-enabled is not a route this marker travelled.
    fn close_behind(&mut self, now: Time, input: PortId, fx: &mut Effects) {
        for out in self.xbar.output_set(input).iter() {
            self.xbar.disconnect_output(out);
            self.record_close(now, input, out);
            self.wake_retries_for(now, out, fx);
        }
    }

    // ---------------------------------------------------------------
    // Head processing
    // ---------------------------------------------------------------

    fn start_head(&mut self, now: Time, port: PortId, fx: &mut Effects) {
        let Some(front) = self.ports[port.index()].queue.front() else {
            return;
        };
        let seq = front.seq;
        let head_at = front.head_at;
        let for_us = matches!(&front.item, Item::Command(c) if c.hub == self.id);
        if for_us {
            // Submit to the central controller once fully received.
            let fully_arrived = head_at + self.cfg.wire_time(crate::command::COMMAND_WIRE_BYTES);
            let exec_at = fully_arrived.max(now).max(self.ctrl_free);
            self.ctrl_free = exec_at + self.cfg.cycle;
            self.ports[port.index()].head = HeadState::AwaitingController { seq };
            fx.defer(exec_at + self.cfg.controller_latency, InternalEv::CtrlExec { port });
        } else {
            self.forward_head(now.max(head_at), port, seq, fx);
        }
    }

    /// Forwards the head item of `port` over the crossbar, if connected.
    fn forward_head(&mut self, ready_at: Time, port: PortId, seq: u64, fx: &mut Effects) {
        let outs = self.xbar.output_set(port);
        if outs.is_empty() {
            self.ports[port.index()].head = HeadState::AwaitingConnection { seq };
            // If the connection never comes (a lost open command), the
            // port discards the item after the stuck timeout so the
            // datalink can retransmit (§6.2.1).
            fx.defer(ready_at + self.cfg.stuck_timeout, InternalEv::StuckCheck { port, seq });
            return;
        }
        let front = self.ports[port.index()].queue.front().expect("head exists");
        debug_assert_eq!(front.seq, seq);
        let size = front.item.wire_bytes();
        let charged = front.charged;
        let is_packet = matches!(front.item, Item::Packet(_));
        let flight = match &front.item {
            Item::Packet(p) => FlightId(p.id()),
            _ => FlightId::NONE,
        };
        let wire = self.cfg.wire_time(size);
        // Multicast drives every output in lockstep from one input.
        let start = outs
            .iter()
            .map(|o| self.ports[o.index()].out_busy_until)
            .max()
            .unwrap_or(Time::ZERO)
            .max(ready_at);
        let emit_at = start + self.cfg.transit;
        if is_packet && outs.len() > 1 {
            // Every output beyond the first is an extra copy of the
            // same buffer entering the network: multicast fan-out, or
            // a stale circuit member left by a lost close. The pool
            // conservation audit needs the count either way.
            self.counters.fanout_copies += outs.len() as u64 - 1;
        }
        for out in outs.iter() {
            self.ports[out.index()].out_busy_until = emit_at + wire;
            if is_packet {
                // Hardware clears the ready bit when the start-of-packet
                // is detected at the output register.
                self.ports[out.index()].ready = false;
            }
            let item = self.ports[port.index()].queue.front().expect("head exists").item.clone();
            fx.emit(emit_at, out, item);
        }
        if is_packet {
            self.counters.packets_forwarded += 1;
            self.counters.bytes_forwarded += (size - crate::item::PACKET_FRAMING_BYTES) as u64;
            // Tell the upstream peer this queue's start-of-packet emerged.
            fx.ready(emit_at, port);
        }
        for out in outs.iter() {
            self.telemetry.record(
                emit_at,
                flight,
                EventKind::CrossbarForward {
                    hub: self.id.raw(),
                    input: port.index() as u8,
                    output: out.index() as u8,
                    bytes: size as u32,
                },
            );
        }
        // Release the charged bytes: from here the item streams through.
        let p = &mut self.ports[port.index()];
        p.queued_bytes -= charged;
        if let Some(f) = p.queue.front_mut() {
            f.charged = 0;
        }
        p.head = HeadState::Draining { seq };
        fx.defer(emit_at + wire, InternalEv::HeadDone { port, seq });
    }

    fn head_done_now(&mut self, now: Time, port: PortId, fx: &mut Effects) {
        let p = &mut self.ports[port.index()];
        p.queue.pop_front();
        p.head = HeadState::Idle;
        self.start_head(now, port, fx);
    }

    fn overflow_check(&mut self, now: Time, port: PortId, seq: u64, fx: &mut Effects) {
        let p = &mut self.ports[port.index()];
        let Some(idx) = p.queue.iter().position(|q| q.seq == seq) else {
            return; // already drained or removed
        };
        if idx == 0 && matches!(p.head, HeadState::Draining { .. }) {
            return; // forwarding began in time: cut-through kept up
        }
        let removed = p.queue.remove(idx).expect("index in range");
        p.queued_bytes -= removed.charged;
        self.counters.overflows += 1;
        if idx == 0 {
            // The blocked head was the victim; drop any retry it holds.
            self.retries.retain(|r| !(r.port == port && r.seq == seq));
            self.ports[port.index()].head = HeadState::Idle;
            self.start_head(now, port, fx);
        }
    }

    // ---------------------------------------------------------------
    // Controller
    // ---------------------------------------------------------------

    fn ctrl_exec(&mut self, now: Time, port: PortId, fx: &mut Effects) {
        let expected = match self.ports[port.index()].head {
            HeadState::AwaitingController { seq } => seq,
            _ => return, // stale: the head was removed (e.g. overflow)
        };
        let cmd = match self.ports[port.index()].queue.front() {
            Some(Queued { seq, item: Item::Command(c), .. }) if *seq == expected => *c,
            _ => return,
        };
        self.counters.commands_executed += 1;
        match cmd.op {
            Op::User(user) => self.exec_user(now, port, expected, cmd, user, fx),
            Op::Supervisor(sup) => {
                self.exec_supervisor(now, port, cmd, sup, fx);
                self.head_done_now(now, port, fx);
            }
        }
    }

    fn exec_user(
        &mut self,
        now: Time,
        port: PortId,
        seq: u64,
        cmd: Command,
        user: UserOp,
        fx: &mut Effects,
    ) {
        let target = cmd.param;
        match user {
            UserOp::Open { test, retry, reply } => {
                let ok = self.try_open(port, target, test);
                if ok {
                    self.counters.opens_succeeded += 1;
                    self.telemetry.record(
                        now,
                        FlightId::NONE,
                        EventKind::ConnectionOpen {
                            hub: self.id.raw(),
                            input: port.index() as u8,
                            output: target.index() as u8,
                        },
                    );
                    if reply {
                        self.emit_reply(now, port, Reply::Ack { hub: self.id, port: target }, fx);
                    }
                    self.head_done_now(now, port, fx);
                } else if retry {
                    self.counters.opens_retried += 1;
                    self.retries.push(PendingRetry { port, seq, cmd });
                    self.ports[port.index()].head = HeadState::AwaitingRetry { seq };
                } else {
                    self.counters.opens_failed += 1;
                    if reply {
                        self.emit_reply(now, port, Reply::Nack { hub: self.id, port: target }, fx);
                    }
                    self.head_done_now(now, port, fx);
                }
            }
            UserOp::Close => {
                if let Some(input) = self.xbar.disconnect_output(target) {
                    self.record_close(now, input, target);
                    self.wake_retries_for(now, target, fx);
                }
                self.head_done_now(now, port, fx);
            }
            UserOp::CloseInput => {
                for out in self.xbar.disconnect_input(target) {
                    self.record_close(now, target, out);
                    self.wake_retries_for(now, out, fx);
                }
                self.head_done_now(now, port, fx);
            }
            UserOp::Lock { retry, reply } => {
                let slot = &mut self.ports[target.index()].locked_by;
                let ok = match slot {
                    None => {
                        *slot = Some(port);
                        true
                    }
                    Some(holder) => *holder == port,
                };
                if ok {
                    self.counters.locks_acquired += 1;
                    if reply {
                        self.emit_reply(now, port, Reply::Ack { hub: self.id, port: target }, fx);
                    }
                    self.head_done_now(now, port, fx);
                } else if retry {
                    self.retries.push(PendingRetry { port, seq, cmd });
                    self.ports[port.index()].head = HeadState::AwaitingRetry { seq };
                } else {
                    if reply {
                        self.emit_reply(now, port, Reply::Nack { hub: self.id, port: target }, fx);
                    }
                    self.head_done_now(now, port, fx);
                }
            }
            UserOp::Unlock => {
                if self.ports[target.index()].locked_by == Some(port) {
                    self.ports[target.index()].locked_by = None;
                    self.wake_retries_for(now, target, fx);
                }
                self.head_done_now(now, port, fx);
            }
            UserOp::QueryStatus | UserOp::QueryReady => {
                let bits = self.status(target).pack();
                self.emit_reply(now, port, Reply::Status { hub: self.id, port: target, bits }, fx);
                self.head_done_now(now, port, fx);
            }
            UserOp::SetReady => {
                self.ports[target.index()].ready = true;
                self.wake_retries_for(now, target, fx);
                self.head_done_now(now, port, fx);
            }
            UserOp::ClearReady => {
                self.ports[target.index()].ready = false;
                self.head_done_now(now, port, fx);
            }
            UserOp::Nop => self.head_done_now(now, port, fx),
        }
    }

    /// Records a circuit teardown in the flight recorder.
    fn record_close(&mut self, now: Time, input: PortId, output: PortId) {
        self.telemetry.record(
            now,
            FlightId::NONE,
            EventKind::ConnectionClose {
                hub: self.id.raw(),
                input: input.index() as u8,
                output: output.index() as u8,
            },
        );
    }

    fn try_open(&mut self, input: PortId, output: PortId, test: bool) -> bool {
        if !self.in_range(output) || !self.ports[output.index()].enabled {
            return false;
        }
        if let Some(holder) = self.ports[output.index()].locked_by {
            if holder != input {
                return false;
            }
        }
        if test && self.cfg.flow_control && !self.ports[output.index()].ready {
            return false;
        }
        self.xbar.connect(input, output).is_ok()
    }

    fn exec_supervisor(
        &mut self,
        now: Time,
        port: PortId,
        cmd: Command,
        sup: SupervisorOp,
        fx: &mut Effects,
    ) {
        let target = cmd.param;
        match sup {
            SupervisorOp::Reset => {
                self.xbar.disconnect_all();
                self.retries.clear();
                for p in &mut self.ports {
                    p.locked_by = None;
                    p.ready = true;
                    // Heads parked in retry states would wait forever now.
                    if matches!(p.head, HeadState::AwaitingRetry { .. }) {
                        p.head = HeadState::Idle;
                        p.queued_bytes -= p.queue.front().map_or(0, |q| q.charged);
                        p.queue.pop_front();
                    }
                }
                self.counters.resets += 1;
            }
            SupervisorOp::EnablePort => {
                if self.in_range(target) {
                    self.ports[target.index()].enabled = true;
                }
            }
            SupervisorOp::DisablePort => {
                if self.in_range(target) {
                    self.xbar.disconnect_output(target);
                    for out in self.xbar.disconnect_input(target) {
                        self.wake_retries_for(now, out, fx);
                    }
                    let p = &mut self.ports[target.index()];
                    p.enabled = false;
                    p.locked_by = None;
                    self.counters.drops += p.queue.len() as u64;
                    p.queue.clear();
                    p.queued_bytes = 0;
                    p.head = HeadState::Idle;
                    self.retries.retain(|r| r.port != target && r.cmd.param != target);
                }
            }
            SupervisorOp::LoopbackOn => {
                if self.in_range(target) {
                    self.ports[target.index()].loopback = true;
                }
            }
            SupervisorOp::LoopbackOff => {
                if self.in_range(target) {
                    self.ports[target.index()].loopback = false;
                }
            }
            SupervisorOp::ReadCounters => {
                let executed = self.counters.commands_executed.min(u8::MAX as u64) as u8;
                self.emit_reply(now, port, Reply::Counters { hub: self.id, executed }, fx);
            }
            SupervisorOp::ClearCounters => self.counters.clear(),
        }
    }

    /// Re-submits retry-parked commands whose target output changed state.
    fn wake_retries_for(&mut self, now: Time, output: PortId, fx: &mut Effects) {
        if self.retries.is_empty() {
            return;
        }
        let Hub { retries, ports, ctrl_free, cfg, .. } = self;
        // `retain` visits in order, so woken commands reach the
        // controller in the order they parked.
        retries.retain(|r| {
            if r.cmd.param != output {
                return true;
            }
            // Each retry costs another serialized controller cycle.
            let exec_at = now.max(*ctrl_free);
            *ctrl_free = exec_at + cfg.cycle;
            ports[r.port.index()].head = HeadState::AwaitingController { seq: r.seq };
            fx.defer(exec_at + cfg.controller_latency, InternalEv::CtrlExec { port: r.port });
            false
        });
    }

    // ---------------------------------------------------------------
    // Replies
    // ---------------------------------------------------------------

    /// Sends a reply generated *by this HUB* back up the issuing port's
    /// reverse fiber.
    fn emit_reply(&mut self, now: Time, issuing_port: PortId, reply: Reply, fx: &mut Effects) {
        fx.emit(now + self.cfg.reply_hop_latency, issuing_port, Item::Reply(reply));
    }

    /// Forwards a reply arriving on `port`'s input along the reverse
    /// path of the forward connection through this HUB.
    ///
    /// A forward connection `a -> port` means the route entered at `a`;
    /// the reply leaves on `a`'s outgoing fiber. Replies steal cycles:
    /// they ignore output-register busy times (§4.2.1).
    fn forward_reply(&mut self, now: Time, port: PortId, reply: Reply, fx: &mut Effects) {
        match self.xbar.input_for(port) {
            Some(a) => {
                self.counters.replies_forwarded += 1;
                fx.emit(now + self.cfg.reply_hop_latency, a, Item::Reply(reply));
            }
            None => {
                self.counters.replies_dropped += 1;
            }
        }
    }
}
