//! The HUB state machine: ports, central controller, and forwarding.
//!
//! [`Hub`] is driven by four entry points, all timestamped:
//!
//! * [`Hub::item_arrives`] — the head byte of an [`Item`] reaches a
//!   port's incoming fiber.
//! * [`Hub::train_arrives`] — the head byte of a packet-switched
//!   [`Train`] does.
//! * [`Hub::ready_signal_arrives`] — the downstream peer of a port
//!   reports that its input queue drained a start-of-packet.
//! * [`Hub::internal`] — a deferred transition previously emitted via
//!   [`Effects`] comes due.
//!
//! Consequences are appended to an [`Effects`] buffer; the caller owns
//! the event queue. The caller also calls [`Hub::settle`] before each
//! entry point, and at the end of a run through
//! [`Hub::last_command_at`]. See the crate docs for the timing
//! calibration.
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
//! * A [`Train`] is an encoding, not a model change. Its `test open`
//!   goes to the controller like any command; at the grant the HUB
//!   computes the rest of the hop inline — the first item behind the
//!   open starts when both the grant and the item are in and the
//!   output is free, each next one when the previous one's last byte
//!   has left — and sends the remainder on as one train. What the
//!   item-by-item HUB would change later (the output's ready bit, the
//!   forwarding counters, the queue's charged bytes, all at the
//!   packet's forward) is held as a pending change and applied by
//!   [`Hub::settle`] in the order the engine would have popped the
//!   event that made it. Telemetry is recorded at the grant with its
//!   own, later, timestamps. One `HeadDone` is deferred, for the
//!   `close all`. The HUB takes a train whole only when that is exact
//!   (see [`Hub::train_arrives`]); otherwise the caller delivers the
//!   items one by one.
//! * The controller executes one command per cycle. An `open` or `lock`
//!   with retry that it refuses parks on its output; when the output
//!   changes in a way that can make it grantable (a disconnect, a ready
//!   bit set, an unlock, an `enable port`), every command parked there
//!   gets a new slot, and under contention most are refused again. Only
//!   an attempt that would be granted gets an [`InternalEv::CtrlExec`]:
//!   one that would be granted on its output as the output stands, and
//!   as the attempts scheduled ahead of it on that output would leave
//!   it. The others run no event. Each still takes its slot (so grant
//!   order and instants do not move), and [`Hub::settle`] resolves it at
//!   its `(at, key)`, in one order with the pending changes: counted,
//!   refused and parked at the back of its output's queue. That is
//!   exact because every change that could let such an attempt through
//!   before its slot judges it again and arms it: each change that wakes
//!   the output's parked commands does, so do a `reset` and a `disable
//!   port` (which free and unlock outputs and drop heads), and so does
//!   an armed attempt refused after all, whose success the attempts
//!   behind it were judged against. An attempt armed by a change at its
//!   own instant is deferred for that instant: it belongs among the
//!   instant's events not yet dispatched, at its wire key, where its
//!   event would have been had it been made in advance.

use crate::command::{Command, Op, Reply, SupervisorOp, UserOp, COMMAND_WIRE_BYTES};
use crate::config::HubConfig;
use crate::counters::HubCounters;
use crate::crossbar::Crossbar;
use crate::effects::{Effects, InternalEv, Wire};
use crate::id::{HubId, PortId, PortSet};
use crate::item::{Item, Packet, CLOSE_ALL_WIRE_BYTES, PACKET_FRAMING_BYTES};
use crate::status::PortStatus;
use crate::train::{Tie, Train, TrainEmission};
use nectar_sim::telemetry::{EventKind, FlightId, Telemetry};
use nectar_sim::time::{Dur, Time};
use std::collections::VecDeque;

#[derive(Clone, Debug, PartialEq, Eq)]
enum HeadState {
    /// No head is being processed (queue may be empty).
    Idle,
    /// Head command submitted to the controller, to execute in the
    /// slot that ends at `at`.
    AwaitingController { seq: u64, at: Time },
    /// Head command was refused and is parked on its output.
    AwaitingRetry { seq: u64 },
    /// Head item needs a crossbar connection from this input.
    AwaitingConnection { seq: u64 },
    /// Head item is being forwarded.
    Draining { seq: u64 },
}

#[derive(Clone, Debug)]
struct Queued {
    seq: u64,
    /// The item; for a train, its first item (this HUB's open).
    item: Item,
    /// When the item's first byte arrived.
    head_at: Time,
    /// Bytes charged against queue capacity for this item.
    charged: usize,
    /// The rest of the train `item` heads, if it heads one.
    train: Option<TrainRest>,
}

/// What a queued train carries behind its open.
#[derive(Clone, Debug)]
struct TrainRest {
    opens_behind: u8,
    /// Taken at the grant: from then on the packet travels downstream
    /// and this HUB holds no reference to its buffer.
    packet: Option<Packet>,
    spacing: Dur,
    route: u64,
    key: u64,
}

/// The forward of a granted train's packet, fixed for a later instant
/// where the item-by-item HUB would make it: the outputs' ready bits
/// clear, the counters count the packet, the input queue's charge is
/// released. [`Hub::settle`] applies it once the caller is past
/// `(at, key)`.
#[derive(Clone, Copy, Debug)]
struct Pending {
    at: Time,
    /// Key of the event that would have started the forward.
    key: u64,
    input: PortId,
    outs: PortSet,
    charged: usize,
    payload: u64,
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
    /// Commands parked on this port as their output, in the order they
    /// failed.
    parked: VecDeque<Parked>,
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
            parked: VecDeque::new(),
        }
    }
}

/// A retry-flagged command that failed and waits, as the head of
/// `port`, for its output to change state.
#[derive(Clone, Copy, Debug)]
struct Parked {
    port: PortId,
    seq: u64,
    cmd: Command,
}

/// A controller attempt of a retry-flagged command (an open or a lock
/// with retry), in the slot that ends at `at`. Only an `armed` attempt
/// has an [`InternalEv::CtrlExec`]; the others are refused at `at` and
/// resolved by [`Hub::apply_due`].
#[derive(Clone, Copy, Debug)]
struct Attempt {
    at: Time,
    port: PortId,
    seq: u64,
    cmd: Command,
    armed: bool,
}

/// `true` for the commands the controller parks when it refuses them:
/// an open or a lock with retry.
fn retries(cmd: Command) -> bool {
    matches!(cmd.op, Op::User(UserOp::Open { retry: true, .. } | UserOp::Lock { retry: true, .. }))
}

/// An output as the attempts ahead of one would leave it, each taken
/// as granted: who drives it and who holds its lock.
#[derive(Clone, Copy)]
struct Outlook {
    driven: Option<PortId>,
    locked: Option<PortId>,
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
    /// Scheduled attempts of retry-flagged commands, in slot order.
    attempts: VecDeque<Attempt>,
    counters: HubCounters,
    telemetry: Telemetry,
    next_seq: u64,
    /// This HUB's key space (see [`Hub::wire_key`]).
    key_base: u64,
    /// Forwards granted trains fixed for later instants.
    pending: Vec<Pending>,
    /// The earliest place in `pending` (`Time::MAX` when empty).
    next_due: (Time, Tie),
    /// The instant and place of the event being processed, as
    /// [`Hub::settle`] was last told.
    clock: (Time, Tie),
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
            attempts: VecDeque::new(),
            counters: HubCounters::new(),
            telemetry: Telemetry::default(),
            next_seq: 0,
            key_base: 0,
            pending: Vec::new(),
            next_due: (Time::MAX, Tie::LAST),
            clock: (Time::ZERO, Tie::FIRST),
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

    /// The instant the controller executes the last command it has
    /// given a slot ([`Time::ZERO`] before the first): the end of the
    /// HUB's scheduled work on commands.
    pub fn last_command_at(&self) -> Time {
        if self.ctrl_free == Time::ZERO {
            return Time::ZERO;
        }
        self.ctrl_free - self.cfg.cycle + self.cfg.controller_latency
    }

    fn in_range(&self, port: PortId) -> bool {
        port.index() < self.ports.len()
    }

    /// Sets the key space of this HUB's events (see [`Hub::wire_key`]). The
    /// HUB needs it to place the changes a train fixed ahead of time
    /// among the other events of their instant.
    pub fn set_key_base(&mut self, base: u64) {
        self.key_base = base;
    }

    /// The tie-break key of this HUB's events on `wire` of `port`: the
    /// key base (low 11 bits clear), then the port, then the class.
    pub fn wire_key(&self, port: PortId, wire: Wire) -> u64 {
        self.key_base | (port.index() as u64) << 3 | wire as u64
    }

    /// Tells the HUB that the caller is processing an event at `now`
    /// whose place among the events of that instant is `tie`, and
    /// applies every change a granted train fixed for an earlier place
    /// and every controller attempt refused in an earlier slot. A
    /// caller calls this before every entry point; [`Tie::LAST`]
    /// settles everything up to `now` inclusive, for reading the HUB's
    /// state between runs (through [`last_command_at`] to see every
    /// attempt).
    ///
    /// [`last_command_at`]: Hub::last_command_at
    pub fn settle(&mut self, now: Time, tie: Tie) {
        self.clock = (now, tie);
        self.apply_due(now);
    }

    /// Applies what is due before the event being processed at `now`
    /// (all of earlier instants if the caller did not say where at
    /// `now` it is): the pending forwards of granted trains and the
    /// attempts refused without an event, in one `(at, key)` order —
    /// a forward clears a ready bit an attempt reads. Among themselves
    /// the pending forwards touch disjoint state, so their own order
    /// does not matter.
    fn apply_due(&mut self, now: Time) {
        if now < self.next_due.0 && self.attempts.front().is_none_or(|a| now < a.at) {
            return;
        }
        let tie = if self.clock.0 == now { self.clock.1 } else { Tie::FIRST };
        loop {
            let next = self
                .attempts
                .front()
                .map(|a| (a.at, Tie { late: false, key: self.wire_key(a.port, Wire::CtrlExec) }));
            let next = next.filter(|&place| place < (now, tie));
            self.apply_pending_before(next.unwrap_or((now, tie)));
            if next.is_none() {
                return;
            }
            let attempt = self.attempts.pop_front().expect("an attempt is due");
            // An armed attempt is its event's to execute.
            if !attempt.armed {
                self.refuse(attempt);
            }
        }
    }

    /// Applies the pending forwards placed before `place`.
    fn apply_pending_before(&mut self, place: (Time, Tie)) {
        if place <= self.next_due {
            return;
        }
        let (mut i, mut next_due) = (0, (Time::MAX, Tie::LAST));
        while i < self.pending.len() {
            let p = &self.pending[i];
            let at = (p.at, Tie { late: false, key: p.key });
            if at >= place {
                next_due = next_due.min(at);
                i += 1;
                continue;
            }
            let Pending { input, outs, charged, payload, .. } = self.pending.swap_remove(i);
            for out in outs.iter() {
                self.ports[out.index()].ready = false;
            }
            self.counters.packets_forwarded += 1;
            self.counters.bytes_forwarded += payload;
            self.counters.fanout_copies += outs.len() as u64 - 1;
            self.ports[input.index()].queued_bytes -= charged;
        }
        self.next_due = next_due;
    }

    /// `true` while a train is queued at `port` or crosses it: a
    /// supervisor command must not touch such a port, because the
    /// train fixed its crossing at the grant.
    fn train_involves(&self, port: PortId) -> bool {
        self.ports.iter().enumerate().any(|(i, p)| {
            p.queue.iter().any(|q| q.train.is_some())
                && (i == port.index() || self.xbar.output_set(PortId::new(i as u8)).contains(port))
        })
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
        self.apply_due(now);
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
        p.queue.push_back(Queued { seq, item, head_at: now, charged, train: None });
        if p.queue.len() == 1 && p.head == HeadState::Idle {
            self.start_head(now, port, fx);
        }
    }

    /// The head byte of `train` reaches `port`'s incoming fiber at
    /// `now`. Takes the train whole when that is exact, else hands it
    /// back for the caller to deliver item by item (each item at its
    /// own arrival instant, all with the train's key). Whole is exact
    /// when the port is enabled and not looped back, flow control is
    /// on, and the queue holds no charged bytes — then the packet fits
    /// when it arrives and the train's crossing depends on nothing but
    /// the grant. (Items spaced wider than a transit apart, which no
    /// fibre produces, are refused too.) The train's first `test open`
    /// must be addressed to this HUB.
    ///
    /// # Errors
    ///
    /// Returns the train when it must be delivered item by item.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn train_arrives(
        &mut self,
        now: Time,
        port: PortId,
        train: Train,
        fx: &mut Effects,
    ) -> Result<(), Train> {
        assert!(self.in_range(port), "arrival on out-of-range port {port}");
        self.apply_due(now);
        let p = &self.ports[port.index()];
        let size = train.packet.wire_bytes();
        if !p.enabled
            || p.loopback
            || !self.cfg.flow_control
            || p.queued_bytes > 0
            || size > self.cfg.queue_capacity
            || train.spacing > self.cfg.transit
        {
            return Err(train);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // The packet arrives behind this HUB's open and the ones after
        // it. Nothing can read the queue's charge before then — the
        // fibre brings nothing else until the train has passed — so it
        // is charged now.
        let items_ahead = 1 + train.opens_behind as u32;
        let packet_at =
            now + (self.cfg.wire_time(COMMAND_WIRE_BYTES) + train.spacing) * items_ahead as u64;
        self.telemetry.record(
            packet_at,
            FlightId(train.packet.id()),
            EventKind::CrossbarEnqueue {
                hub: self.id.raw(),
                input: port.index() as u8,
                bytes: size as u32,
            },
        );
        let open = Command::open(true, true, false, self.id, train.out);
        let rest = TrainRest {
            opens_behind: train.opens_behind,
            packet: Some(train.packet),
            spacing: train.spacing,
            route: train.route,
            key: train.key,
        };
        let p = &mut self.ports[port.index()];
        p.queued_bytes += size;
        p.queue.push_back(Queued {
            seq,
            item: open.into(),
            head_at: now,
            charged: size,
            train: Some(rest),
        });
        if p.queue.len() == 1 && p.head == HeadState::Idle {
            self.start_head(now, port, fx);
        }
        Ok(())
    }

    /// The downstream peer of `port` reports its input queue drained a
    /// start-of-packet: set the ready bit and wake blocked `test open`s.
    pub fn ready_signal_arrives(&mut self, now: Time, port: PortId, fx: &mut Effects) {
        if !self.in_range(port) {
            return;
        }
        self.apply_due(now);
        self.ports[port.index()].ready = true;
        self.wake_retries_for(now, port, fx);
    }

    /// Feeds back a deferred transition at its due time.
    ///
    /// Every transition but one is deferred for a later instant, or (an
    /// [`InternalEv::OverflowCheck`] with no room left) for the present
    /// one, after everything already queued for it. The exception is an
    /// [`InternalEv::CtrlExec`] deferred for the instant being processed:
    /// a controller attempt scheduled before that instant began and
    /// armed only now (see the module's modelling notes). It belongs to
    /// the instant's events not yet dispatched, in key order at its
    /// [`wire_key`](Hub::wire_key) — not after them.
    pub fn internal(&mut self, now: Time, ev: InternalEv, fx: &mut Effects) {
        self.apply_due(now);
        match ev {
            InternalEv::CtrlExec { port } => self.ctrl_exec(now, port, fx),
            InternalEv::HeadDone { port, seq } => {
                let p = &self.ports[port.index()];
                if p.head == (HeadState::Draining { seq }) {
                    // A train's one head-done is its `close all`'s.
                    let closes = |q: &Queued| q.item == Item::CloseAll || q.train.is_some();
                    if p.queue.front().is_some_and(closes) {
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
        match front.item {
            Item::Command(cmd) if cmd.hub == self.id => {
                // Submit to the central controller once fully received.
                let fully_arrived = head_at + self.cfg.wire_time(COMMAND_WIRE_BYTES);
                if retries(cmd) {
                    self.schedule_attempt(fully_arrived.max(now), Parked { port, seq, cmd });
                    self.rearm(cmd.param, fx);
                } else {
                    let at = self.take_slot(fully_arrived.max(now), port, seq);
                    fx.defer(at, InternalEv::CtrlExec { port });
                }
            }
            _ => self.forward_head(now.max(head_at), port, seq, fx),
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
            // a stale circuit member left by a lost close.
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

    /// The grant of the open heading `port`'s train, at `now`: the rest
    /// of the hop is fixed here, item for item as [`forward_head`]
    /// would fix it. The first item behind the open starts once both
    /// the grant and the item are in and every output is free; each
    /// next one starts when the previous one's last byte has left —
    /// it has always arrived by then, because items reach this HUB at
    /// most a wire time and a transit apart — so the emissions follow
    /// in closed form: a regular train, one transit between one item's
    /// last byte and the next one's first.
    ///
    /// The packet's forward changes state the rest of the system can
    /// read (the outputs' ready bits, the counters, the queue's charge)
    /// at an instant that may lie ahead. It becomes a [`Pending`] keyed
    /// like the event that would have started it: the head-done of the
    /// item before it, or — if the packet arrives at that very instant,
    /// or is the first item and arrives after the grant — its arrival,
    /// whichever the engine would pop later.
    ///
    /// [`forward_head`]: Hub::forward_head
    fn run_train(&mut self, now: Time, port: PortId, fx: &mut Effects) {
        let outs = self.xbar.output_set(port);
        let transit = self.cfg.transit;
        let cmd_wire = self.cfg.wire_time(COMMAND_WIRE_BYTES);
        let head_done_key = self.wire_key(port, Wire::HeadDone);
        let start_free =
            outs.iter().map(|o| self.ports[o.index()].out_busy_until).max().unwrap_or(Time::ZERO);
        let head = self.ports[port.index()].queue.front_mut().expect("the train is the head");
        let (seq, head_at) = (head.seq, head.head_at);
        let charged = std::mem::take(&mut head.charged);
        let rest = head.train.as_mut().expect("the head is a train");
        let packet = rest.packet.take().expect("a train is granted once");
        let (opens, spacing, route, key) =
            (rest.opens_behind as usize, rest.spacing, rest.route, rest.key);
        let hub = self.id.raw();
        // Item `j` behind the open: its arrival, where its forward starts
        // (instant and key), and when its first byte leaves.
        let mut arrival = head_at + cmd_wire + spacing;
        let mut forward = (arrival, key);
        let first_emit = start_free.max(now).max(arrival) + transit;
        let (mut emit, mut done) = (first_emit, first_emit);
        for j in 0..opens + 2 {
            let (bytes, flight) = match j.cmp(&opens) {
                std::cmp::Ordering::Less => (COMMAND_WIRE_BYTES, FlightId::NONE),
                std::cmp::Ordering::Equal => (packet.wire_bytes(), FlightId(packet.id())),
                std::cmp::Ordering::Greater => (CLOSE_ALL_WIRE_BYTES, FlightId::NONE),
            };
            for out in outs.iter() {
                let output = out.index() as u8;
                let kind = EventKind::CrossbarForward {
                    hub,
                    input: port.index() as u8,
                    output,
                    bytes: bytes as u32,
                };
                self.telemetry.record(emit, flight, kind);
            }
            let wire = self.cfg.wire_time(bytes);
            if j == opens {
                let (at, key) = forward;
                let payload = (bytes - PACKET_FRAMING_BYTES) as u64;
                self.next_due = self.next_due.min((at, Tie { late: false, key }));
                self.pending.push(Pending { at, key, input: port, outs, charged, payload });
                // Tell the upstream peer this queue's start-of-packet
                // emerged.
                fx.ready(emit, port);
            }
            done = emit + wire;
            arrival += wire + spacing;
            debug_assert!(arrival <= done, "the next item is in when this one has left");
            forward =
                if arrival < done { (done, head_done_key) } else { (done, head_done_key.max(key)) };
            emit = done + transit;
        }
        let tail = done;
        for out in outs.iter() {
            self.ports[out.index()].out_busy_until = tail;
            let packet = packet.clone();
            fx.train(TrainEmission {
                at: first_emit,
                port: out,
                opens: opens as u8,
                packet,
                route,
            });
        }
        self.ports[port.index()].head = HeadState::Draining { seq };
        fx.defer(tail, InternalEv::HeadDone { port, seq });
        self.apply_due(now);
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
            // The blocked head was the victim.
            self.ports[port.index()].head = HeadState::Idle;
            self.start_head(now, port, fx);
        }
    }

    // ---------------------------------------------------------------
    // Controller
    // ---------------------------------------------------------------

    fn ctrl_exec(&mut self, now: Time, port: PortId, fx: &mut Effects) {
        if self.attempts.front().is_some_and(|a| a.at == now) {
            let attempt = self.attempts.pop_front().expect("the attempt is in front");
            debug_assert!(attempt.armed && attempt.port == port, "one controller slot per instant");
        }
        // Stale unless the head's slot ends now: a `disable port` can
        // drop the head, and the port's next command takes a later slot.
        let expected = match self.ports[port.index()].head {
            HeadState::AwaitingController { seq, at } if at == now => seq,
            _ => return,
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
            UserOp::Open { retry, reply, .. } => {
                if self.grantable(port, cmd, self.outlook(target)) {
                    self.xbar.connect(port, target).expect("a grantable output takes the input");
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
                    if self.ports[port.index()].queue.front().is_some_and(|q| q.train.is_some()) {
                        self.run_train(now, port, fx);
                    } else {
                        self.head_done_now(now, port, fx);
                    }
                } else if retry {
                    // Armed, yet refused: what the attempts behind it
                    // on the output were judged against did not happen.
                    self.park(Parked { port, seq, cmd });
                    self.rearm(target, fx);
                } else {
                    self.counters.opens_failed += 1;
                    if reply {
                        self.emit_reply(now, port, Reply::Nack { hub: self.id, port: target }, fx);
                    }
                    self.head_done_now(now, port, fx);
                }
            }
            UserOp::Close => {
                assert!(!self.train_involves(target), "close of {target} under a train");
                if let Some(input) = self.xbar.disconnect_output(target) {
                    self.record_close(now, input, target);
                    self.wake_retries_for(now, target, fx);
                }
                self.head_done_now(now, port, fx);
            }
            UserOp::CloseInput => {
                assert!(!self.train_involves(target), "close input of {target} under a train");
                for out in self.xbar.disconnect_input(target) {
                    self.record_close(now, target, out);
                    self.wake_retries_for(now, out, fx);
                }
                self.head_done_now(now, port, fx);
            }
            UserOp::Lock { retry, reply } => {
                // A port that does not exist can never be locked, so a
                // lock on it is refused outright rather than parked.
                let exists = self.in_range(target);
                let ok = exists && self.grantable(port, cmd, self.outlook(target));
                if ok {
                    self.ports[target.index()].locked_by = Some(port);
                    self.counters.locks_acquired += 1;
                    if reply {
                        self.emit_reply(now, port, Reply::Ack { hub: self.id, port: target }, fx);
                    }
                    self.head_done_now(now, port, fx);
                } else if retry && exists {
                    self.park(Parked { port, seq, cmd });
                    self.rearm(target, fx);
                } else {
                    if reply {
                        self.emit_reply(now, port, Reply::Nack { hub: self.id, port: target }, fx);
                    }
                    self.head_done_now(now, port, fx);
                }
            }
            UserOp::Unlock => {
                if self.in_range(target) && self.ports[target.index()].locked_by == Some(port) {
                    self.ports[target.index()].locked_by = None;
                    self.wake_retries_for(now, target, fx);
                }
                self.head_done_now(now, port, fx);
            }
            UserOp::QueryStatus | UserOp::QueryReady => {
                // A port that does not exist answers like a disabled one.
                let status =
                    if self.in_range(target) { self.status(target) } else { PortStatus::default() };
                let bits = status.pack();
                self.emit_reply(now, port, Reply::Status { hub: self.id, port: target, bits }, fx);
                self.head_done_now(now, port, fx);
            }
            UserOp::SetReady => {
                if self.in_range(target) {
                    self.ports[target.index()].ready = true;
                    self.wake_retries_for(now, target, fx);
                }
                self.head_done_now(now, port, fx);
            }
            UserOp::ClearReady => {
                if self.in_range(target) {
                    self.ports[target.index()].ready = false;
                }
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

    fn exec_supervisor(
        &mut self,
        now: Time,
        port: PortId,
        cmd: Command,
        sup: SupervisorOp,
        fx: &mut Effects,
    ) {
        let target = cmd.param;
        let under_train = match sup {
            SupervisorOp::Reset => {
                self.ports.iter().any(|p| p.queue.iter().any(|q| q.train.is_some()))
            }
            SupervisorOp::ReadCounters | SupervisorOp::ClearCounters => false,
            _ => self.train_involves(target),
        };
        assert!(!under_train, "supervisor {sup:?} touches a port a train crosses");
        match sup {
            SupervisorOp::Reset => {
                self.xbar.disconnect_all();
                for p in &mut self.ports {
                    p.parked.clear();
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
                // Every output is free, unlocked and ready.
                self.rearm_all(fx);
            }
            SupervisorOp::EnablePort => {
                if self.in_range(target) && !self.ports[target.index()].enabled {
                    self.ports[target.index()].enabled = true;
                    self.wake_retries_for(now, target, fx);
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
                    // The port's own parked command went with its queue.
                    // Those parked on it stay: `enable port` wakes them.
                    for p in &mut self.ports {
                        p.parked.retain(|r| r.port != target);
                    }
                    // The port's lock is gone, and its scheduled attempt
                    // with it.
                    self.rearm_all(fx);
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

    /// `output` changed in a way that can make it grantable: every
    /// command parked on it gets a controller slot, in the order they
    /// parked, and every attempt on it that would now be granted is
    /// armed.
    fn wake_retries_for(&mut self, now: Time, output: PortId, fx: &mut Effects) {
        if !self.ports[output.index()].parked.is_empty() {
            let mut parked = std::mem::take(&mut self.ports[output.index()].parked);
            for r in parked.drain(..) {
                self.schedule_attempt(now, r);
            }
            // Hand the emptied buffer back; nothing parked in between.
            self.ports[output.index()].parked = parked;
        }
        self.rearm(output, fx);
    }

    /// Gives the head of `port` the controller's next slot from `ready`
    /// on and returns the instant the slot ends, where the command
    /// executes. Each command costs a serialized controller cycle.
    fn take_slot(&mut self, ready: Time, port: PortId, seq: u64) -> Time {
        let exec_at = ready.max(self.ctrl_free);
        self.ctrl_free = exec_at + self.cfg.cycle;
        let at = exec_at + self.cfg.controller_latency;
        self.ports[port.index()].head = HeadState::AwaitingController { seq, at };
        at
    }

    /// Gives a retry-flagged command a slot as an attempt, not yet
    /// armed: the caller re-arms its output.
    fn schedule_attempt(&mut self, ready: Time, r: Parked) {
        let at = self.take_slot(ready, r.port, r.seq);
        self.attempts.push_back(Attempt { at, port: r.port, seq: r.seq, cmd: r.cmd, armed: false });
    }

    /// Arms every scheduled attempt on `output` that would be granted on
    /// the output as it is now and as the attempts ahead of it would
    /// leave it: those get an [`InternalEv::CtrlExec`]. The rest stay
    /// refused until the next change that can make `output` grantable
    /// calls this again — a disconnect, a ready bit set, an unlock, an
    /// enable, or an armed attempt that was refused after all. An armed
    /// attempt stays armed: if it loses after all, it executes and
    /// fails as it would have.
    fn rearm(&mut self, output: PortId, fx: &mut Effects) {
        let mut view = None;
        for i in 0..self.attempts.len() {
            let a = self.attempts[i];
            if a.cmd.param != output || !self.live(&a) {
                continue;
            }
            let view = view.get_or_insert_with(|| self.outlook(output));
            if !self.grantable(a.port, a.cmd, *view) {
                continue;
            }
            match a.cmd.op {
                Op::User(UserOp::Lock { .. }) => view.locked = Some(a.port),
                _ => view.driven = Some(a.port),
            }
            if !a.armed {
                self.attempts[i].armed = true;
                fx.defer(a.at, InternalEv::CtrlExec { port: a.port });
            }
        }
    }

    /// [`rearm`](Hub::rearm) on every output an attempt is scheduled on.
    fn rearm_all(&mut self, fx: &mut Effects) {
        let mut outputs = PortSet::EMPTY;
        for a in &self.attempts {
            outputs.insert(a.cmd.param);
        }
        for out in outputs.iter() {
            self.rearm(out, fx);
        }
    }

    /// `true` while the attempt's command still heads its port (a
    /// `disable port` drops it).
    fn live(&self, a: &Attempt) -> bool {
        self.ports[a.port.index()].head == HeadState::AwaitingController { seq: a.seq, at: a.at }
    }

    /// `output` as it is now.
    fn outlook(&self, output: PortId) -> Outlook {
        match self.ports.get(output.index()) {
            Some(p) => Outlook { driven: self.xbar.input_for(output), locked: p.locked_by },
            None => Outlook { driven: None, locked: None },
        }
    }

    /// Whether the controller would grant `cmd` from `input` on its
    /// output as `view` has it. A lock of a port the HUB does not have
    /// counts as granted: it is refused outright, not parked.
    fn grantable(&self, input: PortId, cmd: Command, view: Outlook) -> bool {
        let output = cmd.param;
        let unlocked = view.locked.is_none_or(|holder| holder == input);
        match cmd.op {
            Op::User(UserOp::Open { test, .. }) => {
                self.ports.get(output.index()).is_some_and(|p| {
                    p.enabled
                        && unlocked
                        && (!test || !self.cfg.flow_control || p.ready)
                        && input != output
                        && view.driven.is_none_or(|by| by == input)
                })
            }
            Op::User(UserOp::Lock { .. }) => !self.in_range(output) || unlocked,
            _ => true,
        }
    }

    /// Parks the command heading `r.port`, refused in its slot, on its
    /// output. (One on a port the HUB does not have is never woken.)
    fn park(&mut self, r: Parked) {
        if matches!(r.cmd.op, Op::User(UserOp::Open { .. })) {
            self.counters.opens_retried += 1;
        }
        if let Some(out) = self.ports.get_mut(r.cmd.param.index()) {
            out.parked.push_back(r);
        }
        self.ports[r.port.index()].head = HeadState::AwaitingRetry { seq: r.seq };
    }

    /// Resolves an attempt no event was made for, in its slot: the
    /// controller executes it, refuses it and parks it — exactly what
    /// its [`InternalEv::CtrlExec`] would have done, because every
    /// change that could have let it through re-armed it.
    fn refuse(&mut self, a: Attempt) {
        if !self.live(&a) {
            return;
        }
        debug_assert!(
            !self.grantable(a.port, a.cmd, self.outlook(a.cmd.param)),
            "an attempt without an event is refused in its slot: {a:?}"
        );
        self.counters.commands_executed += 1;
        self.park(Parked { port: a.port, seq: a.seq, cmd: a.cmd });
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
