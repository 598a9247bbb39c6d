//! Transport-invariant checker: what must hold at quiescence, no
//! matter what the chaos schedule did to the wire.
//!
//! The chaos subsystem ([`nectar_sim::chaos`]) may drop, duplicate,
//! reorder, corrupt, and delay packets, flap links, and kill HUB
//! ports. The transport protocols promise to hide all of it. This
//! module states that promise as three checkable invariants:
//!
//! 1. **Exactly-once, in-order delivery** per byte stream: every
//!    message the application sent arrives exactly once, in send
//!    order, byte-identical — no loss, no duplication, no
//!    reordering visible above the transport.
//! 2. **At-most-once execution** per RPC transaction: a server never
//!    executes a request twice, however many times the client
//!    retransmitted it (§6.3 semantics).
//! 3. **Counter coherence**: sender and receiver agree — packets
//!    first-sent equal packets accepted, messages completed equal
//!    messages delivered, and nothing is still in flight.
//!
//! The checker is deterministic: run the same seeded workload under
//! the same [`ChaosSchedule`](nectar_sim::chaos::ChaosSchedule) twice
//! and the verdict list is identical. On violation,
//! [`replay_line`] renders the `report` binary flags that reproduce
//! the failing schedule.
//!
//! # Examples
//!
//! ```
//! use nectar_core::invariants::InvariantChecker;
//! use nectar_core::prelude::*;
//! use nectar_sim::prelude::*;
//!
//! let mut world = World::new(Topology::single_hub(2, 16), SystemConfig::default());
//! world.set_chaos(ChaosSchedule::new(7).with(Clause::new(Fault::Loss { rate: 0.05 })));
//! let mut checker = InvariantChecker::new();
//! let payload = vec![42u8; 3000];
//! world.send_stream_now(0, 1, 1, 2, &payload);
//! checker.expect_stream(0, 1, 2, &payload);
//! world.run_until(Time::from_millis(500));
//! let violations = checker.check(&mut world);
//! assert!(violations.is_empty(), "{violations:?}");
//! ```

use crate::shard::ShardedWorld;
use crate::world::World;
use nectar_kernel::mailbox::Message;
use nectar_proto::transport::bytestream::ByteStreamStats;
use std::fmt;

/// Everything the checker reads from a world, abstracted so the same
/// audit runs against the sequential [`World`] and the
/// conservative-parallel [`ShardedWorld`] — the determinism story
/// (DESIGN.md §11) demands that both produce the same verdicts, and a
/// shared audit path is how the differential tests state that.
pub trait Auditable {
    /// Takes the next message out of a mailbox (drains in audit order).
    fn mailbox_take(&mut self, cab: usize, mailbox: u16) -> Option<Message>;
    /// RPC server counters: `(executed, duplicates, replays)`.
    fn rpc_server_stats(&self, idx: usize) -> (u64, u64, u64);
    /// `true` when streams have drained and no RPC is outstanding.
    fn transport_quiescent(&self) -> bool;
    /// Byte-stream statistics from `src` towards `dst`.
    fn stream_stats(&self, src: usize, dst: usize) -> Option<ByteStreamStats>;
}

impl Auditable for World {
    fn mailbox_take(&mut self, cab: usize, mailbox: u16) -> Option<Message> {
        World::mailbox_take(self, cab, mailbox)
    }
    fn rpc_server_stats(&self, idx: usize) -> (u64, u64, u64) {
        World::rpc_server_stats(self, idx)
    }
    fn transport_quiescent(&self) -> bool {
        World::transport_quiescent(self)
    }
    fn stream_stats(&self, src: usize, dst: usize) -> Option<ByteStreamStats> {
        World::stream_stats(self, src, dst)
    }
}

impl Auditable for ShardedWorld {
    fn mailbox_take(&mut self, cab: usize, mailbox: u16) -> Option<Message> {
        ShardedWorld::mailbox_take(self, cab, mailbox)
    }
    fn rpc_server_stats(&self, idx: usize) -> (u64, u64, u64) {
        ShardedWorld::rpc_server_stats(self, idx)
    }
    fn transport_quiescent(&self) -> bool {
        ShardedWorld::transport_quiescent(self)
    }
    fn stream_stats(&self, src: usize, dst: usize) -> Option<ByteStreamStats> {
        ShardedWorld::stream_stats(self, src, dst)
    }
}

/// One expected byte-stream delivery.
#[derive(Clone, Debug)]
struct StreamExpectation {
    src: usize,
    dst: usize,
    mailbox: u16,
    payload: Vec<u8>,
}

/// A broken transport invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A sent message never reached its destination mailbox.
    Lost {
        /// Sending CAB.
        src: usize,
        /// Receiving CAB.
        dst: usize,
        /// Destination mailbox.
        mailbox: u16,
        /// Position of the message in the flow's send order.
        index: usize,
    },
    /// A message arrived with the wrong bytes or out of send order.
    Mismatched {
        /// Receiving CAB.
        dst: usize,
        /// Destination mailbox.
        mailbox: u16,
        /// Position in the flow's send order.
        index: usize,
        /// What went wrong.
        detail: String,
    },
    /// A mailbox held more messages than were sent to it.
    Duplicated {
        /// Receiving CAB.
        dst: usize,
        /// Destination mailbox.
        mailbox: u16,
        /// Messages beyond the expected count.
        extra: usize,
    },
    /// A server executed more requests than clients issued.
    MultipleExecution {
        /// Serving CAB.
        server: usize,
        /// Requests the server executed.
        executed: u64,
        /// Distinct transactions clients issued to it.
        issued: u64,
    },
    /// Sender- and receiver-side counters disagree at quiescence.
    CounterMismatch {
        /// Sending CAB.
        src: usize,
        /// Receiving CAB.
        dst: usize,
        /// Which counters, and their values.
        detail: String,
    },
    /// A stream or RPC client still holds in-flight state.
    NotQuiescent {
        /// Which component is still busy.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Lost { src, dst, mailbox, index } => {
                write!(f, "lost: message #{index} of cab{src}->cab{dst} mailbox {mailbox}")
            }
            Violation::Mismatched { dst, mailbox, index, detail } => {
                write!(f, "mismatch: message #{index} at cab{dst} mailbox {mailbox}: {detail}")
            }
            Violation::Duplicated { dst, mailbox, extra } => {
                write!(f, "duplicate: {extra} extra message(s) at cab{dst} mailbox {mailbox}")
            }
            Violation::MultipleExecution { server, executed, issued } => {
                write!(f, "multiple execution: cab{server} executed {executed} of {issued} issued")
            }
            Violation::CounterMismatch { src, dst, detail } => {
                write!(f, "counter mismatch cab{src}->cab{dst}: {detail}")
            }
            Violation::NotQuiescent { detail } => write!(f, "not quiescent: {detail}"),
        }
    }
}

/// Records what the workload sent, then audits the world at
/// quiescence. See the [module docs](self) for the invariants.
#[derive(Default)]
pub struct InvariantChecker {
    streams: Vec<StreamExpectation>,
    /// Distinct RPC transactions issued, per server CAB index.
    rpc_issued: Vec<(usize, u64)>,
}

impl InvariantChecker {
    /// A checker expecting nothing (vacuously satisfied).
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// Records that the workload sent `payload` from `src` to `dst`'s
    /// `mailbox` over the reliable byte stream. Call in send order;
    /// per `(dst, mailbox)` the checker demands exactly this sequence.
    /// Give each `src -> dst` flow its own destination mailbox —
    /// cross-sender interleaving within one mailbox is unordered.
    pub fn expect_stream(&mut self, src: usize, dst: usize, mailbox: u16, payload: &[u8]) {
        self.streams.push(StreamExpectation { src, dst, mailbox, payload: payload.to_vec() });
    }

    /// Records that a client issued one RPC transaction to `server`.
    pub fn expect_rpc(&mut self, server: usize) {
        match self.rpc_issued.iter_mut().find(|(s, _)| *s == server) {
            Some((_, n)) => *n += 1,
            None => self.rpc_issued.push((server, 1)),
        }
    }

    /// Audits `world` against everything recorded. Call at
    /// quiescence (after [`run_to_quiescence`](World::run_to_quiescence)
    /// or a generous [`run_until`](World::run_until)); an empty vec
    /// means every invariant held. Drains the expected mailboxes.
    /// Accepts any [`Auditable`] world — sequential or sharded.
    pub fn check<A: Auditable>(&mut self, world: &mut A) -> Vec<Violation> {
        let mut violations = Vec::new();
        self.check_streams(world, &mut violations);
        self.check_rpc(world, &mut violations);
        self.check_counters(world, &mut violations);
        violations
    }

    /// Invariant 1: exactly-once in-order byte-identical delivery.
    fn check_streams<A: Auditable>(&self, world: &mut A, violations: &mut Vec<Violation>) {
        let mut flows: Vec<(usize, u16)> = Vec::new();
        for e in &self.streams {
            if !flows.contains(&(e.dst, e.mailbox)) {
                flows.push((e.dst, e.mailbox));
            }
        }
        for (dst, mailbox) in flows {
            let expected: Vec<&StreamExpectation> =
                self.streams.iter().filter(|e| e.dst == dst && e.mailbox == mailbox).collect();
            let mut got = Vec::new();
            while let Some(msg) = world.mailbox_take(dst, mailbox) {
                got.push(msg);
            }
            for (index, e) in expected.iter().enumerate() {
                match got.get(index) {
                    None => violations.push(Violation::Lost { src: e.src, dst, mailbox, index }),
                    Some(msg) if msg.data() != &e.payload[..] => {
                        let detail = if msg.data().len() != e.payload.len() {
                            format!("length {} != sent {}", msg.data().len(), e.payload.len())
                        } else {
                            "payload bytes differ (reordered or corrupted)".to_owned()
                        };
                        violations.push(Violation::Mismatched { dst, mailbox, index, detail });
                    }
                    Some(_) => {}
                }
            }
            if got.len() > expected.len() {
                violations.push(Violation::Duplicated {
                    dst,
                    mailbox,
                    extra: got.len() - expected.len(),
                });
            }
        }
    }

    /// Invariant 2: at-most-once execution per RPC transaction.
    fn check_rpc<A: Auditable>(&self, world: &A, violations: &mut Vec<Violation>) {
        for &(server, issued) in &self.rpc_issued {
            let (executed, _dups, _replays) = world.rpc_server_stats(server);
            if executed > issued {
                violations.push(Violation::MultipleExecution { server, executed, issued });
            }
        }
    }

    /// Invariant 3: counter coherence and transport quiescence.
    fn check_counters<A: Auditable>(&self, world: &A, violations: &mut Vec<Violation>) {
        if !world.transport_quiescent() {
            violations.push(Violation::NotQuiescent {
                detail: "a stream holds in-flight/backlogged data or an RPC call is outstanding"
                    .to_owned(),
            });
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for e in &self.streams {
            if !pairs.contains(&(e.src, e.dst)) {
                pairs.push((e.src, e.dst));
            }
        }
        for (src, dst) in pairs {
            let Some(tx) = world.stream_stats(src, dst) else { continue };
            let Some(rx) = world.stream_stats(dst, src) else {
                violations.push(Violation::CounterMismatch {
                    src,
                    dst,
                    detail: "receiver side has no stream state".to_owned(),
                });
                continue;
            };
            if tx.data_sent != rx.accepted {
                violations.push(Violation::CounterMismatch {
                    src,
                    dst,
                    detail: format!(
                        "data_sent {} != accepted {} (a first transmission vanished or doubled)",
                        tx.data_sent, rx.accepted
                    ),
                });
            }
            if tx.completed != rx.delivered {
                violations.push(Violation::CounterMismatch {
                    src,
                    dst,
                    detail: format!("completed {} != delivered {}", tx.completed, rx.delivered),
                });
            }
        }
    }
}

/// The `report` binary flags that replay `schedule` exactly:
/// `--chaos-seed <seed> --chaos-spec '<spec>'`.
pub fn replay_line(schedule: &nectar_sim::chaos::ChaosSchedule) -> String {
    format!("--chaos-seed {} --chaos-spec '{}'", schedule.seed, schedule.spec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::world::SystemConfig;
    use nectar_sim::time::Time;

    #[test]
    fn clean_run_satisfies_all_invariants() {
        let mut world = World::new(Topology::single_hub(2, 16), SystemConfig::default());
        let mut checker = InvariantChecker::new();
        let payload = vec![7u8; 4000];
        world.send_stream_now(0, 1, 1, 2, &payload);
        checker.expect_stream(0, 1, 2, &payload);
        world.run_until(Time::from_millis(100));
        let v = checker.check(&mut world);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lost_message_is_reported() {
        let mut world = World::new(Topology::single_hub(2, 16), SystemConfig::default());
        let mut checker = InvariantChecker::new();
        // Expect a message that was never sent: the checker must flag
        // it as lost rather than pass vacuously.
        checker.expect_stream(0, 1, 2, &[1, 2, 3]);
        world.run_until(Time::from_millis(1));
        let v = checker.check(&mut world);
        assert!(
            v.iter().any(|x| matches!(x, Violation::Lost { .. })),
            "expected a Lost violation, got {v:?}"
        );
    }

    #[test]
    fn violations_render_replay_context() {
        use nectar_sim::chaos::{ChaosSchedule, Clause, Fault};
        let s = ChaosSchedule::new(42).with(Clause::new(Fault::Loss { rate: 0.125 }));
        let line = replay_line(&s);
        assert!(line.contains("--chaos-seed 42"), "{line}");
        assert!(line.contains("loss("), "{line}");
        let v = Violation::MultipleExecution { server: 1, executed: 3, issued: 2 };
        assert_eq!(v.to_string(), "multiple execution: cab1 executed 3 of 2 issued");
    }
}
