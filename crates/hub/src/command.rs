//! The HUB datalink command set.
//!
//! Each command is a three-byte sequence on the fiber —
//! `command, HUB ID, param` (paper §4.2). The prototype implements
//! "38 user commands and 14 supervisor commands"; the paper names only
//! a subset, so this model implements the complete *semantic space*
//! those names span and documents the encoding:
//!
//! * **Open family** (8 variants): `{open, test open} × {plain, with
//!   retry} × {plain, and reply}`. *Test* opens succeed only when the
//!   target output port's ready bit is set (packet-switching flow
//!   control); *retry* keeps the command pending inside the central
//!   controller until it succeeds; *reply* sends an acknowledgement
//!   symbol back along the reverse path once the connection is made.
//! * **Close family**: `close` (one output), `close input` (every
//!   output fed by an input), and the in-band `close all` marker that
//!   travels behind the data and tears the route down as it passes.
//! * **Lock family** (4 variants): `{lock, lock with retry} × {plain,
//!   and reply}` plus `unlock` — reserve an output port so a multi-hop
//!   route can be built without losing a leg to a competing CAB.
//! * **Status family**: `query status`, `query ready`, and the manual
//!   flow-control overrides `set ready` / `clear ready`.
//! * **Supervisor commands**: reset, per-port enable/disable, loopback
//!   on/off, and counter read/clear — the testing/reconfiguration
//!   operations of §4 goal 4.

use crate::id::{HubId, PortId};
use core::fmt;

/// A user command operation (the first wire byte selects one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UserOp {
    /// Connect the issuing input port to the output port named by the
    /// command parameter.
    Open {
        /// Succeed only if the output port's ready bit is set
        /// (packet-switching flow control, §4.2.3).
        test: bool,
        /// Keep trying inside the controller until the open succeeds.
        retry: bool,
        /// Send an acknowledgement back along the reverse path on
        /// success (or a negative one on a non-retry failure).
        reply: bool,
    },
    /// Break the connection feeding the named output port.
    Close,
    /// Break every connection fed by the named input port.
    CloseInput,
    /// Reserve the named output port for the issuing input port.
    Lock {
        /// Keep trying until the lock is acquired.
        retry: bool,
        /// Acknowledge acquisition along the reverse path.
        reply: bool,
    },
    /// Release a lock held by the issuing input port.
    Unlock,
    /// Reply with the status-table entry for the named port.
    QueryStatus,
    /// Reply with the named port's ready bit.
    QueryReady,
    /// Force the named port's ready bit on (network management).
    SetReady,
    /// Force the named port's ready bit off (network management).
    ClearReady,
    /// No operation; consumes a controller cycle (used for testing).
    Nop,
}

impl UserOp {
    /// Every user operation.
    pub fn all() -> Vec<UserOp> {
        vec![
            UserOp::Open { test: false, retry: false, reply: false },
            UserOp::Open { test: false, retry: false, reply: true },
            UserOp::Open { test: false, retry: true, reply: false },
            UserOp::Open { test: false, retry: true, reply: true },
            UserOp::Open { test: true, retry: false, reply: false },
            UserOp::Open { test: true, retry: false, reply: true },
            UserOp::Open { test: true, retry: true, reply: false },
            UserOp::Open { test: true, retry: true, reply: true },
            UserOp::Close,
            UserOp::CloseInput,
            UserOp::Lock { retry: false, reply: false },
            UserOp::Lock { retry: false, reply: true },
            UserOp::Lock { retry: true, reply: false },
            UserOp::Lock { retry: true, reply: true },
            UserOp::Unlock,
            UserOp::QueryStatus,
            UserOp::QueryReady,
            UserOp::SetReady,
            UserOp::ClearReady,
            UserOp::Nop,
        ]
    }

    fn opcode(self) -> u8 {
        match self {
            UserOp::Open { test, retry, reply } => {
                0x10 | (test as u8) << 2 | (retry as u8) << 1 | reply as u8
            }
            UserOp::Close => 0x20,
            UserOp::CloseInput => 0x21,
            UserOp::Lock { retry, reply } => 0x30 | (retry as u8) << 1 | reply as u8,
            UserOp::Unlock => 0x34,
            UserOp::QueryStatus => 0x40,
            UserOp::QueryReady => 0x41,
            UserOp::SetReady => 0x42,
            UserOp::ClearReady => 0x43,
            UserOp::Nop => 0x00,
        }
    }

    fn from_opcode(op: u8) -> Option<UserOp> {
        Some(match op {
            0x10..=0x17 => UserOp::Open {
                test: op & 0b100 != 0,
                retry: op & 0b010 != 0,
                reply: op & 0b001 != 0,
            },
            0x20 => UserOp::Close,
            0x21 => UserOp::CloseInput,
            0x30..=0x33 => UserOp::Lock { retry: op & 0b010 != 0, reply: op & 0b001 != 0 },
            0x34 => UserOp::Unlock,
            0x40 => UserOp::QueryStatus,
            0x41 => UserOp::QueryReady,
            0x42 => UserOp::SetReady,
            0x43 => UserOp::ClearReady,
            0x00 => UserOp::Nop,
            _ => return None,
        })
    }
}

impl fmt::Display for UserOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            UserOp::Open { test, retry, reply } => {
                if test {
                    f.write_str("test ")?;
                }
                f.write_str("open")?;
                if retry {
                    f.write_str(" with retry")?;
                }
                if reply {
                    f.write_str(if retry { " and reply" } else { " with reply" })?;
                }
                Ok(())
            }
            UserOp::Close => f.write_str("close"),
            UserOp::CloseInput => f.write_str("close input"),
            UserOp::Lock { retry, reply } => {
                f.write_str("lock")?;
                if retry {
                    f.write_str(" with retry")?;
                }
                if reply {
                    f.write_str(if retry { " and reply" } else { " with reply" })?;
                }
                Ok(())
            }
            UserOp::Unlock => f.write_str("unlock"),
            UserOp::QueryStatus => f.write_str("query status"),
            UserOp::QueryReady => f.write_str("query ready"),
            UserOp::SetReady => f.write_str("set ready"),
            UserOp::ClearReady => f.write_str("clear ready"),
            UserOp::Nop => f.write_str("nop"),
        }
    }
}

/// A supervisor command operation (system testing and reconfiguration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SupervisorOp {
    /// Clear every connection, lock, and pending retry on the HUB.
    Reset,
    /// Bring the named port into service.
    EnablePort,
    /// Take the named port out of service (existing connections to or
    /// from it are broken).
    DisablePort,
    /// Route the named port's input queue straight to its own output
    /// register, for link testing.
    LoopbackOn,
    /// Undo [`SupervisorOp::LoopbackOn`].
    LoopbackOff,
    /// Reply with the HUB's event counters.
    ReadCounters,
    /// Zero the HUB's event counters.
    ClearCounters,
}

impl SupervisorOp {
    fn opcode(self) -> u8 {
        match self {
            SupervisorOp::Reset => 0x80,
            SupervisorOp::EnablePort => 0x81,
            SupervisorOp::DisablePort => 0x82,
            SupervisorOp::LoopbackOn => 0x83,
            SupervisorOp::LoopbackOff => 0x84,
            SupervisorOp::ReadCounters => 0x85,
            SupervisorOp::ClearCounters => 0x86,
        }
    }

    fn from_opcode(op: u8) -> Option<SupervisorOp> {
        Some(match op {
            0x80 => SupervisorOp::Reset,
            0x81 => SupervisorOp::EnablePort,
            0x82 => SupervisorOp::DisablePort,
            0x83 => SupervisorOp::LoopbackOn,
            0x84 => SupervisorOp::LoopbackOff,
            0x85 => SupervisorOp::ReadCounters,
            0x86 => SupervisorOp::ClearCounters,
            _ => return None,
        })
    }
}

impl fmt::Display for SupervisorOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SupervisorOp::Reset => "reset",
            SupervisorOp::EnablePort => "enable port",
            SupervisorOp::DisablePort => "disable port",
            SupervisorOp::LoopbackOn => "loopback on",
            SupervisorOp::LoopbackOff => "loopback off",
            SupervisorOp::ReadCounters => "read counters",
            SupervisorOp::ClearCounters => "clear counters",
        };
        f.write_str(s)
    }
}

/// User or supervisor operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// One of the 38-command user family.
    User(UserOp),
    /// One of the 14-command supervisor family.
    Supervisor(SupervisorOp),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::User(u) => u.fmt(f),
            Op::Supervisor(s) => s.fmt(f),
        }
    }
}

/// A complete three-byte HUB command: operation, addressed HUB, and a
/// parameter (usually a port on that HUB).
///
/// # Examples
///
/// The first command of the paper's Fig. 7 circuit-switching example,
/// "`open with retry HUB2 P8`":
///
/// ```
/// use nectar_hub::command::{Command, UserOp};
/// use nectar_hub::id::{HubId, PortId};
///
/// let cmd = Command::user(
///     UserOp::Open { test: false, retry: true, reply: false },
///     HubId::new(2),
///     PortId::new(8),
/// );
/// assert_eq!(cmd.to_string(), "open with retry HUB2 P8");
/// let bytes = cmd.encode();
/// assert_eq!(Command::decode(bytes), Some(cmd));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Command {
    /// The operation to perform.
    pub op: Op,
    /// The HUB this command is addressed to; other HUBs forward it.
    pub hub: HubId,
    /// The port (or other) parameter.
    pub param: PortId,
}

/// Wire size of one command: `command, HUB ID, param`.
pub(crate) const COMMAND_WIRE_BYTES: usize = 3;

impl Command {
    /// Builds a user command.
    pub fn user(op: UserOp, hub: HubId, param: PortId) -> Command {
        Command { op: Op::User(op), hub, param }
    }

    /// Builds a supervisor command.
    pub fn supervisor(op: SupervisorOp, hub: HubId, param: PortId) -> Command {
        Command { op: Op::Supervisor(op), hub, param }
    }

    /// Convenience: `open` with the given flags (the workhorse of §4.2).
    pub fn open(test: bool, retry: bool, reply: bool, hub: HubId, port: PortId) -> Command {
        Command::user(UserOp::Open { test, retry, reply }, hub, port)
    }

    /// Encodes to the three wire bytes.
    pub fn encode(self) -> [u8; COMMAND_WIRE_BYTES] {
        let op = match self.op {
            Op::User(u) => u.opcode(),
            Op::Supervisor(s) => s.opcode(),
        };
        [op, self.hub.raw(), self.param.raw()]
    }

    /// Decodes three wire bytes; `None` if the opcode is unassigned.
    pub fn decode(bytes: [u8; COMMAND_WIRE_BYTES]) -> Option<Command> {
        let op = if bytes[0] & 0x80 != 0 {
            Op::Supervisor(SupervisorOp::from_opcode(bytes[0])?)
        } else {
            Op::User(UserOp::from_opcode(bytes[0])?)
        };
        Some(Command { op, hub: HubId::new(bytes[1]), param: PortId::new(bytes[2]) })
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.op, self.hub, self.param)
    }
}

/// A reply symbol travelling the reverse path ("by stealing cycles from
/// these resources whenever necessary, the reply is never blocked",
/// §4.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Reply {
    /// The connection (or lock) requested with a `reply` flag was made.
    Ack {
        /// HUB that executed the command.
        hub: HubId,
        /// Output port that was connected or locked.
        port: PortId,
    },
    /// A non-retry command with a `reply` flag failed.
    Nack {
        /// HUB that rejected the command.
        hub: HubId,
        /// Output port that could not be connected or locked.
        port: PortId,
    },
    /// Answer to `query status`.
    Status {
        /// HUB that answered.
        hub: HubId,
        /// Port queried.
        port: PortId,
        /// Packed status bits (see [`crate::status::PortStatus::unpack`]).
        bits: u8,
    },
    /// Answer to `read counters` (one counter per reply in this model).
    Counters {
        /// HUB that answered.
        hub: HubId,
        /// Total commands executed, saturating at `u8::MAX` on the wire.
        executed: u8,
    },
}

/// Wire size of one reply symbol.
pub(crate) const REPLY_WIRE_BYTES: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    const SUPERVISOR_OPS: [SupervisorOp; 7] = [
        SupervisorOp::Reset,
        SupervisorOp::EnablePort,
        SupervisorOp::DisablePort,
        SupervisorOp::LoopbackOn,
        SupervisorOp::LoopbackOff,
        SupervisorOp::ReadCounters,
        SupervisorOp::ClearCounters,
    ];

    #[test]
    fn every_user_op_roundtrips() {
        for op in UserOp::all() {
            for hub in [0u8, 1, 2, 255] {
                let cmd = Command::user(op, HubId::new(hub), PortId::new(7));
                assert_eq!(Command::decode(cmd.encode()), Some(cmd), "{op:?}");
            }
        }
    }

    #[test]
    fn every_supervisor_op_roundtrips() {
        for op in SUPERVISOR_OPS {
            let cmd = Command::supervisor(op, HubId::new(3), PortId::new(15));
            assert_eq!(Command::decode(cmd.encode()), Some(cmd), "{op:?}");
        }
    }

    #[test]
    fn unassigned_opcodes_rejected() {
        assert_eq!(Command::decode([0x7F, 0, 0]), None);
        assert_eq!(Command::decode([0xFF, 0, 0]), None);
        assert_eq!(Command::decode([0x50, 0, 0]), None);
    }

    #[test]
    fn opcodes_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for op in UserOp::all() {
            assert!(seen.insert(op.opcode()), "duplicate opcode for {op:?}");
        }
        for op in SUPERVISOR_OPS {
            assert!(seen.insert(op.opcode()), "duplicate opcode for {op:?}");
        }
    }

    #[test]
    fn display_matches_paper_phrasing() {
        // These strings are copied from §4.2.1 and §4.2.3 of the paper.
        let c1 = Command::open(false, true, true, HubId::new(1), PortId::new(8));
        assert_eq!(c1.to_string(), "open with retry and reply HUB1 P8");
        let c2 = Command::open(true, true, false, HubId::new(2), PortId::new(8));
        assert_eq!(c2.to_string(), "test open with retry HUB2 P8");
    }

    #[test]
    fn supervisor_bit_is_the_high_bit() {
        for op in SUPERVISOR_OPS {
            assert!(op.opcode() & 0x80 != 0);
        }
        for op in UserOp::all() {
            assert!(op.opcode() & 0x80 == 0);
        }
    }

    #[test]
    fn user_family_count_matches_paper_scale() {
        // The prototype has 38 user commands; our semantic model spans
        // the same families with 20 distinct encodings.
        assert_eq!(UserOp::all().len(), 20);
    }
}
