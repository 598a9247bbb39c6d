//! The HUB status table.
//!
//! "A status table is used to keep track of existing connections and to
//! ensure that no new connections are made to output registers that are
//! already in use. The status table is maintained by a central
//! controller and can be interrogated by the CABs" (§4.1). This module
//! holds the per-port view a `query status` command answers with.

use crate::id::PortId;
use core::fmt;

/// Status of one port, as reported to a `query status` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortStatus {
    /// The input queue currently driving this port's output register.
    pub driven_by: Option<PortId>,
    /// The input holding a lock on this port's output register.
    pub locked_by: Option<PortId>,
    /// The ready bit: the downstream input queue can accept a packet.
    pub ready: bool,
    /// The port is in service (supervisor enable/disable).
    pub enabled: bool,
    /// The port echoes its input to its own output (supervisor
    /// loopback, for link testing).
    pub loopback: bool,
}

impl PortStatus {
    /// Packs the boolean summary into one wire byte for a status reply:
    /// bit 0 = connected, bit 1 = locked, bit 2 = ready, bit 3 =
    /// enabled, bit 4 = loopback.
    pub(crate) fn pack(&self) -> u8 {
        (self.driven_by.is_some() as u8)
            | (self.locked_by.is_some() as u8) << 1
            | (self.ready as u8) << 2
            | (self.enabled as u8) << 3
            | (self.loopback as u8) << 4
    }

    /// Unpacks the wire byte of a status reply (bit 0 = connected, bit 1 =
    /// locked, bit 2 = ready, bit 3 = enabled, bit 4 = loopback).
    /// Port identities of the driver/locker do not travel in the byte,
    /// so they come back as anonymous placeholders (`PortId::new(0)`).
    pub fn unpack(bits: u8) -> PortStatus {
        PortStatus {
            driven_by: (bits & 1 != 0).then(|| PortId::new(0)),
            locked_by: (bits & 2 != 0).then(|| PortId::new(0)),
            ready: bits & 4 != 0,
            enabled: bits & 8 != 0,
            loopback: bits & 16 != 0,
        }
    }
}

impl fmt::Display for PortStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "driven_by={} locked_by={} ready={} enabled={}{}",
            self.driven_by.map_or("-".to_string(), |p| p.to_string()),
            self.locked_by.map_or("-".to_string(), |p| p.to_string()),
            self.ready as u8,
            self.enabled as u8,
            if self.loopback { " loopback" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_flags() {
        let s = PortStatus {
            driven_by: Some(PortId::new(4)),
            locked_by: Some(PortId::new(4)),
            ready: true,
            enabled: true,
            loopback: true,
        };
        let bits = s.pack();
        let back = PortStatus::unpack(bits);
        assert!(back.driven_by.is_some());
        assert!(back.locked_by.is_some());
        assert!(back.ready && back.enabled && back.loopback);
    }

    #[test]
    fn pack_is_injective_over_flag_combinations() {
        let mut seen = std::collections::HashSet::new();
        for connected in [false, true] {
            for locked in [false, true] {
                for ready in [false, true] {
                    for enabled in [false, true] {
                        for loopback in [false, true] {
                            let s = PortStatus {
                                driven_by: connected.then(|| PortId::new(1)),
                                locked_by: locked.then(|| PortId::new(1)),
                                ready,
                                enabled,
                                loopback,
                            };
                            assert!(seen.insert(s.pack()), "collision for {s:?}");
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn display_shows_driver() {
        let s = PortStatus { driven_by: Some(PortId::new(7)), ..PortStatus::default() };
        assert!(s.to_string().contains("driven_by=P7"));
    }
}
