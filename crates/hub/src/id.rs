//! Identifiers for HUBs and their I/O ports.
//!
//! Commands on the wire are three bytes — `command, HUB ID, param` —
//! so both identifiers are a single byte, exactly as in the prototype.

use core::fmt;

/// Identifies one HUB in a multi-HUB Nectar-net.
///
/// # Examples
///
/// ```
/// use nectar_hub::id::HubId;
/// let h = HubId::new(2);
/// assert_eq!(h.index(), 2);
/// assert_eq!(h.to_string(), "HUB2");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HubId(u8);

impl HubId {
    /// Creates a HUB id from its wire byte.
    pub const fn new(raw: u8) -> HubId {
        HubId(raw)
    }

    /// The wire byte.
    pub(crate) const fn raw(self) -> u8 {
        self.0
    }

    /// The index form, for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u8> for HubId {
    fn from(raw: u8) -> HubId {
        HubId(raw)
    }
}

impl fmt::Display for HubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HUB{}", self.0)
    }
}

/// Identifies one I/O port on a HUB (the prototype backplane has 16).
///
/// A "port" is a full-duplex pair: an input queue fed by the incoming
/// fiber and an output register driving the outgoing fiber.
///
/// # Examples
///
/// ```
/// use nectar_hub::id::PortId;
/// let p = PortId::new(8);
/// assert_eq!(p.to_string(), "P8");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(u8);

impl PortId {
    /// Creates a port id from its wire byte.
    pub const fn new(raw: u8) -> PortId {
        PortId(raw)
    }

    /// The wire byte.
    pub(crate) const fn raw(self) -> u8 {
        self.0
    }

    /// The index form, for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u8> for PortId {
    fn from(raw: u8) -> PortId {
        PortId(raw)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A set of ports: one bit per possible wire byte, so it is `Copy`,
/// lives inside events without a heap allocation, and iterates in
/// ascending port order (the order a multicast's copies are emitted).
///
/// # Examples
///
/// ```
/// use nectar_hub::id::{PortId, PortSet};
/// let set: PortSet = [9, 3].into_iter().map(PortId::new).collect();
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![PortId::new(3), PortId::new(9)]);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PortSet([u64; 4]);

impl PortSet {
    /// The set with no ports.
    pub(crate) const EMPTY: PortSet = PortSet([0; 4]);

    /// Adds `port`.
    pub(crate) fn insert(&mut self, port: PortId) {
        self.0[port.index() >> 6] |= 1 << (port.index() & 63);
    }

    /// Removes `port` (a no-op if it is not a member).
    pub(crate) fn remove(&mut self, port: PortId) {
        self.0[port.index() >> 6] &= !(1 << (port.index() & 63));
    }

    /// `true` if `port` is a member.
    pub(crate) fn contains(&self, port: PortId) -> bool {
        self.0[port.index() >> 6] & (1 << (port.index() & 63)) != 0
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = PortId> {
        self.0.into_iter().enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some(PortId::new((w as u32 * 64 + bit) as u8))
            })
        })
    }
}

impl FromIterator<PortId> for PortSet {
    fn from_iter<I: IntoIterator<Item = PortId>>(ports: I) -> PortSet {
        let mut set = PortSet::EMPTY;
        for p in ports {
            set.insert(p);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_raw() {
        for raw in 0..=255u8 {
            assert_eq!(HubId::new(raw).raw(), raw);
            assert_eq!(PortId::new(raw).raw(), raw);
            assert_eq!(PortId::from(raw).index(), raw as usize);
        }
    }

    #[test]
    fn display_matches_paper_figures() {
        // Figure 7 labels ports P1..P8 and hubs HUB1..HUB4.
        assert_eq!(HubId::new(1).to_string(), "HUB1");
        assert_eq!(PortId::new(4).to_string(), "P4");
    }

    #[test]
    fn port_set_holds_every_wire_byte_in_ascending_order() {
        let all: PortSet = (0..=255u8).rev().map(PortId::new).collect();
        assert_eq!(all.len(), 256);
        assert_eq!(all.iter().map(PortId::raw).collect::<Vec<_>>(), (0..=255).collect::<Vec<_>>());
        let edges: PortSet = [255, 64, 63, 0, 128].into_iter().map(PortId::new).collect();
        assert_eq!(edges.iter().map(PortId::raw).collect::<Vec<_>>(), vec![0, 63, 64, 128, 255]);
        assert!(PortSet::EMPTY.is_empty() && PortSet::EMPTY.iter().next().is_none());
    }

    #[test]
    fn ordering_is_by_raw_value() {
        assert!(PortId::new(3) < PortId::new(7));
        assert!(HubId::new(0) < HubId::new(1));
    }
}
