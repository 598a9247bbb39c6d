//! CAB identity.
//!
//! A board has no wrapper type: a simulated CAB owns its
//! [`DmaController`](crate::dma::DmaController) and
//! [`FiberPort`](crate::fiber::FiberPort) directly, next to the kernel
//! and transport state that runs on them.

use core::fmt;

/// Identifies one CAB in the Nectar system.
///
/// # Examples
///
/// ```
/// use nectar_cab::board::CabId;
/// assert_eq!(CabId::new(3).to_string(), "CAB3");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CabId(u16);

impl CabId {
    /// Creates a CAB id.
    pub const fn new(raw: u16) -> CabId {
        CabId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The index form, for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for CabId {
    fn from(raw: u16) -> CabId {
        CabId(raw)
    }
}

impl fmt::Display for CabId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CAB{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cab_id_roundtrip() {
        for raw in [0u16, 1, 29, 1000] {
            assert_eq!(CabId::new(raw).raw(), raw);
            assert_eq!(CabId::from(raw).index(), raw as usize);
        }
    }
}
