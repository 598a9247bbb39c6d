//! CAB memory protection.
//!
//! "The CAB's memory protection facility allows each 1 kilobyte page to
//! be protected separately. Each page of the CAB address space
//! (including the CAB registers and devices) can be assigned any subset
//! of read, write, and execute permissions. [...] The memory protection
//! includes hardware support for multiple protection domains, with a
//! separate page protection table for each domain. Currently the CAB
//! supports 32 protection domains. [...] In addition, accesses from
//! over the VME bus are assigned to a VME-specific protection domain"
//! (§5.2).
//!
//! Checks happen "in parallel with the operation so that no latency is
//! added to memory accesses" — accordingly [`ProtectionTable::check`]
//! has no time cost in the simulation; it only grants or faults.

use crate::memory::{CabAddr, ADDRESS_SPACE_BYTES};
use core::fmt;

/// Page size of the protection unit: 1 KB.
pub const PAGE_BYTES: u32 = 1024;
/// Number of protection domains the CAB supports.
pub const DOMAIN_COUNT: usize = 32;

/// One of the 32 protection domains.
///
/// # Examples
///
/// ```
/// use nectar_cab::protection::Domain;
/// let kernel = Domain::KERNEL;
/// let vme = Domain::VME;
/// assert_ne!(kernel, vme);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Domain(u8);

impl Domain {
    /// The CAB kernel's domain (full access by convention).
    pub const KERNEL: Domain = Domain(0);
    /// The domain assigned to accesses arriving over the VME bus.
    pub const VME: Domain = Domain(31);

    /// Creates a user-task domain.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`DOMAIN_COUNT`].
    pub fn new(id: u8) -> Domain {
        assert!((id as usize) < DOMAIN_COUNT, "CAB supports 32 protection domains");
        Domain(id)
    }

    /// The domain index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Access permissions on one page, a subset of read/write/execute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub execute: bool,
}

impl Perms {
    /// No access at all (the default for user domains).
    pub const NONE: Perms = Perms { read: false, write: false, execute: false };
    /// Read-only.
    pub const R: Perms = Perms { read: true, write: false, execute: false };
    /// Read/write.
    pub const RW: Perms = Perms { read: true, write: true, execute: false };
    /// Read/execute (program pages).
    pub const RX: Perms = Perms { read: true, write: false, execute: true };
    /// Everything (kernel pages).
    pub const RWX: Perms = Perms { read: true, write: true, execute: true };

    /// `true` if `self` allows every access `needed` asks for.
    pub fn allows(self, needed: Perms) -> bool {
        (!needed.read || self.read)
            && (!needed.write || self.write)
            && (!needed.execute || self.execute)
    }

    fn bits(self) -> u8 {
        self.read as u8 | (self.write as u8) << 1 | (self.execute as u8) << 2
    }

    fn from_bits(bits: u8) -> Perms {
        Perms { read: bits & 1 != 0, write: bits & 2 != 0, execute: bits & 4 != 0 }
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.execute { 'x' } else { '-' }
        )
    }
}

/// A protection fault: the access was denied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtectionFault {
    /// The domain that attempted the access.
    pub domain: Domain,
    /// The faulting address.
    pub addr: CabAddr,
    /// What the access needed.
    pub needed: Perms,
    /// What the page allowed.
    pub had: Perms,
}

impl fmt::Display for ProtectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protection fault: {} needed {} at {} but page allows {}",
            self.domain, self.needed, self.addr, self.had
        )
    }
}

impl std::error::Error for ProtectionFault {}

/// Per-domain page-protection tables for the whole 24-bit CAB address
/// space.
#[derive(Clone)]
pub struct ProtectionTable {
    /// `perms[domain][page]`, 3 bits used per entry. A domain's row is
    /// empty until its first grant; until then every page reads as the
    /// domain's default. (A world of 64 CABs would otherwise fill 32 MB
    /// of tables at construction that almost no run ever writes.)
    perms: Vec<Vec<u8>>,
}

/// Pages in the 24-bit CAB address space.
const PAGES: usize = (ADDRESS_SPACE_BYTES / PAGE_BYTES) as usize;

/// What a domain may do on a page nobody has granted or revoked: the
/// kernel everything, every other domain nothing.
fn default_bits(domain: Domain) -> u8 {
    if domain == Domain::KERNEL {
        Perms::RWX.bits()
    } else {
        Perms::NONE.bits()
    }
}

impl fmt::Debug for ProtectionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtectionTable")
            .field("domains", &self.perms.len())
            .field("pages_per_domain", &PAGES)
            .finish()
    }
}

impl Default for ProtectionTable {
    fn default() -> Self {
        ProtectionTable::new()
    }
}

impl ProtectionTable {
    /// A table where the kernel domain has full access everywhere and
    /// every other domain (including VME) has none — the kernel must
    /// grant pages explicitly, "the kernel can therefore ensure that
    /// the CAB system software is protected from user tasks and that
    /// user tasks are protected from one another" (§5.2).
    pub fn new() -> ProtectionTable {
        ProtectionTable { perms: vec![Vec::new(); DOMAIN_COUNT] }
    }

    fn bits(&self, domain: Domain, page: usize) -> u8 {
        self.perms[domain.index()].get(page).copied().unwrap_or(default_bits(domain))
    }

    fn page_of(addr: CabAddr) -> usize {
        (addr.0 / PAGE_BYTES) as usize
    }

    /// Grants `perms` on every page overlapping `[addr, addr+len)` for
    /// `domain` (replacing previous permissions on those pages).
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the 24-bit address space.
    pub fn grant(&mut self, domain: Domain, addr: CabAddr, len: u32, perms: Perms) {
        if len == 0 {
            return;
        }
        let end = addr.0.checked_add(len).expect("range overflow");
        assert!(end <= ADDRESS_SPACE_BYTES, "range leaves the CAB address space");
        let first = Self::page_of(addr);
        let last = Self::page_of(CabAddr(end - 1));
        let row = &mut self.perms[domain.index()];
        if row.is_empty() {
            *row = vec![default_bits(domain); PAGES];
        }
        row[first..=last].fill(perms.bits());
    }

    /// Revokes all access to the range for `domain`.
    pub fn revoke(&mut self, domain: Domain, addr: CabAddr, len: u32) {
        self.grant(domain, addr, len, Perms::NONE);
    }

    /// The permissions `domain` holds on the page containing `addr`.
    pub fn perms_at(&self, domain: Domain, addr: CabAddr) -> Perms {
        Perms::from_bits(self.bits(domain, Self::page_of(addr)))
    }

    /// Checks an access of `len` bytes at `addr` needing `needed`.
    ///
    /// # Errors
    ///
    /// Returns the [`ProtectionFault`] for the first page that denies
    /// the access.
    pub fn check(
        &self,
        domain: Domain,
        addr: CabAddr,
        len: u32,
        needed: Perms,
    ) -> Result<(), ProtectionFault> {
        if len == 0 {
            return Ok(());
        }
        let end = addr.0.saturating_add(len).min(ADDRESS_SPACE_BYTES);
        let first = Self::page_of(addr);
        let last = Self::page_of(CabAddr(end - 1));
        for page in first..=last {
            let had = Perms::from_bits(self.bits(domain, page));
            if !had.allows(needed) {
                return Err(ProtectionFault {
                    domain,
                    addr: CabAddr(page as u32 * PAGE_BYTES),
                    needed,
                    had,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DATA_RAM_BASE;

    #[test]
    fn kernel_has_full_access_by_default() {
        let t = ProtectionTable::new();
        assert!(t.check(Domain::KERNEL, DATA_RAM_BASE, 4096, Perms::RWX).is_ok());
    }

    #[test]
    fn user_domains_start_with_nothing() {
        let t = ProtectionTable::new();
        let fault = t.check(Domain::new(5), DATA_RAM_BASE, 4, Perms::R).unwrap_err();
        assert_eq!(fault.had, Perms::NONE);
        assert!(fault.to_string().contains("protection fault"));
    }

    #[test]
    fn grant_is_page_granular() {
        let mut t = ProtectionTable::new();
        let d = Domain::new(3);
        // Granting 1 byte grants the whole 1 KB page.
        t.grant(d, CabAddr(DATA_RAM_BASE.0 + 100), 1, Perms::RW);
        assert!(t.check(d, DATA_RAM_BASE, 1024, Perms::RW).is_ok());
        // The next page is still protected.
        assert!(t.check(d, CabAddr(DATA_RAM_BASE.0 + 1024), 1, Perms::R).is_err());
    }

    #[test]
    fn write_needs_write_permission() {
        let mut t = ProtectionTable::new();
        let d = Domain::new(1);
        t.grant(d, DATA_RAM_BASE, 2048, Perms::R);
        assert!(t.check(d, DATA_RAM_BASE, 8, Perms::R).is_ok());
        let fault = t.check(d, DATA_RAM_BASE, 8, Perms::RW).unwrap_err();
        assert_eq!(fault.needed, Perms::RW);
    }

    #[test]
    fn check_spans_pages_and_faults_on_first_denial() {
        let mut t = ProtectionTable::new();
        let d = Domain::new(2);
        t.grant(d, DATA_RAM_BASE, 1024, Perms::RW);
        // Pages 0 granted, page 1 not: a 2 KB access faults at page 1.
        let fault = t.check(d, DATA_RAM_BASE, 2048, Perms::RW).unwrap_err();
        assert_eq!(fault.addr.0, DATA_RAM_BASE.0 + 1024);
    }

    #[test]
    fn vme_domain_is_isolated_until_granted() {
        let mut t = ProtectionTable::new();
        assert!(t.check(Domain::VME, DATA_RAM_BASE, 4, Perms::R).is_err());
        // The kernel maps a shared buffer for the node.
        t.grant(Domain::VME, DATA_RAM_BASE, 8192, Perms::RW);
        assert!(t.check(Domain::VME, DATA_RAM_BASE, 8192, Perms::RW).is_ok());
    }

    #[test]
    fn revoke_restores_isolation() {
        let mut t = ProtectionTable::new();
        let d = Domain::new(7);
        t.grant(d, DATA_RAM_BASE, 4096, Perms::RW);
        t.revoke(d, DATA_RAM_BASE, 4096);
        assert!(t.check(d, DATA_RAM_BASE, 1, Perms::R).is_err());
    }

    #[test]
    #[should_panic]
    fn domain_ids_are_bounded() {
        let _ = Domain::new(32);
    }

    #[test]
    fn perms_display() {
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!(Perms::RX.to_string(), "r-x");
        assert_eq!(Perms::NONE.to_string(), "---");
    }

    #[test]
    fn zero_length_access_always_ok() {
        let t = ProtectionTable::new();
        assert!(t.check(Domain::new(9), DATA_RAM_BASE, 0, Perms::RWX).is_ok());
    }
}
