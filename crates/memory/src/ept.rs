//! Extended page tables: second-stage translation from guest-physical
//! to (next lower level's) physical addresses.
//!
//! One `Ept` per virtualization level maps that level's RAM. Whether an
//! access is MMIO is decided by the hypervisor, not here (see
//! `World::gpa_is_l0_device`); everything this table does not map
//! faults as an `EptViolation`.

use crate::addr::{Gpa, Hpa};
use crate::pagetable::{PageTable, Perms, TranslateErr, Translation};
use std::fmt;

/// The outcome of a guest-physical access through the EPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptAccess {
    /// Mapped RAM: translated to an output frame.
    Ram(Translation),
    /// Unmapped or permission-denied: an EPT violation.
    Violation(TranslateErr),
}

/// An extended page table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ept {
    table: PageTable,
}

impl Ept {
    /// Creates an empty EPT.
    pub fn new() -> Ept {
        Ept::default()
    }

    /// Identity-maps `n` pages of RAM starting at `base` to host frames
    /// starting at `host_base`.
    pub fn map_ram(&mut self, base: Gpa, host_base: Hpa, n: u64) {
        self.table
            .map_range(base.pfn(), host_base.pfn(), n, Perms::RWX);
    }

    /// Translates a guest access at `gpa` requiring `req` permissions.
    pub fn access(&self, gpa: Gpa, req: Perms) -> EptAccess {
        match self.table.translate(gpa.pfn(), req) {
            Ok(t) => EptAccess::Ram(t),
            Err(e) => EptAccess::Violation(e),
        }
    }

    /// The underlying translation structure.
    pub fn table(&self) -> &PageTable {
        &self.table
    }
}

impl fmt::Display for Ept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ept({} pages)", self.table.mapped_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_translates() {
        let mut ept = Ept::new();
        ept.map_ram(Gpa::new(0), Hpa::new(0x10_0000), 16);
        match ept.access(Gpa::new(0x2004), Perms::RW) {
            EptAccess::Ram(t) => assert_eq!(t.pfn, 0x100 + 2),
            other => panic!("expected RAM, got {other:?}"),
        }
    }

    #[test]
    fn unmapped_is_violation() {
        let ept = Ept::new();
        assert!(matches!(
            ept.access(Gpa::new(0x5000), Perms::RO),
            EptAccess::Violation(TranslateErr::NotMapped { .. })
        ));
    }
}
