//! Extended page tables: second-stage translation from guest-physical
//! to (next lower level's) physical addresses, plus MMIO region
//! classification.
//!
//! As in KVM, MMIO regions are represented by deliberately
//! *misconfigured* EPT ranges so that guest accesses produce cheap
//! `EptMisconfig` exits which the hypervisor resolves to device
//! emulation; RAM is mapped normally; everything else faults as an
//! `EptViolation`.

use crate::addr::{Gpa, Hpa};
use crate::pagetable::{PageTable, Perms, TranslateErr, Translation};
use std::collections::BTreeMap;
use std::fmt;

/// The outcome of classifying a guest-physical access through the EPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptAccess {
    /// Normal RAM: translated to an output frame.
    Ram(Translation),
    /// MMIO region belonging to the identified device region.
    Mmio {
        /// Opaque region id registered by the hypervisor/device model.
        region: u32,
        /// Offset of the access within the region.
        offset: u64,
    },
    /// True violation: unmapped or permission-denied.
    Violation(TranslateErr),
}

/// An extended page table plus MMIO region registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ept {
    table: PageTable,
    /// MMIO regions: base GPA -> (length, region id).
    mmio: BTreeMap<u64, (u64, u32)>,
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

    /// Registers an MMIO region of `len` bytes at `base` with id
    /// `region`. Accesses to it exit with `EptMisconfig` semantics.
    pub fn register_mmio(&mut self, base: Gpa, len: u64, region: u32) {
        self.mmio.insert(base.raw(), (len, region));
    }

    /// Removes an MMIO region registration. Returns `true` if present.
    pub fn unregister_mmio(&mut self, base: Gpa) -> bool {
        self.mmio.remove(&base.raw()).is_some()
    }

    /// Classifies a guest access at `gpa` requiring `req` permissions.
    pub fn access(&mut self, gpa: Gpa, req: Perms) -> EptAccess {
        // MMIO check first: regions shadow any RAM mapping beneath.
        if let Some((&base, &(len, region))) = self.mmio.range(..=gpa.raw()).next_back() {
            if gpa.raw() < base + len {
                return EptAccess::Mmio {
                    region,
                    offset: gpa.raw() - base,
                };
            }
        }
        match self.table.translate(gpa.pfn(), req) {
            Ok(t) => EptAccess::Ram(t),
            Err(e) => EptAccess::Violation(e),
        }
    }

    /// Direct access to the underlying translation structure (used by
    /// shadow-table composition and migration write-protection).
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// Mutable access to the underlying translation structure.
    pub fn table_mut(&mut self) -> &mut PageTable {
        &mut self.table
    }
}

impl fmt::Display for Ept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ept({} pages, {} mmio regions)",
            self.table.mapped_pages(),
            self.mmio.len()
        )
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
    fn mmio_classified_with_offset() {
        let mut ept = Ept::new();
        ept.register_mmio(Gpa::new(0xFE00_0000), 0x1000, 7);
        match ept.access(Gpa::new(0xFE00_0010), Perms::RW) {
            EptAccess::Mmio { region, offset } => {
                assert_eq!(region, 7);
                assert_eq!(offset, 0x10);
            }
            other => panic!("expected MMIO, got {other:?}"),
        }
    }

    #[test]
    fn mmio_shadows_ram() {
        let mut ept = Ept::new();
        // RAM mapped over the whole low range...
        ept.map_ram(Gpa::new(0), Hpa::new(0), 0x1_0000);
        // ...but an MMIO BAR sits inside it.
        ept.register_mmio(Gpa::new(0x8000), 0x1000, 1);
        assert!(matches!(
            ept.access(Gpa::new(0x8000), Perms::RW),
            EptAccess::Mmio { region: 1, .. }
        ));
        assert!(matches!(
            ept.access(Gpa::new(0x9000), Perms::RW),
            EptAccess::Ram(_)
        ));
    }

    #[test]
    fn unmapped_is_violation() {
        let mut ept = Ept::new();
        assert!(matches!(
            ept.access(Gpa::new(0x5000), Perms::RO),
            EptAccess::Violation(TranslateErr::NotMapped { .. })
        ));
    }

    #[test]
    fn unregister_mmio_restores_violation() {
        let mut ept = Ept::new();
        ept.register_mmio(Gpa::new(0x8000), 0x1000, 1);
        assert!(ept.unregister_mmio(Gpa::new(0x8000)));
        assert!(!ept.unregister_mmio(Gpa::new(0x8000)));
        assert!(matches!(
            ept.access(Gpa::new(0x8000), Perms::RO),
            EptAccess::Violation(_)
        ));
    }

    #[test]
    fn access_outside_mmio_region_not_matched() {
        let mut ept = Ept::new();
        ept.register_mmio(Gpa::new(0x8000), 0x1000, 1);
        assert!(matches!(
            ept.access(Gpa::new(0x9000), Perms::RO),
            EptAccess::Violation(_)
        ));
    }
}
