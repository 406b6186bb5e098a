//! I/O page tables and shadow composition for (recursive)
//! virtual-passthrough.
//!
//! With virtual-passthrough (§3.1), the guest hypervisor programs a
//! *virtual* IOMMU with mappings from nested-VM physical addresses to
//! its own (L1) physical addresses. The host hypervisor combines that
//! chain with its own stage of translation into a single **shadow I/O
//! page table** so DMA performed on behalf of the virtual device
//! reaches the right host frames in one lookup — exactly the shadow
//! page tables of Fig. 6 ("only the virtual IOMMU provided by the host
//! hypervisor is used when the virtual I/O device accesses Ln memory").

use crate::pagetable::{PageTable, Perms, TranslateErr, Translation};
use std::fmt;

/// A single stage of I/O translation (one (v)IOMMU domain).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoTable {
    table: PageTable,
}

impl IoTable {
    /// Creates an empty I/O page table.
    pub fn new() -> IoTable {
        IoTable::default()
    }

    /// Maps `n` pages from the device-visible space (`iova_pfn`) to the
    /// next address space down (`out_pfn`).
    pub fn map(&mut self, iova_pfn: u64, out_pfn: u64, n: u64, perms: Perms) {
        self.table.map_range(iova_pfn, out_pfn, n, perms);
    }

    /// Unmaps one page. Returns `true` if a mapping was removed.
    pub fn unmap(&mut self, iova_pfn: u64) -> bool {
        self.table.unmap(iova_pfn).is_some()
    }

    /// Translates one page for an access with `req` permissions.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`TranslateErr`].
    pub fn translate(&self, iova_pfn: u64, req: Perms) -> Result<Translation, TranslateErr> {
        self.table.translate(iova_pfn, req)
    }

    /// The underlying radix table.
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.table.mapped_pages()
    }
}

/// A shadow I/O page table combining a chain of translation stages.
///
/// Stage 0 is the *innermost* table (closest to the nested VM: Ln-1's
/// vIOMMU mapping Ln GPA → Ln-1 GPA) and the last stage is the host's
/// own stage (L1 GPA → HPA). The composed table maps Ln GPA → HPA
/// directly.
///
/// # Example
///
/// ```
/// use dvh_memory::iommu_pt::{IoTable, ShadowIoTable};
/// use dvh_memory::Perms;
///
/// let mut vsmmu = IoTable::new(); // L1's vIOMMU: L2 GPA -> L1 GPA
/// vsmmu.map(0x10, 0x20, 1, Perms::RW);
/// let mut host = IoTable::new(); // L0: L1 GPA -> HPA
/// host.map(0x20, 0x999, 1, Perms::RW);
///
/// let shadow = ShadowIoTable::build(&[&vsmmu, &host]);
/// assert_eq!(shadow.lookup(0x10).unwrap().0, 0x999);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShadowIoTable {
    combined: PageTable,
}

impl ShadowIoTable {
    /// Builds the combined table by walking every mapping of the
    /// innermost stage through all outer stages. Mappings that do not
    /// resolve through every stage are omitted (the device would fault
    /// on them, which is the correct behaviour).
    pub fn build(stages: &[&IoTable]) -> ShadowIoTable {
        let mut combined = PageTable::new();
        if stages.is_empty() {
            return ShadowIoTable { combined };
        }
        for (iova, entry) in stages[0].table().iter() {
            let mut pfn = entry.pfn;
            let mut perms = entry.perms;
            let mut ok = true;
            for stage in &stages[1..] {
                match stage.table().lookup(pfn) {
                    Some(e) => {
                        perms = perms.intersect(e.perms);
                        pfn = e.pfn;
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                combined.map(iova, pfn, perms);
            }
        }
        ShadowIoTable { combined }
    }

    /// Looks up a device-visible PFN, returning `(host_pfn, perms)`.
    pub fn lookup(&self, iova_pfn: u64) -> Option<(u64, Perms)> {
        self.combined.lookup(iova_pfn).map(|e| (e.pfn, e.perms))
    }

    /// Translates with a permission check, like hardware.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`TranslateErr`].
    pub fn translate(&self, iova_pfn: u64, req: Perms) -> Result<Translation, TranslateErr> {
        self.combined.translate(iova_pfn, req)
    }

    /// Number of combined mappings.
    pub fn mapped_pages(&self) -> u64 {
        self.combined.mapped_pages()
    }
}

impl fmt::Display for ShadowIoTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShadowIoTable({} pages)", self.combined.mapped_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage() -> (IoTable, IoTable) {
        let mut inner = IoTable::new();
        inner.map(0x100, 0x200, 4, Perms::RW);
        let mut outer = IoTable::new();
        outer.map(0x200, 0x900, 4, Perms::RW);
        (inner, outer)
    }

    #[test]
    fn composition_equals_sequential_translation() {
        let (inner, outer) = two_stage();
        let shadow = ShadowIoTable::build(&[&inner, &outer]);
        for p in 0x100..0x104u64 {
            let mid = inner.translate(p, Perms::RO).unwrap().pfn;
            let fin = outer.translate(mid, Perms::RO).unwrap().pfn;
            assert_eq!(shadow.lookup(p).unwrap().0, fin);
        }
    }

    #[test]
    fn holes_in_outer_stage_are_omitted() {
        let mut inner = IoTable::new();
        inner.map(0x100, 0x200, 2, Perms::RW);
        let mut outer = IoTable::new();
        outer.map(0x200, 0x900, 1, Perms::RW); // only first page
        let shadow = ShadowIoTable::build(&[&inner, &outer]);
        assert!(shadow.lookup(0x100).is_some());
        assert!(shadow.lookup(0x101).is_none());
    }

    #[test]
    fn perms_are_intersected() {
        let mut inner = IoTable::new();
        inner.map(0x100, 0x200, 1, Perms::RW);
        let mut outer = IoTable::new();
        outer.map(0x200, 0x900, 1, Perms::RO);
        let shadow = ShadowIoTable::build(&[&inner, &outer]);
        assert_eq!(shadow.lookup(0x100).unwrap().1, Perms::RO);
    }

    #[test]
    fn three_stage_chain_composes() {
        // L3 GPA -> L2 GPA -> L1 GPA -> HPA (recursive virtual-passthrough).
        let mut a = IoTable::new();
        a.map(1, 11, 1, Perms::RW);
        let mut b = IoTable::new();
        b.map(11, 111, 1, Perms::RW);
        let mut c = IoTable::new();
        c.map(111, 1111, 1, Perms::RW);
        let shadow = ShadowIoTable::build(&[&a, &b, &c]);
        assert_eq!(shadow.lookup(1).unwrap().0, 1111);
    }

    #[test]
    fn empty_chain_is_empty() {
        let shadow = ShadowIoTable::build(&[]);
        assert_eq!(shadow.mapped_pages(), 0);
    }
}
