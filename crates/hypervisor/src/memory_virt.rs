//! Memory virtualization: per-level extended page tables, lazy
//! population, and the nested EPT-violation path.
//!
//! Each hypervisor level maintains an EPT for its VM (`ept[k]` is the
//! stage built by the hypervisor at level `k` mapping level-(k+1) GPAs
//! one stage down). Guest memory starts unmapped; the first touch of a
//! page faults:
//!
//! * if the missing stage belongs to L0 (or all guest stages are
//!   present so only the merged shadow needs extending), L0 fixes its
//!   shadow EPT directly — cheap;
//! * if a *guest* hypervisor's stage is missing the page, the EPT
//!   violation is reflected to it (KVM's nested EPT logic), and the
//!   guest hypervisor's page-table writes and TLB invalidations trap —
//!   so nested VM warm-up suffers exit multiplication too, another
//!   place DVH cannot help (like hypercalls) but that steady-state
//!   execution amortizes away.

use crate::world::{World, STAGE_PFN_OFFSET};
use dvh_arch::vmx::{ExitQualification, ExitReason};
use dvh_arch::Cycles;
use dvh_memory::{Gpa, Perms};

impl World {
    /// Whether leaf page `leaf_pfn` is mapped through every stage.
    pub fn leaf_page_mapped(&self, leaf_pfn: u64) -> bool {
        let n = self.config.levels;
        (0..n).all(|k| {
            // Stage k maps level-(k+1) pages; the leaf page appears at
            // stage k shifted by the stages above it.
            let pfn_at_stage = leaf_pfn + (n - 1 - k) as u64 * STAGE_PFN_OFFSET;
            self.epts[k].table().lookup(pfn_at_stage).is_some()
        })
    }

    /// A guest access (read or write) to leaf page `leaf_pfn`. If the
    /// page is mapped through every stage this costs a TLB hit; missing
    /// stages fault one at a time, innermost first, exactly as the
    /// hardware would re-execute the faulting instruction.
    pub fn guest_touch_page(&mut self, cpu: usize, leaf_pfn: u64) {
        let n = self.config.levels;
        loop {
            // Find the deepest missing stage.
            let missing = (0..n).rev().find(|k| {
                let pfn_at_stage = leaf_pfn + (n - 1 - k) as u64 * STAGE_PFN_OFFSET;
                self.epts[*k].table().lookup(pfn_at_stage).is_none()
            });
            let Some(stage) = missing else {
                // Fully mapped: a TLB/EPT-cached access.
                self.compute(cpu, Cycles::new(5));
                return;
            };
            // The access faults; the exit reaches L0 first, always.
            self.vmexit(
                n,
                cpu,
                ExitReason::EptViolation,
                ExitQualification {
                    guest_physical: Gpa::from_pfn(leaf_pfn).raw(),
                    raw: stage as u64,
                    ..ExitQualification::default()
                },
            );
        }
    }

    /// The EPT-violation handler body run by the hypervisor owning the
    /// missing stage (`stage`): allocate a backing page and install
    /// the mapping. Called from the exit engine; the caller has
    /// already charged the reflection path if `stage >= 1`.
    pub(crate) fn populate_stage(&mut self, stage: usize, cpu: usize, leaf_pfn: u64) {
        self.taint_summaries();
        let n = self.config.levels;
        let pfn_in = leaf_pfn + (n - 1 - stage) as u64 * STAGE_PFN_OFFSET;
        let pfn_out = pfn_in + STAGE_PFN_OFFSET;
        // Page allocation + page-table construction software path.
        self.compute(cpu, Cycles::new(1_800));
        self.ept_stage_mut(stage).map_ram(
            Gpa::from_pfn(pfn_in),
            dvh_memory::Hpa::from_pfn(pfn_out),
            1,
        );
        if stage == 0 {
            // L0 also extends the merged shadow EPT for deep guests.
            self.compute(cpu, Cycles::new(600));
        } else {
            // A guest hypervisor writes its page tables (plain memory)
            // but must invalidate the TLB, which traps.
            self.hv_invept(stage, cpu);
        }
    }

    /// Populates all stages for `pages` leaf pages starting at
    /// `first_pfn` without charging costs — test and benchmark setup.
    pub fn prepopulate_pages(&mut self, first_pfn: u64, pages: u64) {
        let n = self.config.levels;
        for k in 0..n {
            let base = first_pfn + (n - 1 - k) as u64 * STAGE_PFN_OFFSET;
            self.epts[k].map_ram(
                Gpa::from_pfn(base),
                dvh_memory::Hpa::from_pfn(base + STAGE_PFN_OFFSET),
                pages,
            );
        }
    }

    /// Translates a leaf GPA to a host PFN by walking every stage —
    /// must agree with the canonical [`World::leaf_host_pfn`] for
    /// mapped pages. Used by tests as a consistency oracle.
    pub fn walk_leaf_to_host(&self, leaf_pfn: u64) -> Option<u64> {
        let n = self.config.levels;
        let mut pfn = leaf_pfn;
        for k in (0..n).rev() {
            pfn = self.epts[k].table().translate(pfn, Perms::RO).ok()?.pfn;
        }
        Some(pfn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use dvh_arch::costs::CostModel;

    fn world(levels: usize) -> World {
        World::new(CostModel::calibrated(), WorldConfig::baseline(levels))
    }

    #[test]
    fn first_touch_faults_then_is_free() {
        let mut w = world(1);
        assert!(!w.leaf_page_mapped(0x500));
        w.guest_touch_page(0, 0x500);
        assert!(w.leaf_page_mapped(0x500));
        let exits = w.stats.exits_with(1, ExitReason::EptViolation);
        assert_eq!(exits, 1);
        // Second touch: no further exits.
        w.guest_touch_page(0, 0x500);
        assert_eq!(w.stats.exits_with(1, ExitReason::EptViolation), exits);
    }

    #[test]
    fn nested_first_touch_faults_per_stage() {
        let mut w = world(2);
        w.guest_touch_page(0, 0x600);
        assert!(w.leaf_page_mapped(0x600));
        // Two stages were missing: two EPT violations from the leaf.
        assert_eq!(w.stats.exits_with(2, ExitReason::EptViolation), 2);
        // One of them was the guest hypervisor's stage: reflected.
        assert!(w.stats.total_interventions() >= 1);
    }

    #[test]
    fn nested_fault_is_much_more_expensive_than_l1_fault() {
        let mut l1 = world(1);
        let t0 = l1.now(0);
        l1.guest_touch_page(0, 0x700);
        let c1 = (l1.now(0) - t0).as_u64();

        let mut l2 = world(2);
        let t0 = l2.now(0);
        l2.guest_touch_page(0, 0x700);
        let c2 = (l2.now(0) - t0).as_u64();
        assert!(c2 > 5 * c1, "L2 fault {c2} vs L1 fault {c1}");
    }

    #[test]
    fn walk_agrees_with_canonical_layout() {
        let mut w = world(3);
        w.guest_touch_page(0, 0x123);
        assert_eq!(w.walk_leaf_to_host(0x123), Some(w.leaf_host_pfn(0x123)));
        assert_eq!(w.walk_leaf_to_host(0x999), None);
    }

    #[test]
    fn prepopulate_skips_all_faults() {
        let mut w = world(3);
        w.prepopulate_pages(0x200, 16);
        let before = w.stats.total_exits();
        for p in 0..16 {
            w.guest_touch_page(0, 0x200 + p);
        }
        assert_eq!(w.stats.total_exits(), before);
    }

    #[test]
    fn steady_state_amortizes_warmup() {
        // Warm-up is expensive nested, but after it the same accesses
        // are free — the reason the paper's steady-state benchmarks
        // don't show memory-virtualization costs.
        let mut w = world(2);
        for p in 0..8 {
            w.guest_touch_page(0, 0x300 + p);
        }
        let after_warmup = w.now(0);
        for _ in 0..100 {
            for p in 0..8 {
                w.guest_touch_page(0, 0x300 + p);
            }
        }
        let steady = (w.now(0) - after_warmup).as_u64();
        assert_eq!(steady, 100 * 8 * 5, "steady-state touches are TLB hits");
    }
}
