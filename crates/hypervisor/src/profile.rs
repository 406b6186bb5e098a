//! Guest-hypervisor world-switch profiles.
//!
//! A profile describes the privileged-operation footprint a hypervisor
//! personality has around every exit/entry pair for a nested guest:
//! which VMCS fields it touches (hot fields are in the hardware shadow
//! set; cold fields are not and trap when the hypervisor itself runs in
//! a VM), which MSRs it saves/restores, and how much native software
//! path it executes.
//!
//! These footprints are where exit multiplication comes from: with VMCS
//! shadowing, only the *cold* accesses of an L1 hypervisor trap; an L2
//! hypervisor has no shadowing at all, so *every* VMCS access traps,
//! and each such trap costs a full reflected round trip through L1.
//! The per-level ~20x cost growth of Table 3 is the product of these
//! counts — it is never hard-coded anywhere.

use dvh_arch::vmx::field as f;
use dvh_arch::Cycles;

/// The privileged-operation footprint of one hypervisor personality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HvProfile {
    /// VMCS fields read on every exit that are in the shadow set.
    pub hot_reads: Vec<u32>,
    /// VMCS fields read on every exit that are NOT in the shadow set.
    pub cold_reads: Vec<u32>,
    /// VMCS fields written on every entry that are in the shadow set.
    pub hot_writes: Vec<u32>,
    /// VMCS fields written on every entry that are NOT in the shadow set.
    pub cold_writes: Vec<u32>,
    /// MSRs read on the exit path (e.g. speculation-control save).
    pub exit_msr_reads: u32,
    /// MSRs written on the entry path (speculation control restore,
    /// hrtimer re-arm).
    pub entry_msr_writes: u32,
    /// APIC maintenance operations on the entry path that trap
    /// (trap-like APIC writes not covered by APICv).
    pub apic_maintenance: u32,
    /// Native software path length on the exit side (run at full speed
    /// regardless of level — compute never traps).
    pub exit_software: Cycles,
    /// Native software path length on the entry side.
    pub entry_software: Cycles,
    /// Whether this personality uses hardware VMCS shadowing when the
    /// platform offers it. KVM does; Xen's nested-virtualization
    /// support (immature in the paper's 4.10 era, §4) does not, so
    /// *every* VMCS access of a Xen guest hypervisor traps.
    pub uses_shadowing: bool,
}

impl HvProfile {
    /// The KVM personality, tuned so that the emergent L2/L3 costs in
    /// the simulator match the paper's Table 3 within a few percent.
    pub fn kvm() -> HvProfile {
        HvProfile {
            hot_reads: vec![
                f::VM_EXIT_REASON,
                f::EXIT_QUALIFICATION,
                f::GUEST_RIP,
                f::VM_EXIT_INSTRUCTION_LEN,
                f::VM_EXIT_INTR_INFO,
                f::GUEST_INTERRUPTIBILITY,
            ],
            cold_reads: vec![
                f::GUEST_CR3,
                f::GUEST_RFLAGS,
                f::VM_EXIT_INSTRUCTION_INFO,
                f::GUEST_ACTIVITY_STATE,
            ],
            hot_writes: vec![
                f::GUEST_RSP,
                f::GUEST_INTERRUPTIBILITY,
                f::VM_ENTRY_INTR_INFO,
                f::VM_ENTRY_INSTRUCTION_LEN,
            ],
            cold_writes: vec![
                f::TSC_OFFSET,
                f::PREEMPTION_TIMER_VALUE,
                f::EXCEPTION_BITMAP,
            ],
            exit_msr_reads: 1,
            entry_msr_writes: 2,
            apic_maintenance: 0,
            exit_software: Cycles::new(600),
            entry_software: Cycles::new(500),
            uses_shadowing: true,
        }
    }

    /// The Xen personality (Fig. 10): a somewhat heavier world switch
    /// (Xen's context switch between its own state and HVM guest state
    /// touches more control fields) and longer software paths.
    pub fn xen() -> HvProfile {
        let mut p = HvProfile::kvm();
        p.cold_reads.push(f::EXCEPTION_BITMAP);
        p.cold_reads.push(f::EPT_POINTER);
        p.cold_writes.push(f::MSR_BITMAP_ADDR);
        p.cold_writes.push(f::VIRTUAL_APIC_PAGE_ADDR);
        p.exit_msr_reads = 2;
        p.entry_msr_writes = 3;
        p.apic_maintenance = 1;
        p.exit_software = Cycles::new(800);
        p.entry_software = Cycles::new(700);
        p.uses_shadowing = false;
        p
    }

    /// The KVM/ARM personality (VHE-era, pre-NEVE): the nested world
    /// switch must save/restore the EL1/EL2 system-register context,
    /// and *none* of it is shadowed — ARM has no VMCS-shadowing
    /// analogue, so every access of a guest hypervisor traps (the
    /// exact deficiency the authors' NEVE work targets). The register
    /// footprint is larger than the x86 hot set: ESR, ELR, SPSR, FAR,
    /// HPFAR, SCTLR, TTBRx, TCR, VBAR, CNTV state, GIC list registers.
    pub fn kvm_arm() -> HvProfile {
        HvProfile {
            // On ARM the "hot" fields trap too (no shadowing), so the
            // hot/cold split is degenerate: everything is cold.
            hot_reads: Vec::new(),
            cold_reads: vec![
                f::VM_EXIT_REASON,         // ESR_EL2
                f::EXIT_QUALIFICATION,     // ISS/FAR_EL2
                f::GUEST_RIP,              // ELR_EL2
                f::GUEST_RFLAGS,           // SPSR_EL2
                f::GUEST_PHYSICAL_ADDRESS, // HPFAR_EL2
                f::GUEST_INTERRUPTIBILITY, // PSTATE bits
                f::GUEST_CR3,              // TTBR0_EL1
                f::GUEST_ACTIVITY_STATE,
            ],
            hot_writes: Vec::new(),
            cold_writes: vec![
                f::GUEST_RIP,              // ELR_EL2
                f::VM_ENTRY_INTR_INFO,     // HCR_EL2.VI / list registers
                f::TSC_OFFSET,             // CNTVOFF_EL2
                f::EXCEPTION_BITMAP,       // HCR_EL2 trap bits
                f::PREEMPTION_TIMER_VALUE, // CNTHP
            ],
            exit_msr_reads: 1,
            entry_msr_writes: 2,
            apic_maintenance: 1, // GIC list-register maintenance
            exit_software: Cycles::new(500),
            entry_software: Cycles::new(450),
            uses_shadowing: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_arch::vmx::ShadowFieldSet;

    #[test]
    fn kvm_hot_fields_really_are_shadowed() {
        let p = HvProfile::kvm();
        let s = ShadowFieldSet::kvm_default();
        for &field in &p.hot_reads {
            assert!(
                s.covers_read(field),
                "hot read {field:#x} not in shadow set"
            );
        }
        for &field in &p.hot_writes {
            assert!(
                s.covers_write(field),
                "hot write {field:#x} not in shadow set"
            );
        }
    }

    #[test]
    fn kvm_cold_fields_really_are_cold() {
        let p = HvProfile::kvm();
        let s = ShadowFieldSet::kvm_default();
        for &field in &p.cold_reads {
            assert!(
                !s.covers_read(field),
                "cold read {field:#x} IS in shadow set"
            );
        }
        for &field in &p.cold_writes {
            assert!(
                !s.covers_write(field),
                "cold write {field:#x} IS in shadow set"
            );
        }
    }

    #[test]
    fn xen_is_heavier_than_kvm() {
        let kvm = HvProfile::kvm();
        let xen = HvProfile::xen();
        let vmcs_ops = |p: &HvProfile| {
            p.hot_reads.len() + p.cold_reads.len() + p.hot_writes.len() + p.cold_writes.len()
        };
        assert!(vmcs_ops(&xen) > vmcs_ops(&kvm));
        assert!(xen.exit_software > kvm.exit_software);
    }
}
