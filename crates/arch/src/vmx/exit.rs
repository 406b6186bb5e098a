//! VM-exit reasons and qualifications.

use std::fmt;

/// The architectural reason a VM exit occurred.
///
/// Discriminants match the Intel SDM basic exit reason numbers so the
/// value stored in [`super::field::VM_EXIT_REASON`] round-trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
#[non_exhaustive]
pub enum ExitReason {
    /// Exception or NMI.
    ExceptionNmi = 0,
    /// External interrupt arrived while in guest mode.
    ExternalInterrupt = 1,
    /// `cpuid` executed.
    Cpuid = 10,
    /// `hlt` executed with HLT exiting enabled.
    Hlt = 12,
    /// `vmcall` (hypercall) executed.
    Vmcall = 18,
    /// `vmclear` executed by a guest hypervisor.
    Vmclear = 19,
    /// `vmlaunch` executed by a guest hypervisor.
    Vmlaunch = 20,
    /// `vmptrld` executed by a guest hypervisor.
    Vmptrld = 21,
    /// `vmptrst` executed by a guest hypervisor.
    Vmptrst = 22,
    /// `vmread` of a non-shadowed field by a guest hypervisor.
    Vmread = 23,
    /// `vmresume` executed by a guest hypervisor.
    Vmresume = 24,
    /// `vmwrite` of a non-shadowed field by a guest hypervisor.
    Vmwrite = 25,
    /// `vmxoff` executed.
    Vmxoff = 26,
    /// `vmxon` executed.
    Vmxon = 27,
    /// `rdmsr` of a trapped MSR.
    MsrRead = 31,
    /// `wrmsr` of a trapped MSR (LAPIC timer deadline, x2APIC ICR, ...).
    MsrWrite = 32,
    /// Access to the APIC page (non-APICv or unhandled register).
    ApicAccess = 44,
    /// EOI-induced exit (virtual-interrupt delivery bookkeeping).
    EoiInduced = 45,
    /// EPT violation: guest-physical access not mapped/permitted.
    EptViolation = 48,
    /// EPT misconfiguration: used for MMIO regions, as in KVM.
    EptMisconfig = 49,
    /// `invept` executed by a guest hypervisor.
    Invept = 50,
    /// VMX-preemption timer expired.
    PreemptionTimer = 52,
    /// `invvpid` executed by a guest hypervisor.
    Invvpid = 53,
    /// APIC write (APICv trap-like exit).
    ApicWrite = 56,
}

impl ExitReason {
    /// Whether this exit was caused by executing a VMX instruction —
    /// i.e. it can only have come from a (guest) hypervisor.
    pub fn is_vmx_instruction(self) -> bool {
        matches!(
            self,
            ExitReason::Vmclear
                | ExitReason::Vmlaunch
                | ExitReason::Vmptrld
                | ExitReason::Vmptrst
                | ExitReason::Vmread
                | ExitReason::Vmresume
                | ExitReason::Vmwrite
                | ExitReason::Vmxoff
                | ExitReason::Vmxon
                | ExitReason::Invept
                | ExitReason::Invvpid
        )
    }

    /// The architectural basic exit reason number.
    pub fn number(self) -> u16 {
        self as u16
    }

    /// Decodes a basic exit reason number.
    pub fn from_number(n: u16) -> Option<ExitReason> {
        use ExitReason::*;
        Some(match n {
            0 => ExceptionNmi,
            1 => ExternalInterrupt,
            10 => Cpuid,
            12 => Hlt,
            18 => Vmcall,
            19 => Vmclear,
            20 => Vmlaunch,
            21 => Vmptrld,
            22 => Vmptrst,
            23 => Vmread,
            24 => Vmresume,
            25 => Vmwrite,
            26 => Vmxoff,
            27 => Vmxon,
            31 => MsrRead,
            32 => MsrWrite,
            44 => ApicAccess,
            45 => EoiInduced,
            48 => EptViolation,
            49 => EptMisconfig,
            50 => Invept,
            52 => PreemptionTimer,
            53 => Invvpid,
            56 => ApicWrite,
            _ => return None,
        })
    }
}

impl fmt::Display for ExitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Reason-specific exit details, the analogue of the exit qualification
/// plus the auxiliary read-only fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExitQualification {
    /// Guest-physical address, for MMIO (EPT misconfig) exits.
    pub guest_physical: u64,
    /// MSR index, for MSR exits.
    pub msr: u32,
    /// MSR value being written, for `wrmsr` exits.
    pub msr_value: u64,
    /// VMCS field encoding, for `vmread`/`vmwrite` exits.
    pub vmcs_field: u32,
}

impl ExitQualification {
    /// A qualification for an MSR write exit.
    pub fn msr_write(msr: u32, value: u64) -> ExitQualification {
        ExitQualification {
            msr,
            msr_value: value,
            ..ExitQualification::default()
        }
    }

    /// A qualification for an MMIO (EPT misconfig) exit at `gpa`.
    pub fn mmio(gpa: u64, value: u64) -> ExitQualification {
        ExitQualification {
            guest_physical: gpa,
            msr_value: value,
            ..ExitQualification::default()
        }
    }

    /// A qualification for a `vmread` or `vmwrite` exit of `field`.
    pub fn vmcs(field: u32) -> ExitQualification {
        ExitQualification {
            vmcs_field: field,
            ..ExitQualification::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_reason_numbers_round_trip() {
        for n in 0..64u16 {
            if let Some(r) = ExitReason::from_number(n) {
                assert_eq!(r.number(), n);
            }
        }
    }

    #[test]
    fn vmx_instructions_classified() {
        assert!(ExitReason::Vmread.is_vmx_instruction());
        assert!(ExitReason::Vmresume.is_vmx_instruction());
        assert!(!ExitReason::Hlt.is_vmx_instruction());
        assert!(!ExitReason::Vmcall.is_vmx_instruction());
    }

    #[test]
    fn unknown_number_is_none() {
        assert_eq!(ExitReason::from_number(999), None);
        assert_eq!(ExitReason::from_number(2), None);
    }

    #[test]
    fn qualification_constructors() {
        let q = ExitQualification::msr_write(0x6E0, 42);
        assert_eq!(q.msr, 0x6E0);
        assert_eq!(q.msr_value, 42);
        let q = ExitQualification::mmio(0xFEE0_0000, 7);
        assert_eq!(q.guest_physical, 0xFEE0_0000);
    }
}
