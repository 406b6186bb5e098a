//! Model-specific register indices the simulated guests write.
//!
//! Which accesses trap is decided by the guest primitives and the exit
//! handlers of `dvh-hypervisor`: with APICv, ICR writes and TSC-deadline
//! writes always trap, which is precisely why virtual IPIs (§3.3) and
//! virtual timers (§3.2) matter.

/// x2APIC interrupt command register (ICR): writing sends an IPI.
pub const IA32_X2APIC_ICR: u32 = 0x830;
/// TSC-deadline timer MSR: writing arms the LAPIC timer.
pub const IA32_TSC_DEADLINE: u32 = 0x6E0;

/// DVH virtual-hardware capability MSR (bits in [`crate::vmx::cap`]).
///
/// This is the "one bit in the VMX capability register" of §3.2–3.3:
/// a guest hypervisor reads this MSR to discover virtual timers,
/// virtual IPIs, and the VCIMT address register.
pub const IA32_VMX_DVH_CAP: u32 = 0x4F0;
