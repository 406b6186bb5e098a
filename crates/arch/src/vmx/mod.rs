//! The VMX-like virtualization architecture: VMCS, controls, exit
//! reasons, and capability registers.
//!
//! This module models single-level architectural support for
//! virtualization, as on real x86: only the software running in root mode
//! (the host hypervisor, L0) can execute VMX instructions natively; any
//! guest hypervisor's VMX instructions trap to L0 (Section 2 of the
//! paper). The structures here are deliberately close to the Intel SDM
//! layout — field encodings, control bits, exit reason numbers — so the
//! hypervisor crate reads like real KVM code.
//!
//! The DVH paper adds *virtual hardware* discoverable through new
//! capability bits ([`cap`]) and enabled through new execution-control
//! bits ([`ctrl::dvh`]); those are defined here too, because from the
//! guest hypervisor's point of view they are simply "additional hardware
//! capabilities provided by the underlying system" (Section 3).

mod exit;
pub mod field;
pub mod slots;
pub mod validate;

pub use exit::{ExitQualification, ExitReason};
pub use slots::{slot_of, NUM_SLOTS, SLOT_ENCODINGS};

use std::collections::BTreeMap;
use std::fmt;

/// VMX execution-control and capability bit definitions.
pub mod ctrl {
    /// Pin-based VM-execution controls (field [`super::field::PIN_BASED_EXEC_CONTROLS`]).
    pub mod pin {
        /// External interrupts cause VM exits.
        pub const EXT_INTR_EXITING: u64 = 1 << 0;
        /// Process posted interrupts on notification vector receipt.
        pub const POSTED_INTERRUPTS: u64 = 1 << 7;
        /// VMX-preemption timer counts down in guest mode.
        pub const PREEMPTION_TIMER: u64 = 1 << 6;
    }

    /// Primary processor-based VM-execution controls
    /// (field [`super::field::CPU_BASED_EXEC_CONTROLS`]).
    pub mod cpu {
        /// `hlt` causes a VM exit. Virtual idle (§3.4) works by guest
        /// hypervisors *clearing* this bit for their nested VMs.
        pub const HLT_EXITING: u64 = 1 << 7;
        /// Use the TSC offset in the VMCS for guest `rdtsc`.
        pub const USE_TSC_OFFSETTING: u64 = 1 << 3;
        /// `rdmsr`/`wrmsr` consult the MSR bitmaps instead of always exiting.
        pub const USE_MSR_BITMAPS: u64 = 1 << 28;
        /// Activate secondary processor-based controls.
        pub const SECONDARY_CONTROLS: u64 = 1 << 31;
        /// VM exit on interrupt-window open.
        pub const INTR_WINDOW_EXITING: u64 = 1 << 2;
    }

    /// Secondary processor-based VM-execution controls
    /// (field [`super::field::SECONDARY_EXEC_CONTROLS`]).
    pub mod secondary {
        /// Enable extended page tables.
        pub const ENABLE_EPT: u64 = 1 << 1;
        /// Virtualize APIC accesses (APICv).
        pub const VIRTUALIZE_APIC: u64 = 1 << 0;
        /// APIC-register virtualization (APICv).
        pub const APIC_REGISTER_VIRT: u64 = 1 << 8;
        /// Virtual-interrupt delivery (APICv).
        pub const VIRTUAL_INTR_DELIVERY: u64 = 1 << 9;
        /// VMCS shadowing: guest `vmread`/`vmwrite` of shadowed fields
        /// do not exit.
        pub const SHADOW_VMCS: u64 = 1 << 14;
        /// Enable VM functions.
        pub const ENABLE_VMFUNC: u64 = 1 << 13;
    }

    /// DVH execution controls (field [`super::field::DVH_EXEC_CONTROLS`]).
    ///
    /// These are the per-VM enable bits the paper adds: "we add one bit
    /// in the VMX capability register and one in the VM execution control
    /// register to enable the guest hypervisor to discover and
    /// enable/disable the virtual timer functionality" (§3.2), and
    /// likewise for virtual IPIs (§3.3).
    pub mod dvh {
        /// Enable the virtual LAPIC timer for this VM's guest.
        pub const VIRTUAL_TIMER: u64 = 1 << 0;
        /// Enable the virtual ICR / virtual IPIs for this VM's guest.
        pub const VIRTUAL_IPI: u64 = 1 << 1;
    }
}

/// DVH virtual-hardware capability bits, advertised in the
/// [`crate::msr::IA32_VMX_DVH_CAP`] capability MSR.
pub mod cap {
    /// The platform provides per-vCPU virtual LAPIC timers (§3.2).
    pub const VIRTUAL_TIMER: u64 = 1 << 0;
    /// The platform provides virtual ICRs and the VCIMT (§3.3).
    pub const VIRTUAL_IPI: u64 = 1 << 1;
    /// The platform honours the VCIMT address register.
    pub const VCIMTAR: u64 = 1 << 2;
}

/// A Virtual Machine Control Structure.
///
/// Stores 16/32/64-bit fields keyed by their architectural encodings
/// (see [`field`]). A `Vmcs` may also act as a *shadow* VMCS: when a
/// guest hypervisor has VMCS shadowing enabled, `vmread`/`vmwrite` of
/// fields present in the shadow bitmap operate on the linked shadow
/// without causing VM exits.
///
/// # Example
///
/// ```
/// use dvh_arch::vmx::{Vmcs, field};
///
/// let mut vmcs = Vmcs::new();
/// vmcs.write(field::TSC_OFFSET, 0x1000);
/// vmcs.set_bits(field::CPU_BASED_EXEC_CONTROLS, dvh_arch::vmx::ctrl::cpu::HLT_EXITING);
/// assert!(vmcs.has_bits(field::CPU_BASED_EXEC_CONTROLS, 1 << 7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vmcs {
    /// Values of the known fields, indexed by [`slots::slot_of`]. A slot
    /// whose `written` bit is clear always holds 0, so `read` never has
    /// to consult the bitset.
    values: [u64; NUM_SLOTS],
    /// Bit `i` set ⇔ slot `i` has been written since the last `clear`.
    /// Tracked so `len`/`iter` keep the "fields ever written" semantics
    /// of the previous map-based representation.
    written: u64,
    /// Fields with encodings outside the compile-time slot table. Empty
    /// for everything the simulator itself does; exists so the public
    /// API still accepts arbitrary encodings.
    overflow: BTreeMap<u32, u64>,
}

impl Default for Vmcs {
    fn default() -> Vmcs {
        Vmcs {
            values: [0; NUM_SLOTS],
            written: 0,
            overflow: BTreeMap::new(),
        }
    }
}

impl Vmcs {
    /// Creates an empty (cleared) VMCS.
    pub fn new() -> Vmcs {
        Vmcs::default()
    }

    /// Reads a field, returning 0 for never-written fields (cleared
    /// VMCS state is architecturally zero in this model).
    #[inline(always)]
    pub fn read(&self, field: u32) -> u64 {
        match slot_of(field) {
            Some(slot) => self.values[slot],
            None => self.overflow.get(&field).copied().unwrap_or(0),
        }
    }

    /// Writes a field.
    #[inline(always)]
    pub fn write(&mut self, field: u32, value: u64) {
        match slot_of(field) {
            Some(slot) => {
                self.values[slot] = value;
                self.written |= 1 << slot;
            }
            None => {
                self.overflow.insert(field, value);
            }
        }
    }

    /// Sets `bits` in a control field (read-modify-write OR).
    pub fn set_bits(&mut self, field: u32, bits: u64) {
        let v = self.read(field);
        self.write(field, v | bits);
    }

    /// Clears `bits` in a control field.
    pub fn clear_bits(&mut self, field: u32, bits: u64) {
        let v = self.read(field);
        self.write(field, v & !bits);
    }

    /// Whether all of `bits` are set in `field`.
    #[inline(always)]
    pub fn has_bits(&self, field: u32, bits: u64) -> bool {
        self.read(field) & bits == bits
    }

    /// Clears all state, as `vmclear` would.
    pub fn clear(&mut self) {
        self.values = [0; NUM_SLOTS];
        self.written = 0;
        self.overflow.clear();
    }

    /// Number of distinct fields ever written. Used by tests and by the
    /// vmcs02 merge cost accounting.
    pub fn len(&self) -> usize {
        self.written.count_ones() as usize + self.overflow.len()
    }

    /// Whether no field has been written.
    pub fn is_empty(&self) -> bool {
        self.written == 0 && self.overflow.is_empty()
    }

    /// Iterates over `(field, value)` pairs in encoding order.
    ///
    /// `SLOT_ENCODINGS` is sorted ascending, so merging the written-slot
    /// walk with the (sorted) overflow map preserves the encoding-order
    /// contract of the old `BTreeMap` representation.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let dense = SLOT_ENCODINGS
            .iter()
            .enumerate()
            .filter(move |(slot, _)| self.written & (1 << slot) != 0)
            .map(move |(slot, enc)| (*enc, self.values[slot]));
        let overflow = self.overflow.iter().map(|(k, v)| (*k, *v));
        MergeByEncoding {
            a: dense.peekable(),
            b: overflow.peekable(),
        }
    }
}

/// Merges two encoding-sorted `(field, value)` streams, preserving order.
struct MergeByEncoding<A: Iterator, B: Iterator> {
    a: std::iter::Peekable<A>,
    b: std::iter::Peekable<B>,
}

impl<A, B> Iterator for MergeByEncoding<A, B>
where
    A: Iterator<Item = (u32, u64)>,
    B: Iterator<Item = (u32, u64)>,
{
    type Item = (u32, u64);

    fn next(&mut self) -> Option<(u32, u64)> {
        match (self.a.peek(), self.b.peek()) {
            (Some((ka, _)), Some((kb, _))) => {
                if ka <= kb {
                    self.a.next()
                } else {
                    self.b.next()
                }
            }
            (Some(_), None) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

impl fmt::Display for Vmcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vmcs({} fields)", self.len())
    }
}

/// The set of VMCS fields covered by hardware VMCS shadowing.
///
/// When a guest hypervisor runs with
/// [`ctrl::secondary::SHADOW_VMCS`] enabled, reads and writes of these
/// fields are satisfied from the shadow VMCS without a VM exit. The set
/// mirrors the fields KVM puts in its shadow bitmaps: the hot fields of
/// the exit-handling path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowFieldSet {
    /// Bit `i` set ⇔ a `vmread` of `SLOT_ENCODINGS[i]` is shadowed.
    read_bits: u64,
    /// Bit `i` set ⇔ a `vmwrite` of `SLOT_ENCODINGS[i]` is shadowed.
    write_bits: u64,
}

impl ShadowFieldSet {
    /// Builds a set from explicit field lists. Every field must be a
    /// known encoding (shadow bitmaps only make sense for architectural
    /// fields); unknown encodings panic.
    pub fn from_fields(read: &[u32], write: &[u32]) -> ShadowFieldSet {
        let bits = |fields: &[u32]| {
            fields.iter().fold(0u64, |acc, f| {
                let slot =
                    slot_of(*f).unwrap_or_else(|| panic!("shadow field {f:#x} has no dense slot"));
                acc | (1 << slot)
            })
        };
        ShadowFieldSet {
            read_bits: bits(read),
            write_bits: bits(write),
        }
    }

    /// The KVM-like default shadow field set.
    pub fn kvm_default() -> ShadowFieldSet {
        use field as f;
        ShadowFieldSet::from_fields(
            &[
                f::VM_EXIT_REASON,
                f::EXIT_QUALIFICATION,
                f::GUEST_RIP,
                f::GUEST_RSP,
                f::VM_EXIT_INSTRUCTION_LEN,
                f::VM_EXIT_INTR_INFO,
                f::VM_EXIT_INTR_ERROR_CODE,
                f::IDT_VECTORING_INFO,
                f::IDT_VECTORING_ERROR_CODE,
                f::GUEST_PHYSICAL_ADDRESS,
                f::GUEST_LINEAR_ADDRESS,
                f::GUEST_INTERRUPTIBILITY,
                f::VM_INSTRUCTION_ERROR,
                f::GUEST_CS_SELECTOR,
            ],
            &[
                f::GUEST_RIP,
                f::GUEST_RSP,
                f::GUEST_INTERRUPTIBILITY,
                f::VM_ENTRY_INTR_INFO,
                f::CPU_BASED_EXEC_CONTROLS,
                f::VM_ENTRY_INSTRUCTION_LEN,
            ],
        )
    }

    /// An empty set: every `vmread`/`vmwrite` traps. This is the
    /// situation of L2+ hypervisors, for which shadowing is not
    /// virtualized (as on real KVM), and is the root cause of the
    /// further ~23x cost blow-up from L2 to L3 in Table 3.
    pub fn empty() -> ShadowFieldSet {
        ShadowFieldSet {
            read_bits: 0,
            write_bits: 0,
        }
    }

    /// Whether a guest `vmread` of `field` is shadowed (no exit).
    #[inline(always)]
    pub fn covers_read(&self, field: u32) -> bool {
        match slot_of(field) {
            Some(slot) => self.read_bits & (1 << slot) != 0,
            None => false,
        }
    }

    /// Whether a guest `vmwrite` of `field` is shadowed (no exit).
    #[inline(always)]
    pub fn covers_write(&self, field: u32) -> bool {
        match slot_of(field) {
            Some(slot) => self.write_bits & (1 << slot) != 0,
            None => false,
        }
    }

    /// Number of shadowed readable fields.
    pub fn read_len(&self) -> usize {
        self.read_bits.count_ones() as usize
    }

    /// Number of shadowed writable fields.
    pub fn write_len(&self) -> usize {
        self.write_bits.count_ones() as usize
    }
}

impl Default for ShadowFieldSet {
    fn default() -> ShadowFieldSet {
        ShadowFieldSet::kvm_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmcs_read_unwritten_is_zero() {
        let vmcs = Vmcs::new();
        assert_eq!(vmcs.read(field::GUEST_RIP), 0);
    }

    #[test]
    fn vmcs_write_then_read() {
        let mut vmcs = Vmcs::new();
        vmcs.write(field::GUEST_RIP, 0xdead_beef);
        assert_eq!(vmcs.read(field::GUEST_RIP), 0xdead_beef);
    }

    #[test]
    fn vmcs_bit_ops() {
        let mut vmcs = Vmcs::new();
        vmcs.set_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING);
        vmcs.set_bits(
            field::CPU_BASED_EXEC_CONTROLS,
            ctrl::cpu::USE_TSC_OFFSETTING,
        );
        assert!(vmcs.has_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING));
        vmcs.clear_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING);
        assert!(!vmcs.has_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING));
        assert!(vmcs.has_bits(
            field::CPU_BASED_EXEC_CONTROLS,
            ctrl::cpu::USE_TSC_OFFSETTING
        ));
    }

    #[test]
    fn vmcs_clear_resets_everything() {
        let mut vmcs = Vmcs::new();
        vmcs.write(field::TSC_OFFSET, 42);
        vmcs.clear();
        assert!(vmcs.is_empty());
    }

    #[test]
    fn shadow_set_covers_hot_read_fields() {
        let s = ShadowFieldSet::kvm_default();
        assert!(s.covers_read(field::VM_EXIT_REASON));
        assert!(s.covers_read(field::EXIT_QUALIFICATION));
        assert!(s.covers_write(field::GUEST_RIP));
        // TSC offset is not in the hot shadow set: writing it traps.
        assert!(!s.covers_write(field::TSC_OFFSET));
    }

    #[test]
    fn empty_shadow_set_covers_nothing() {
        let s = ShadowFieldSet::empty();
        assert!(!s.covers_read(field::VM_EXIT_REASON));
        assert!(!s.covers_write(field::GUEST_RIP));
    }

    #[test]
    fn dvh_control_bits_are_distinct() {
        assert_ne!(ctrl::dvh::VIRTUAL_TIMER, ctrl::dvh::VIRTUAL_IPI);
        assert_eq!(cap::VIRTUAL_TIMER & cap::VIRTUAL_IPI, 0);
    }

    #[test]
    fn vmcs_display_nonempty() {
        assert!(!Vmcs::new().to_string().is_empty());
    }

    #[test]
    fn vmcs_unknown_encoding_goes_through_overflow() {
        let mut vmcs = Vmcs::new();
        assert_eq!(slots::slot_of(0x9999), None);
        vmcs.write(0x9999, 77);
        assert_eq!(vmcs.read(0x9999), 77);
        assert_eq!(vmcs.len(), 1);
        vmcs.clear();
        assert_eq!(vmcs.read(0x9999), 0);
        assert!(vmcs.is_empty());
    }

    #[test]
    fn vmcs_write_zero_still_counts_as_written() {
        let mut vmcs = Vmcs::new();
        vmcs.write(field::GUEST_RIP, 0);
        assert_eq!(vmcs.len(), 1);
        assert!(!vmcs.is_empty());
    }

    #[test]
    fn vmcs_iter_is_in_encoding_order_across_dense_and_overflow() {
        let mut vmcs = Vmcs::new();
        vmcs.write(field::GUEST_RIP, 1); // 0x681E, dense
        vmcs.write(0x4401, 2); // unknown, overflow
        vmcs.write(field::VPID, 3); // 0x0000, dense
        vmcs.write(0x9999, 4); // unknown, overflow
        let got: Vec<(u32, u64)> = vmcs.iter().collect();
        assert_eq!(
            got,
            vec![
                (field::VPID, 3),
                (0x4401, 2),
                (field::GUEST_RIP, 1),
                (0x9999, 4),
            ]
        );
    }

    #[test]
    fn shadow_set_lens_match_kvm_defaults() {
        let s = ShadowFieldSet::kvm_default();
        assert_eq!(s.read_len(), 14);
        assert_eq!(s.write_len(), 6);
        assert_eq!(ShadowFieldSet::empty().read_len(), 0);
    }
}
