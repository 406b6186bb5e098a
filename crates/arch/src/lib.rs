//! # dvh-arch
//!
//! An x86/VMX-like architecture model for the DVH nested-virtualization
//! simulator — the hardware substrate on which the DVH reproduction of
//! *"Optimizing Nested Virtualization Performance Using Direct Virtual
//! Hardware"* (Lim & Nieh, ASPLOS 2020) is built.
//!
//! The model captures the parts of the architecture that determine nested
//! virtualization performance:
//!
//! * [`vmx`] — the Virtual Machine Control Structure (VMCS), execution and
//!   exit controls, exit reasons, and the VMX capability registers,
//!   including the three DVH capability/control bits the paper adds
//!   (virtual timers, virtual IPIs, and the VCIMT address register).
//! * [`apic`] — the local APIC register file (x2APIC layout), the interrupt
//!   command register (ICR), the TSC-deadline timer, and posted-interrupt
//!   descriptors.
//! * [`costs`] — a calibrated cycle-cost model for hardware transitions and
//!   privileged operations. Single-level costs are calibrated against the
//!   paper's Table 3; all nested costs in the simulator are *emergent* from
//!   trap-and-emulate recursion, not table lookups.
//!
//! The crate is `#![forbid(unsafe_code)]`, deterministic, and free of
//! wall-clock time: all time is simulated [`Cycles`].
//!
//! ## Example
//!
//! ```
//! use dvh_arch::{costs::CostModel, vmx::Vmcs, vmx::field};
//!
//! let costs = CostModel::calibrated();
//! let mut vmcs = Vmcs::new();
//! vmcs.write(field::GUEST_RIP, 0x1000);
//! assert_eq!(vmcs.read(field::GUEST_RIP), 0x1000);
//! assert!(costs.vmexit_to_root.as_u64() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apic;
pub mod costs;
pub mod cycles;
pub mod msr;
pub mod vmx;

pub use costs::CostModel;
pub use cycles::Cycles;
