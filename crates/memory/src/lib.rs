//! # dvh-memory
//!
//! Memory-system substrate for the DVH nested-virtualization simulator:
//! address types, multi-level page tables (EPT and IOMMU flavours),
//! dirty-page tracking, sparse backing memory, and the shadow I/O
//! page-table composition that recursive virtual-passthrough relies on
//! (Fig. 6 of the paper).
//!
//! Addressing vocabulary follows the paper and KVM:
//!
//! * [`Gva`] — guest-virtual address (rarely needed by the simulator).
//! * [`Gpa`] — guest-physical address at some virtualization level.
//! * [`Hpa`] — host-physical address (L0's view).
//!
//! A nested VM's `Gpa` is translated by a chain of page tables, one per
//! level; [`iommu_pt::ShadowIoTable`] collapses such a chain into the
//! single combined table the host IOMMU (or L0's software DMA path)
//! actually uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod dirty;
pub mod ept;
pub mod iommu_pt;
pub mod pagetable;
pub mod sparse;

pub use addr::{Gpa, Gva, Hpa, PAGE_SHIFT, PAGE_SIZE};
pub use dirty::DirtyBitmap;
pub use pagetable::{PageTable, Perms, TranslateErr, Translation};
