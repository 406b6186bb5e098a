//! # dvh-devices
//!
//! Device-model substrate for the DVH nested-virtualization simulator:
//!
//! * [`pci`] — PCI configuration space with a standards-style
//!   capability list, MSI-X, and the **migration capability** the paper
//!   defines in §3.6 (device-state capture + dirty-page logging control
//!   registers on a virtual I/O device).
//! * [`virtio`] — split-ring virtqueues and virtio-net / virtio-blk
//!   device models (the "PCI-based virtual I/O devices" that make
//!   virtual-passthrough work with unmodified passthrough frameworks).
//! * [`nic`] — a physical 10 GbE NIC model with SR-IOV virtual
//!   functions, for the device-passthrough baseline.
//! * [`vhost`] — host-side backend that services virtqueues, moves
//!   bytes, dirties pages, and raises MSI interrupts.
//! * [`iommu`] — the physical IOMMU (VT-d-like: DMA remapping per
//!   device plus posted-interrupt remapping) and the **virtual IOMMU**
//!   guest hypervisors program under (recursive) virtual-passthrough.
//!
//! All models are deterministic and unsafe-free; costs are charged by
//! the hypervisor crate, not here — these models define *behaviour*
//! (who maps what, where data lands, which doorbells ring).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iommu;
pub mod msi;
pub mod msix;
pub mod nic;
pub mod pci;
pub mod vhost;
pub mod virtio;

pub use iommu::{Iommu, VirtualIommu};
pub use msi::MsiMessage;
pub use pci::{Bdf, PciDevice};
pub use virtio::queue::VirtQueue;
