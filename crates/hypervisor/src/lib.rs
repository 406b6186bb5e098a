//! # dvh-hypervisor
//!
//! A KVM-like hypervisor with nested VMX emulation, for the DVH
//! nested-virtualization simulator (reproduction of Lim & Nieh,
//! *Optimizing Nested Virtualization Performance Using Direct Virtual
//! Hardware*, ASPLOS 2020).
//!
//! The crate models the *substrate*: a host hypervisor (L0) running a
//! chain of guest hypervisors and a leaf VM, with single-level
//! architectural virtualization support — exactly mainline-KVM
//! behaviour, no DVH. The DVH mechanisms plug in from `dvh-core`
//! through the [`extension::L0Extension`] hook and through
//! configuration (virtual-passthrough and virtual idle are, as the
//! paper stresses, configuration changes on an unmodified
//! trap-and-emulate engine).
//!
//! ## What is emergent vs. specified
//!
//! Handler *programs* are specified (which VMCS fields a personality
//! touches per world switch, per [`profile::HvProfile`]); all nested
//! *costs* are emergent from recursion: a guest hypervisor's privileged
//! instruction traps, its handler's privileged instructions trap, and
//! so on. The ~24x per-level growth of the paper's Table 3 is never
//! written down anywhere in this crate.
//!
//! ## Example
//!
//! ```
//! use dvh_hypervisor::{World, WorldConfig};
//! use dvh_arch::costs::CostModel;
//!
//! // A nested VM (L2) with the paper's baseline configuration.
//! let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
//! let cost = w.guest_hypercall(0);
//! assert!(cost.as_u64() > 20_000, "nested hypercalls are expensive: {cost}");
//! assert!(w.stats.total_interventions() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod config;
mod exits;
pub mod extension;
mod guest;
mod io;
mod lifecycle;
pub mod profile;
mod runtime;
pub mod stats;
mod summary;
pub mod trace;
pub mod trace_export;
pub mod world;

pub use check::VmentryFinding;
pub use config::{DvhFlags, HvKind, IoModel, WorldConfig, MAX_LEVELS};
pub use extension::{Intercept, L0Extension};
pub use runtime::IrqPath;
pub use stats::RunStats;
pub use trace::TraceEvent;
pub use world::{StateDiff, World};
