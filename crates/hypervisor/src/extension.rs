//! L0 extension hook — the seam where DVH plugs into the host
//! hypervisor.
//!
//! The substrate hypervisor in this crate behaves like mainline KVM: an
//! exit from a nested VM is reflected to its guest hypervisor unless
//! architectural rules say otherwise. The DVH mechanisms of the paper
//! are patches to the *host* hypervisor that claim certain nested-VM
//! exits and emulate them directly at L0; `dvh-core` implements them as
//! [`L0Extension`]s registered on the [`World`].

use crate::world::World;
use dvh_arch::vmx::{ExitQualification, ExitReason};

/// Result of offering an exit to an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intercept {
    /// The extension did not claim the exit; continue with the next
    /// extension or the architectural path (reflection).
    NotHandled,
    /// The extension fully handled the exit at L0 (including the VM
    /// entry back into the nested VM).
    Handled,
}

/// A host-hypervisor extension consulted before exit reflection.
///
/// Extensions run only for exits from nested VMs (`from_level >= 2`);
/// L1 exits are always L0's own business, with or without DVH.
pub trait L0Extension {
    /// A short stable name, used in the statistics ledger.
    fn name(&self) -> &'static str;

    /// Offers an exit to the extension. Implementations that claim the
    /// exit must charge all handling costs (via the [`World`]
    /// primitives) *and* the final VM entry, then return
    /// [`Intercept::Handled`]. Declining with
    /// [`Intercept::NotHandled`] must have no side effects: exit
    /// summaries replay guest-hypervisor primitives without offering
    /// them to extensions again.
    fn try_intercept(
        &mut self,
        w: &mut World,
        cpu: usize,
        from_level: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> Intercept;
}
