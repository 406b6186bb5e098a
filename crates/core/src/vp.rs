//! Virtual-passthrough (§3.1, recursive form §3.5): assigning the host
//! hypervisor's *virtual* I/O device through every virtualization
//! level to the nested VM.
//!
//! The paper's key observation is that this "requires no implementation
//! changes for hypervisors that already support both virtual I/O and
//! passthrough device models" — it is a *configuration*: the host
//! exposes a PCI-conformant virtual device plus a virtual IOMMU; each
//! guest hypervisor, believing it has passthrough-grade hardware,
//! unbinds the device and assigns it up; the last hypervisor assigns
//! it to the nested VM. The host folds the vIOMMU chain into one
//! shadow I/O page table (Fig. 6), so DMA and doorbells involve only
//! L0.
//!
//! This module performs that configuration against a [`World`] and
//! validates its preconditions (the device must look like a physical
//! PCI device to be assignable).

use dvh_hypervisor::{IoModel, World};
use std::fmt;

/// Why a virtual-passthrough assignment could not be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// The machine is not configured for virtual-passthrough I/O.
    WrongIoModel(IoModel),
    /// The host's virtual device does not conform to the physical
    /// device interface specification (no BAR / no MSI-X), so existing
    /// passthrough frameworks cannot assign it (§3.1).
    NotAssignable,
    /// An intermediate hypervisor has no virtual IOMMU to program.
    MissingViommu {
        /// The hypervisor level lacking a vIOMMU.
        level: usize,
    },
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::WrongIoModel(m) => {
                write!(f, "machine uses the {m} I/O model, not virtual-passthrough")
            }
            AssignError::NotAssignable => {
                write!(
                    f,
                    "virtual device does not meet the physical device interface spec"
                )
            }
            AssignError::MissingViommu { level } => {
                write!(f, "hypervisor at level {level} has no virtual IOMMU")
            }
        }
    }
}

impl std::error::Error for AssignError {}

/// A completed (recursive) virtual-passthrough assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// How many hypervisor levels passed the device through.
    pub passthrough_hops: usize,
    /// Total pages mapped in the combined shadow I/O table.
    pub shadow_pages: u64,
    /// Trapped vIOMMU map operations the configuration cost (a
    /// one-time setup cost, not on the datapath).
    pub viommu_map_ops: u64,
}

/// Validates and finalizes the (recursive) virtual-passthrough
/// assignment on `w`, rebuilding the shadow I/O table.
///
/// # Errors
///
/// See [`AssignError`].
pub fn assign(w: &mut World) -> Result<Assignment, AssignError> {
    if w.config.io_model != IoModel::VirtualPassthrough {
        return Err(AssignError::WrongIoModel(w.config.io_model));
    }
    // §3.1: the device must look like hardware (a memory BAR and
    // MSI-X) to be assignable by an unmodified passthrough framework.
    if !w.virtio[0].pci().is_assignable() {
        return Err(AssignError::NotAssignable);
    }
    let hops = w.config.levels.saturating_sub(1);
    // Every intermediate hypervisor needs a vIOMMU from the level
    // below to pass the device further (§3.5); the last-level
    // hypervisor needs none *for its VM* but uses the one provided to
    // it.
    if w.viommus.len() < hops {
        return Err(AssignError::MissingViommu {
            level: w.viommus.len() + 1,
        });
    }
    w.rebuild_shadow_io();
    let shadow_pages = w.shadow_io.as_ref().map(|s| s.mapped_pages()).unwrap_or(0);
    let viommu_map_ops = w.viommus.iter().map(|v| v.map_op_count()).sum();
    Ok(Assignment {
        passthrough_hops: hops,
        shadow_pages,
        viommu_map_ops,
    })
}

/// Enables the PCI migration capability (§3.6) on the host's virtual
/// device, so guest hypervisors can migrate nested VMs that use it.
pub fn enable_migration_capability(w: &mut World) {
    w.virtio[0].enable_migration_cap();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_arch::costs::CostModel;
    use dvh_hypervisor::{DvhFlags, WorldConfig};

    fn vp_world(levels: usize) -> World {
        let mut cfg = WorldConfig::baseline(levels);
        cfg.io_model = IoModel::VirtualPassthrough;
        cfg.dvh = DvhFlags {
            viommu_posted_interrupts: false,
            ..DvhFlags::NONE
        };
        World::new(CostModel::calibrated(), cfg)
    }

    #[test]
    fn assignment_succeeds_for_nested() {
        let mut w = vp_world(2);
        let a = assign(&mut w).unwrap();
        assert_eq!(a.passthrough_hops, 1);
        assert!(a.shadow_pages > 0);
        assert!(a.viommu_map_ops >= 1, "vIOMMU programming is trapped");
    }

    #[test]
    fn recursive_assignment_spans_all_levels() {
        let mut w = vp_world(3);
        let a = assign(&mut w).unwrap();
        assert_eq!(a.passthrough_hops, 2);
        // The shadow table must compose all three stages: leaf GPA ->
        // host PFN through two vIOMMUs and L0's stage.
        let leaf = dvh_hypervisor::world::LEAF_BUF_BASE_PFN;
        let host = w.shadow_io.as_ref().unwrap().lookup(leaf).unwrap().0;
        assert_eq!(host, w.leaf_host_pfn(leaf));
    }

    #[test]
    fn non_assignable_device_is_refused() {
        let mut w = vp_world(2);
        let bdf = w.virtio[0].pci().bdf();
        *w.virtio[0].pci_mut() = dvh_devices::PciDevice::new(bdf, 0x1AF4, 0x1041);
        assert_eq!(assign(&mut w), Err(AssignError::NotAssignable));
    }

    #[test]
    fn wrong_io_model_is_rejected() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        assert!(matches!(
            assign(&mut w),
            Err(AssignError::WrongIoModel(IoModel::Virtio))
        ));
    }

    #[test]
    fn doorbell_from_nested_vm_reaches_l0_without_interventions() {
        let mut w = vp_world(2);
        assign(&mut w).unwrap();
        w.guest_net_tx(0, 1, 1500);
        assert_eq!(
            w.stats.total_interventions(),
            0,
            "virtual-passthrough must bypass the guest hypervisor"
        );
        assert_eq!(w.nic.wire().len(), 1);
    }

    #[test]
    fn data_really_flows_through_shadow_table() {
        let mut w = vp_world(2);
        assign(&mut w).unwrap();
        let payload: Vec<u8> = (0..200u16).map(|b| (b % 251) as u8).collect();
        w.guest_write_memory(
            0,
            dvh_memory::Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN),
            &payload,
        );
        w.guest_net_tx(0, 1, payload.len() as u32);
        let wire = w.nic.wire();
        assert_eq!(wire.len(), 1);
        assert_eq!(wire[0].payload, payload);
    }

    #[test]
    fn migration_cap_can_be_enabled() {
        let mut w = vp_world(2);
        enable_migration_capability(&mut w);
        assert!(w.virtio[0].pci().migration_cap().is_some());
    }

    #[test]
    fn assign_error_messages_are_informative() {
        assert!(AssignError::WrongIoModel(IoModel::Virtio)
            .to_string()
            .contains("virtio"));
        assert!(AssignError::MissingViommu { level: 2 }
            .to_string()
            .contains('2'));
    }
}
