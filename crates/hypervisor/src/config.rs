//! Simulation configuration: virtualization depth, I/O model, DVH
//! mechanisms, guest-hypervisor personality.

use std::fmt;

/// The deepest nesting level the command line accepts: the deepest at
/// which the default microbenchmark run (four operations, ten
/// iterations each) keeps every simulated cycle total below
/// `u64::MAX`. Cycle arithmetic saturates; one L12 hypercall already
/// costs about 1.9e18 cycles, so ten of them would pin the clock.
pub const MAX_LEVELS: usize = 11;

/// Which I/O virtualization model the nested VM uses (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoModel {
    /// Cascaded virtual I/O devices: every hypervisor level provides
    /// its own virtio device to its guest (Fig. 2a).
    #[default]
    Virtio,
    /// Physical device passthrough: an SR-IOV VF is assigned through
    /// every level to the leaf VM (Fig. 2b). No I/O interposition.
    Passthrough,
    /// DVH virtual-passthrough: the host hypervisor's virtio device is
    /// assigned through the levels to the leaf VM via virtual IOMMUs
    /// (Fig. 2c).
    VirtualPassthrough,
}

impl fmt::Display for IoModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoModel::Virtio => "virtio",
            IoModel::Passthrough => "passthrough",
            IoModel::VirtualPassthrough => "virtual-passthrough",
        };
        f.write_str(s)
    }
}

/// Which DVH mechanisms are active, mirroring the incremental
/// configurations of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DvhFlags {
    /// §3.1 virtual-passthrough is implied by
    /// [`IoModel::VirtualPassthrough`]; this flag adds the posted-
    /// interrupt support in the virtual IOMMU (the "+ posted
    /// interrupts" step of Fig. 8).
    pub viommu_posted_interrupts: bool,
    /// §3.2 virtual timers.
    pub virtual_timers: bool,
    /// §3.3 virtual IPIs (virtual ICR + VCIMT).
    pub virtual_ipis: bool,
    /// §3.4 virtual idle.
    pub virtual_idle: bool,
}

impl DvhFlags {
    /// No DVH mechanisms (vanilla nested virtualization).
    pub const NONE: DvhFlags = DvhFlags {
        viommu_posted_interrupts: false,
        virtual_timers: false,
        virtual_ipis: false,
        virtual_idle: false,
    };

    /// All DVH mechanisms (the paper's "DVH" configuration).
    pub const ALL: DvhFlags = DvhFlags {
        viommu_posted_interrupts: true,
        virtual_timers: true,
        virtual_ipis: true,
        virtual_idle: true,
    };

    /// Whether any mechanism is enabled.
    pub fn any(self) -> bool {
        self.viommu_posted_interrupts
            || self.virtual_timers
            || self.virtual_ipis
            || self.virtual_idle
    }
}

/// Guest-hypervisor personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HvKind {
    /// KVM-like guest hypervisor.
    #[default]
    Kvm,
    /// Xen-like guest hypervisor (Fig. 10): heavier world switches, no
    /// DVH awareness beyond virtual-passthrough (which needs none).
    Xen,
    /// KVM/ARM guest hypervisor (§3: DVH "can be applied to and
    /// realized on different architectures"; the paper used
    /// virtual-passthrough on ARM). Use with
    /// [`dvh_arch::costs::CostModel::calibrated_arm`].
    KvmArm,
}

impl fmt::Display for HvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvKind::Kvm => f.write_str("KVM"),
            HvKind::Xen => f.write_str("Xen"),
            HvKind::KvmArm => f.write_str("KVM/ARM"),
        }
    }
}

/// Full configuration of a simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldConfig {
    /// Virtualization depth: 1 = VM, 2 = nested VM, 3 = L3 VM, ...
    pub levels: usize,
    /// Number of vCPUs in the leaf VM (the paper uses 4).
    pub leaf_vcpus: usize,
    /// I/O model for the leaf VM.
    pub io_model: IoModel,
    /// Active DVH mechanisms.
    pub dvh: DvhFlags,
    /// Guest hypervisor personality (levels 1..n-1; L0 is always KVM).
    pub guest_hv: HvKind,
    /// Whether hardware VMCS shadowing is available to the L1
    /// hypervisor (the paper's testbed has it; deeper hypervisors
    /// never get it, as on real KVM).
    pub vmcs_shadowing: bool,
}

impl WorldConfig {
    /// A paper-like configuration at the given depth: 4 leaf vCPUs,
    /// virtio I/O, no DVH, VMCS shadowing available.
    pub fn baseline(levels: usize) -> WorldConfig {
        WorldConfig {
            levels,
            leaf_vcpus: 4,
            io_model: IoModel::Virtio,
            dvh: DvhFlags::NONE,
            guest_hv: HvKind::Kvm,
            vmcs_shadowing: true,
        }
    }

    /// The full-DVH variant of [`WorldConfig::baseline`].
    pub fn dvh(levels: usize) -> WorldConfig {
        WorldConfig {
            io_model: IoModel::VirtualPassthrough,
            dvh: DvhFlags::ALL,
            ..WorldConfig::baseline(levels)
        }
    }

    /// Validates internal consistency. DVH flags on a plain (L1) VM are
    /// accepted as inert (§3: "For non-nested virtualization, DVH
    /// provides no real benefit").
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels == 0 {
            return Err("at least one virtualization level is required".into());
        }
        if self.leaf_vcpus == 0 {
            return Err("the leaf VM needs at least one vCPU".into());
        }
        if self.guest_hv == HvKind::Xen
            && (self.dvh.virtual_timers || self.dvh.virtual_ipis || self.dvh.virtual_idle)
        {
            return Err(
                "the Xen guest hypervisor is DVH-unaware: only virtual-passthrough \
                 (with or without vIOMMU posted interrupts) can be enabled"
                    .into(),
            );
        }
        if self.guest_hv == HvKind::KvmArm
            && (self.dvh.virtual_timers || self.dvh.virtual_ipis || self.dvh.virtual_idle)
        {
            return Err(
                "the ARM port implements virtual-passthrough only (as in the paper); \
                 virtual timers/IPIs/idle are x86 mechanisms here"
                    .into(),
            );
        }
        Ok(())
    }
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig::baseline(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        WorldConfig::baseline(1).validate().unwrap();
        WorldConfig::baseline(3).validate().unwrap();
        WorldConfig::dvh(2).validate().unwrap();
    }

    #[test]
    fn zero_levels_invalid() {
        assert!(WorldConfig::baseline(0).validate().is_err());
    }

    #[test]
    fn xen_with_dvh_mechanisms_invalid() {
        let mut c = WorldConfig::dvh(2);
        c.guest_hv = HvKind::Xen;
        assert!(c.validate().is_err());
        // Xen + VP only is fine.
        c.dvh = DvhFlags {
            viommu_posted_interrupts: false,
            ..DvhFlags::NONE
        };
        c.io_model = IoModel::VirtualPassthrough;
        c.validate().unwrap();
    }

    #[test]
    fn dvh_flags_any() {
        assert!(!DvhFlags::NONE.any());
        assert!(DvhFlags::ALL.any());
    }

    #[test]
    fn io_model_display() {
        assert_eq!(
            IoModel::VirtualPassthrough.to_string(),
            "virtual-passthrough"
        );
    }
}
