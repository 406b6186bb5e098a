//! PCI configuration space, capabilities, and the DVH migration
//! capability.
//!
//! Virtual-passthrough (§3.1) works precisely because the host
//! hypervisor's virtual I/O devices *are* PCI devices: "PCI-based
//! virtual I/O devices are widely available and are assignable to work
//! transparently with existing passthrough frameworks". §3.6 then
//! extends the PCI capability mechanism with a **migration capability**
//! so a guest hypervisor can ask the host to capture device state and
//! log DMA-dirtied pages for nested-VM migration.

use std::fmt;

/// A PCI bus/device/function address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bdf {
    /// Bus number.
    pub bus: u8,
    /// Device number (0..32).
    pub dev: u8,
    /// Function number (0..8).
    pub func: u8,
}

impl Bdf {
    /// Creates a BDF address.
    ///
    /// # Panics
    ///
    /// Panics if `dev >= 32` or `func >= 8`.
    pub fn new(bus: u8, dev: u8, func: u8) -> Bdf {
        assert!(dev < 32, "PCI device number out of range");
        assert!(func < 8, "PCI function number out of range");
        Bdf { bus, dev, func }
    }
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}:{:02x}.{}", self.bus, self.dev, self.func)
    }
}

/// A PCI capability in a device's capability list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// MSI-X with the given table size.
    MsiX {
        /// Number of MSI-X table entries.
        table_size: u16,
    },
    /// PCI Express endpoint capability (presence only).
    PciExpress,
    /// SR-IOV capability (physical functions only).
    SrIov {
        /// Number of virtual functions supported.
        num_vfs: u16,
    },
    /// The DVH migration capability (§3.6): control registers through
    /// which a guest hypervisor asks the host hypervisor to capture the
    /// virtual device's state and to log pages dirtied by its DMA.
    Migration(MigrationCap),
}

impl Capability {
    /// The capability ID byte, vendor-specific for migration.
    pub fn id(&self) -> u8 {
        match self {
            Capability::MsiX { .. } => 0x11,
            Capability::PciExpress => 0x10,
            Capability::SrIov { .. } => 0x20,
            Capability::Migration(_) => 0x09, // vendor-specific
        }
    }
}

/// The migration capability's register file.
///
/// The guest hypervisor writes the two address registers (locations in
/// *its own* address space where it wants state/log data delivered)
/// and sets bits in `ctrl`; the host hypervisor implements the
/// semantics (see `dvh-core::migration_cap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationCap {
    /// Where to deposit the opaque encapsulated device state.
    pub device_state_addr: u64,
    /// Where to deposit harvested dirty-page PFN lists.
    pub dirty_log_addr: u64,
    /// Control bits, see [`MigrationCap::CTRL_LOG_ENABLE`] and
    /// [`MigrationCap::CTRL_CAPTURE`].
    pub ctrl: u32,
}

impl MigrationCap {
    /// Control bit: enable dirty-page logging for this device's DMA.
    pub const CTRL_LOG_ENABLE: u32 = 1 << 0;
    /// Control bit: capture device state now (write-1-to-trigger).
    pub const CTRL_CAPTURE: u32 = 1 << 1;

    /// Whether dirty logging is enabled.
    pub fn logging(&self) -> bool {
        self.ctrl & Self::CTRL_LOG_ENABLE != 0
    }
}

/// A PCI device: identity, BARs, and a capability list.
///
/// # Example
///
/// ```
/// use dvh_devices::pci::{Bdf, Capability, PciDevice};
///
/// let mut dev = PciDevice::new(Bdf::new(0, 4, 0), 0x1AF4, 0x1000); // virtio-net
/// dev.add_bar(0, 0xFEB0_0000, 0x4000);
/// dev.add_capability(Capability::MsiX { table_size: 3 });
/// assert!(dev.find_capability(0x11).is_some());
/// assert_eq!(dev.bar(0).unwrap().base, 0xFEB0_0000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PciDevice {
    bdf: Bdf,
    /// Vendor ID (0x1AF4 = Red Hat / virtio, 0x8086 = Intel).
    pub vendor: u16,
    /// Device ID.
    pub device: u16,
    bars: [Option<Bar>; 6],
    caps: Vec<Capability>,
}

/// A base address register (memory BAR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bar {
    /// Base address in the owner's address space.
    pub base: u64,
    /// Size in bytes.
    pub len: u64,
}

impl PciDevice {
    /// Creates a device with no BARs or capabilities.
    pub fn new(bdf: Bdf, vendor: u16, device: u16) -> PciDevice {
        PciDevice {
            bdf,
            vendor,
            device,
            bars: [None; 6],
            caps: Vec::new(),
        }
    }

    /// The device's bus address.
    pub fn bdf(&self) -> Bdf {
        self.bdf
    }

    /// Programs BAR `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 6`.
    pub fn add_bar(&mut self, idx: usize, base: u64, len: u64) {
        self.bars[idx] = Some(Bar { base, len });
    }

    /// Reads BAR `idx`.
    pub fn bar(&self, idx: usize) -> Option<Bar> {
        self.bars.get(idx).copied().flatten()
    }

    /// Appends a capability to the list.
    pub fn add_capability(&mut self, cap: Capability) {
        self.caps.push(cap);
    }

    /// Walks the capability list for the first capability with `id`,
    /// as system software does.
    pub fn find_capability(&self, id: u8) -> Option<&Capability> {
        self.caps.iter().find(|c| c.id() == id)
    }

    /// Convenience: the migration capability, if present.
    pub fn migration_cap(&self) -> Option<&MigrationCap> {
        self.caps.iter().find_map(|c| match c {
            Capability::Migration(m) => Some(m),
            _ => None,
        })
    }

    /// Convenience: mutable migration capability.
    pub fn migration_cap_mut(&mut self) -> Option<&mut MigrationCap> {
        self.caps.iter_mut().find_map(|c| match c {
            Capability::Migration(m) => Some(m),
            _ => None,
        })
    }

    /// Whether the device conforms to the physical-device interface
    /// expectations of passthrough frameworks (a memory BAR and MSI-X).
    ///
    /// §3.1: virtual devices that "do not adhere to a standard physical
    /// device interface specification are likely to not be assignable".
    pub fn is_assignable(&self) -> bool {
        self.bars.iter().any(Option::is_some) && self.find_capability(0x11).is_some()
    }

    /// All capabilities in list order.
    pub fn capabilities(&self) -> &[Capability] {
        &self.caps
    }
}

impl fmt::Display for PciDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{:04x}:{:04x}] ({} caps)",
            self.bdf,
            self.vendor,
            self.device,
            self.caps.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virtio_net() -> PciDevice {
        let mut d = PciDevice::new(Bdf::new(0, 4, 0), 0x1AF4, 0x1000);
        d.add_bar(0, 0xFEB0_0000, 0x4000);
        d.add_capability(Capability::MsiX { table_size: 3 });
        d
    }

    #[test]
    fn capability_walk_finds_msix() {
        let d = virtio_net();
        assert!(matches!(
            d.find_capability(0x11),
            Some(Capability::MsiX { table_size: 3 })
        ));
        assert!(d.find_capability(0x10).is_none());
    }

    #[test]
    fn assignable_requires_bar_and_msix() {
        let d = virtio_net();
        assert!(d.is_assignable());
        let bare = PciDevice::new(Bdf::new(0, 5, 0), 0x1AF4, 0x1000);
        assert!(!bare.is_assignable());
    }

    #[test]
    fn migration_cap_round_trip() {
        let mut d = virtio_net();
        d.add_capability(Capability::Migration(MigrationCap::default()));
        {
            let m = d.migration_cap_mut().unwrap();
            m.dirty_log_addr = 0xA000;
            m.ctrl |= MigrationCap::CTRL_LOG_ENABLE;
        }
        let m = d.migration_cap().unwrap();
        assert!(m.logging());
        assert_eq!(m.dirty_log_addr, 0xA000);
    }

    #[test]
    fn bdf_display() {
        assert_eq!(Bdf::new(0, 4, 0).to_string(), "00:04.0");
    }

    #[test]
    #[should_panic(expected = "device number")]
    fn bdf_rejects_bad_dev() {
        Bdf::new(0, 32, 0);
    }

    #[test]
    fn bars_independent() {
        let mut d = virtio_net();
        d.add_bar(2, 0xFEC0_0000, 0x1000);
        assert_eq!(d.bar(0).unwrap().len, 0x4000);
        assert_eq!(d.bar(2).unwrap().base, 0xFEC0_0000);
        assert!(d.bar(1).is_none());
    }

    #[test]
    fn sriov_capability_id() {
        assert_eq!(Capability::SrIov { num_vfs: 8 }.id(), 0x20);
    }
}
