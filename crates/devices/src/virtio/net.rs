//! The virtio-net device model.

use crate::msix::MsixTable;
use crate::pci::{Bdf, Capability, MigrationCap, PciDevice};
use crate::virtio::queue::VirtQueue;
use std::fmt;

/// Feature bit: checksum offload.
pub const F_CSUM: u64 = 1 << 0;
/// Feature bit: mergeable receive buffers.
pub const F_MRG_RXBUF: u64 = 1 << 15;
/// Feature bit: virtio 1.0 compliance (required for PCI assignability).
pub const F_VERSION_1: u64 = 1 << 32;

/// Offset of the queue-notify doorbell inside BAR 0.
pub const NOTIFY_BAR_OFFSET: u64 = 0x3000;
/// Stride between per-queue doorbells.
pub const NOTIFY_STRIDE: u64 = 4;

/// A virtio network device: PCI identity plus an RX and a TX queue.
///
/// # Example
///
/// ```
/// use dvh_devices::virtio::net::VirtioNet;
/// use dvh_devices::pci::Bdf;
///
/// let mut net = VirtioNet::new(Bdf::new(0, 4, 0), 256);
/// net.negotiate(dvh_devices::virtio::net::F_VERSION_1);
/// assert!(net.pci().is_assignable());
/// assert_eq!(net.doorbell_queue(0x3004), Some(1)); // TX queue doorbell
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtioNet {
    pci: PciDevice,
    /// Receive queue (device writes packets into guest buffers).
    pub rx: VirtQueue,
    /// Transmit queue (device reads packets from guest buffers).
    pub tx: VirtQueue,
    device_features: u64,
    driver_features: u64,
    /// Device status byte (bit 2 = DRIVER_OK).
    pub status: u8,
    /// The MSI-X table (entry 0: config, 1: RX, 2: TX).
    pub msix: MsixTable,
}

impl VirtioNet {
    /// DRIVER_OK status bit.
    pub const STATUS_DRIVER_OK: u8 = 0x4;

    /// Creates a virtio-net device at `bdf` with `queue_size`-entry
    /// queues, fully PCI-conformant (BAR 0 + MSI-X) so that it is
    /// assignable by passthrough frameworks.
    pub fn new(bdf: Bdf, queue_size: u16) -> VirtioNet {
        let mut pci = PciDevice::new(bdf, 0x1AF4, 0x1041);
        pci.add_bar(0, 0xFEB0_0000, 0x4000);
        pci.add_capability(Capability::MsiX { table_size: 3 });
        pci.add_capability(Capability::PciExpress);
        VirtioNet {
            pci,
            rx: VirtQueue::new(queue_size),
            tx: VirtQueue::new(queue_size),
            device_features: F_CSUM | F_MRG_RXBUF | F_VERSION_1,
            driver_features: 0,
            status: 0,
            msix: MsixTable::new(3),
        }
    }

    /// Adds the DVH migration capability (§3.6) to this device. Host
    /// hypervisors do this when exposing the device for
    /// virtual-passthrough so guest hypervisors can migrate nested VMs.
    pub fn enable_migration_cap(&mut self) {
        if self.pci.migration_cap().is_none() {
            self.pci
                .add_capability(Capability::Migration(MigrationCap::default()));
        }
    }

    /// The PCI presence of this device.
    pub fn pci(&self) -> &PciDevice {
        &self.pci
    }

    /// Mutable PCI access (BAR reprogramming, capability writes).
    pub fn pci_mut(&mut self) -> &mut PciDevice {
        &mut self.pci
    }

    /// Features the device offers.
    pub fn device_features(&self) -> u64 {
        self.device_features
    }

    /// Driver accepts `features`; returns the negotiated set.
    pub fn negotiate(&mut self, features: u64) -> u64 {
        self.driver_features = features & self.device_features;
        self.status |= Self::STATUS_DRIVER_OK;
        self.driver_features
    }

    /// Negotiated feature set.
    pub fn negotiated(&self) -> u64 {
        self.driver_features
    }

    /// Restores negotiated features and status from a migration
    /// snapshot (the destination hypervisor re-creates the device and
    /// loads the captured state).
    pub fn restore_state(&mut self, negotiated: u64, status: u8) {
        self.driver_features = negotiated & self.device_features;
        self.status = status;
    }

    /// Decodes a BAR-0 write offset into a queue index if it targets a
    /// doorbell (0 = RX, 1 = TX).
    pub fn doorbell_queue(&self, bar_offset: u64) -> Option<u16> {
        if !(NOTIFY_BAR_OFFSET..NOTIFY_BAR_OFFSET + 2 * NOTIFY_STRIDE).contains(&bar_offset) {
            return None;
        }
        Some(((bar_offset - NOTIFY_BAR_OFFSET) / NOTIFY_STRIDE) as u16)
    }

    /// The queue with the given index (0 = RX, 1 = TX).
    pub fn queue_mut(&mut self, idx: u16) -> Option<&mut VirtQueue> {
        match idx {
            0 => Some(&mut self.rx),
            1 => Some(&mut self.tx),
            _ => None,
        }
    }
}

impl fmt::Display for VirtioNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "virtio-net@{}", self.pci.bdf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_intersects() {
        let mut net = VirtioNet::new(Bdf::new(0, 4, 0), 64);
        let got = net.negotiate(F_VERSION_1 | (1 << 50));
        assert_eq!(got, F_VERSION_1);
        assert_ne!(net.status & VirtioNet::STATUS_DRIVER_OK, 0);
    }

    #[test]
    fn doorbell_decode() {
        let net = VirtioNet::new(Bdf::new(0, 4, 0), 64);
        assert_eq!(net.doorbell_queue(NOTIFY_BAR_OFFSET), Some(0));
        assert_eq!(net.doorbell_queue(NOTIFY_BAR_OFFSET + 4), Some(1));
        assert_eq!(net.doorbell_queue(0x0), None);
        assert_eq!(net.doorbell_queue(NOTIFY_BAR_OFFSET + 8), None);
    }

    #[test]
    fn migration_cap_added_once() {
        let mut net = VirtioNet::new(Bdf::new(0, 4, 0), 64);
        net.enable_migration_cap();
        net.enable_migration_cap();
        let count = net
            .pci()
            .capabilities()
            .iter()
            .filter(|c| matches!(c, Capability::Migration(_)))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn queue_lookup() {
        let mut net = VirtioNet::new(Bdf::new(0, 4, 0), 64);
        assert!(net.queue_mut(0).is_some());
        assert!(net.queue_mut(1).is_some());
        assert!(net.queue_mut(2).is_none());
    }
}
