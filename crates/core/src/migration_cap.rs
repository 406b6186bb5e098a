//! The PCI migration capability (§3.6): nested-VM migration with
//! virtual-passthrough devices.
//!
//! A guest hypervisor migrating a nested VM cannot see what a
//! virtual-passthrough device is doing: it does not interpose on I/O,
//! so it knows neither the device state nor which pages the device's
//! DMA dirtied. The capability adds control registers to the virtual
//! device through which the guest hypervisor asks the *host* to:
//!
//! * capture the device state, opaquely encapsulated in the host's own
//!   format (the guest only transfers it, never interprets it);
//! * log pages dirtied by the device's DMA, harvested on demand —
//!   implemented with the dirty logging the host already does for its
//!   own virtual devices, so the datapath pays nothing extra.

use dvh_devices::pci::MigrationCap;
use dvh_hypervisor::World;
use std::fmt;

/// Errors using the migration capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCapError {
    /// The device has no migration capability (the host did not enable
    /// it; e.g. physical passthrough, which fundamentally cannot
    /// support this).
    NoCapability,
    /// Dirty logging was not enabled before harvesting.
    LoggingDisabled,
}

impl fmt::Display for MigrationCapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationCapError::NoCapability => write!(f, "device has no migration capability"),
            MigrationCapError::LoggingDisabled => write!(f, "dirty logging is not enabled"),
        }
    }
}

impl std::error::Error for MigrationCapError {}

/// Opaque, host-format encapsulated device state (§3.6: "the guest
/// hypervisor simply transfers the device state to the destination and
/// does not need to interpret it").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceState(Vec<u8>);

impl DeviceState {
    /// Size in bytes, for transfer-cost accounting.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The guest hypervisor enables DMA dirty logging through the
/// capability's control register.
///
/// # Errors
///
/// [`MigrationCapError::NoCapability`] if the device lacks the
/// capability.
pub fn enable_dirty_logging(w: &mut World, log_addr: u64) -> Result<(), MigrationCapError> {
    let cap = w.virtio[0]
        .pci_mut()
        .migration_cap_mut()
        .ok_or(MigrationCapError::NoCapability)?;
    cap.dirty_log_addr = log_addr;
    cap.ctrl |= MigrationCap::CTRL_LOG_ENABLE;
    Ok(())
}

/// Harvests the leaf-GPA pages dirtied since the last harvest (guest
/// writes and device DMA), in ascending order. This is the host's
/// existing logging exposed through the capability; it costs the
/// datapath nothing ("logging is done as part of the existing I/O
/// interposition", §3.6).
///
/// # Errors
///
/// Fails if the capability is missing or logging was never enabled.
pub fn harvest_dirty_pages(w: &mut World) -> Result<Vec<u64>, MigrationCapError> {
    let cap = w.virtio[0]
        .pci()
        .migration_cap()
        .ok_or(MigrationCapError::NoCapability)?;
    if !cap.logging() {
        return Err(MigrationCapError::LoggingDisabled);
    }
    Ok(w.leaf_dirty.harvest())
}

/// Captures the virtual device's state in the host's own format.
///
/// # Errors
///
/// [`MigrationCapError::NoCapability`] if the device lacks the
/// capability.
pub fn capture_device_state(w: &mut World) -> Result<DeviceState, MigrationCapError> {
    let dev = &mut w.virtio[0];
    if dev.pci().migration_cap().is_none() {
        return Err(MigrationCapError::NoCapability);
    }
    {
        let cap = dev.pci_mut().migration_cap_mut().expect("checked above");
        cap.ctrl |= MigrationCap::CTRL_CAPTURE;
    }
    // Quiesce: in-flight completions are retired before the state is
    // encapsulated (the capture happens with the VM stopped, so the
    // driver has harvested its used rings).
    while dev.rx.pop_used().is_some() {}
    while dev.tx.pop_used().is_some() {}
    // Encapsulate the interesting device state: negotiated features,
    // status, and per-queue progress counters. Opaque but
    // deterministic, so a restore round-trips exactly.
    let mut bytes = Vec::new();
    bytes.extend(dev.negotiated().to_le_bytes());
    bytes.push(dev.status);
    for q in [&dev.rx, &dev.tx] {
        bytes.extend((q.avail_len() as u32).to_le_bytes());
        bytes.extend((q.used_len() as u32).to_le_bytes());
        bytes.extend(q.kick_count().to_le_bytes());
        bytes.extend(q.interrupt_count().to_le_bytes());
    }
    Ok(DeviceState(bytes))
}

/// Restores a captured device state into the (re-created) device on a
/// destination machine — the inverse of [`capture_device_state`]. The
/// destination interprets the host-format bytes; the guest hypervisor
/// never did.
///
/// # Errors
///
/// [`MigrationCapError::NoCapability`] if the destination device lacks
/// the capability (mismatched host configuration).
pub fn restore_device_state(w: &mut World, state: &DeviceState) -> Result<(), MigrationCapError> {
    if w.virtio[0].pci().migration_cap().is_none() {
        return Err(MigrationCapError::NoCapability);
    }
    let b = &state.0;
    let negotiated = u64::from_le_bytes(b[0..8].try_into().expect("capture layout"));
    let status = b[8];
    w.virtio[0].restore_state(negotiated, status);
    let mut at = 9;
    for idx in [0usize, 1] {
        // avail/used lengths are zero in a quiesced capture.
        let kicks = u64::from_le_bytes(b[at + 8..at + 16].try_into().expect("layout"));
        let irqs = u64::from_le_bytes(b[at + 16..at + 24].try_into().expect("layout"));
        let q = if idx == 0 {
            &mut w.virtio[0].rx
        } else {
            &mut w.virtio[0].tx
        };
        q.restore_counters(kicks, irqs);
        at += 24;
    }
    Ok(())
}

/// Verifies a captured state against the current device (used by the
/// migration engine to check a restore was faithful).
pub fn state_matches(w: &mut World, state: &DeviceState) -> bool {
    capture_device_state(w)
        .map(|s| s == *state)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp;
    use dvh_arch::costs::CostModel;
    use dvh_hypervisor::{IoModel, WorldConfig};

    fn vp_world() -> World {
        let mut cfg = WorldConfig::baseline(2);
        cfg.io_model = IoModel::VirtualPassthrough;
        let mut w = World::new(CostModel::calibrated(), cfg);
        vp::enable_migration_capability(&mut w);
        w
    }

    #[test]
    fn logging_must_be_enabled_first() {
        let mut w = vp_world();
        assert_eq!(
            harvest_dirty_pages(&mut w),
            Err(MigrationCapError::LoggingDisabled)
        );
        enable_dirty_logging(&mut w, 0xA000).unwrap();
        assert!(harvest_dirty_pages(&mut w).is_ok());
    }

    #[test]
    fn dma_dirtied_pages_are_harvested() {
        let mut w = vp_world();
        enable_dirty_logging(&mut w, 0xA000).unwrap();
        // An RX packet DMA-writes a leaf buffer page.
        w.external_packet_arrival(0, &dvh_devices::nic::Frame::patterned(1400, 3));
        let pages = harvest_dirty_pages(&mut w).unwrap();
        assert!(!pages.is_empty(), "device DMA must appear in the log");
        // Second harvest is clean.
        assert!(harvest_dirty_pages(&mut w).unwrap().is_empty());
    }

    #[test]
    fn capture_round_trips() {
        let mut w = vp_world();
        let a = capture_device_state(&mut w).unwrap();
        assert!(!a.is_empty());
        assert!(state_matches(&mut w, &a));
        // Device activity changes the captured state.
        w.guest_net_tx(0, 1, 900);
        assert!(!state_matches(&mut w, &a));
    }

    #[test]
    fn no_capability_without_enablement() {
        let mut cfg = WorldConfig::baseline(2);
        cfg.io_model = IoModel::VirtualPassthrough;
        let mut w = World::new(CostModel::calibrated(), cfg);
        assert_eq!(
            capture_device_state(&mut w).unwrap_err(),
            MigrationCapError::NoCapability
        );
    }
}
