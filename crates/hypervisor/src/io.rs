//! I/O datapaths for the three models of Fig. 2: cascaded virtio,
//! physical device passthrough, and virtual-passthrough.
//!
//! Bytes really move: the leaf's buffers live in host memory at their
//! canonical translated addresses, the backend reads/writes them
//! through the appropriate translation structure (shadow I/O table,
//! physical IOMMU domain, or L0's own stage table), and frames really
//! reach the NIC — so data-integrity tests can check end-to-end
//! payloads while the cost ledger records who trapped where.

use crate::config::IoModel;
use crate::runtime::IrqPath;
use crate::world::{World, LEAF_BUF_BASE_PFN, STAGE_PFN_OFFSET};
use dvh_arch::vmx::{ExitQualification, ExitReason};
use dvh_arch::Cycles;
use dvh_devices::nic::Frame;
use dvh_devices::virtio::net::NOTIFY_BAR_OFFSET;
use dvh_devices::virtio::queue::Descriptor;
use dvh_memory::{DirtyBitmap, Gpa};

/// The MSI vector virtio-net RX completion uses.
pub const RX_VECTOR: u8 = 0x51;

impl World {
    /// The canonical host PFN backing leaf-GPA page `leaf_pfn` (the
    /// composition of every EPT stage in the canonical layout).
    pub fn leaf_host_pfn(&self, leaf_pfn: u64) -> u64 {
        leaf_pfn + self.config.levels as u64 * STAGE_PFN_OFFSET
    }

    /// Writes `data` into the leaf VM's memory at `leaf_gpa` as a CPU
    /// store (through the EPT chain), marking it dirty for migration.
    pub fn guest_write_memory(&mut self, cpu: usize, leaf_gpa: Gpa, data: &[u8]) {
        let host = Gpa::from_pfn(self.leaf_host_pfn(leaf_gpa.pfn())).offset(leaf_gpa.page_offset());
        self.host_mem.write(host, data);
        self.leaf_dirty.mark(leaf_gpa);
        self.l1_dirty
            .mark_pfn(leaf_gpa.pfn() + (self.config.levels as u64 - 1) * STAGE_PFN_OFFSET);
        self.compute(cpu, self.costs.copy_cost(data.len() as u64));
    }

    /// Reads leaf memory at `leaf_gpa`.
    pub fn guest_read_memory(&self, leaf_gpa: Gpa, len: usize) -> Vec<u8> {
        let host = Gpa::from_pfn(self.leaf_host_pfn(leaf_gpa.pfn())).offset(leaf_gpa.page_offset());
        self.host_mem.read(host, len)
    }

    /// Transmits `packets` frames of `bytes` each from the leaf VM.
    /// Frame payloads are read from the leaf's buffer pool (write them
    /// first with [`World::guest_write_memory`] for integrity checks;
    /// otherwise they are zero-filled). Returns the completion time on
    /// the sending CPU.
    pub fn guest_net_tx(&mut self, cpu: usize, packets: u32, bytes: u32) -> Cycles {
        // Driver side: ring bookkeeping, runs at native speed.
        self.compute(cpu, Cycles::new(120) * packets as u64);
        let leaf_dev = self.leaf_device_idx();
        for p in 0..packets {
            let buf_pfn = LEAF_BUF_BASE_PFN + (p as u64 % 32);
            let desc = Descriptor {
                addr: Gpa::from_pfn(buf_pfn),
                len: bytes,
                device_writes: false,
            };
            // Queues are finite; drain completions if full.
            if self.virtio[leaf_dev].tx.add_chain(vec![desc]).is_err() {
                while self.virtio[leaf_dev].tx.pop_used().is_some() {}
                let _ = self.virtio[leaf_dev].tx.add_chain(vec![Descriptor {
                    addr: Gpa::from_pfn(buf_pfn),
                    len: bytes,
                    device_writes: false,
                }]);
            }
        }
        self.virtio[leaf_dev].tx.kick();
        match self.config.io_model {
            IoModel::Passthrough => {
                // The doorbell write goes straight to the VF: no exit.
                // The device DMAs the payload out through the physical
                // IOMMU.
                let vf = self.nic.function_bdf(1);
                for _ in 0..packets {
                    let chain = match self.virtio[leaf_dev].tx.pop_avail() {
                        Some(c) => c,
                        None => break,
                    };
                    let mut payload = Vec::new();
                    let mut faulted = false;
                    for d in &chain.descs {
                        let iova = d.addr.pfn();
                        match self.phys_iommu.translate(vf, iova, dvh_memory::Perms::RO) {
                            // Grow the frame once per descriptor and
                            // gather in place — no temporary Vec per
                            // DMA read.
                            Ok(host_pfn) => {
                                let start = payload.len();
                                payload.resize(start + d.len as usize, 0);
                                self.host_mem.read_into(
                                    Gpa::from_pfn(host_pfn).offset(d.addr.page_offset()),
                                    &mut payload[start..],
                                );
                            }
                            // A faulting DMA is dropped by the IOMMU;
                            // the frame never reaches the wire.
                            Err(_) => faulted = true,
                        }
                    }
                    self.virtio[leaf_dev].tx.push_used(chain.head, 0);
                    if !faulted {
                        self.nic.transmit(1, Frame { payload });
                    }
                }
            }
            IoModel::VirtualPassthrough => {
                // One doorbell exit, straight to L0 (the device is
                // L0's); the vhost backend drains the whole batch.
                let bar = self.virtio[0].pci().bar(0).unwrap().base;
                self.vmexit(
                    self.leaf_level(),
                    cpu,
                    ExitReason::EptMisconfig,
                    ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, 1),
                );
            }
            IoModel::Virtio => {
                // One doorbell exit to the providing hypervisor; the
                // cascade forwards hop by hop (each hop reflected as
                // needed by the exit engine).
                let owner = self.leaf_level() - 1;
                let bar = self.virtio_dev(owner).pci().bar(0).unwrap().base;
                self.vmexit(
                    self.leaf_level(),
                    cpu,
                    ExitReason::EptMisconfig,
                    ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, 1),
                );
            }
        }
        self.now(cpu)
    }

    /// Index of the virtio device the leaf VM drives.
    pub fn leaf_device_idx(&self) -> usize {
        match self.config.io_model {
            IoModel::VirtualPassthrough => 0,
            _ => self.virtio.len() - 1,
        }
    }

    /// A block I/O request from the leaf VM (`write` selects the data
    /// direction): one doorbell, a data copy per interposing level, a
    /// backend submit, and a completion interrupt.
    ///
    /// Storage follows the paper's testbed: the SSD is always a
    /// *virtual* block device (`cache=none`), so under physical NIC
    /// passthrough the disk still uses the cascaded virtio model —
    /// MySQL keeps paying guest hypervisor interventions for its log
    /// writes even when the network does not.
    pub fn guest_blk_io(&mut self, cpu: usize, bytes: u32, write: bool) -> Cycles {
        let t0 = self.now(cpu);
        // Driver side: build the request chain (writes also pay the
        // in-guest copy into the bounce buffer).
        self.compute(cpu, Cycles::new(150));
        if write {
            self.compute(cpu, self.costs.copy_cost(bytes as u64 / 4));
        }
        // A real request travels the blk queue: validated against the
        // device geometry, completed at the backend hop.
        let sector = (self.blk.queue.kick_count() * 64) % (1 << 20);
        let req = dvh_devices::virtio::blk::BlkRequest {
            op: if write {
                dvh_devices::virtio::blk::BlkOp::Write
            } else {
                dvh_devices::virtio::blk::BlkOp::Read
            },
            sector,
            len: bytes.div_ceil(512) * 512,
        };
        // Promoted from a debug assertion: an out-of-geometry request
        // would silently clip I/O cost accounting in release builds.
        assert!(
            self.blk.validate(req),
            "blk request outside device geometry"
        );
        let desc = Descriptor {
            addr: Gpa::from_pfn(LEAF_BUF_BASE_PFN + 48),
            len: req.len,
            device_writes: !write,
        };
        if self.blk.queue.add_chain(vec![desc]).is_err() {
            while self.blk.queue.pop_used().is_some() {}
            let _ = self.blk.queue.add_chain(vec![Descriptor {
                addr: Gpa::from_pfn(LEAF_BUF_BASE_PFN + 48),
                len: req.len,
                device_writes: !write,
            }]);
        }
        self.blk.queue.kick();
        let effective_vp = self.config.io_model == IoModel::VirtualPassthrough;
        self.pending_blk_bytes = Some(bytes as u64);
        if effective_vp {
            // The host's blk device is assigned through the levels,
            // like the NIC: one exit to L0.
            let bar = self.virtio[0].pci().bar(0).unwrap().base;
            self.vmexit(
                self.leaf_level(),
                cpu,
                ExitReason::EptMisconfig,
                ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, 2),
            );
        } else {
            // Cascaded virtio (also the passthrough configuration:
            // there is no SR-IOV disk).
            let owner = self.leaf_level() - 1;
            let dev = if self.config.io_model == IoModel::Passthrough {
                // The blk cascade still exists even though net is
                // passed through; its doorbell belongs to the owner.
                owner.min(self.virtio.len() - 1)
            } else {
                owner
            };
            let bar = self.virtio[dev].pci().bar(0).unwrap().base;
            if owner == 0 {
                self.vmexit(
                    1,
                    cpu,
                    ExitReason::EptMisconfig,
                    ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, 2),
                );
            } else {
                self.vmexit(
                    self.leaf_level(),
                    cpu,
                    ExitReason::EptMisconfig,
                    ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, 2),
                );
            }
        }
        self.pending_blk_bytes = None;
        // Completion interrupt: direct when the blk device is VP'd
        // with vIOMMU posted interrupts (or at L1), otherwise relayed
        // by each intermediate hypervisor.
        if self.config.levels >= 2 && !(effective_vp && self.config.dvh.viommu_posted_interrupts) {
            self.relay_irq_for_blk(cpu);
        }
        let t = self.now(cpu);
        self.deliver_leaf_interrupt(cpu, 0x52, t, IrqPath::PostedDirect);
        self.now(cpu) - t0
    }

    /// Completion-side relay for block I/O through intermediate
    /// hypervisors (shared by the cascade and non-PI VP paths).
    fn relay_irq_for_blk(&mut self, cpu: usize) {
        let n = self.config.levels;
        for j in 1..n {
            self.stats.record_intervention(j);
            self.vmexit(
                self.leaf_level(),
                cpu,
                ExitReason::ExternalInterrupt,
                ExitQualification::default(),
            );
            self.exit_side_program(j, cpu);
            self.compute(cpu, self.costs.icr_emulate);
            self.compute(cpu, self.costs.event_injection);
            self.vmresume_insn(j, cpu);
        }
    }

    /// L0's doorbell handler: the kick reached the host's own virtio
    /// device (plain L1 virtio, the last cascade hop, or a
    /// virtual-passthrough kick from a nested VM).
    pub(crate) fn l0_doorbell(&mut self, cpu: usize, from_level: usize, _qual: &ExitQualification) {
        self.taint_summaries();
        if from_level >= 2 {
            if self.mmio_doorbell_cached {
                // MMIO fast path: the GPA→device resolution is cached;
                // no EPT walk and no instruction decode.
                self.compute(cpu, Cycles::new(800));
            } else {
                // Virtual-passthrough from a nested VM, slow path: L0
                // walks the guest's EPT hierarchy to confirm the fault
                // is a genuine MMIO access and not a missing mapping —
                // the extra cost the paper measures in DevNotify-with-
                // DVH (Table 3).
                self.compute(cpu, self.costs.nested_walk_cost(4, 4));
                self.compute(cpu, self.costs.mmio_decode);
                self.compute(cpu, self.costs.mmio_bus_lookup);
                self.mmio_doorbell_cached = true;
            }
        } else {
            self.compute(cpu, self.costs.mmio_decode);
            self.compute(cpu, self.costs.mmio_bus_lookup);
        }
        self.compute(cpu, self.costs.ioeventfd_signal);
        if let Some(bytes) = self.pending_blk_bytes {
            // Block backend: complete the queued request, copy the
            // payload, and submit to the (cache=none) host storage
            // stack.
            if let Some(chain) = self.blk.queue.pop_avail() {
                let head = chain.head;
                self.blk.queue.push_used(head, 0);
                self.blk.queue.interrupt_sent();
            }
            self.compute(cpu, self.costs.copy_cost(bytes));
            self.compute(cpu, Cycles::new(800));
            return;
        }
        self.l0_vhost_service_tx(cpu);
    }

    /// L0's vhost backend drains the TX queue of its device and puts
    /// frames on the wire.
    fn l0_vhost_service_tx(&mut self, cpu: usize) {
        let mut q = std::mem::replace(
            &mut self.virtio[0].tx,
            dvh_devices::virtio::queue::VirtQueue::new(1),
        );
        let frames = match self.config.io_model {
            IoModel::VirtualPassthrough => {
                let mut shadow = self.shadow_io.take().unwrap_or_default();
                let frames = self.vhost[0].service_tx(&mut q, &self.host_mem, &mut shadow);
                self.shadow_io = Some(shadow);
                frames
            }
            _ => {
                // L1's own device: descriptors hold L1 GPAs; translate
                // through L0's stage table.
                let mut stage = std::mem::take(&mut self.l0_io_stage);
                let frames = self.vhost[0].service_tx(&mut q, &self.host_mem, &mut stage);
                self.l0_io_stage = stage;
                frames
            }
        };
        self.virtio[0].tx = q;
        for f in &frames {
            self.compute(cpu, self.costs.copy_cost(f.len() as u64));
        }
        self.compute(cpu, Cycles::new(150) * frames.len() as u64);
        for f in frames {
            self.nic.transmit(0, f);
        }
    }

    /// A cascade hypervisor's doorbell handler (`owner` ≥ 1): its vhost
    /// drains its device's queue, copies the payload, and re-transmits
    /// through the device one level down — whose doorbell is an MMIO
    /// write by `owner`, trapping again.
    pub(crate) fn owner_doorbell(&mut self, owner: usize, cpu: usize) {
        self.taint_summaries();
        if let Some(bytes) = self.pending_blk_bytes {
            // Block cascade hop: copy and re-submit one level down.
            self.compute(cpu, self.costs.copy_cost(bytes));
            self.compute(cpu, Cycles::new(150));
            let next = owner - 1;
            let dev = next.min(self.virtio.len() - 1);
            let bar = self.virtio[dev].pci().bar(0).unwrap().base;
            self.vmexit(
                owner,
                cpu,
                ExitReason::EptMisconfig,
                ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, 2),
            );
            return;
        }
        // Drain this level's queue (chains were queued by the level
        // above; the leaf's queue has real entries, intermediate hops
        // re-add them below).
        let mut moved: Vec<(u64, u32)> = Vec::new();
        while let Some(chain) = self.virtio_dev_mut(owner).tx.pop_avail() {
            for d in &chain.descs {
                moved.push((d.addr.pfn(), d.len));
            }
            let head = chain.head;
            self.virtio_dev_mut(owner).tx.push_used(head, 0);
        }
        for (_, len) in &moved {
            // The vhost copy between adjacent address spaces.
            self.compute(cpu, self.costs.copy_cost(*len as u64));
            self.compute(cpu, Cycles::new(150));
        }
        if moved.is_empty() {
            return;
        }
        // Re-queue one stage down: addresses shift by one stage offset.
        let next = owner - 1;
        for (pfn, len) in &moved {
            let desc = Descriptor {
                addr: Gpa::from_pfn(pfn + STAGE_PFN_OFFSET),
                len: *len,
                device_writes: false,
            };
            if self.virtio[next].tx.add_chain(vec![desc]).is_err() {
                while self.virtio[next].tx.pop_used().is_some() {}
                let _ = self.virtio[next].tx.add_chain(vec![Descriptor {
                    addr: Gpa::from_pfn(pfn + STAGE_PFN_OFFSET),
                    len: *len,
                    device_writes: false,
                }]);
            }
        }
        self.virtio[next].tx.kick();
        // Kick the next level's doorbell: an MMIO write executed by
        // the hypervisor at `owner`, i.e. guest code at level `owner`.
        let bar = self.virtio[next].pci().bar(0).unwrap().base;
        self.vmexit(
            owner,
            cpu,
            ExitReason::EptMisconfig,
            ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, 1),
        );
    }

    /// An external packet arrives from the wire for the leaf vCPU on
    /// `dest`. Returns the time at which the leaf sees the RX
    /// interrupt.
    pub fn external_packet_arrival(&mut self, dest: usize, frame: Frame) -> Cycles {
        let bytes = frame.len() as u64;
        match self.config.io_model {
            IoModel::Passthrough => {
                // Device DMA straight into the leaf buffer via the
                // physical IOMMU, then a VT-d posted interrupt. No CPU
                // cost on the DMA side, no interposition (and hence no
                // dirty tracking — the migration story of §3.6).
                let vf = self.nic.function_bdf(1);
                self.post_rx_buffer(dest);
                let idx = self.leaf_device_idx();
                let mut q = std::mem::replace(
                    &mut self.virtio[idx].rx,
                    dvh_devices::virtio::queue::VirtQueue::new(1),
                );
                if let Some(dom) = self.phys_iommu.domain_mut(vf) {
                    let mut vhost = std::mem::take(&mut self.vhost[idx]);
                    vhost.deliver_rx(&mut q, &mut self.host_mem, dom, &frame, None);
                    self.vhost[idx] = vhost;
                }
                self.virtio[idx].rx = q;
                self.nic.receive(1, Frame { payload: vec![] });
                match self.rx_msix_vector(idx) {
                    Some(v) => {
                        let t = self.now(dest);
                        self.deliver_leaf_interrupt(dest, v, t, IrqPath::PostedDirect)
                    }
                    None => self.now(dest),
                }
            }
            IoModel::VirtualPassthrough => {
                // L0's vhost writes into the leaf buffer through the
                // shadow I/O table, dirtying pages (interposition is
                // preserved). Interrupt delivery depends on vIOMMU
                // posted-interrupt support.
                self.post_rx_buffer(dest);
                self.compute(dest, self.costs.copy_cost(bytes));
                self.compute(dest, Cycles::new(150));
                let mut host_dirty = DirtyBitmap::new();
                let mut q = std::mem::replace(
                    &mut self.virtio[0].rx,
                    dvh_devices::virtio::queue::VirtQueue::new(1),
                );
                let mut shadow = self.shadow_io.take().unwrap_or_default();
                let mut vhost = std::mem::take(&mut self.vhost[0]);
                vhost.deliver_rx(
                    &mut q,
                    &mut self.host_mem,
                    &mut shadow,
                    &frame,
                    Some(&mut host_dirty),
                );
                self.vhost[0] = vhost;
                self.shadow_io = Some(shadow);
                self.virtio[0].rx = q;
                let lvl = self.config.levels as u64;
                for host_pfn in host_dirty.harvest() {
                    self.leaf_dirty.mark_pfn(host_pfn - lvl * STAGE_PFN_OFFSET);
                    self.l1_dirty.mark_pfn(host_pfn - STAGE_PFN_OFFSET);
                }
                let Some(vector) = self.rx_msix_vector(0) else {
                    return self.now(dest);
                };
                // Resolve the device MSI through the innermost
                // vIOMMU's interrupt-remapping tables, as the hardware
                // (here: L0's emulation of it) would.
                let bdf = self.virtio[0].pci().bdf();
                let posted = match self.viommus.last() {
                    Some(vm) => matches!(
                        vm.unit().resolve_msi(
                            bdf,
                            dvh_devices::msi::MsiMessage::remappable(dest as u32, vector)
                        ),
                        dvh_devices::iommu::IrteTarget::Posted { .. }
                    ),
                    None => true, // L1: APICv handles it directly
                };
                let t = self.now(dest);
                if posted {
                    self.deliver_leaf_interrupt(dest, vector, t, IrqPath::PostedDirect)
                } else {
                    // Without vIOMMU PI support, each intermediate
                    // hypervisor relays the MSI (DVH-VP in Fig. 8).
                    self.relay_irq_through_chain(dest);
                    let t = self.now(dest);
                    self.deliver_leaf_interrupt(dest, vector, t, IrqPath::PostedDirect)
                }
            }
            IoModel::Virtio => {
                // Cascade: L0's vhost fills the L1 device, interrupts
                // L1; each level's backend copies and re-raises until
                // the leaf is reached.
                self.post_rx_buffer(dest);
                self.compute(dest, self.costs.copy_cost(bytes));
                self.compute(dest, Cycles::new(150));
                let n = self.config.levels;
                if n == 1 {
                    // Deliver into the leaf's queue for real.
                    let mut q = std::mem::replace(
                        &mut self.virtio[0].rx,
                        dvh_devices::virtio::queue::VirtQueue::new(1),
                    );
                    let mut stage = std::mem::take(&mut self.l0_io_stage);
                    let mut vhost = std::mem::take(&mut self.vhost[0]);
                    vhost.deliver_rx(&mut q, &mut self.host_mem, &mut stage, &frame, None);
                    self.vhost[0] = vhost;
                    self.l0_io_stage = stage;
                    self.virtio[0].rx = q;
                    let Some(vector) = self.rx_msix_vector(0) else {
                        return self.now(dest);
                    };
                    let t = self.now(dest);
                    return self.deliver_leaf_interrupt(dest, vector, t, IrqPath::PostedDirect);
                }
                // Materialize the payload at the canonical leaf buffer
                // so end-to-end integrity holds, then charge the
                // cascade costs level by level.
                let host = Gpa::from_pfn(self.leaf_host_pfn(LEAF_BUF_BASE_PFN));
                self.host_mem.write(host, &frame.payload);
                self.leaf_dirty.mark_pfn(LEAF_BUF_BASE_PFN);
                for j in 1..n {
                    // Kick hypervisor j: the leaf is running on this
                    // CPU, so the interrupt exits and the chain runs
                    // hv j's RX softirq.
                    self.stats.record_intervention(j);
                    self.vmexit(
                        self.leaf_level(),
                        dest,
                        ExitReason::ExternalInterrupt,
                        ExitQualification::default(),
                    );
                    self.exit_side_program(j, dest);
                    // vhost copy at level j plus re-raise to level j+1
                    // via its (emulated) posted-interrupt send.
                    self.compute(dest, self.costs.copy_cost(bytes));
                    self.compute(dest, Cycles::new(150));
                    self.compute(dest, self.costs.icr_emulate);
                    self.compute(dest, self.costs.pi_desc_update);
                    let icr = dvh_arch::apic::IcrValue::fixed(RX_VECTOR, dest as u32);
                    self.hv_wrmsr(j, dest, dvh_arch::msr::IA32_X2APIC_ICR, icr.encode());
                    self.entry_side_program(j, dest);
                    self.vmresume_insn(j, dest);
                }
                self.now(dest)
            }
        }
    }

    /// A coalesced receive burst: `packets` frames of `bytes` each
    /// arrive back-to-back and are delivered with a single interrupt
    /// (NAPI-style polling picks up the rest) — how all three I/O
    /// models behave under throughput load. Per-packet costs (copies
    /// at each interposing level) are still charged.
    pub fn net_rx_burst(&mut self, dest: usize, packets: u32, bytes: u32) -> Cycles {
        if packets == 0 {
            return self.now(dest);
        }
        // Copy costs for the coalesced remainder, at every level that
        // interposes on the data path.
        let interposing_levels: u64 = match self.config.io_model {
            IoModel::Passthrough => 0,
            IoModel::VirtualPassthrough => 1,
            IoModel::Virtio => self.config.levels as u64,
        };
        let extra = (packets - 1) as u64;
        let per_packet = self.costs.copy_cost(bytes as u64) + Cycles::new(150);
        self.compute(dest, per_packet * extra * interposing_levels);
        // One full interrupt-bearing delivery.
        self.external_packet_arrival(dest, Frame::patterned(bytes as usize, 7));
        self.now(dest)
    }

    /// Resolves the RX completion vector through the leaf device's
    /// MSI-X table; `None` means the entry is masked and the interrupt
    /// was latched pending (delivered on unmask).
    pub(crate) fn rx_msix_vector(&mut self, dev: usize) -> Option<u8> {
        self.virtio[dev].msix.trigger(1).map(|m| m.vector)
    }

    /// The guest unmasks the device's RX vector: any pending
    /// completion interrupt fires now.
    pub fn unmask_rx_vector(&mut self, cpu: usize) -> Option<Cycles> {
        let dev = self.leaf_device_idx();
        let msg = self.virtio[dev].msix.unmask(1)?;
        let t = self.now(cpu);
        Some(self.deliver_leaf_interrupt(cpu, msg.vector, t, IrqPath::PostedDirect))
    }

    /// Ensures the leaf's RX queue has a buffer posted.
    fn post_rx_buffer(&mut self, _cpu: usize) {
        let idx = self.leaf_device_idx();
        while self.virtio[idx].rx.pop_used().is_some() {}
        if self.virtio[idx].rx.avail_len() < 4 {
            let _ = self.virtio[idx].rx.add_chain(vec![Descriptor {
                addr: Gpa::from_pfn(LEAF_BUF_BASE_PFN + 32),
                len: 4096,
                device_writes: true,
            }]);
        }
    }

    /// Relays a device MSI through every intermediate hypervisor
    /// (virtual-passthrough without vIOMMU posted-interrupt support).
    fn relay_irq_through_chain(&mut self, dest: usize) {
        let n = self.config.levels;
        for j in 1..n {
            self.stats.record_intervention(j);
            self.vmexit(
                self.leaf_level(),
                dest,
                ExitReason::ExternalInterrupt,
                ExitQualification::default(),
            );
            // The relaying hypervisor takes the interrupt, remaps it,
            // and re-injects — a lighter path than a full emulated
            // exit (no reason-specific handling, no full world
            // switch on the exit side is re-done by deeper levels).
            self.exit_side_program(j, dest);
            self.compute(dest, self.costs.icr_emulate);
            self.compute(dest, self.costs.event_injection);
            self.vmresume_insn(j, dest);
        }
    }
}
