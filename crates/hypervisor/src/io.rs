//! I/O datapaths for the three models of Fig. 2: cascaded virtio,
//! physical device passthrough, and virtual-passthrough.
//!
//! The models differ in three decisions and nothing else:
//!
//! * **who emulates the doorbell** — nobody under passthrough (the VF
//!   takes the write), L0 under virtual-passthrough (the nested VM's
//!   kick lands on L0's device), the leaf's parent under virtio (whose
//!   backend re-kicks one level down, hop by hop). Every trapping kick
//!   is one [`World::doorbell`] exit;
//! * **who translates DMA** — the physical IOMMU for the VF under
//!   passthrough (through [`Iommu::device_dma`], which logs faults; no
//!   vhost backend is involved), the combined shadow I/O table under
//!   virtual-passthrough, L0's own stage table under virtio. Either way
//!   the chain moves with the shared [`dma_transmit`] / [`dma_receive`];
//! * **who injects the interrupt** — the device MSI resolves through
//!   the innermost vIOMMU: posted (or no vIOMMU at all) reaches the
//!   leaf directly, otherwise every intermediate hypervisor relays it.
//!
//! Bytes really reach the wire: the leaf's buffers live in host memory
//! at their canonical translated addresses, and frames reach the NIC,
//! whose wire keeps the most recent 256 — so data-integrity tests can
//! check end-to-end payloads while the cost ledger records who trapped
//! where. A transmitted frame shares the leaf's TX buffer page
//! copy-on-write instead of copying it (the simulated copy is charged
//! by length all the same), so a guest that rewrites the buffer later
//! leaves the frame on the wire as sent. Received frames land in the
//! posted RX buffer, never in a TX page, and receive bursts build their
//! frame in a buffer the world recycles: steady-state I/O allocates
//! nothing.
//!
//! [`Iommu::device_dma`]: dvh_devices::iommu::Iommu::device_dma

use crate::config::IoModel;
use crate::runtime::IrqPath;
use crate::world::{World, LEAF_BUF_BASE_PFN, LEAF_RX_BUF_PFN, STAGE_PFN_OFFSET};
use dvh_arch::vmx::{ExitQualification, ExitReason};
use dvh_arch::Cycles;
use dvh_devices::iommu::IrteTarget;
use dvh_devices::msi::MsiMessage;
use dvh_devices::nic::Frame;
use dvh_devices::vhost::{dma_receive, dma_transmit, DmaTranslate};
use dvh_devices::virtio::net::NOTIFY_BAR_OFFSET;
use dvh_devices::virtio::queue::Descriptor;
use dvh_memory::iommu_pt::{IoTable, ShadowIoTable};
use dvh_memory::Gpa;

/// The MSI vector virtio-net RX completion uses.
pub const RX_VECTOR: u8 = 0x51;

/// Who translates L0's vhost DMA: the combined shadow I/O table under
/// virtual-passthrough (descriptors hold leaf GPAs), otherwise L0's own
/// stage table (L0's device serves the L1 VM: descriptors hold L1
/// GPAs).
fn l0_dma<'a>(
    model: IoModel,
    shadow_io: &'a mut Option<ShadowIoTable>,
    l0_io_stage: &'a mut IoTable,
) -> &'a mut dyn DmaTranslate {
    match model {
        IoModel::VirtualPassthrough => shadow_io.get_or_insert_with(Default::default),
        _ => l0_io_stage,
    }
}

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

    /// The guest at `from_level` writes queue `queue`'s doorbell in the
    /// BAR of virtio device `dev`: an MMIO exit that the exit engine
    /// routes to whoever emulates that device.
    pub fn doorbell(&mut self, from_level: usize, cpu: usize, dev: usize, queue: u64) {
        let bar = self.virtio[dev].pci().bar(0).expect("virtio BAR 0").base;
        self.vmexit(
            from_level,
            cpu,
            ExitReason::EptMisconfig,
            ExitQualification::mmio(bar + NOTIFY_BAR_OFFSET, queue),
        );
    }

    /// Transmits `packets` frames of `bytes` each from the leaf VM.
    /// Frame payloads are read from the leaf's buffer pool (write them
    /// first with [`World::guest_write_memory`] for integrity checks;
    /// otherwise they are zero-filled). Returns the completion time on
    /// the sending CPU.
    pub fn guest_net_tx(&mut self, cpu: usize, packets: u32, bytes: u32) -> Cycles {
        // Driver side: ring bookkeeping, runs at native speed.
        self.compute(cpu, Cycles::new(120) * packets as u64);
        let dev = self.leaf_device_idx();
        for p in 0..packets {
            let desc = Descriptor {
                addr: Gpa::from_pfn(LEAF_BUF_BASE_PFN + (p as u64 % 32)),
                len: bytes,
                device_writes: false,
            };
            if self.virtio[dev].tx.add_reclaiming(desc).is_err() {
                // Every slot holds a chain the device has not seen:
                // kick the batch queued so far, as a virtio driver does
                // on a full ring, and queue this frame after it.
                self.kick_tx(cpu, dev);
                self.virtio[dev]
                    .tx
                    .add_reclaiming(desc)
                    .expect("a kick services the whole ring");
            }
        }
        self.kick_tx(cpu, dev);
        self.now(cpu)
    }

    /// The leaf kicks the TX queue of virtio device `dev`.
    fn kick_tx(&mut self, cpu: usize, dev: usize) {
        self.virtio[dev].tx.kick();
        if self.config.io_model == IoModel::Passthrough {
            // The doorbell write goes straight to the VF: no exit. The
            // VF DMAs each payload out through the physical IOMMU.
            let vf = self.nic.function_bdf(1);
            dma_transmit(
                &mut self.virtio[dev].tx,
                &self.host_mem,
                &mut self.phys_iommu.device_dma(vf),
                &mut self.nic,
                1,
                |_| {},
            );
        } else {
            // One doorbell exit; its emulator's backend drains the
            // whole batch.
            self.doorbell(self.leaf_level(), cpu, dev, 1);
        }
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
        self.blk
            .queue
            .add_reclaiming(Descriptor {
                addr: Gpa::from_pfn(LEAF_BUF_BASE_PFN + 48),
                len: req.len,
                device_writes: !write,
            })
            .expect("every earlier request completed at its doorbell");
        self.blk.queue.kick();
        // One doorbell exit from the leaf, on the device it drives: L0's
        // under virtual-passthrough (the host's blk device is assigned
        // through the levels, like the NIC), otherwise the cascade's
        // (also under NIC passthrough: there is no SR-IOV disk).
        *self.pending_blk_bytes = Some(bytes as u64);
        self.doorbell(self.leaf_level(), cpu, self.leaf_device_idx(), 2);
        *self.pending_blk_bytes = None;
        // Completion interrupt: direct when the blk device is VP'd
        // with vIOMMU posted interrupts (or at L1), otherwise relayed
        // by each intermediate hypervisor.
        let direct = self.config.io_model == IoModel::VirtualPassthrough
            && self.config.dvh.viommu_posted_interrupts;
        if self.config.levels >= 2 && !direct {
            self.relay_irq_through_chain(cpu);
        }
        let t = self.now(cpu);
        self.deliver_leaf_interrupt(cpu, 0x52, t, IrqPath::PostedDirect);
        self.now(cpu) - t0
    }

    /// L0's doorbell handler: the kick reached the host's own virtio
    /// device (plain L1 virtio, the last cascade hop, or a
    /// virtual-passthrough kick from a nested VM).
    pub(crate) fn l0_doorbell(&mut self, cpu: usize, from_level: usize, _qual: &ExitQualification) {
        if from_level >= 2 {
            if *self.mmio_doorbell_cached {
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
                *self.mmio_doorbell_cached = true;
            }
        } else {
            self.compute(cpu, self.costs.mmio_decode);
            self.compute(cpu, self.costs.mmio_bus_lookup);
        }
        self.compute(cpu, self.costs.ioeventfd_signal);
        if let Some(bytes) = *self.pending_blk_bytes {
            // Block backend: complete the queued request, copy the
            // payload, and submit to the (cache=none) host storage
            // stack.
            if let Some(chain) = self.blk.queue.pop_avail() {
                self.blk.queue.push_used(chain.head, 0);
                self.blk.queue.interrupt_sent();
            }
            self.compute(cpu, self.costs.copy_cost(bytes));
            self.compute(cpu, Cycles::new(800));
            return;
        }
        // L0's vhost drains the TX queue and puts frames on the wire:
        // the copy (floored per frame) plus per-frame backend work.
        let xl = l0_dma(
            self.config.io_model,
            &mut self.shadow_io,
            &mut self.l0_io_stage,
        );
        let mut cost = Cycles::ZERO;
        self.vhost[0].service_tx(
            &mut self.virtio[0].tx,
            &self.host_mem,
            xl,
            &mut self.nic,
            0,
            |len| cost += self.costs.copy_cost(len as u64) + Cycles::new(150),
        );
        self.compute(cpu, cost);
    }

    /// A cascade hypervisor's doorbell handler (`owner` ≥ 1): its vhost
    /// drains its device's queue, copies the payload, and re-transmits
    /// through the device one level down — whose doorbell is an MMIO
    /// write by `owner`, trapping again.
    pub(crate) fn owner_doorbell(&mut self, owner: usize, cpu: usize) {
        let next = owner - 1;
        if let Some(bytes) = *self.pending_blk_bytes {
            // Block cascade hop: copy and re-submit one level down.
            self.compute(cpu, self.costs.copy_cost(bytes));
            self.compute(cpu, Cycles::new(150));
            self.doorbell(owner, cpu, next.min(self.virtio.len() - 1), 2);
            return;
        }
        // Drain this level's queue (chains were queued by the level
        // above; the leaf's queue has real entries, intermediate hops
        // re-add them below) and re-queue each buffer one stage down:
        // addresses shift by one stage offset.
        let mut moved = false;
        while let Some(chain) = self.virtio_dev_mut(owner).tx.pop_avail() {
            self.virtio_dev_mut(owner).tx.push_used(chain.head, 0);
            for d in chain.descs() {
                // The vhost copy between adjacent address spaces.
                self.compute(cpu, self.costs.copy_cost(d.len as u64));
                self.compute(cpu, Cycles::new(150));
                self.virtio[next]
                    .tx
                    .add_reclaiming(Descriptor {
                        addr: Gpa::from_pfn(d.addr.pfn() + STAGE_PFN_OFFSET),
                        len: d.len,
                        device_writes: false,
                    })
                    .expect("the hop below serviced its last batch, and a batch fits one ring");
                moved = true;
            }
        }
        if moved {
            // Kick the next level's doorbell: an MMIO write executed by
            // the hypervisor at `owner`, i.e. guest code at level
            // `owner`.
            self.virtio[next].tx.kick();
            self.doorbell(owner, cpu, next, 1);
        }
    }

    /// An external packet arrives from the wire for the leaf vCPU on
    /// `dest`. Returns the time at which the leaf sees the RX
    /// interrupt.
    pub fn external_packet_arrival(&mut self, dest: usize, frame: &Frame) -> Cycles {
        let dev = self.leaf_device_idx();
        self.post_rx_buffer();
        if self.config.io_model == IoModel::Passthrough {
            // The VF DMAs straight into the leaf buffer through the
            // physical IOMMU: no CPU cost, no interposition (and hence
            // no dirty tracking — the migration story of §3.6). A frame
            // the IOMMU faults is dropped, not received.
            let vf = self.nic.function_bdf(1);
            if let Some(written) = dma_receive(
                &mut self.virtio[dev].rx,
                &mut self.host_mem,
                &mut self.phys_iommu.device_dma(vf),
                frame,
                None,
            ) {
                self.nic.receive_dma(1, written as usize);
            }
        } else {
            // L0's vhost copies the frame in.
            self.compute(dest, self.costs.copy_cost(frame.len() as u64));
            self.compute(dest, Cycles::new(150));
            if self.config.levels > 1 && self.config.io_model == IoModel::Virtio {
                return self.cascade_rx(dest, frame);
            }
            // Under virtual-passthrough the write goes through the
            // shadow I/O table and dirties pages (interposition is
            // preserved): each host page is logged as the leaf page and
            // the L1 page it backs.
            let vp = self.config.io_model == IoModel::VirtualPassthrough;
            let lvl = self.config.levels as u64;
            let (leaf_dirty, l1_dirty) = (&mut self.leaf_dirty, &mut self.l1_dirty);
            let mut mark = |host_pfn: u64| {
                leaf_dirty.mark_pfn(host_pfn - lvl * STAGE_PFN_OFFSET);
                l1_dirty.mark_pfn(host_pfn - STAGE_PFN_OFFSET);
            };
            let xl = l0_dma(
                self.config.io_model,
                &mut self.shadow_io,
                &mut self.l0_io_stage,
            );
            self.vhost[0].deliver_rx(
                &mut self.virtio[0].rx,
                &mut self.host_mem,
                xl,
                frame,
                vp.then_some(&mut mark as &mut dyn FnMut(u64)),
            );
        }
        let Some(vector) = self.rx_msix_vector(dev) else {
            return self.now(dest);
        };
        // Resolve the device MSI through the innermost vIOMMU's
        // interrupt-remapping tables, as the hardware (here: L0's
        // emulation of it) would. With no vIOMMU the interrupt is
        // posted by VT-d (passthrough) or APICv (at L1).
        let bdf = self.virtio[dev].pci().bdf();
        let posted = self.viommus.last().is_none_or(|vm| {
            matches!(
                vm.unit()
                    .resolve_msi(bdf, MsiMessage::remappable(dest as u32, vector)),
                IrteTarget::Posted { .. }
            )
        });
        if !posted {
            // Without vIOMMU PI support, each intermediate hypervisor
            // relays the MSI (DVH-VP in Fig. 8).
            self.relay_irq_through_chain(dest);
        }
        let t = self.now(dest);
        self.deliver_leaf_interrupt(dest, vector, t, IrqPath::PostedDirect)
    }

    /// Nested virtio RX: L0's vhost fills the L1 device and interrupts
    /// L1; each level's backend copies and re-raises until the leaf is
    /// reached.
    fn cascade_rx(&mut self, dest: usize, frame: &Frame) -> Cycles {
        let bytes = frame.len() as u64;
        // Materialize the payload in the leaf's posted RX buffer so
        // end-to-end integrity holds, then charge the cascade costs
        // level by level.
        let host = Gpa::from_pfn(self.leaf_host_pfn(LEAF_RX_BUF_PFN));
        self.host_mem.write(host, frame.bytes());
        self.leaf_dirty.mark_pfn(LEAF_RX_BUF_PFN);
        for j in 1..self.config.levels {
            // Kick hypervisor j: the leaf is running on this CPU, so
            // the interrupt exits and the chain runs hv j's RX softirq.
            self.relay(j, dest);
            self.vmexit(
                self.leaf_level(),
                dest,
                ExitReason::ExternalInterrupt,
                ExitQualification::default(),
            );
            self.exit_side_program(j, dest);
            // vhost copy at level j plus re-raise to level j+1 via its
            // (emulated) posted-interrupt send.
            self.compute(dest, self.costs.copy_cost(bytes));
            self.compute(dest, Cycles::new(150));
            self.compute(dest, self.costs.icr_emulate);
            self.compute(dest, self.costs.pi_desc_update);
            let icr = dvh_arch::apic::IcrValue::fixed(RX_VECTOR, dest as u32);
            self.hv_wrmsr(j, dest, dvh_arch::msr::IA32_X2APIC_ICR, icr.encode());
            self.resume_program(j, dest);
        }
        self.now(dest)
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
        self.patterned_packet_arrival(dest, bytes as usize, 7);
        self.now(dest)
    }

    /// [`World::external_packet_arrival`] of
    /// [`Frame::patterned`]`(bytes, seed)`, built in a frame buffer the
    /// world recycles.
    pub fn patterned_packet_arrival(&mut self, dest: usize, bytes: usize, seed: u8) -> Cycles {
        let mut frame = std::mem::take(&mut self.rx_frame);
        frame.repattern(bytes, seed);
        let t = self.external_packet_arrival(dest, &frame);
        self.rx_frame = frame;
        t
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
    fn post_rx_buffer(&mut self) {
        let idx = self.leaf_device_idx();
        while self.virtio[idx].rx.pop_used().is_some() {}
        if self.virtio[idx].rx.avail_len() < 4 {
            let _ = self.virtio[idx].rx.add_one(Descriptor {
                addr: Gpa::from_pfn(LEAF_RX_BUF_PFN),
                len: 4096,
                device_writes: true,
            });
        }
    }

    /// Relays a device completion interrupt through every intermediate
    /// hypervisor (block I/O on the cascade and non-PI virtual-
    /// passthrough paths, and network RX under virtual-passthrough
    /// without vIOMMU posted-interrupt support).
    fn relay_irq_through_chain(&mut self, dest: usize) {
        let n = self.config.levels;
        for j in 1..n {
            self.relay(j, dest);
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
