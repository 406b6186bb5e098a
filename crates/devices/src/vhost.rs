//! The vhost-style host backend: services virtqueues, really moves
//! bytes through (shadow) IOMMU translation, dirties pages, and decides
//! when interrupts fire.
//!
//! This is the code that runs at L0 under both the plain virtio model
//! and virtual-passthrough — the paper notes "the virtual I/O device
//! emulation done by the host hypervisor using DVH-VP is almost
//! identical to that using the virtual I/O model; it relays data
//! between the physical I/O device and (nested) VM address space"
//! (§4). What changes between models is *who traps*, not this backend.
//! The chain DMA itself ([`dma_transmit`], [`dma_receive`]) is shared
//! with physical passthrough, where the device does it through the
//! IOMMU and no backend is involved.
//!
//! Transmit is zero-copy where it can be: a one-buffer chain within one
//! page goes on the wire as a view of the translated host page, shared
//! copy-on-write with guest memory, so a frame costs one translation
//! and no byte copy. The simulated copy is still charged by the caller,
//! by length.

use crate::nic::{Frame, Nic};
use crate::virtio::queue::{DescChain, VirtQueue};
use dvh_memory::sparse::SparseMemory;
use dvh_memory::{Gpa, Perms, TranslateErr, PAGE_SIZE};
use std::fmt;

/// DMA address translation used by the backend when touching guest
/// buffers. Implementations: the physical IOMMU domain (passthrough),
/// a shadow I/O table (virtual-passthrough), or [`Identity`] (the
/// plain virtio model, where the backend runs in the VM-owner's
/// hypervisor and addresses are already its own).
pub trait DmaTranslate {
    /// Translates one device-visible PFN to a backing-store PFN.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateErr`] when the page is unmapped or the access
    /// violates the mapping's permissions; the DMA is dropped.
    fn dma_pfn(&mut self, pfn: u64, req: Perms) -> Result<u64, TranslateErr>;
}

/// Identity translation (no IOMMU stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl DmaTranslate for Identity {
    fn dma_pfn(&mut self, pfn: u64, _req: Perms) -> Result<u64, TranslateErr> {
        Ok(pfn)
    }
}

impl DmaTranslate for dvh_memory::iommu_pt::IoTable {
    fn dma_pfn(&mut self, pfn: u64, req: Perms) -> Result<u64, TranslateErr> {
        self.translate(pfn, req).map(|t| t.pfn)
    }
}

impl DmaTranslate for dvh_memory::iommu_pt::ShadowIoTable {
    fn dma_pfn(&mut self, pfn: u64, req: Perms) -> Result<u64, TranslateErr> {
        self.translate(pfn, req).map(|t| t.pfn)
    }
}

/// Reads from device-visible address `addr` through `xl` into a
/// caller-provided buffer. This is the allocation-free primitive the
/// TX fast path gathers payloads with.
///
/// # Errors
///
/// Propagates translation faults; partial reads do not occur (the
/// whole transfer is validated page by page as hardware does).
pub fn dma_read_into(
    mem: &SparseMemory,
    xl: &mut dyn DmaTranslate,
    addr: Gpa,
    out: &mut [u8],
) -> Result<(), TranslateErr> {
    let mut cur = addr.raw();
    let mut filled = 0;
    while filled < out.len() {
        let off = cur & (PAGE_SIZE - 1);
        let n = (out.len() - filled).min((PAGE_SIZE - off) as usize);
        let host_pfn = xl.dma_pfn(cur >> 12, Perms::RO)?;
        mem.read_into(
            Gpa::from_pfn(host_pfn).offset(off),
            &mut out[filled..filled + n],
        );
        cur += n as u64;
        filled += n;
    }
    Ok(())
}

/// Reads `len` bytes from device-visible address `addr` through `xl`.
/// Thin allocating wrapper around [`dma_read_into`], kept for tests
/// and cold paths.
///
/// # Errors
///
/// Propagates translation faults; partial reads do not occur.
pub fn dma_read(
    mem: &SparseMemory,
    xl: &mut dyn DmaTranslate,
    addr: Gpa,
    len: usize,
) -> Result<Vec<u8>, TranslateErr> {
    let mut out = vec![0u8; len];
    dma_read_into(mem, xl, addr, &mut out)?;
    Ok(out)
}

/// Writes `data` to device-visible address `addr` through `xl`,
/// passing each dirtied *host* page frame to `dirty` if provided.
///
/// # Errors
///
/// Propagates translation faults.
pub fn dma_write(
    mem: &mut SparseMemory,
    xl: &mut dyn DmaTranslate,
    addr: Gpa,
    data: &[u8],
    mut dirty: Option<&mut (dyn FnMut(u64) + '_)>,
) -> Result<(), TranslateErr> {
    let mut cur = addr.raw();
    let mut rest = data;
    while !rest.is_empty() {
        let off = cur & (PAGE_SIZE - 1);
        let n = rest.len().min((PAGE_SIZE - off) as usize);
        let host_pfn = xl.dma_pfn(cur >> 12, Perms::RW)?;
        mem.write(Gpa::from_pfn(host_pfn).offset(off), &rest[..n]);
        if let Some(mark) = dirty.as_deref_mut() {
            mark(host_pfn);
        }
        cur += n as u64;
        rest = &rest[n..];
    }
    Ok(())
}

/// Drains `q`'s available TX chains and transmits each from NIC
/// function `func`. A chain of one device-readable buffer within one
/// page (every chain the datapaths queue) becomes a frame sharing that
/// host page copy-on-write: one translation, no byte copied. Any other
/// chain is gathered through `xl` into a recycled NIC buffer. Every
/// chain is completed to the used ring; `done` sees each one's outcome,
/// the frame length or the fault that dropped it (a dropped frame never
/// reaches the wire).
pub fn dma_transmit(
    q: &mut VirtQueue,
    mem: &SparseMemory,
    xl: &mut dyn DmaTranslate,
    nic: &mut Nic,
    func: usize,
    mut done: impl FnMut(Result<usize, TranslateErr>),
) {
    while let Some(chain) = q.pop_avail() {
        done(transmit_chain(&chain, mem, xl, nic, func));
        q.push_used(chain.head, 0);
    }
}

/// Transmits one chain, zero-copy if it is one readable buffer within
/// one page, otherwise by [`gather_chain`].
fn transmit_chain(
    chain: &DescChain,
    mem: &SparseMemory,
    xl: &mut dyn DmaTranslate,
    nic: &mut Nic,
    func: usize,
) -> Result<usize, TranslateErr> {
    if let [d] = chain.descs() {
        let (off, len) = (d.addr.page_offset() as usize, d.len as usize);
        if !d.device_writes && len > 0 && off + len <= PAGE_SIZE as usize {
            let host_pfn = xl.dma_pfn(d.addr.pfn(), Perms::RO)?;
            nic.transmit(func, Frame::shared(mem.shared_page(host_pfn), off, len));
            return Ok(len);
        }
    }
    gather_chain(chain, mem, xl, nic, func)
}

/// Transmits one chain by gathering its device-readable buffers
/// through `xl` straight into a recycled NIC buffer.
fn gather_chain(
    chain: &DescChain,
    mem: &SparseMemory,
    xl: &mut dyn DmaTranslate,
    nic: &mut Nic,
    func: usize,
) -> Result<usize, TranslateErr> {
    let len = chain.readable_len() as usize;
    nic.transmit_with(func, len, |payload| {
        let mut filled = 0;
        for d in chain.descs().iter().filter(|d| !d.device_writes) {
            let n = d.len as usize;
            dma_read_into(mem, xl, d.addr, &mut payload[filled..filled + n])?;
            filled += n;
        }
        // The buffer is recycled: a byte not read would be stale.
        debug_assert_eq!(filled, payload.len(), "the DMA read missed bytes");
        Ok(())
    })?;
    Ok(len)
}

/// Receives `frame` into `q`'s next available chain: scatters it over
/// the chain's device-writable buffers through `xl`, passing dirtied
/// host page frames to `dirty`, and completes the chain with the bytes
/// written. Returns that count, or `None` if the frame is dropped: no
/// chain is available, the chain is too small, or the DMA faults (the
/// chain still completes, with what was written before the fault).
pub fn dma_receive(
    q: &mut VirtQueue,
    mem: &mut SparseMemory,
    xl: &mut dyn DmaTranslate,
    frame: &Frame,
    mut dirty: Option<&mut (dyn FnMut(u64) + '_)>,
) -> Option<u32> {
    let chain = q.pop_avail()?;
    if (chain.writable_len() as usize) < frame.len() {
        q.push_used(chain.head, 0);
        return None;
    }
    let mut rest = frame.bytes();
    let mut written = 0u32;
    for d in chain.descs().iter().filter(|d| d.device_writes) {
        if rest.is_empty() {
            break;
        }
        let n = rest.len().min(d.len as usize);
        if dma_write(mem, xl, d.addr, &rest[..n], dirty.as_deref_mut()).is_err() {
            q.push_used(chain.head, written);
            return None;
        }
        written += n as u32;
        rest = &rest[n..];
    }
    q.push_used(chain.head, written);
    Some(written)
}

/// Statistics the backend accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VhostStats {
    /// Bytes read out of guest TX buffers.
    pub tx_bytes: u64,
    /// Bytes written into guest RX buffers.
    pub rx_bytes: u64,
    /// TX chains processed.
    pub tx_packets: u64,
    /// RX frames delivered.
    pub rx_packets: u64,
    /// Frames dropped for lack of RX buffers or translation faults.
    pub dropped: u64,
}

/// The vhost-net backend for one virtio-net device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VhostNet {
    /// Accumulated statistics.
    pub stats: VhostStats,
}

impl VhostNet {
    /// Creates a backend.
    pub fn new() -> VhostNet {
        VhostNet::default()
    }

    /// Exports the backend's lifetime counters into a metrics registry
    /// under `tag` (e.g. `"l0-vhost"`). Absolute-value semantics:
    /// exporting twice overwrites, never double-counts.
    pub fn export_metrics(&self, reg: &mut dvh_obs::MetricsRegistry, tag: &'static str) {
        use dvh_obs::metrics::names;
        use dvh_obs::MetricKey;
        for (name, v) in [
            (names::VHOST_TX_PACKETS, self.stats.tx_packets),
            (names::VHOST_RX_PACKETS, self.stats.rx_packets),
            (names::VHOST_TX_BYTES, self.stats.tx_bytes),
            (names::VHOST_RX_BYTES, self.stats.rx_bytes),
            (names::VHOST_DROPPED, self.stats.dropped),
        ] {
            reg.set_counter(MetricKey::tagged(name, tag), v);
        }
    }

    /// Services the TX queue after a doorbell: [`dma_transmit`] from
    /// NIC function `func`, counting each chain, and calling `sent`
    /// with each transmitted frame's length.
    pub fn service_tx(
        &mut self,
        q: &mut VirtQueue,
        mem: &SparseMemory,
        xl: &mut dyn DmaTranslate,
        nic: &mut Nic,
        func: usize,
        mut sent: impl FnMut(usize),
    ) {
        dma_transmit(q, mem, xl, nic, func, |tx| match tx {
            Ok(len) => {
                self.stats.tx_bytes += len as u64;
                self.stats.tx_packets += 1;
                sent(len);
            }
            Err(_) => self.stats.dropped += 1,
        });
    }

    /// Delivers one received frame with [`dma_receive`], counting it.
    ///
    /// Returns `true` if the frame was delivered (caller then decides
    /// interrupt delivery via [`VirtQueue::should_interrupt`]).
    pub fn deliver_rx(
        &mut self,
        q: &mut VirtQueue,
        mem: &mut SparseMemory,
        xl: &mut dyn DmaTranslate,
        frame: &Frame,
        dirty: Option<&mut (dyn FnMut(u64) + '_)>,
    ) -> bool {
        let Some(written) = dma_receive(q, mem, xl, frame, dirty) else {
            self.stats.dropped += 1;
            return false;
        };
        self.stats.rx_bytes += written as u64;
        self.stats.rx_packets += 1;
        true
    }
}

impl fmt::Display for VhostNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vhost-net(tx={}B/{}p rx={}B/{}p drop={})",
            self.stats.tx_bytes,
            self.stats.tx_packets,
            self.stats.rx_bytes,
            self.stats.rx_packets,
            self.stats.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iommu::Iommu;
    use crate::pci::Bdf;
    use crate::virtio::queue::Descriptor;
    use dvh_memory::iommu_pt::IoTable;
    use dvh_memory::DirtyBitmap;

    fn rx_chain(q: &mut VirtQueue, addr: u64, len: u32) -> u16 {
        q.add_one(Descriptor {
            addr: Gpa::new(addr),
            len,
            device_writes: true,
        })
        .unwrap()
    }

    #[test]
    fn tx_reads_guest_bytes_identity() {
        let mut mem = SparseMemory::new();
        mem.write(Gpa::new(0x1000), b"hello world");
        let mut q = VirtQueue::new(8);
        q.add_chain(vec![Descriptor {
            addr: Gpa::new(0x1000),
            len: 11,
            device_writes: false,
        }])
        .unwrap();
        let mut vhost = VhostNet::new();
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 0);
        let mut sent = Vec::new();
        vhost.service_tx(&mut q, &mem, &mut Identity, &mut nic, 0, |len| {
            sent.push(len)
        });
        assert_eq!(sent, [11]);
        assert_eq!(nic.wire().len(), 1);
        assert_eq!(nic.wire()[0].bytes(), b"hello world");
        assert_eq!(vhost.stats.tx_bytes, 11);
        assert_eq!(q.used_len(), 1);
    }

    #[test]
    fn recycled_long_frames_leak_nothing_into_frames_from_unwritten_memory() {
        let mut mem = SparseMemory::new();
        mem.write(Gpa::new(0x1C00), &[0xAA; 1500]);
        let mut q = VirtQueue::new(8);
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 0);
        let send = |q: &mut VirtQueue, nic: &mut Nic, addr, len| {
            q.add_reclaiming(Descriptor {
                addr: Gpa::new(addr),
                len,
                device_writes: false,
            })
            .unwrap();
            dma_transmit(q, &mem, &mut Identity, nic, 0, |r| assert!(r.is_ok()));
        };
        // Fill the wire with long frames that cross a page, so they are
        // gathered and every later gathered frame reuses a 1,500-byte
        // buffer of 0xAA bytes.
        for _ in 0..=crate::nic::WIRE_CAPACITY {
            send(&mut q, &mut nic, 0x1C00, 1500);
        }
        // A short frame from pages never written reads as zeroes.
        send(&mut q, &mut nic, 0x9FC0, 200);
        assert_eq!(nic.wire().back().unwrap().bytes(), [0; 200]);
    }

    #[test]
    fn rx_writes_through_iommu_and_dirties() {
        // Guest buffer at guest pfn 0x10 maps to host pfn 0x99.
        let mut xl = IoTable::new();
        xl.map(0x10, 0x99, 1, Perms::RW);
        let mut mem = SparseMemory::new();
        let mut q = VirtQueue::new(8);
        rx_chain(&mut q, 0x10_000, 2048);
        let mut vhost = VhostNet::new();
        let mut dirty = DirtyBitmap::new();
        let frame = Frame::patterned(1500, 7);
        let mut mark = |pfn| dirty.mark_pfn(pfn);
        assert!(vhost.deliver_rx(&mut q, &mut mem, &mut xl, &frame, Some(&mut mark)));
        // Data landed at the *host* frame.
        assert_eq!(mem.read(Gpa::new(0x99_000), 1500), frame.bytes());
        assert!(dirty.is_dirty(0x99));
        assert_eq!(vhost.stats.rx_packets, 1);
    }

    #[test]
    fn rx_without_buffers_drops() {
        let mut mem = SparseMemory::new();
        let mut q = VirtQueue::new(8);
        let mut vhost = VhostNet::new();
        let frame = Frame::patterned(100, 0);
        assert!(!vhost.deliver_rx(&mut q, &mut mem, &mut Identity, &frame, None));
        assert_eq!(vhost.stats.dropped, 1);
    }

    #[test]
    fn rx_too_small_buffer_drops() {
        let mut mem = SparseMemory::new();
        let mut q = VirtQueue::new(8);
        rx_chain(&mut q, 0x1000, 64);
        let mut vhost = VhostNet::new();
        let frame = Frame::patterned(1500, 0);
        assert!(!vhost.deliver_rx(&mut q, &mut mem, &mut Identity, &frame, None));
    }

    #[test]
    fn tx_translation_fault_drops_packet() {
        let mut xl = IoTable::new(); // nothing mapped
        let mem = SparseMemory::new();
        let mut q = VirtQueue::new(8);
        q.add_chain(vec![Descriptor {
            addr: Gpa::new(0x5000),
            len: 10,
            device_writes: false,
        }])
        .unwrap();
        let mut vhost = VhostNet::new();
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 0);
        vhost.service_tx(&mut q, &mem, &mut xl, &mut nic, 0, |_| {
            panic!("a dropped chain is not sent")
        });
        assert!(nic.wire().is_empty());
        assert_eq!(nic.tx_frames(), 0);
        assert_eq!(vhost.stats.dropped, 1);
    }

    #[test]
    fn dma_rw_cross_page_through_table() {
        let mut xl = IoTable::new();
        xl.map(0x10, 0x20, 2, Perms::RW);
        let mut mem = SparseMemory::new();
        let data: Vec<u8> = (0..100).collect();
        // Write crossing the 0x10/0x11 page boundary.
        dma_write(&mut mem, &mut xl, Gpa::new(0x10_FC0), &data, None).unwrap();
        let back = dma_read(&mem, &mut xl, Gpa::new(0x10_FC0), 100).unwrap();
        assert_eq!(back, data);
        // Physically the bytes straddle host pages 0x20 and 0x21.
        assert_eq!(mem.read(Gpa::new(0x20_FC0), 0x40), &data[..0x40]);
        assert_eq!(mem.read(Gpa::new(0x21_000), 36), &data[0x40..]);
    }

    /// SplitMix64: the seeded generator of the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn tx_bdf() -> Bdf {
        Bdf::new(0, 3, 0)
    }

    /// Device-visible pages the chains address; the last is never
    /// mapped, so a buffer running into it faults.
    const TX_PAGES: u64 = 12;
    const TX_HOST_BASE: u64 = 0x400;

    /// One side of the transmit differential.
    #[derive(Clone)]
    struct TxRig {
        mem: SparseMemory,
        iommu: Iommu,
        q: VirtQueue,
        nic: Nic,
        vhost: VhostNet,
    }

    impl TxRig {
        /// Drains the queue through the datapath under test.
        fn zero_copy(&mut self) {
            let mut xl = self.iommu.device_dma(tx_bdf());
            self.vhost
                .service_tx(&mut self.q, &self.mem, &mut xl, &mut self.nic, 0, |_| {});
        }

        /// Drains the queue gathering every chain, as the datapath did
        /// before frames shared pages.
        fn gather(&mut self) {
            let mut xl = self.iommu.device_dma(tx_bdf());
            let stats = &mut self.vhost.stats;
            while let Some(chain) = self.q.pop_avail() {
                match gather_chain(&chain, &self.mem, &mut xl, &mut self.nic, 0) {
                    Ok(len) => {
                        stats.tx_bytes += len as u64;
                        stats.tx_packets += 1;
                    }
                    Err(_) => stats.dropped += 1,
                }
                self.q.push_used(chain.head, 0);
            }
        }
    }

    #[test]
    fn zero_copy_transmit_matches_the_gather_path() {
        let mut rng = 0x5EED_u64;
        let mut rig = TxRig {
            mem: SparseMemory::new(),
            iommu: Iommu::new(),
            q: VirtQueue::new(64),
            nic: Nic::new(Bdf::new(1, 0, 0), 0),
            vhost: VhostNet::new(),
        };
        rig.iommu.attach(tx_bdf());
        rig.iommu
            .map(tx_bdf(), 0, TX_HOST_BASE, TX_PAGES - 1, Perms::RW);
        // Half the pages hold data; the rest were never written.
        for pfn in (0..TX_PAGES).step_by(2) {
            let fill = splitmix(&mut rng) as u8;
            rig.mem.write(
                Gpa::from_pfn(TX_HOST_BASE + pfn),
                &[fill; PAGE_SIZE as usize],
            );
        }
        let mut fast = rig.clone();
        let mut reference = rig;
        let (mut single_page, mut other) = (0, 0);
        for round in 0..600 {
            let r = splitmix(&mut rng);
            match r % 8 {
                // The guest rewrites part of a buffer page while frames
                // sent from it may still be on the wire.
                0 | 1 => {
                    let pfn = TX_HOST_BASE + (r >> 8) % TX_PAGES;
                    let off = (r >> 16) % PAGE_SIZE;
                    let data = [(r >> 32) as u8; 300];
                    let n = data.len().min((PAGE_SIZE - off) as usize);
                    for side in [&mut fast, &mut reference] {
                        side.mem.write(Gpa::from_pfn(pfn).offset(off), &data[..n]);
                    }
                }
                // A mapping is revoked, or restored.
                2 => {
                    let pfn = (r >> 8) % (TX_PAGES - 1);
                    for side in [&mut fast, &mut reference] {
                        if (r >> 16).is_multiple_of(2) {
                            side.iommu.unmap(tx_bdf(), pfn);
                        } else {
                            side.iommu
                                .map(tx_bdf(), pfn, TX_HOST_BASE + pfn, 1, Perms::RO);
                        }
                    }
                }
                _ => {}
            }
            for _ in 0..1 + splitmix(&mut rng) % 4 {
                let n = 1 + (splitmix(&mut rng) % 6).saturating_sub(3);
                let descs: Vec<Descriptor> = (0..n)
                    .map(|_| {
                        let r = splitmix(&mut rng);
                        let off = match r % 3 {
                            0 => 0,
                            1 => PAGE_SIZE - 1 - (r >> 8) % 64,
                            _ => (r >> 8) % PAGE_SIZE,
                        };
                        Descriptor {
                            addr: Gpa::from_pfn((r >> 20) % TX_PAGES).offset(off),
                            len: 1 + ((r >> 32) % 1600) as u32,
                            device_writes: (r >> 48).is_multiple_of(8),
                        }
                    })
                    .collect();
                let fits = descs[0].addr.page_offset() + descs[0].len as u64 <= PAGE_SIZE;
                if n == 1 && !descs[0].device_writes && fits {
                    single_page += 1;
                } else {
                    other += 1;
                }
                for side in [&mut fast, &mut reference] {
                    side.q.add_chain(descs.clone()).unwrap();
                    side.q.kick();
                }
            }
            fast.zero_copy();
            reference.gather();
            assert_eq!(fast.nic.wire(), reference.nic.wire(), "round {round}");
            assert_eq!(fast.nic.tx_frames(), reference.nic.tx_frames());
            assert_eq!(
                fast.nic.function_mut(0).tx_bytes,
                reference.nic.function_mut(0).tx_bytes
            );
            assert_eq!(fast.q, reference.q, "round {round}: used ring");
            assert_eq!(fast.vhost.stats, reference.vhost.stats, "round {round}");
            assert_eq!(fast.iommu.fault_count(), reference.iommu.fault_count());
            while let Some(used) = fast.q.pop_used() {
                assert_eq!(reference.q.pop_used(), Some(used));
            }
        }
        // Both paths ran often, faults happened, and the wire wrapped.
        assert!(single_page > 200 && other > 200, "{single_page} / {other}");
        assert!(fast.vhost.stats.dropped > 20, "{:?}", fast.vhost.stats);
        assert!(fast.nic.tx_frames() > 2 * crate::nic::WIRE_CAPACITY as u64);
    }

    #[test]
    fn a_sent_frame_keeps_its_bytes_when_the_guest_rewrites_the_page() {
        let mut mem = SparseMemory::new();
        mem.write(Gpa::new(0x1000), &[1; 64]);
        let mut q = VirtQueue::new(8);
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 0);
        let mut send = |q: &mut VirtQueue, mem: &SparseMemory| {
            q.add_reclaiming(Descriptor {
                addr: Gpa::new(0x1000),
                len: 64,
                device_writes: false,
            })
            .unwrap();
            dma_transmit(q, mem, &mut Identity, &mut nic, 0, |r| {
                assert_eq!(r, Ok(64))
            });
        };
        send(&mut q, &mem);
        mem.write(Gpa::new(0x1000), &[2; 64]);
        send(&mut q, &mem);
        let wire: Vec<&[u8]> = nic.wire().iter().map(Frame::bytes).collect();
        assert_eq!(wire, [&[1; 64][..], &[2; 64][..]]);
    }
}
