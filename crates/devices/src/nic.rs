//! A physical 10 GbE NIC model with SR-IOV virtual functions.
//!
//! Models the paper's Intel X520-DA2. The passthrough baseline assigns
//! a VF (or the PF) to a VM; frames then move between the VM and the
//! wire with DMA translated by the physical IOMMU only.
//!
//! The wire is a ring of the most recent [`WIRE_CAPACITY`] frames, so
//! a run of any length holds bounded memory. A frame DMA-read from one
//! guest page does not copy it: it shares the page copy-on-write
//! ([`Frame::shared`]), so the ring also bounds the page copies a guest
//! rewriting its buffers can cause. A frame gathered from several
//! buffers owns its bytes; once the ring is full an evicted owned
//! frame's buffer carries the next gathered payload. Either way
//! steady-state transmission allocates nothing.

use crate::pci::{Bdf, Capability, PciDevice};
use dvh_memory::sparse::{Page, ZERO_PAGE};
use dvh_memory::PAGE_SIZE;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Frames the wire keeps: the most recently transmitted ones.
pub const WIRE_CAPACITY: usize = 256;

/// An Ethernet frame (payload only; headers are folded into payload
/// length for cost purposes).
///
/// A frame owns its bytes or views them in a shared guest page; either
/// way [`Frame::bytes`] reads them, and two frames are equal when their
/// bytes are.
#[derive(Clone, Default)]
pub struct Frame {
    data: FrameData,
}

#[derive(Clone)]
enum FrameData {
    Owned(Vec<u8>),
    /// `len` bytes at `offset` in `page`; `None` is a never-written
    /// page, which reads as zeroes.
    Page {
        page: Option<Rc<Page>>,
        offset: u16,
        len: u16,
    },
}

impl Default for FrameData {
    fn default() -> FrameData {
        FrameData::Owned(Vec::new())
    }
}

impl Frame {
    /// A frame of `len` patterned bytes (detectable in integrity tests).
    pub fn patterned(len: usize, seed: u8) -> Frame {
        let mut frame = Frame::default();
        frame.repattern(len, seed);
        frame
    }

    /// A frame of the `len` bytes at `offset` in `page` (`None`: a page
    /// never written, all zeroes), sharing the page instead of copying
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not lie within one page.
    pub fn shared(page: Option<Rc<Page>>, offset: usize, len: usize) -> Frame {
        assert!(
            offset + len <= PAGE_SIZE as usize,
            "a shared frame lies within one page"
        );
        Frame {
            data: FrameData::Page {
                page,
                offset: offset as u16,
                len: len as u16,
            },
        }
    }

    /// Turns this frame into [`Frame::patterned`]`(len, seed)`, reusing
    /// its buffer if it owns one.
    pub fn repattern(&mut self, len: usize, seed: u8) {
        let mut buf = std::mem::take(self).into_buffer().unwrap_or_default();
        buf.clear();
        buf.extend((0..len).map(|i| seed.wrapping_add(i as u8)));
        self.data = FrameData::Owned(buf);
    }

    /// The frame's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            FrameData::Owned(buf) => buf,
            FrameData::Page { page, offset, len } => {
                let page: &Page = page.as_deref().unwrap_or(&ZERO_PAGE);
                &page[*offset as usize..(offset + len) as usize]
            }
        }
    }

    /// The buffer an owned frame's bytes live in; `None` for a page
    /// view.
    fn into_buffer(self) -> Option<Vec<u8>> {
        match self.data {
            FrameData::Owned(buf) => Some(buf),
            FrameData::Page { .. } => None,
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Frame {}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("payload", &self.bytes())
            .finish()
    }
}

/// One NIC function: the PF or a VF.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NicFunction {
    /// Frames received from the wire, waiting for the owner to DMA.
    pub rx_queue: VecDeque<Frame>,
    /// Total bytes transmitted.
    pub tx_bytes: u64,
    /// Total bytes received.
    pub rx_bytes: u64,
}

/// The NIC: one physical function plus `num_vfs` virtual functions.
///
/// # Example
///
/// ```
/// use dvh_devices::nic::{Frame, Nic};
/// use dvh_devices::pci::Bdf;
///
/// let mut nic = Nic::new(Bdf::new(1, 0, 0), 4);
/// nic.transmit(1, Frame::patterned(1500, 0));
/// assert_eq!(nic.wire().len(), 1);
/// assert_eq!(nic.tx_frames(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nic {
    pf_pci: PciDevice,
    functions: Vec<NicFunction>,
    /// The most recent [`WIRE_CAPACITY`] frames, oldest first.
    wire: VecDeque<Frame>,
    /// Frames transmitted over the NIC's lifetime.
    tx_frames: u64,
    /// The next gathered frame's payload buffer: the last evicted owned
    /// frame's bytes. It takes part in equality: it is deterministic, so
    /// two runs of the same operations agree on it too.
    spare: Vec<u8>,
}

impl Nic {
    /// Creates the NIC with `num_vfs` SR-IOV virtual functions.
    pub fn new(bdf: Bdf, num_vfs: u16) -> Nic {
        let mut pf_pci = PciDevice::new(bdf, 0x8086, 0x10FB); // X520
        pf_pci.add_bar(0, 0xFD00_0000, 0x8_0000);
        pf_pci.add_capability(Capability::MsiX { table_size: 64 });
        pf_pci.add_capability(Capability::SrIov { num_vfs });
        Nic {
            pf_pci,
            functions: (0..=num_vfs).map(|_| NicFunction::default()).collect(),
            wire: VecDeque::with_capacity(WIRE_CAPACITY),
            tx_frames: 0,
            spare: Vec::new(),
        }
    }

    /// PF PCI identity.
    pub fn pf_pci(&self) -> &PciDevice {
        &self.pf_pci
    }

    /// The BDF of function `idx` (PF is function 0; VFs get
    /// consecutive function numbers, simplified from real VF BDF math).
    pub fn function_bdf(&self, idx: usize) -> Bdf {
        let pf = self.pf_pci.bdf();
        Bdf::new(pf.bus, pf.dev, idx as u8 % 8)
    }

    /// Access function state.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn function_mut(&mut self, idx: usize) -> &mut NicFunction {
        &mut self.functions[idx]
    }

    /// Transmits a frame from function `idx` onto the wire. If the
    /// ring is full the oldest frame is evicted; an owned one leaves
    /// its buffer for the next [`Nic::transmit_with`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn transmit(&mut self, idx: usize, frame: Frame) {
        self.functions[idx].tx_bytes += frame.len() as u64;
        self.tx_frames += 1;
        if self.wire.len() == WIRE_CAPACITY {
            if let Some(buf) = self.wire.pop_front().and_then(Frame::into_buffer) {
                self.spare = buf;
            }
        }
        self.wire.push_back(frame);
    }

    /// Transmits a `len`-byte frame from function `idx` whose payload
    /// `fill` writes into a recycled buffer (the device's DMA read).
    /// The buffer still holds an evicted frame's bytes: `fill` must
    /// write all `len` of them. If `fill` fails the frame is dropped:
    /// nothing reaches the wire and no frame is evicted.
    ///
    /// # Errors
    ///
    /// Returns `fill`'s error.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn transmit_with<E>(
        &mut self,
        idx: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut payload = std::mem::take(&mut self.spare);
        payload.resize(len, 0);
        if let Err(e) = fill(&mut payload) {
            self.spare = payload;
            return Err(e);
        }
        self.transmit(
            idx,
            Frame {
                data: FrameData::Owned(payload),
            },
        );
        Ok(())
    }

    /// Delivers a frame from the wire into function `idx`'s RX queue.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn receive(&mut self, idx: usize, frame: Frame) {
        self.functions[idx].rx_bytes += frame.len() as u64;
        self.functions[idx].rx_queue.push_back(frame);
    }

    /// Counts a frame function `idx` DMA'd straight into its owner's
    /// memory (passthrough RX): the bytes are received, but nothing
    /// waits in the RX queue.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn receive_dma(&mut self, idx: usize, len: usize) {
        self.functions[idx].rx_bytes += len as u64;
    }

    /// The most recent [`WIRE_CAPACITY`] frames on the wire, oldest
    /// first.
    pub fn wire(&self) -> &VecDeque<Frame> {
        &self.wire
    }

    /// Frames transmitted over the NIC's lifetime, evicted ones
    /// included.
    pub fn tx_frames(&self) -> u64 {
        self.tx_frames
    }
}

impl fmt::Display for Nic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "10GbE NIC@{} ({} VFs)",
            self.pf_pci.bdf(),
            self.functions.len() - 1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sriov_capability_present() {
        let nic = Nic::new(Bdf::new(1, 0, 0), 8);
        assert!(matches!(
            nic.pf_pci().find_capability(0x20),
            Some(Capability::SrIov { num_vfs: 8 })
        ));
    }

    #[test]
    fn tx_rx_accounting() {
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 2);
        nic.transmit(1, Frame::patterned(1000, 1));
        nic.receive(2, Frame::patterned(500, 2));
        assert_eq!(nic.function_mut(1).tx_bytes, 1000);
        assert_eq!(nic.function_mut(2).rx_bytes, 500);
        assert_eq!(nic.function_mut(2).rx_queue.len(), 1);
    }

    #[test]
    fn patterned_frames_differ_by_seed() {
        assert_ne!(Frame::patterned(10, 0), Frame::patterned(10, 1));
        assert!(!Frame::patterned(1, 0).is_empty());
    }

    #[test]
    fn wire_keeps_the_newest_frames_oldest_first() {
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 0);
        let sent = WIRE_CAPACITY + 3;
        for i in 0..sent {
            nic.transmit(0, Frame::patterned(64 + i, i as u8));
        }
        assert_eq!(nic.wire().len(), WIRE_CAPACITY);
        assert_eq!(nic.tx_frames(), sent as u64);
        for (k, f) in nic.wire().iter().enumerate() {
            let i = k + 3;
            assert_eq!(*f, Frame::patterned(64 + i, i as u8), "slot {k}");
        }
        let bytes: usize = (0..sent).map(|i| 64 + i).sum();
        assert_eq!(nic.function_mut(0).tx_bytes, bytes as u64);
    }

    #[test]
    fn recycled_buffers_carry_no_stale_bytes() {
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 0);
        for _ in 0..=WIRE_CAPACITY {
            nic.transmit(0, Frame::patterned(1500, 0xAA));
        }
        // The recycled buffer is cut to the new frame's length, and a
        // fill that writes all of it leaves nothing of the old frame.
        nic.transmit_with(0, 200, |buf| {
            assert_eq!(buf.len(), 200);
            buf.fill(7);
            Ok::<(), ()>(())
        })
        .unwrap();
        let last = nic.wire().back().unwrap();
        assert_eq!(last.bytes(), [7; 200]);
    }

    #[test]
    fn failed_fill_drops_the_frame_and_evicts_nothing() {
        let mut nic = Nic::new(Bdf::new(1, 0, 0), 0);
        for i in 0..WIRE_CAPACITY {
            nic.transmit(0, Frame::patterned(100, i as u8));
        }
        let before = nic.wire().clone();
        assert_eq!(nic.transmit_with(0, 100, |_| Err("fault")), Err("fault"));
        assert_eq!(*nic.wire(), before);
        assert_eq!(nic.tx_frames(), WIRE_CAPACITY as u64);
        assert_eq!(nic.function_mut(0).tx_bytes, 100 * WIRE_CAPACITY as u64);
    }
}
