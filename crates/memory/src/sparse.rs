//! Sparse byte-addressable memory.
//!
//! Guest RAM in the simulator is huge (the paper's VMs have 12 GB) but
//! only the pages a workload actually touches matter; `SparseMemory`
//! allocates 4 KiB chunks lazily. It backs data-integrity tests (DMA
//! really moves bytes) and migration (pages are really copied).
//!
//! Pages are shared copy-on-write: [`SparseMemory::shared_page`] hands
//! out a reference-counted page (a transmitted frame on the NIC wire
//! holds one instead of a copy of its bytes), and a write copies a page
//! only while such a reference is still alive. Pages live in one hash
//! map keyed by PFN, so touching a page is one probe.

use crate::addr::{Gpa, PAGE_SIZE};
use crate::hash::KeyMap;
use std::fmt;
use std::rc::Rc;

/// One page of backing memory.
pub type Page = [u8; PAGE_SIZE as usize];

/// What every never-written page reads as.
pub static ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// Lazily-allocated byte-addressable memory keyed by guest-physical
/// address.
///
/// Reads of never-written memory return zeroes, like fresh RAM.
///
/// # Example
///
/// ```
/// use dvh_memory::sparse::SparseMemory;
/// use dvh_memory::Gpa;
///
/// let mut ram = SparseMemory::new();
/// ram.write(Gpa::new(0x1FFE), &[0xAA, 0xBB, 0xCC, 0xDD]); // crosses a page
/// assert_eq!(ram.read(Gpa::new(0x1FFE), 4), vec![0xAA, 0xBB, 0xCC, 0xDD]);
/// assert_eq!(ram.read(Gpa::new(0x5000), 2), vec![0, 0]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SparseMemory {
    pages: KeyMap<Rc<Page>>,
}

impl SparseMemory {
    /// Creates empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// The page to write at `pfn`: materialized on first touch, and
    /// copied first if a [`SparseMemory::shared_page`] reference to it
    /// is still alive.
    fn page_mut(&mut self, pfn: u64) -> &mut Page {
        Rc::make_mut(
            self.pages
                .entry(pfn)
                .or_insert_with(|| Rc::new([0; PAGE_SIZE as usize])),
        )
    }

    /// Writes `data` starting at `gpa`, crossing pages as needed.
    pub fn write(&mut self, gpa: Gpa, data: &[u8]) {
        let mut addr = gpa.raw();
        let mut rest = data;
        while !rest.is_empty() {
            let pfn = addr >> 12;
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            self.page_mut(pfn)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr += n as u64;
        }
    }

    /// Reads into a caller-provided buffer starting at `gpa`, crossing
    /// pages as needed. Unmaterialized ranges read as zeroes.
    ///
    /// This is the allocation-free primitive behind [`read`]: DMA-style
    /// hot paths (virtio payload gather, NIC frame copy, vhost) call it
    /// with a reused or pre-sized buffer instead of allocating a fresh
    /// `Vec` per descriptor.
    ///
    /// [`read`]: SparseMemory::read
    pub fn read_into(&self, gpa: Gpa, out: &mut [u8]) {
        let mut addr = gpa.raw();
        let mut filled = 0;
        while filled < out.len() {
            let pfn = addr >> 12;
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let n = (out.len() - filled).min(PAGE_SIZE as usize - off);
            let dst = &mut out[filled..filled + n];
            match self.pages.get(&pfn) {
                Some(p) => dst.copy_from_slice(&p[off..off + n]),
                None => dst.fill(0),
            }
            filled += n;
            addr += n as u64;
        }
    }

    /// Reads `len` bytes starting at `gpa`. Thin allocating wrapper
    /// around [`SparseMemory::read_into`], kept for tests and cold
    /// paths.
    pub fn read(&self, gpa: Gpa, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(gpa, &mut out);
        out
    }

    /// Borrows one materialized page, or `None` if the page has never
    /// been written (i.e. it reads as all zeroes).
    pub fn page(&self, pfn: u64) -> Option<&[u8]> {
        self.pages.get(&pfn).map(|p| &p[..])
    }

    /// A shared reference to one materialized page, or `None` if the
    /// page has never been written. The reference keeps the page's
    /// current bytes: a later write to `pfn` copies the page first.
    pub fn shared_page(&self, pfn: u64) -> Option<Rc<Page>> {
        self.pages.get(&pfn).cloned()
    }

    /// Runs `f` over one page's bytes without copying. Untouched pages
    /// are presented as [`ZERO_PAGE`], so `f` always sees exactly
    /// [`PAGE_SIZE`] bytes.
    pub fn with_page<R>(&self, pfn: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        match self.pages.get(&pfn) {
            Some(p) => f(&p[..]),
            None => f(&ZERO_PAGE),
        }
    }

    /// Writes one whole page.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page long.
    pub fn write_page(&mut self, pfn: u64, data: &[u8]) {
        assert_eq!(
            data.len(),
            PAGE_SIZE as usize,
            "page write must be page-sized"
        );
        self.write(Gpa::from_pfn(pfn), data);
    }

    /// Number of materialized pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// PFNs of all materialized pages in ascending order.
    pub fn resident_pfns(&self) -> Vec<u64> {
        let mut pfns: Vec<u64> = self.pages.keys().copied().collect();
        pfns.sort_unstable();
        pfns
    }
}

impl fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseMemory({} resident pages)", self.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let ram = SparseMemory::new();
        assert_eq!(ram.read(Gpa::new(0x123), 3), vec![0, 0, 0]);
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut ram = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        ram.write(Gpa::new(0x8000), &data);
        assert_eq!(ram.read(Gpa::new(0x8000), 256), data);
    }

    #[test]
    fn cross_page_write() {
        let mut ram = SparseMemory::new();
        ram.write(Gpa::new(0xFFF), &[1, 2]);
        assert_eq!(ram.read(Gpa::new(0xFFF), 2), vec![1, 2]);
        assert_eq!(ram.resident_pages(), 2);
    }

    #[test]
    fn page_granular_ops() {
        let mut ram = SparseMemory::new();
        let page = vec![7u8; PAGE_SIZE as usize];
        ram.write_page(3, &page);
        ram.with_page(3, |p| assert_eq!(p, page));
        assert_eq!(ram.resident_pfns(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "page-sized")]
    fn write_page_rejects_wrong_size() {
        SparseMemory::new().write_page(0, &[1, 2, 3]);
    }

    #[test]
    fn read_into_matches_read_across_pages() {
        let mut ram = SparseMemory::new();
        ram.write(Gpa::new(0x1FF0), &[9u8; 64]);
        let mut buf = [0xAAu8; 100];
        ram.read_into(Gpa::new(0x1FC0), &mut buf);
        assert_eq!(buf.to_vec(), ram.read(Gpa::new(0x1FC0), 100));
        // Unmaterialized tail must be zeroed, not left stale.
        let mut far = [0xAAu8; 16];
        ram.read_into(Gpa::new(0x9000), &mut far);
        assert_eq!(far, [0u8; 16]);
    }

    #[test]
    fn page_borrow_and_with_page() {
        let mut ram = SparseMemory::new();
        assert!(ram.page(5).is_none());
        assert!(ram.with_page(5, |p| p.iter().all(|&b| b == 0)));
        ram.write(Gpa::from_pfn(5), &[1, 2, 3]);
        assert_eq!(&ram.page(5).unwrap()[..3], &[1, 2, 3]);
        assert_eq!(ram.with_page(5, |p| p[1]), 2);
    }

    #[test]
    fn shared_pages_are_copied_on_write() {
        let mut ram = SparseMemory::new();
        assert!(ram.shared_page(4).is_none());
        ram.write(Gpa::from_pfn(4), &[1, 2]);
        let held = ram.shared_page(4).unwrap();
        ram.write(Gpa::from_pfn(4), &[9]);
        assert_eq!(held[..2], [1, 2]);
        assert_eq!(ram.read(Gpa::from_pfn(4), 2), vec![9, 2]);
        // With no reference left, a write goes to the page in place.
        drop(held);
        let page = ram.page(4).unwrap().as_ptr();
        ram.write(Gpa::from_pfn(4), &[7]);
        assert_eq!(ram.page(4).unwrap().as_ptr(), page);
        assert_eq!(ram.resident_pages(), 1);
    }

    #[test]
    fn resident_pfns_ascend() {
        let mut ram = SparseMemory::new();
        for pfn in [9, 2, 1 << 30, 7] {
            ram.write(Gpa::from_pfn(pfn), &[1]);
        }
        assert_eq!(ram.resident_pfns(), vec![2, 7, 9, 1 << 30]);
    }
}
