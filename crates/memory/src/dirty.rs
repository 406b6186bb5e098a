//! Dirty-page tracking.
//!
//! Two producers dirty pages in this system: vCPUs writing memory, and
//! devices doing DMA. For migration (§3.6), the host hypervisor's
//! existing logging covers its own virtual I/O devices; DVH's PCI
//! migration capability lets a *guest* hypervisor harvest that log for
//! a virtual-passthrough device it cannot see.

use crate::addr::Gpa;
use std::collections::BTreeSet;
use std::fmt;

/// A dirty-page bitmap over a guest-physical address space.
///
/// Backed by a sparse set (guest address spaces are huge and mostly
/// clean); the API mirrors KVM's `KVM_GET_DIRTY_LOG` harvest-and-clear
/// semantics.
///
/// # Example
///
/// ```
/// use dvh_memory::{DirtyBitmap, Gpa};
///
/// let mut log = DirtyBitmap::new();
/// log.mark(Gpa::new(0x1000));
/// log.mark(Gpa::new(0x1008)); // same page
/// assert_eq!(log.dirty_count(), 1);
/// let pages = log.harvest();
/// assert_eq!(pages, vec![1]);
/// assert_eq!(log.dirty_count(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyBitmap {
    pages: BTreeSet<u64>,
}

impl DirtyBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> DirtyBitmap {
        DirtyBitmap::default()
    }

    /// Marks the page containing `gpa` dirty.
    pub fn mark(&mut self, gpa: Gpa) {
        self.pages.insert(gpa.pfn());
    }

    /// Marks page frame `pfn` dirty.
    pub fn mark_pfn(&mut self, pfn: u64) {
        self.pages.insert(pfn);
    }

    /// Number of currently-dirty pages.
    pub fn dirty_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Whether page frame `pfn` is dirty.
    pub fn is_dirty(&self, pfn: u64) -> bool {
        self.pages.contains(&pfn)
    }

    /// Returns all dirty PFNs in ascending order and clears the bitmap
    /// (KVM-style log harvest).
    pub fn harvest(&mut self) -> Vec<u64> {
        let out: Vec<u64> = self.pages.iter().copied().collect();
        self.pages.clear();
        out
    }

    /// Merges another bitmap's dirty pages into this one.
    pub fn merge(&mut self, other: &DirtyBitmap) {
        self.pages.extend(other.pages.iter().copied());
    }

    /// Whether no page is dirty.
    pub fn is_clean(&self) -> bool {
        self.pages.is_empty()
    }
}

impl fmt::Display for DirtyBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DirtyBitmap({} pages)", self.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_harvest() {
        let mut b = DirtyBitmap::new();
        b.mark_pfn(5);
        b.mark_pfn(3);
        b.mark_pfn(5);
        assert_eq!(b.dirty_count(), 2);
        assert_eq!(b.harvest(), vec![3, 5]);
        assert!(b.is_clean());
    }

    #[test]
    fn range_marking() {
        let mut b = DirtyBitmap::new();
        (10..14).for_each(|pfn| b.mark_pfn(pfn));
        assert_eq!(b.dirty_count(), 4);
        assert!(b.is_dirty(13));
        assert!(!b.is_dirty(14));
    }

    #[test]
    fn merge_unions() {
        let mut a = DirtyBitmap::new();
        a.mark_pfn(1);
        let mut b = DirtyBitmap::new();
        b.mark_pfn(1);
        b.mark_pfn(2);
        a.merge(&b);
        assert_eq!(a.dirty_count(), 2);
    }

    #[test]
    fn same_page_counts_once() {
        let mut b = DirtyBitmap::new();
        b.mark(Gpa::new(0x2000));
        b.mark(Gpa::new(0x2FFF));
        assert_eq!(b.dirty_count(), 1);
        assert_eq!(b.harvest(), vec![2]);
        assert!(b.is_clean());
    }
}
