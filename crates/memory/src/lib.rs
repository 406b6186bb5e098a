//! # dvh-memory
//!
//! Memory-system substrate for the DVH nested-virtualization simulator:
//! address types, multi-level page tables (EPT and IOMMU flavours),
//! dirty-page tracking, sparse backing memory, and the shadow I/O
//! page-table composition that recursive virtual-passthrough relies on
//! (Fig. 6 of the paper).
//!
//! Addressing vocabulary follows the paper and KVM:
//!
//! * [`Gva`] — guest-virtual address (rarely needed by the simulator).
//! * [`Gpa`] — guest-physical address at some virtualization level.
//! * [`Hpa`] — host-physical address (L0's view).
//!
//! A nested VM's `Gpa` is translated by a chain of page tables, one per
//! level; [`iommu_pt::ShadowIoTable`] collapses such a chain into the
//! single combined table the host IOMMU (or L0's software DMA path)
//! actually uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod dirty;
pub mod ept;
pub mod iommu_pt;
pub mod pagetable;
pub mod sparse;

pub mod hash {
    //! One cheap hasher for the simulator's `u64`-keyed maps.
    //!
    //! Page frame numbers and packed memo keys are already well-spread
    //! integers chosen by the simulator, not by an adversary, so SipHash's
    //! flooding resistance buys nothing on these paths. [`KeyHasher`]
    //! hashes a `u64` with one multiply and one fold; [`KeyMap`] and
    //! [`KeySet`] are the map and set types built on it.

    use std::collections::{HashMap, HashSet};
    use std::hash::{BuildHasherDefault, Hasher};

    /// Hashes one `u64` key with a multiply by the 64-bit golden ratio and
    /// a fold of the high half into the low bits.
    ///
    /// # Example
    ///
    /// ```
    /// use dvh_memory::hash::KeyMap;
    ///
    /// let mut m: KeyMap<&str> = KeyMap::default();
    /// m.insert(0x1234, "page");
    /// assert_eq!(m.get(&0x1234), Some(&"page"));
    /// ```
    #[derive(Debug, Default)]
    pub struct KeyHasher(u64);

    impl Hasher for KeyHasher {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.write_u64(self.0 ^ u64::from(b));
            }
        }

        fn write_u64(&mut self, n: u64) {
            let x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.0 = x ^ (x >> 29);
        }
    }

    /// A `u64`-keyed hash map hashed with [`KeyHasher`].
    pub type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

    /// A `u64` hash set hashed with [`KeyHasher`].
    pub type KeySet = HashSet<u64, BuildHasherDefault<KeyHasher>>;
}

pub use addr::{Gpa, Gva, Hpa, PAGE_SHIFT, PAGE_SIZE};
pub use dirty::DirtyBitmap;
pub use pagetable::{PageTable, Perms, TranslateErr, Translation};
