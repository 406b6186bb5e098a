//! A generic 4-level radix page table, used for both EPT and IOMMU
//! translation structures.
//!
//! The table maps page frame numbers to page frame numbers with
//! permissions, mirroring the x86 4-level structure (9 bits per level,
//! 48-bit input space). It reports what a hardware walk of that tree
//! would: a hit touches all four levels, and a miss names the level
//! whose entry was absent. It does not store the tree, though: the
//! leaves live in one hash map keyed by input PFN, so a translation is
//! one probe, and each level keeps the set of index prefixes that hold
//! a table, consulted only on a miss. Like a hardware table's, those
//! tables are never freed when their last leaf is unmapped.

use crate::hash::{KeyMap, KeySet};
use std::fmt;

/// Number of radix levels (4-level, x86-64 style).
pub const LEVELS: u32 = 4;
/// Index bits per level.
const BITS_PER_LEVEL: u32 = 9;

/// Access permissions on a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Read permitted.
    pub r: bool,
    /// Write permitted.
    pub w: bool,
    /// Execute permitted (EPT only; ignored by IOMMU tables).
    pub x: bool,
}

impl Perms {
    /// Read/write/execute.
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
    };
    /// Read/write (typical DMA buffer mapping).
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };
    /// Read-only (e.g. pre-copy migration write protection).
    pub const RO: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };

    /// Whether `self` permits everything `req` requires.
    pub fn allows(self, req: Perms) -> bool {
        (!req.r || self.r) && (!req.w || self.w) && (!req.x || self.x)
    }

    /// The intersection of two permission sets (used when composing
    /// translation stages: the combined mapping is only as permissive
    /// as its weakest stage).
    pub fn intersect(self, other: Perms) -> Perms {
        Perms {
            r: self.r && other.r,
            w: self.w && other.w,
            x: self.x && other.x,
        }
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.r { 'r' } else { '-' },
            if self.w { 'w' } else { '-' },
            if self.x { 'x' } else { '-' }
        )
    }
}

/// A leaf page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Output page frame number.
    pub pfn: u64,
    /// Permissions.
    pub perms: Perms,
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Output page frame number.
    pub pfn: u64,
    /// Effective permissions of the mapping.
    pub perms: Perms,
    /// Number of memory references the hardware walk touched.
    pub walk_refs: u32,
}

/// Translation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateErr {
    /// No mapping present for the input page.
    NotMapped {
        /// Radix level (from the root, 1-based) at which the walk died.
        level: u32,
    },
    /// Mapping present but the requested access is not permitted.
    Protection {
        /// The permissions the mapping actually grants.
        have: Perms,
    },
}

impl fmt::Display for TranslateErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateErr::NotMapped { level } => {
                write!(f, "not mapped (walk terminated at level {level})")
            }
            TranslateErr::Protection { have } => {
                write!(f, "protection violation (mapping grants {have})")
            }
        }
    }
}

impl std::error::Error for TranslateErr {}

/// A 4-level radix page table mapping input PFNs to output PFNs.
///
/// Input PFNs are 36 bits wide (four 9-bit indices); higher bits are
/// ignored, as by a hardware walk of a 48-bit address space.
///
/// # Example
///
/// ```
/// use dvh_memory::{PageTable, Perms};
///
/// let mut pt = PageTable::new();
/// pt.map(0x10, 0x999, Perms::RW);
/// let t = pt.translate(0x10, Perms::RO).unwrap();
/// assert_eq!(t.pfn, 0x999);
/// assert_eq!(t.walk_refs, 4);
/// assert!(pt.translate(0x11, Perms::RO).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageTable {
    /// Leaf entries keyed by input PFN.
    leaves: KeyMap<Entry>,
    /// `tables[k]` holds the index prefixes of the tables present at
    /// radix level `k + 2`, i.e. the entries present at level `k + 1`
    /// (the root is level 1). Never pruned: a table stays when its
    /// last leaf is unmapped.
    tables: [KeySet; LEVELS as usize - 1],
}

/// Input PFN bits the four levels index.
const INPUT_MASK: u64 = (1 << (BITS_PER_LEVEL * LEVELS)) - 1;

/// The index prefix of `pfn`'s table entry at level `level` (1-based):
/// the bits that select the level-`level + 1` table.
fn prefix(pfn: u64, level: u32) -> u64 {
    pfn >> (BITS_PER_LEVEL * (LEVELS - level))
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps input page `pfn_in` to output page `pfn_out` with `perms`,
    /// replacing any previous mapping.
    pub fn map(&mut self, pfn_in: u64, pfn_out: u64, perms: Perms) {
        let key = pfn_in & INPUT_MASK;
        // Tables are never pruned, so a present last-level table means
        // every table above it is present too.
        let [upper @ .., last] = &mut self.tables;
        if last.insert(prefix(key, LEVELS - 1)) {
            for (level, set) in (1..).zip(upper) {
                set.insert(prefix(key, level));
            }
        }
        self.leaves.insert(
            key,
            Entry {
                pfn: pfn_out,
                perms,
            },
        );
    }

    /// Maps `n` consecutive pages starting at the given input/output
    /// base PFNs.
    pub fn map_range(&mut self, pfn_in: u64, pfn_out: u64, n: u64, perms: Perms) {
        for k in 0..n {
            self.map(pfn_in + k, pfn_out + k, perms);
        }
    }

    /// Removes the mapping for `pfn_in`. Returns the removed entry.
    pub fn unmap(&mut self, pfn_in: u64) -> Option<Entry> {
        self.leaves.remove(&(pfn_in & INPUT_MASK))
    }

    /// Translates input page `pfn_in` for an access requiring `req`
    /// permissions, counting the radix levels the walk touched: a
    /// successful walk touches all [`LEVELS`].
    ///
    /// # Errors
    ///
    /// [`TranslateErr::NotMapped`] if the walk finds no entry;
    /// [`TranslateErr::Protection`] if the entry exists but denies the
    /// requested access.
    pub fn translate(&self, pfn_in: u64, req: Perms) -> Result<Translation, TranslateErr> {
        let key = pfn_in & INPUT_MASK;
        let Some(e) = self.leaves.get(&key) else {
            // The walk dies at the first level whose entry is absent.
            let level = (1..LEVELS)
                .find(|&l| !self.tables[l as usize - 1].contains(&prefix(key, l)))
                .unwrap_or(LEVELS);
            return Err(TranslateErr::NotMapped { level });
        };
        if !e.perms.allows(req) {
            return Err(TranslateErr::Protection { have: e.perms });
        }
        Ok(Translation {
            pfn: e.pfn,
            perms: e.perms,
            walk_refs: LEVELS,
        })
    }

    /// Looks up `pfn_in`'s leaf entry.
    pub fn lookup(&self, pfn_in: u64) -> Option<Entry> {
        self.leaves.get(&(pfn_in & INPUT_MASK)).copied()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// Whether the table has no mappings.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Iterates all `(input_pfn, Entry)` mappings in ascending order.
    pub fn iter(&self) -> Vec<(u64, Entry)> {
        let mut out: Vec<(u64, Entry)> = self.leaves.iter().map(|(&k, &e)| (k, e)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn map_translate_round_trip() {
        let mut pt = PageTable::new();
        pt.map(0xABCDE, 0x1111, Perms::RW);
        let t = pt.translate(0xABCDE, Perms::RW).unwrap();
        assert_eq!(t.pfn, 0x1111);
        assert_eq!(t.walk_refs, LEVELS);
    }

    #[test]
    fn unmapped_translation_fails() {
        let pt = PageTable::new();
        assert!(matches!(
            pt.translate(5, Perms::RO),
            Err(TranslateErr::NotMapped { .. })
        ));
    }

    #[test]
    fn protection_enforced() {
        let mut pt = PageTable::new();
        pt.map(7, 9, Perms::RO);
        assert!(pt.translate(7, Perms::RO).is_ok());
        assert!(matches!(
            pt.translate(7, Perms::RW),
            Err(TranslateErr::Protection { .. })
        ));
    }

    #[test]
    fn unmap_removes() {
        let mut pt = PageTable::new();
        pt.map(1, 2, Perms::RW);
        assert_eq!(pt.mapped_pages(), 1);
        let e = pt.unmap(1).unwrap();
        assert_eq!(e.pfn, 2);
        assert!(pt.is_empty());
        assert!(pt.unmap(1).is_none());
    }

    #[test]
    fn map_range_maps_consecutively() {
        let mut pt = PageTable::new();
        pt.map_range(0x100, 0x200, 8, Perms::RW);
        assert_eq!(pt.mapped_pages(), 8);
        for k in 0..8 {
            assert_eq!(pt.lookup(0x100 + k).unwrap().pfn, 0x200 + k);
        }
    }

    #[test]
    fn remap_does_not_double_count() {
        let mut pt = PageTable::new();
        pt.map(1, 2, Perms::RW);
        pt.map(1, 3, Perms::RO);
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.lookup(1).unwrap().pfn, 3);
    }

    #[test]
    fn iter_lists_mappings_in_order() {
        let mut pt = PageTable::new();
        pt.map(30, 3, Perms::RW);
        pt.map(10, 1, Perms::RW);
        pt.map(20, 2, Perms::RW);
        let all = pt.iter();
        let pfns: Vec<u64> = all.iter().map(|(p, _)| *p).collect();
        assert_eq!(pfns, vec![10, 20, 30]);
    }

    #[test]
    fn perms_intersect() {
        assert_eq!(Perms::RWX.intersect(Perms::RO), Perms::RO);
        assert_eq!(Perms::RW.intersect(Perms::RWX), Perms::RW);
    }

    #[test]
    fn perms_display() {
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!(Perms::RO.to_string(), "r--");
    }

    #[test]
    fn distinct_high_pfns_do_not_collide() {
        let mut pt = PageTable::new();
        // Two PFNs that differ only in the top radix level.
        let a = 1u64 << 27;
        let b = 2u64 << 27;
        pt.map(a, 100, Perms::RW);
        pt.map(b, 200, Perms::RW);
        assert_eq!(pt.lookup(a).unwrap().pfn, 100);
        assert_eq!(pt.lookup(b).unwrap().pfn, 200);
    }

    /// The radix tree the table stands for: one `BTreeMap` of children
    /// per table, walked level by level as hardware walks it.
    #[derive(Default)]
    struct Radix {
        root: Option<RadixTable>,
    }

    #[derive(Default)]
    struct RadixTable(BTreeMap<u16, RadixNode>);

    enum RadixNode {
        Table(RadixTable),
        Leaf(Entry),
    }

    fn radix_indices(pfn: u64) -> [u16; LEVELS as usize] {
        std::array::from_fn(|i| {
            ((pfn >> (BITS_PER_LEVEL * (LEVELS - 1 - i as u32))) & 0x1FF) as u16
        })
    }

    impl Radix {
        fn map(&mut self, pfn: u64, e: Entry) {
            let idx = radix_indices(pfn);
            let mut t = self.root.get_or_insert_with(RadixTable::default);
            for &i in &idx[..LEVELS as usize - 1] {
                let child =
                    t.0.entry(i)
                        .or_insert_with(|| RadixNode::Table(RadixTable::default()));
                let RadixNode::Table(next) = child else {
                    unreachable!("an inner entry holds a table")
                };
                t = next;
            }
            t.0.insert(idx[LEVELS as usize - 1], RadixNode::Leaf(e));
        }

        /// Removes a leaf; the tables above it stay.
        fn unmap(&mut self, pfn: u64) -> Option<Entry> {
            let idx = radix_indices(pfn);
            let mut t = self.root.as_mut()?;
            for &i in &idx[..LEVELS as usize - 1] {
                let RadixNode::Table(next) = t.0.get_mut(&i)? else {
                    unreachable!("an inner entry holds a table")
                };
                t = next;
            }
            match t.0.remove(&idx[LEVELS as usize - 1])? {
                RadixNode::Leaf(e) => Some(e),
                RadixNode::Table(_) => unreachable!("a last-level entry is a leaf"),
            }
        }

        fn translate(&self, pfn: u64, req: Perms) -> Result<Translation, TranslateErr> {
            let mut t = self.root.as_ref();
            for (level, &i) in (1..).zip(radix_indices(pfn).iter()) {
                match t.and_then(|t| t.0.get(&i)) {
                    None => return Err(TranslateErr::NotMapped { level }),
                    Some(RadixNode::Table(next)) => t = Some(next),
                    Some(RadixNode::Leaf(e)) if !e.perms.allows(req) => {
                        return Err(TranslateErr::Protection { have: e.perms })
                    }
                    Some(RadixNode::Leaf(e)) => {
                        return Ok(Translation {
                            pfn: e.pfn,
                            perms: e.perms,
                            walk_refs: level,
                        })
                    }
                }
            }
            unreachable!("the last level holds leaves")
        }

        fn iter(&self) -> Vec<(u64, Entry)> {
            fn rec(t: &RadixTable, prefix: u64, out: &mut Vec<(u64, Entry)>) {
                for (&i, node) in &t.0 {
                    let pfn = (prefix << BITS_PER_LEVEL) | i as u64;
                    match node {
                        RadixNode::Table(next) => rec(next, pfn, out),
                        RadixNode::Leaf(e) => out.push((pfn, *e)),
                    }
                }
            }
            let mut out = Vec::new();
            if let Some(root) = &self.root {
                rec(root, 0, &mut out);
            }
            out
        }
    }

    /// SplitMix64: the seeded generator of the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn hashed_table_matches_a_radix_tree() {
        const PERMS: [Perms; 3] = [Perms::RO, Perms::RW, Perms::RWX];
        for seed in 1..=8u64 {
            let mut rng = seed;
            let (mut pt, mut radix) = (PageTable::new(), Radix::default());
            let mut levels = [0u32; LEVELS as usize + 1];
            for step in 0..3000 {
                let r = splitmix(&mut rng);
                // `(base, span)` regions: dense ones where walks hit or
                // die at the leaf, one straddling a 1 GiB boundary, sparse
                // ones where they die higher up, and bases with bits above
                // the 36 the walk indexes.
                let (base, span) = [
                    (0, 0x600),
                    (0x3_FE00, 0x400),
                    (0xF_FFFF_FE00, 0x200),
                    (1 << 36, 0x600),
                    (0, 1 << 18),
                    (0x800_0000, 1 << 27),
                    (0, 1 << 36),
                ][(r % 7) as usize];
                let pfn = base + (r >> 3) % span;
                match (r >> 32) % 8 {
                    0..=2 => {
                        let e = Entry {
                            pfn: r >> 40,
                            perms: PERMS[((r >> 36) % 3) as usize],
                        };
                        pt.map(pfn, e.pfn, e.perms);
                        radix.map(pfn, e);
                    }
                    3 => assert_eq!(pt.unmap(pfn), radix.unmap(pfn), "seed {seed} step {step}"),
                    _ => {
                        let req = PERMS[((r >> 36) % 3) as usize];
                        let got = pt.translate(pfn, req);
                        assert_eq!(got, radix.translate(pfn, req), "seed {seed} step {step}");
                        if let Err(TranslateErr::NotMapped { level }) = got {
                            levels[level as usize] += 1;
                        }
                        let any = Perms {
                            r: false,
                            w: false,
                            x: false,
                        };
                        let leaf = radix.translate(pfn, any).ok().map(|t| Entry {
                            pfn: t.pfn,
                            perms: t.perms,
                        });
                        assert_eq!(pt.lookup(pfn), leaf, "seed {seed} step {step}");
                    }
                }
            }
            let all = radix.iter();
            assert_eq!(pt.iter(), all, "seed {seed}");
            assert_eq!(pt.mapped_pages(), all.len() as u64, "seed {seed}");
            // Every walk depth was exercised.
            assert!(
                levels[1..].iter().all(|&n| n > 0),
                "seed {seed}: {levels:?}"
            );
        }
    }
}
