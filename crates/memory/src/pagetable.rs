//! A generic 4-level radix page table, used for both EPT and IOMMU
//! translation structures.
//!
//! The table maps page frame numbers to page frame numbers with
//! permissions, mirroring the x86 4-level structure (9 bits per level,
//! 48-bit input space). Keeping a real radix tree (rather than a flat
//! map) lets the simulator account walk depth the way hardware does:
//! translating costs one memory reference per touched level.

use std::collections::BTreeMap;
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

#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Node {
    #[default]
    Empty,
    Table(BTreeMap<u16, Node>),
    Leaf(Entry),
}

/// A 4-level radix page table mapping input PFNs to output PFNs.
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
    root: Node,
    mapped_pages: u64,
}

fn indices(pfn: u64) -> [u16; LEVELS as usize] {
    let mut idx = [0u16; LEVELS as usize];
    for (i, slot) in idx.iter_mut().enumerate() {
        let shift = BITS_PER_LEVEL * (LEVELS - 1 - i as u32);
        *slot = ((pfn >> shift) & 0x1FF) as u16;
    }
    idx
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps input page `pfn_in` to output page `pfn_out` with `perms`,
    /// replacing any previous mapping.
    pub fn map(&mut self, pfn_in: u64, pfn_out: u64, perms: Perms) {
        let idx = indices(pfn_in);
        let mut node = &mut self.root;
        for (depth, &i) in idx.iter().enumerate() {
            if depth == LEVELS as usize - 1 {
                if let Node::Table(t) = node {
                    let prev = t.insert(
                        i,
                        Node::Leaf(Entry {
                            pfn: pfn_out,
                            perms,
                        }),
                    );
                    if !matches!(prev, Some(Node::Leaf(_))) {
                        self.mapped_pages += 1;
                    }
                    return;
                }
                unreachable!("intermediate node must be a table");
            }
            if matches!(node, Node::Empty | Node::Leaf(_)) {
                *node = Node::Table(BTreeMap::new());
            }
            match node {
                Node::Table(t) => {
                    node = t.entry(i).or_insert_with(|| Node::Table(BTreeMap::new()));
                }
                _ => unreachable!(),
            }
        }
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
        let idx = indices(pfn_in);
        fn rec(node: &mut Node, idx: &[u16]) -> Option<Entry> {
            match node {
                Node::Table(t) => {
                    if idx.len() == 1 {
                        match t.remove(&idx[0]) {
                            Some(Node::Leaf(e)) => Some(e),
                            Some(other) => {
                                // Shouldn't happen for well-formed maps;
                                // put it back.
                                t.insert(idx[0], other);
                                None
                            }
                            None => None,
                        }
                    } else {
                        let child = t.get_mut(&idx[0])?;
                        rec(child, &idx[1..])
                    }
                }
                _ => None,
            }
        }
        let removed = rec(&mut self.root, &idx);
        if removed.is_some() {
            self.mapped_pages -= 1;
        }
        removed
    }

    /// Translates input page `pfn_in` for an access requiring `req`
    /// permissions, counting the radix levels the walk touched.
    ///
    /// # Errors
    ///
    /// [`TranslateErr::NotMapped`] if the walk finds no entry;
    /// [`TranslateErr::Protection`] if the entry exists but denies the
    /// requested access.
    pub fn translate(&self, pfn_in: u64, req: Perms) -> Result<Translation, TranslateErr> {
        let idx = indices(pfn_in);
        let mut node = &self.root;
        let mut refs = 0u32;
        for &i in idx.iter() {
            refs += 1;
            match node {
                Node::Table(t) => match t.get(&i) {
                    Some(n) => node = n,
                    None => return Err(TranslateErr::NotMapped { level: refs }),
                },
                Node::Empty => return Err(TranslateErr::NotMapped { level: refs }),
                Node::Leaf(_) => break,
            }
        }
        match node {
            Node::Leaf(e) => {
                if !e.perms.allows(req) {
                    return Err(TranslateErr::Protection { have: e.perms });
                }
                Ok(Translation {
                    pfn: e.pfn,
                    perms: e.perms,
                    walk_refs: refs,
                })
            }
            _ => Err(TranslateErr::NotMapped { level: refs }),
        }
    }

    /// Looks up `pfn_in`'s leaf entry.
    pub fn lookup(&self, pfn_in: u64) -> Option<Entry> {
        let idx = indices(pfn_in);
        let mut node = &self.root;
        for &i in idx.iter() {
            match node {
                Node::Table(t) => node = t.get(&i)?,
                Node::Empty => return None,
                Node::Leaf(_) => break,
            }
        }
        match node {
            Node::Leaf(e) => Some(*e),
            _ => None,
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Whether the table has no mappings.
    pub fn is_empty(&self) -> bool {
        self.mapped_pages == 0
    }

    /// Iterates all `(input_pfn, Entry)` mappings in ascending order.
    pub fn iter(&self) -> Vec<(u64, Entry)> {
        let mut out = Vec::new();
        fn rec(node: &Node, prefix: u64, out: &mut Vec<(u64, Entry)>) {
            match node {
                Node::Table(t) => {
                    for (&i, child) in t {
                        rec(child, (prefix << BITS_PER_LEVEL) | i as u64, out);
                    }
                }
                Node::Leaf(e) => out.push((prefix, *e)),
                Node::Empty => {}
            }
        }
        rec(&self.root, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
