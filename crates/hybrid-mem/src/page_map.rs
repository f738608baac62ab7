//! Mapping from simulated virtual pages to memory technologies.
//!
//! The Kingsguard collectors direct the OS explicitly: each heap space
//! requests pages from either DRAM or PCM at 4 KB granularity (Section 4.1).
//! [`PageMap`] records that decision, and also supports *re-mapping* a page's
//! technology, which is how the OS Write Partitioning baseline migrates pages
//! between DRAM and PCM.
//!
//! The map is a dense per-extent page table of one-byte entries, grown to
//! the highest mapped page of each extent: a lookup is two indexed loads,
//! and iteration visits pages in ascending address order.

use crate::address::{Address, PageId, PAGE_SIZE};
use crate::side_table::SideTable;
use crate::system::MemoryKind;

/// Per-page placement information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageInfo {
    /// Memory technology currently backing this page.
    pub kind: MemoryKind,
    /// Identifier of the heap space that owns the page.
    pub space: u8,
}

impl PageInfo {
    /// Largest space id a page-table entry can hold.
    pub const MAX_SPACE: u8 = 126;

    /// The page-table entry: 0 is unmapped, otherwise `1 + (space << 1 | kind)`.
    fn encode(self) -> u8 {
        1 + ((self.space << 1) | self.kind as u8)
    }

    fn decode(entry: u8) -> Option<PageInfo> {
        let bits = entry.checked_sub(1)?;
        let kind = if bits & 1 == 0 {
            MemoryKind::Dram
        } else {
            MemoryKind::Pcm
        };
        Some(PageInfo {
            kind,
            space: bits >> 1,
        })
    }
}

/// Tracks which pages are mapped and onto which memory technology.
#[derive(Debug)]
pub struct PageMap {
    pages: SideTable<u8>,
    mapped_pages: usize,
    mapped_bytes: [u64; 2],
}

impl Default for PageMap {
    fn default() -> Self {
        PageMap {
            pages: SideTable::new(PAGE_SIZE.trailing_zeros()),
            mapped_pages: 0,
            mapped_bytes: [0; 2],
        }
    }
}

impl PageMap {
    /// Creates an empty page map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `count` pages starting at `start` (page-aligned) onto `kind`,
    /// owned by space `space`.
    ///
    /// Remapping an already-mapped page updates its kind and owner and keeps
    /// the byte accounting consistent.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not page-aligned or `space` exceeds
    /// [`PageInfo::MAX_SPACE`].
    pub fn map_pages(&mut self, start: Address, count: usize, kind: MemoryKind, space: u8) {
        assert!(
            start.is_aligned(PAGE_SIZE),
            "page map request not page-aligned: {start}"
        );
        assert!(
            space <= PageInfo::MAX_SPACE,
            "space id {space} does not fit a page-table entry"
        );
        let entry = PageInfo { kind, space }.encode();
        let first = start.page().0;
        for p in first..first + count as u64 {
            let slot = self.pages.get_mut(p);
            match PageInfo::decode(*slot) {
                Some(prev) => self.mapped_bytes[prev.kind as usize] -= PAGE_SIZE as u64,
                None => self.mapped_pages += 1,
            }
            *slot = entry;
            self.mapped_bytes[kind as usize] += PAGE_SIZE as u64;
        }
    }

    /// Unmaps `count` pages starting at `start`. Unmapped pages are ignored.
    pub fn unmap_pages(&mut self, start: Address, count: usize) {
        let first = start.page().0;
        for p in first..first + count as u64 {
            let Some(prev) = self.info_of_page(PageId(p)) else {
                continue;
            };
            *self.pages.get_mut(p) = 0;
            self.mapped_pages -= 1;
            self.mapped_bytes[prev.kind as usize] -= PAGE_SIZE as u64;
        }
    }

    /// Changes the memory technology backing the page containing `page`
    /// (used by OS page migration). Returns the previous kind, or `None` if
    /// the page was not mapped.
    pub fn migrate_page(&mut self, page: PageId, to: MemoryKind) -> Option<MemoryKind> {
        let info = self.info_of_page(page)?;
        let prev = info.kind;
        if prev != to {
            *self.pages.get_mut(page.0) = PageInfo { kind: to, ..info }.encode();
            self.mapped_bytes[prev as usize] -= PAGE_SIZE as u64;
            self.mapped_bytes[to as usize] += PAGE_SIZE as u64;
        }
        Some(prev)
    }

    /// Returns the placement information of `page`, if mapped.
    #[inline]
    pub(crate) fn info_of_page(&self, page: PageId) -> Option<PageInfo> {
        PageInfo::decode(*self.pages.get(page.0)?)
    }

    /// Returns the placement information of the page containing `addr`.
    #[inline]
    pub fn info(&self, addr: Address) -> Option<PageInfo> {
        self.info_of_page(addr.page())
    }

    /// Returns the memory technology backing the page containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped; accessing unmapped memory is a
    /// simulator invariant violation.
    pub fn kind_of(&self, addr: Address) -> MemoryKind {
        self.info(addr)
            .unwrap_or_else(|| panic!("access to unmapped address {addr}"))
            .kind
    }

    /// Returns the kind of a page by id, if mapped.
    pub fn kind_of_page(&self, page: PageId) -> Option<MemoryKind> {
        self.info_of_page(page).map(|i| i.kind)
    }

    /// Returns `true` if the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: Address) -> bool {
        self.info(addr).is_some()
    }

    /// Total bytes currently mapped onto `kind`.
    pub fn mapped_bytes(&self, kind: MemoryKind) -> u64 {
        self.mapped_bytes[kind as usize]
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages
    }

    /// Iterates over all mapped pages and their placement information, in
    /// ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, PageInfo)> + '_ {
        self.pages
            .iter()
            .filter_map(|(p, &entry)| PageInfo::decode(entry).map(|info| (PageId(p), info)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_query() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x1000), 4, MemoryKind::Pcm, 3);
        assert_eq!(map.kind_of(Address::new(0x1000)), MemoryKind::Pcm);
        assert_eq!(map.kind_of(Address::new(0x4fff)), MemoryKind::Pcm);
        assert!(!map.is_mapped(Address::new(0x5000)));
        assert_eq!(map.mapped_bytes(MemoryKind::Pcm), 4 * PAGE_SIZE as u64);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), 0);
        assert_eq!(map.info(Address::new(0x1008)).unwrap().space, 3);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_access_panics() {
        let map = PageMap::new();
        map.kind_of(Address::new(0x1000));
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_map_panics() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x1001), 1, MemoryKind::Dram, 0);
    }

    #[test]
    fn migrate_flips_kind_and_accounting() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x2000), 2, MemoryKind::Pcm, 1);
        let prev = map.migrate_page(Address::new(0x2000).page(), MemoryKind::Dram);
        assert_eq!(prev, Some(MemoryKind::Pcm));
        assert_eq!(map.kind_of(Address::new(0x2000)), MemoryKind::Dram);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), PAGE_SIZE as u64);
        assert_eq!(map.mapped_bytes(MemoryKind::Pcm), PAGE_SIZE as u64);
        // Migrating to the same kind is a no-op.
        assert_eq!(
            map.migrate_page(Address::new(0x2000).page(), MemoryKind::Dram),
            Some(MemoryKind::Dram)
        );
    }

    #[test]
    fn unmap_releases_bytes() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x8000), 8, MemoryKind::Dram, 0);
        map.unmap_pages(Address::new(0x8000), 8);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), 0);
        assert_eq!(map.mapped_pages(), 0);
    }

    #[test]
    fn remapping_existing_page_adjusts_accounting() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x3000), 1, MemoryKind::Pcm, 0);
        map.map_pages(Address::new(0x3000), 1, MemoryKind::Dram, 1);
        assert_eq!(map.mapped_bytes(MemoryKind::Pcm), 0);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), PAGE_SIZE as u64);
        assert_eq!(map.info(Address::new(0x3000)).unwrap().space, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_space_id_panics() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x1000), 1, MemoryKind::Dram, PageInfo::MAX_SPACE + 1);
    }

    /// Seeded random map / unmap / remap / migrate sequences over pages in
    /// several 256 MB-aligned extents, checked against a `BTreeMap` model
    /// after every operation.
    #[test]
    fn matches_btreemap_reference_model() {
        use std::collections::BTreeMap;
        let extents: [u64; 4] = [1 << 30, (1 << 30) + (256 << 20), 3 << 30, 0];
        for seed in 0..8 {
            let mut rng = crate::SplitMix64(seed);
            let mut map = PageMap::new();
            let mut model: BTreeMap<u64, PageInfo> = BTreeMap::new();
            for _ in 0..400 {
                let base = extents[rng.below(extents.len() as u64) as usize];
                let page = base / PAGE_SIZE as u64 + rng.below(3000);
                let count = 1 + rng.below(40) as usize;
                let kind = if rng.below(2) == 0 {
                    MemoryKind::Dram
                } else {
                    MemoryKind::Pcm
                };
                let space = rng.below(PageInfo::MAX_SPACE as u64 + 1) as u8;
                match rng.below(4) {
                    0 | 1 => {
                        map.map_pages(PageId(page).start(), count, kind, space);
                        for p in page..page + count as u64 {
                            model.insert(p, PageInfo { kind, space });
                        }
                    }
                    2 => {
                        map.unmap_pages(PageId(page).start(), count);
                        for p in page..page + count as u64 {
                            model.remove(&p);
                        }
                    }
                    _ => {
                        let expected = model
                            .get_mut(&page)
                            .map(|info| std::mem::replace(&mut info.kind, kind));
                        assert_eq!(map.migrate_page(PageId(page), kind), expected);
                    }
                }
                assert_eq!(map.mapped_pages(), model.len());
                for kind in MemoryKind::ALL {
                    let bytes = model.values().filter(|i| i.kind == kind).count() * PAGE_SIZE;
                    assert_eq!(map.mapped_bytes(kind), bytes as u64);
                }
                let probe = page + rng.below(count as u64 + 2);
                assert_eq!(map.info(PageId(probe).start()), model.get(&probe).copied());
            }
            let iterated: Vec<(u64, PageInfo)> = map.iter().map(|(p, info)| (p.0, info)).collect();
            let expected: Vec<(u64, PageInfo)> = model.into_iter().collect();
            assert_eq!(iterated, expected, "iter() must match the model in address order");
        }
    }
}
