//! Large object space (LOS) with treadmill collection.
//!
//! Jikes RVM manages objects larger than 8 KB separately, allocating them
//! directly into a non-copying large object space and collecting them with a
//! treadmill: two doubly-linked lists of references; tracing "snaps" live
//! references from one list to the other and reclamation frees whatever was
//! left behind (Section 3). KG-W modifies the treadmill to support *moving*
//! a written large object from the PCM large space to the DRAM large space
//! (Section 4.2.4); the move itself is performed by the collector, which
//! copies the object into the target space and lets the source copy die.

use std::collections::{BTreeSet, HashMap};

use hybrid_mem::{Address, FixedState, MemoryKind, MemorySystem, Phase, PAGE_SIZE};

use crate::object::{ObjectRef, ObjectShape};
use crate::space::{SpaceId, SpaceUsage};

#[derive(Clone, Copy, Debug)]
struct LargeInfo {
    size: usize,
    pages: usize,
    marked: bool,
}

/// Result of sweeping a large object space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LosSweepStats {
    /// Large objects reclaimed.
    pub objects_freed: usize,
    /// Bytes reclaimed (page-rounded).
    pub bytes_freed: usize,
    /// Live large objects remaining.
    pub objects_live: usize,
    /// Live bytes remaining.
    pub bytes_live: usize,
}

/// A non-moving large object space.
#[derive(Debug)]
pub struct LargeObjectSpace {
    id: SpaceId,
    kind: MemoryKind,
    base: Address,
    capacity: usize,
    cursor: Address,
    free_runs: Vec<(Address, usize)>,
    /// Pages fenced by PCM retirement: excluded from every future run so a
    /// retired page is never handed out (and remapped) again.
    retired_pages: BTreeSet<u64>,
    objects: HashMap<u64, LargeInfo, FixedState>,
    bytes_allocated_total: u64,
    treadmill_snaps: u64,
}

impl LargeObjectSpace {
    /// Creates a large object space over `capacity` bytes starting at `base`.
    pub fn new(id: SpaceId, kind: MemoryKind, base: Address, capacity: usize) -> Self {
        LargeObjectSpace {
            id,
            kind,
            base,
            capacity,
            cursor: base,
            free_runs: Vec::new(),
            retired_pages: BTreeSet::new(),
            objects: HashMap::default(),
            bytes_allocated_total: 0,
            treadmill_snaps: 0,
        }
    }

    /// This space's identifier.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// The memory technology backing this space.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Number of live (not yet swept) large objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Bytes used by large objects (page-rounded).
    pub fn used_bytes(&self) -> usize {
        self.objects.values().map(|info| info.pages * PAGE_SIZE).sum()
    }

    /// Cumulative bytes ever allocated in this space.
    pub fn total_bytes_allocated(&self) -> u64 {
        self.bytes_allocated_total
    }

    /// Number of treadmill snap operations performed (allocation + tracing).
    pub fn treadmill_snaps(&self) -> u64 {
        self.treadmill_snaps
    }

    /// Usage snapshot.
    pub fn usage(&self) -> SpaceUsage {
        SpaceUsage {
            used_bytes: self.used_bytes(),
            mapped_bytes: self.used_bytes(),
        }
    }

    /// Returns `true` if `addr` lies in this space's reserved region.
    pub fn in_region(&self, addr: Address) -> bool {
        addr >= self.base && addr < self.base.add(self.capacity)
    }

    /// Returns `true` if `addr` is the header address of a live large object
    /// in this space.
    pub fn contains(&self, addr: Address) -> bool {
        self.objects.contains_key(&addr.raw())
    }

    /// Returns the registered size of the large object at `addr`, if any.
    pub fn size_of(&self, addr: Address) -> Option<usize> {
        self.objects.get(&addr.raw()).map(|info| info.size)
    }

    /// Returns a run to the free list, splitting it around retired pages so
    /// fenced pages never re-enter circulation.
    fn push_free_run(&mut self, addr: Address, pages: usize) {
        let mut start = addr;
        let mut len = 0usize;
        for i in 0..pages {
            let page = addr.add(i * PAGE_SIZE);
            if self.retired_pages.contains(&page.page().0) {
                if len > 0 {
                    self.free_runs.push((start, len));
                }
                len = 0;
            } else {
                if len == 0 {
                    start = page;
                }
                len += 1;
            }
        }
        if len > 0 {
            self.free_runs.push((start, len));
        }
    }

    fn take_run(&mut self, pages: usize) -> Option<Address> {
        // First fit from the free list (runs never contain retired pages).
        if let Some(pos) = self.free_runs.iter().position(|&(_, p)| p >= pages) {
            let (addr, run_pages) = self.free_runs.swap_remove(pos);
            if run_pages > pages {
                self.free_runs
                    .push((addr.add(pages * PAGE_SIZE), run_pages - pages));
            }
            return Some(addr);
        }
        // Otherwise extend the frontier, skipping past any retired page.
        loop {
            let addr = self.cursor;
            let end = addr.add(pages * PAGE_SIZE);
            if end > self.base.add(self.capacity) {
                return None;
            }
            let bad = (0..pages).find(|&i| self.retired_pages.contains(&addr.add(i * PAGE_SIZE).page().0));
            match bad {
                None => {
                    self.cursor = end;
                    return Some(addr);
                }
                Some(i) => {
                    // Save the clean prefix for smaller requests and resume
                    // past the fenced page.
                    if i > 0 {
                        self.push_free_run(addr, i);
                    }
                    self.cursor = addr.add((i + 1) * PAGE_SIZE);
                }
            }
        }
    }

    /// Fences the page at `page_base` after PCM retirement: it is carved out
    /// of the free list and never allocated into again.
    pub fn retire_page(&mut self, page_base: Address) {
        debug_assert!(
            self.in_region(page_base),
            "retire_page outside space: {page_base}"
        );
        self.retired_pages.insert(page_base.page().0);
        let runs = std::mem::take(&mut self.free_runs);
        for (addr, pages) in runs {
            self.push_free_run(addr, pages);
        }
    }

    /// Number of pages fenced by retirement.
    pub fn retired_page_count(&self) -> usize {
        self.retired_pages.len()
    }

    /// Returns `true` if any page of `[addr, addr + size)` has been fenced
    /// by [`LargeObjectSpace::retire_page`]. Passive — used by the
    /// sanitizer's retired-page-emptiness check.
    pub fn overlaps_retired(&self, addr: Address, size: usize) -> bool {
        let first = addr.align_down(PAGE_SIZE);
        let pages = (addr.diff(first) + size.max(1)).div_ceil(PAGE_SIZE);
        (0..pages).any(|i| self.retired_pages.contains(&first.add(i * PAGE_SIZE).page().0))
    }

    /// Allocates and initialises a large object of `shape`.
    ///
    /// Returns `None` if the space cannot hold the object.
    pub fn alloc(
        &mut self,
        mem: &mut MemorySystem,
        shape: ObjectShape,
        type_id: u16,
        phase: Phase,
    ) -> Option<ObjectRef> {
        let size = shape.size();
        let addr = self.alloc_raw(mem, size)?;
        mem.zero(addr, size, phase);
        let obj = ObjectRef::from_address(addr);
        obj.initialize(mem, shape, type_id, phase);
        // Snapping the new object onto the treadmill writes two list pointers.
        self.treadmill_snaps += 1;
        mem.account_write(addr, Phase::Runtime);
        mem.account_write(addr, Phase::Runtime);
        Some(obj)
    }

    /// Allocates raw, registered room for a large object copied from another
    /// space (KG-W's large-object move). The caller copies the bytes.
    pub fn alloc_raw(&mut self, mem: &mut MemorySystem, size: usize) -> Option<Address> {
        let pages = size.div_ceil(PAGE_SIZE);
        let addr = self.take_run(pages)?;
        mem.map_pages(addr, pages, self.kind, self.id.raw());
        self.objects.insert(
            addr.raw(),
            LargeInfo {
                size,
                pages,
                marked: false,
            },
        );
        self.bytes_allocated_total += size as u64;
        Some(addr)
    }

    /// Prepares for collection: moves every object to the "from" list
    /// (clears marks).
    pub fn prepare_collection(&mut self) {
        for info in self.objects.values_mut() {
            info.marked = false;
        }
    }

    /// Marks (snaps) a live large object. Returns `true` if it was newly
    /// marked. The snap updates two treadmill pointers, charged to `phase`.
    pub fn mark(&mut self, mem: &mut MemorySystem, obj: ObjectRef, phase: Phase) -> bool {
        let Some(info) = self.objects.get_mut(&obj.address().raw()) else {
            panic!("marking large object {obj:?} that is not in {}", self.id);
        };
        if info.marked {
            return false;
        }
        info.marked = true;
        self.treadmill_snaps += 1;
        mem.account_write(obj.address(), phase);
        mem.account_write(obj.address(), phase);
        true
    }

    /// Returns `true` if the object is currently marked.
    pub fn is_marked(&self, obj: ObjectRef) -> bool {
        self.objects
            .get(&obj.address().raw())
            .map(|i| i.marked)
            .unwrap_or(false)
    }

    /// Removes a large object from this space without reclaiming its pages'
    /// contents first (used after the collector has copied it elsewhere).
    pub fn remove(&mut self, mem: &mut MemorySystem, obj: ObjectRef) {
        if let Some(info) = self.objects.remove(&obj.address().raw()) {
            mem.unmap_pages(obj.address(), info.pages);
            self.push_free_run(obj.address(), info.pages);
        }
    }

    /// Sweeps the space: every unmarked object is reclaimed.
    pub fn sweep(&mut self, mem: &mut MemorySystem) -> LosSweepStats {
        let mut stats = LosSweepStats::default();
        let mut dead: Vec<u64> = self
            .objects
            .iter()
            .filter(|(_, info)| !info.marked)
            .map(|(&addr, _)| addr)
            .collect();
        // Deterministic reclamation order keeps the free list (and therefore
        // subsequent allocation addresses) reproducible across runs.
        dead.sort_unstable();
        for addr in dead {
            let info = self.objects.remove(&addr).expect("dead object disappeared");
            stats.objects_freed += 1;
            stats.bytes_freed += info.pages * PAGE_SIZE;
            mem.unmap_pages(Address::new(addr), info.pages);
            self.push_free_run(Address::new(addr), info.pages);
        }
        stats.objects_live = self.objects.len();
        stats.bytes_live = self.used_bytes();
        stats
    }

    /// Iterates over the live large objects in this space.
    pub fn iter_objects(&self) -> impl Iterator<Item = ObjectRef> + '_ {
        self.objects
            .keys()
            .map(|&addr| ObjectRef::from_address(Address::new(addr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::MemoryConfig;

    fn setup() -> (MemorySystem, LargeObjectSpace) {
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = mem.reserve_extent("los", 8 << 20);
        (
            mem,
            LargeObjectSpace::new(SpaceId::LARGE_PCM, MemoryKind::Pcm, base, 8 << 20),
        )
    }

    fn big_shape() -> ObjectShape {
        ObjectShape::primitive(10 * 1024)
    }

    #[test]
    fn alloc_registers_and_maps_pages() {
        let (mut mem, mut los) = setup();
        let obj = los.alloc(&mut mem, big_shape(), 9, Phase::Mutator).unwrap();
        assert!(los.contains(obj.address()));
        assert!(los.in_region(obj.address()));
        assert_eq!(los.object_count(), 1);
        assert_eq!(mem.kind_of(obj.address()), MemoryKind::Pcm);
        assert_eq!(obj.shape(&mut mem, Phase::Mutator), big_shape());
        assert!(los.used_bytes() >= big_shape().size());
    }

    #[test]
    fn sweep_frees_unmarked_objects() {
        let (mut mem, mut los) = setup();
        let live = los.alloc(&mut mem, big_shape(), 1, Phase::Mutator).unwrap();
        let dead = los.alloc(&mut mem, big_shape(), 2, Phase::Mutator).unwrap();
        los.prepare_collection();
        assert!(los.mark(&mut mem, live, Phase::MajorGc));
        assert!(
            !los.mark(&mut mem, live, Phase::MajorGc),
            "second mark is a no-op"
        );
        let stats = los.sweep(&mut mem);
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.objects_live, 1);
        assert!(los.contains(live.address()));
        assert!(!los.contains(dead.address()));
        assert!(!mem.is_mapped(dead.address()));
    }

    #[test]
    fn freed_pages_are_reused() {
        let (mut mem, mut los) = setup();
        let first = los.alloc(&mut mem, big_shape(), 1, Phase::Mutator).unwrap();
        los.prepare_collection();
        los.sweep(&mut mem); // frees `first`
        let second = los.alloc(&mut mem, big_shape(), 1, Phase::Mutator).unwrap();
        assert_eq!(first.address(), second.address(), "free run should be reused");
    }

    #[test]
    fn remove_releases_pages_for_reuse() {
        let (mut mem, mut los) = setup();
        let obj = los.alloc(&mut mem, big_shape(), 1, Phase::Mutator).unwrap();
        los.remove(&mut mem, obj);
        assert_eq!(los.object_count(), 0);
        assert!(!mem.is_mapped(obj.address()));
        let again = los.alloc_raw(&mut mem, big_shape().size()).unwrap();
        assert_eq!(again, obj.address());
    }

    #[test]
    fn retired_pages_are_never_reallocated() {
        let (mut mem, mut los) = setup();
        let obj = los.alloc(&mut mem, big_shape(), 1, Phase::Mutator).unwrap();
        let dying = obj.address().align_down(PAGE_SIZE).add(PAGE_SIZE);
        // The object dies; its run returns to the free list — except the
        // retired page, which is carved out forever.
        los.retire_page(dying);
        los.prepare_collection();
        los.sweep(&mut mem);
        assert_eq!(los.retired_page_count(), 1);
        for _ in 0..50 {
            let Some(addr) = los.alloc_raw(&mut mem, big_shape().size()) else {
                break;
            };
            let pages = big_shape().size().div_ceil(PAGE_SIZE);
            for i in 0..pages {
                assert_ne!(
                    addr.add(i * PAGE_SIZE).align_down(PAGE_SIZE),
                    dying,
                    "allocated over a retired page"
                );
            }
        }
    }

    #[test]
    fn frontier_skips_retired_pages() {
        let (mut mem, mut los) = setup();
        // Retire a page ahead of the frontier; allocation must step over it.
        let ahead = los.cursor.add(PAGE_SIZE);
        los.retire_page(ahead);
        let obj = los.alloc(&mut mem, big_shape(), 1, Phase::Mutator).unwrap();
        let pages = big_shape().size().div_ceil(PAGE_SIZE);
        for i in 0..pages {
            assert_ne!(obj.address().add(i * PAGE_SIZE).align_down(PAGE_SIZE), ahead);
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = mem.reserve_extent("tiny-los", 64 * 1024);
        let mut los = LargeObjectSpace::new(SpaceId::LARGE_PCM, MemoryKind::Pcm, base, 64 * 1024);
        let mut count = 0;
        while los.alloc(&mut mem, big_shape(), 0, Phase::Mutator).is_some() {
            count += 1;
        }
        assert!((1..=6).contains(&count), "unexpected capacity: {count}");
    }

    #[test]
    fn treadmill_snaps_are_accounted_as_writes() {
        let (mut mem, mut los) = setup();
        let before = mem.stats().phase_writes(MemoryKind::Pcm).get(Phase::Runtime);
        los.alloc(&mut mem, big_shape(), 0, Phase::Mutator).unwrap();
        let after = mem.stats().phase_writes(MemoryKind::Pcm).get(Phase::Runtime);
        assert!(after > before);
        assert!(los.treadmill_snaps() >= 1);
    }

    #[test]
    #[should_panic(expected = "not in")]
    fn marking_foreign_object_panics() {
        let (mut mem, mut los) = setup();
        los.mark(
            &mut mem,
            ObjectRef::from_address(Address::new(0x1234)),
            Phase::MajorGc,
        );
    }

    #[test]
    fn iter_objects_lists_live_objects() {
        let (mut mem, mut los) = setup();
        let a = los.alloc(&mut mem, big_shape(), 0, Phase::Mutator).unwrap();
        let b = los.alloc(&mut mem, big_shape(), 0, Phase::Mutator).unwrap();
        let mut seen: Vec<_> = los.iter_objects().collect();
        seen.sort();
        let mut expect = vec![a, b];
        expect.sort();
        assert_eq!(seen, expect);
    }
}
