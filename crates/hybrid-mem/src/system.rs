//! The top-level simulated memory system.
//!
//! [`MemorySystem`] glues together the address-space reservation, the page
//! map, the byte-level backing store, the cache hierarchy and the memory
//! controller. Heap code issues *tagged* accesses (each access carries the
//! [`Phase`] that performed it); the system looks up the backing technology
//! of the touched page, runs the access through the cache hierarchy and
//! accounts the resulting device traffic.

use std::time::Instant;

use telemetry::{Stage, StageTotals, TouchMode, TouchProfile, TouchProfiler};

use crate::address::{align_up_usize, Address, PageId, CACHE_LINE_SIZE, LINE_SIZE, PAGE_SIZE};
use crate::backing::ChunkedMemory;
use crate::cache::{CacheConfig, CacheHierarchy, MemEvent};
use crate::controller::{MemoryController, ShardId};
use crate::fault::{FaultConfig, FaultEvent, FaultModel};
use crate::page_map::{PageInfo, PageMap};
use crate::stats::{MemoryStats, ShardStats};

/// Memory technology backing a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryKind {
    /// Volatile DRAM: fast, write-unlimited, energy-hungry at rest.
    Dram = 0,
    /// Phase-change memory: dense and non-volatile but slow to write and
    /// write-endurance-limited.
    Pcm = 1,
}

impl MemoryKind {
    /// Both memory kinds, DRAM first.
    pub const ALL: [MemoryKind; 2] = [MemoryKind::Dram, MemoryKind::Pcm];
}

impl std::fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryKind::Dram => write!(f, "DRAM"),
            MemoryKind::Pcm => write!(f, "PCM"),
        }
    }
}

/// The execution phase that performed a memory access. Used to attribute
/// device writes to their origin (Figure 10 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Application (mutator) code, including write-barrier book-keeping.
    Mutator = 0,
    /// Nursery (minor) collection.
    NurseryGc = 1,
    /// Observer-space collection (KG-W only).
    ObserverGc = 2,
    /// Full-heap (major) collection.
    MajorGc = 3,
    /// Runtime and collector metadata (mark tables, remsets, treadmills).
    Runtime = 4,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 5;
    /// All phases in index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Mutator,
        Phase::NurseryGc,
        Phase::ObserverGc,
        Phase::MajorGc,
        Phase::Runtime,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Mutator => "application",
            Phase::NurseryGc => "nursery-GC",
            Phase::ObserverGc => "observer-GC",
            Phase::MajorGc => "major-GC",
            Phase::Runtime => "runtime",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Kind of a single access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Configuration of the simulated memory system.
#[derive(Clone, Debug)]
pub struct MemoryConfig {
    /// Cache hierarchy configuration; `None` disables caching entirely
    /// (architecture-independent measurement mode).
    pub cache: Option<CacheConfig>,
    /// Track per-cache-line write counts (wear statistics).
    pub track_line_writes: bool,
    /// Nominal PCM capacity used by the lifetime model, in bytes.
    pub pcm_capacity_bytes: u64,
    /// Nominal DRAM capacity, in bytes (1 GB in the paper's hybrid system).
    pub dram_capacity_bytes: u64,
    /// Deterministic PCM fault injection; `None` (the default everywhere)
    /// disables the fault model entirely.
    pub fault: Option<FaultConfig>,
}

impl MemoryConfig {
    /// The paper's hybrid memory system: 1 GB DRAM + 32 GB PCM with the
    /// Table 2 cache hierarchy.
    pub fn hybrid() -> Self {
        MemoryConfig {
            cache: Some(CacheConfig::paper_default()),
            track_line_writes: false,
            pcm_capacity_bytes: 32 << 30,
            dram_capacity_bytes: 1 << 30,
            fault: None,
        }
    }

    /// Hybrid system with a cache hierarchy scaled down by `divisor`, for the
    /// scaled-down workloads used in tests and quick experiments.
    pub fn hybrid_scaled(divisor: usize) -> Self {
        MemoryConfig {
            cache: Some(CacheConfig::scaled(divisor)),
            ..Self::hybrid()
        }
    }

    /// Architecture-independent mode: no caches, every heap write reaches the
    /// device counters (Section 6.2: "these results are architecture-
    /// independent since they do not consider cache effects").
    pub fn architecture_independent() -> Self {
        MemoryConfig {
            cache: None,
            ..Self::hybrid()
        }
    }

    /// Enables deterministic PCM fault injection with `fault`'s schedule.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::hybrid()
    }
}

/// How the touch path observes its stages. [`NoProbe`] compiles to the bare
/// simulation; the counting and timing probes feed the hot-path profiler.
trait StageProbe {
    /// Runs `work` as one event of `stage`.
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R;
}

/// The unprofiled touch path.
struct NoProbe;

impl StageProbe for NoProbe {
    #[inline(always)]
    fn stage<R>(&mut self, _stage: Stage, work: impl FnOnce() -> R) -> R {
        work()
    }
}

/// Counts stage events (the profiler's unsampled touches).
#[derive(Default)]
struct CountingProbe(StageTotals);

impl StageProbe for CountingProbe {
    #[inline(always)]
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R {
        self.0.add(stage, 1);
        work()
    }
}

/// Counts and times stage events (the profiler's sampled touches).
#[derive(Default)]
struct TimingProbe(StageTotals);

impl StageProbe for TimingProbe {
    #[inline(always)]
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = work();
        self.0.add_timed(stage, 1, start.elapsed().as_nanos() as u64);
        result
    }
}

#[cold]
#[inline(never)]
fn unmapped(op: &str, addr: Address) -> ! {
    panic!("{op} of unmapped address {addr}")
}

/// The simulated memory system.
///
/// See the crate-level documentation for an example.
#[derive(Debug)]
pub struct MemorySystem {
    config: MemoryConfig,
    backing: ChunkedMemory,
    page_map: PageMap,
    cache: CacheHierarchy,
    controller: MemoryController,
    fault: Option<FaultModel>,
    profiler: TouchProfiler,
    next_extent: u64,
    extents: Vec<(String, Address, usize)>,
    event_buf: Vec<MemEvent>,
}

/// Alignment of reserved extents (256 MB) so that space membership can be
/// decided by address comparison alone.
const EXTENT_ALIGN: u64 = 256 << 20;
/// First reserved extent starts at 1 GB to keep low addresses obviously
/// invalid.
const EXTENT_BASE: u64 = 1 << 30;

impl MemorySystem {
    /// Creates a memory system from `config`.
    pub fn new(config: MemoryConfig) -> Self {
        let cache = match &config.cache {
            Some(c) => CacheHierarchy::new(c),
            None => CacheHierarchy::disabled(),
        };
        MemorySystem {
            // The fault model consumes per-line write counts, so it forces
            // line tracking on even when wear statistics were not requested.
            controller: MemoryController::new(config.track_line_writes || config.fault.is_some()),
            cache,
            fault: config.fault.map(FaultModel::new),
            profiler: TouchProfiler::disabled(),
            config,
            backing: ChunkedMemory::new(),
            page_map: PageMap::new(),
            next_extent: EXTENT_BASE,
            extents: Vec::new(),
            event_buf: Vec::new(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Reserves a named virtual extent of at least `bytes` bytes and returns
    /// its base address. Reservation does not map any pages.
    pub fn reserve_extent(&mut self, name: &str, bytes: usize) -> Address {
        let base = Address::new(self.next_extent);
        let size = align_up_usize(bytes.max(PAGE_SIZE), EXTENT_ALIGN as usize);
        self.next_extent += size as u64;
        self.extents.push((name.to_string(), base, size));
        base
    }

    /// Returns the reserved extents as `(name, base, size)` tuples.
    pub fn extents(&self) -> &[(String, Address, usize)] {
        &self.extents
    }

    /// Maps `count` pages starting at `start` onto `kind` for space `space`.
    pub fn map_pages(&mut self, start: Address, count: usize, kind: MemoryKind, space: u8) {
        self.page_map.map_pages(start, count, kind, space);
    }

    /// Unmaps `count` pages starting at `start`.
    pub fn unmap_pages(&mut self, start: Address, count: usize) {
        self.page_map.unmap_pages(start, count);
    }

    /// Migrates one page to `to`, accounting the copy traffic, and returns
    /// the previous kind (used by the OS Write Partitioning baseline).
    pub fn migrate_page(&mut self, page: PageId, to: MemoryKind) -> Option<MemoryKind> {
        let prev = self.page_map.migrate_page(page, to)?;
        if prev != to {
            self.controller.record_page_migration(prev, to);
        }
        Some(prev)
    }

    /// Returns placement information for the page containing `addr`.
    pub fn page_info(&self, addr: Address) -> Option<PageInfo> {
        self.page_map.info(addr)
    }

    /// Returns the memory technology backing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped.
    pub fn kind_of(&self, addr: Address) -> MemoryKind {
        self.page_map.kind_of(addr)
    }

    /// Returns `true` if the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: Address) -> bool {
        self.page_map.is_mapped(addr)
    }

    /// Immutable access to the page map.
    pub fn page_map(&self) -> &PageMap {
        &self.page_map
    }

    /// Immutable access to the memory controller counters.
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Summarises the write distribution over the *mapped* lines of `kind`,
    /// or `None` when per-line write tracking is disabled. Call at a
    /// safepoint (after shard merges) so the counts are complete.
    pub fn wear_summary(&self, kind: MemoryKind) -> Option<crate::wear::WearSummary> {
        if !self.config.track_line_writes {
            return None;
        }
        let counts: Vec<u64> = self
            .controller
            .line_writes()
            .filter(|&(line, _)| self.line_kind(line) == Some(kind))
            .map(|(_, writes)| writes)
            .collect();
        Some(crate::wear::WearTracker::from_counts(counts).summary())
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// The fault model's state, when fault injection is enabled.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// The memory kind of the page holding cache line `line`, if mapped.
    fn line_kind(&self, line: u64) -> Option<MemoryKind> {
        self.page_map
            .info(Address::new(line * CACHE_LINE_SIZE as u64))
            .map(|info| info.kind)
    }

    /// Device write counts per *mapped PCM line* (256 B granularity), sorted
    /// by line id. Aggregates the controller's per-cache-line counts, which
    /// come in address order; empty when line tracking is off.
    pub fn pcm_line_writes(&self) -> Vec<(u64, u64)> {
        let cache_lines_per_line = (LINE_SIZE / CACHE_LINE_SIZE) as u64;
        let mut folded: Vec<(u64, u64)> = Vec::new();
        for (cache_line, writes) in self.controller.line_writes() {
            if self.line_kind(cache_line) != Some(MemoryKind::Pcm) {
                continue;
            }
            let line = cache_line / cache_lines_per_line;
            match folded.last_mut() {
                Some((last, total)) if *last == line => *total += writes,
                _ => folded.push((line, writes)),
            }
        }
        folded
    }

    /// Advances the fault schedule against the current PCM line-write counts
    /// and returns the newly fired events. Pages reported
    /// [`FaultEvent::PageUncorrectable`] must be retired by the caller (after
    /// evacuating live data) via [`Self::retire_page`]. No-op without fault
    /// injection. Call at a safepoint.
    pub fn pump_faults(&mut self) -> Vec<FaultEvent> {
        if self.fault.is_none() {
            return Vec::new();
        }
        let line_writes = self.pcm_line_writes();
        self.fault
            .as_mut()
            .expect("fault model present")
            .pump(&line_writes)
    }

    /// Retires an uncorrectable PCM page: marks it retired in the fault
    /// model and, when the page is still mapped on PCM, remaps it to DRAM
    /// spare capacity (accounting the full-page copy like any migration).
    /// Returns the page's previous kind when a remap happened.
    pub fn retire_page(&mut self, page: PageId) -> Option<MemoryKind> {
        let model = self.fault.as_mut()?;
        model.mark_page_retired(page.0);
        if self.page_map.info(page.start())?.kind != MemoryKind::Pcm {
            return None;
        }
        self.migrate_page(page, MemoryKind::Dram)
    }

    /// Mutable access to the memory controller (used by the OS baseline to
    /// consume per-page write counters).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.controller
    }

    // ------------------------------------------------------------------
    // Counter shards (multi-mutator accounting)
    // ------------------------------------------------------------------

    /// Registers a per-mutator counter shard: subsequent accesses recorded
    /// while the shard is active ([`Self::set_active_shard`]) accumulate into
    /// its block instead of the base counters. Aggregate statistics fold
    /// across shards on read, so no event is ever lost; [`Self::merge_shard`]
    /// compacts a shard at mutator drain points.
    pub fn register_mutator_shard(&mut self) -> ShardId {
        let shard = self.controller.register_shard();
        self.cache.ensure_shard(shard.index());
        shard
    }

    /// Selects the counter shard subsequent accesses are attributed to.
    /// Collector and runtime phases run on [`ShardId::BASE`].
    #[inline]
    pub fn set_active_shard(&mut self, shard: ShardId) {
        self.controller.set_active_shard(shard);
        self.cache.set_active_shard(shard.index());
    }

    /// The shard currently receiving accesses.
    pub fn active_shard(&self) -> ShardId {
        self.controller.active_shard()
    }

    /// Folds `shard`'s device counters into the base shard (exactness does
    /// not depend on this — aggregates fold on read — but merging bounds
    /// per-shard map growth; the heap calls it from the mutator drain path).
    pub fn merge_shard(&mut self, shard: ShardId) {
        self.controller.merge_shard(shard);
    }

    /// Per-shard traffic attribution: device reads/writes recorded into
    /// `shard` since its last merge, plus its cache hit/miss tallies (which
    /// survive merges).
    pub fn shard_stats(&self, shard: ShardId) -> ShardStats {
        ShardStats {
            reads: [
                self.controller.shard_reads(shard, MemoryKind::Dram),
                self.controller.shard_reads(shard, MemoryKind::Pcm),
            ],
            writes: [
                self.controller.shard_writes(shard, MemoryKind::Dram),
                self.controller.shard_writes(shard, MemoryKind::Pcm),
            ],
            cache_hits: self.cache.shard_hits(shard.index()),
            cache_misses: self.cache.shard_misses(shard.index()),
        }
    }

    // ------------------------------------------------------------------
    // Hot-path profiling
    // ------------------------------------------------------------------

    /// Enables the sampled hot-path profiler: every touch is counted per
    /// stage and every `sample_every`-th touch is timed stage by stage
    /// (see [`telemetry::TouchProfiler`]). The profiler only observes host
    /// time — simulated traffic, wear and statistics are bit-identical
    /// with it on or off.
    pub fn enable_touch_profiler(&mut self, sample_every: u64) {
        self.profiler = TouchProfiler::enabled(sample_every, Phase::COUNT);
    }

    /// `true` when the hot-path profiler is recording.
    pub fn touch_profiler_enabled(&self) -> bool {
        self.profiler.is_enabled()
    }

    /// Snapshots the hot-path profile; `None` when the profiler is off.
    pub fn touch_profile(&self) -> Option<TouchProfile> {
        self.profiler.profile()
    }

    /// Runs one backing-store operation, counting (and, after a sampled
    /// touch, timing) it as the [`Stage::BackingStore`] stage.
    #[inline]
    fn run_backing<R>(&mut self, sampled: bool, op: impl FnOnce(&mut ChunkedMemory) -> R) -> R {
        if self.profiler.is_enabled() {
            let start = sampled.then(Instant::now);
            let result = op(&mut self.backing);
            self.profiler
                .backing_op(1, start.map(|t| t.elapsed().as_nanos() as u64));
            result
        } else {
            op(&mut self.backing)
        }
    }

    /// Accounts one tagged access of `len` bytes: cache simulation per
    /// touched line, then device accounting per memory-side event. `page`
    /// is the caller's lookup of `addr`'s page, when it made one. Returns
    /// `true` when the hot-path profiler sampled (timed) this touch, so the
    /// access wrappers know to time the subsequent backing-store work.
    ///
    /// Every profiler mode runs the same [`Self::touch_with`] body; only the
    /// probe differs, and with the profiler disabled it is the zero-sized
    /// [`NoProbe`], so unprofiled runs pay exactly one branch.
    fn touch(
        &mut self,
        addr: Address,
        len: usize,
        kind: AccessKind,
        phase: Phase,
        page: Option<PageInfo>,
    ) -> bool {
        match self.profiler.begin_touch(phase as usize) {
            TouchMode::Off => {
                self.touch_with(&mut NoProbe, addr, len, kind, phase, page);
                false
            }
            TouchMode::Counting => {
                let mut probe = CountingProbe::default();
                self.touch_with(&mut probe, addr, len, kind, phase, page);
                self.profiler.finish_touch(&probe.0, false);
                false
            }
            TouchMode::Sampled => {
                let mut probe = TimingProbe::default();
                self.touch_with(&mut probe, addr, len, kind, phase, page);
                self.profiler.finish_touch(&probe.0, true);
                true
            }
        }
    }

    /// The body of [`Self::touch`], monomorphised per probe.
    #[inline(always)]
    fn touch_with<P: StageProbe>(
        &mut self,
        probe: &mut P,
        addr: Address,
        len: usize,
        kind: AccessKind,
        phase: Phase,
        page: Option<PageInfo>,
    ) {
        debug_assert!(len > 0);
        let write = kind == AccessKind::Write;
        // The last page resolved: events on it (the touched line's own miss
        // fill, most write-backs) skip the table lookup.
        let mut resolved = page.map(|info| (addr.page(), Some(info)));
        for line in addr.cache_line()..=addr.add(len - 1).cache_line() {
            self.event_buf.clear();
            probe.stage(Stage::CacheModel, || {
                self.cache.access(line, write, phase, &mut self.event_buf)
            });
            for i in 0..self.event_buf.len() {
                let event = self.event_buf[i];
                self.record_event(probe, event, &mut resolved);
            }
        }
    }

    /// Charges one memory-side event to the device backing its page.
    /// `resolved` caches the last page looked up.
    #[inline(always)]
    fn record_event<P: StageProbe>(
        &mut self,
        probe: &mut P,
        event: MemEvent,
        resolved: &mut Option<(PageId, Option<PageInfo>)>,
    ) {
        let event_page = Address::new(event.line * CACHE_LINE_SIZE as u64).page();
        let info = probe.stage(Stage::PageMap, || match *resolved {
            Some((page, info)) if page == event_page => info,
            _ => {
                let info = self.page_map.info_of_page(event_page);
                *resolved = Some((event_page, info));
                info
            }
        });
        // A flushed line may belong to a page that has since been unmapped
        // (its space was released): it is not charged.
        let Some(info) = info else {
            return;
        };
        probe.stage(Stage::LineBookkeeping, || {
            if event.write {
                self.controller
                    .record_write_counters(info.kind, event.phase, event.line);
            } else {
                self.controller.record_read(info.kind, event.phase);
            }
        });
        if event.write && self.controller.tracks_lines() {
            probe.stage(Stage::WearTracking, || {
                self.controller.record_line_wear(event.line)
            });
        }
    }

    /// [`Self::touch`] for an access that must lie in mapped memory: the
    /// page lookup of its first byte doubles as the check, and the page of
    /// its last byte is checked too.
    ///
    /// # Panics
    ///
    /// Panics, naming `op`, if either page is unmapped.
    #[inline]
    fn touch_mapped(&mut self, addr: Address, len: usize, kind: AccessKind, phase: Phase, op: &str) -> bool {
        let Some(page) = self.page_map.info(addr) else {
            unmapped(op, addr)
        };
        let last = addr.add(len - 1);
        if last.page() != addr.page() && !self.page_map.is_mapped(last) {
            unmapped(op, last)
        }
        self.touch(addr, len, kind, phase, Some(page))
    }

    /// Reads a `u64` at `addr` on behalf of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if the page containing `addr` is not mapped.
    pub fn read_u64(&mut self, addr: Address, phase: Phase) -> u64 {
        let sampled = self.touch_mapped(addr, 8, AccessKind::Read, phase, "read");
        self.run_backing(sampled, |backing| backing.read_u64(addr))
    }

    /// Writes a `u64` at `addr` on behalf of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if the page containing `addr` is not mapped.
    pub fn write_u64(&mut self, addr: Address, value: u64, phase: Phase) {
        let sampled = self.touch_mapped(addr, 8, AccessKind::Write, phase, "write");
        self.run_backing(sampled, |backing| backing.write_u64(addr, value));
    }

    /// Reads a `u64` at `addr` **without** simulating the access: no cache
    /// lookup, no device traffic, no wear, no counters. Returns `None` if
    /// the page containing `addr` is not mapped.
    ///
    /// Every simulated write is written through to the backing store
    /// ([`MemorySystem::write_u64`] and friends), so a peek always observes
    /// the current architectural value. This is the inspection primitive the
    /// heap sanitizer (`kingsguard-check`) uses to walk live objects without
    /// perturbing the statistics it is validating.
    pub fn peek_u64(&self, addr: Address) -> Option<u64> {
        if !self.page_map.is_mapped(addr) {
            return None;
        }
        Some(self.backing.read_u64(addr))
    }

    /// Writes a `u64` directly into the backing store, bypassing the cache
    /// model, traffic accounting and wear tracking.
    ///
    /// This deliberately violates the simulation's bookkeeping — it exists
    /// only so broken-fixture tests can corrupt heap memory behind the
    /// write barrier's back and prove the sanitizer notices.
    ///
    /// # Panics
    ///
    /// Panics if the page containing `addr` is not mapped.
    #[doc(hidden)]
    pub fn debug_poke_u64_for_test(&mut self, addr: Address, value: u64) {
        assert!(self.page_map.is_mapped(addr), "poke of unmapped address {addr}");
        self.backing.write_u64(addr, value);
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page of the first or last byte is not mapped.
    pub fn read_bytes(&mut self, addr: Address, buf: &mut [u8], phase: Phase) {
        if buf.is_empty() {
            return;
        }
        let sampled = self.touch_mapped(addr, buf.len(), AccessKind::Read, phase, "read");
        self.run_backing(sampled, |backing| backing.read_bytes(addr, buf));
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page of the first or last byte is not mapped.
    pub fn write_bytes(&mut self, addr: Address, buf: &[u8], phase: Phase) {
        if buf.is_empty() {
            return;
        }
        let sampled = self.touch_mapped(addr, buf.len(), AccessKind::Write, phase, "write");
        self.run_backing(sampled, |backing| backing.write_bytes(addr, buf));
    }

    /// Copies `len` bytes from `src` to `dst` on behalf of `phase`,
    /// accounting both the reads and the writes.
    ///
    /// # Panics
    ///
    /// Panics if the page of the first or last byte of either range is not
    /// mapped.
    pub fn copy(&mut self, src: Address, dst: Address, len: usize, phase: Phase) {
        if len == 0 {
            return;
        }
        let sampled_src = self.touch_mapped(src, len, AccessKind::Read, phase, "copy from");
        let sampled_dst = self.touch_mapped(dst, len, AccessKind::Write, phase, "copy to");
        self.run_backing(sampled_src || sampled_dst, |backing| {
            backing.copy(src, dst, len);
        });
    }

    /// Zeroes `len` bytes starting at `addr` (nursery zeroing, block reset).
    ///
    /// # Panics
    ///
    /// Panics if the page of the first or last byte is not mapped.
    pub fn zero(&mut self, addr: Address, len: usize, phase: Phase) {
        if len == 0 {
            return;
        }
        let sampled = self.touch_mapped(addr, len, AccessKind::Write, phase, "zero");
        self.run_backing(sampled, |backing| backing.fill(addr, len, 0));
    }

    /// Writes a single conceptual store without touching backing bytes.
    ///
    /// Used for runtime book-keeping structures (remembered-set buffers,
    /// treadmill pointers) whose values live in host data structures but
    /// whose memory traffic must still be accounted.
    pub fn account_write(&mut self, addr: Address, phase: Phase) {
        self.touch(addr, 8, AccessKind::Write, phase, None);
    }

    /// Accounts a single conceptual load, analogous to [`Self::account_write`].
    pub fn account_read(&mut self, addr: Address, phase: Phase) {
        self.touch(addr, 8, AccessKind::Read, phase, None);
    }

    /// Flushes all dirty cache lines to the device counters. Call once at the
    /// end of a run before reading statistics.
    pub fn flush_caches(&mut self) {
        let mut events = Vec::new();
        self.cache.flush_all(&mut events);
        let mut resolved = None;
        for event in events {
            self.record_event(&mut NoProbe, event, &mut resolved);
        }
    }

    /// Takes a statistics snapshot (does not flush caches; call
    /// [`Self::flush_caches`] first for end-of-run numbers).
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            reads: [
                self.controller.reads(MemoryKind::Dram),
                self.controller.reads(MemoryKind::Pcm),
            ],
            writes: [
                self.controller.writes(MemoryKind::Dram),
                self.controller.writes(MemoryKind::Pcm),
            ],
            migration_writes: [
                self.controller.migration_writes(MemoryKind::Dram),
                self.controller.migration_writes(MemoryKind::Pcm),
            ],
            phase_writes: [
                self.controller.phase_writes(MemoryKind::Dram),
                self.controller.phase_writes(MemoryKind::Pcm),
            ],
            phase_reads: [
                self.controller.phase_reads(MemoryKind::Dram),
                self.controller.phase_reads(MemoryKind::Pcm),
            ],
            mapped_bytes: [
                self.page_map.mapped_bytes(MemoryKind::Dram),
                self.page_map.mapped_bytes(MemoryKind::Pcm),
            ],
            llc_misses: self.cache.llc_misses(),
            cache_hits: self.cache.hits(),
            failed_pcm_lines: self.fault.as_ref().map_or(0, FaultModel::failed_line_count),
            retired_pcm_pages: self.fault.as_ref().map_or(0, FaultModel::retired_page_count),
            transient_pcm_faults: self.fault.as_ref().map_or(0, FaultModel::transient_fault_count),
            degraded_pcm_bytes: self.fault.as_ref().map_or(0, FaultModel::degraded_bytes),
        }
    }

    /// Bytes of host memory resident in the backing store (diagnostic).
    pub fn resident_bytes(&self) -> usize {
        self.backing.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> MemorySystem {
        MemorySystem::new(MemoryConfig::architecture_independent())
    }

    #[test]
    fn reserve_map_read_write() {
        let mut mem = small_system();
        let base = mem.reserve_extent("test", 1 << 20);
        mem.map_pages(base, 4, MemoryKind::Pcm, 1);
        mem.write_u64(base.add(16), 99, Phase::Mutator);
        assert_eq!(mem.read_u64(base.add(16), Phase::Mutator), 99);
        let stats = mem.stats();
        assert_eq!(stats.writes(MemoryKind::Pcm), 1);
        assert_eq!(stats.phase_writes(MemoryKind::Pcm).get(Phase::Mutator), 1);
    }

    #[test]
    fn extents_do_not_overlap() {
        let mut mem = small_system();
        let a = mem.reserve_extent("a", 10 << 20);
        let b = mem.reserve_extent("b", 10 << 20);
        assert!(b.raw() >= a.raw() + (10 << 20));
        assert_eq!(mem.extents().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_write_panics() {
        let mut mem = small_system();
        let base = mem.reserve_extent("x", 1 << 20);
        mem.write_u64(base, 1, Phase::Mutator);
    }

    #[test]
    fn bulk_accesses_check_their_first_and_last_byte() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut mem = small_system();
        let base = mem.reserve_extent("bulk", 1 << 20);
        mem.map_pages(base, 2, MemoryKind::Dram, 0);
        let mapped = base.add(PAGE_SIZE - 8);
        let straddling = base.add(2 * PAGE_SIZE - 8);
        let unmapped = base.add(32 * PAGE_SIZE);
        let mut buf = [0u8; 16];
        // In range: no panic.
        mem.write_bytes(mapped, &buf, Phase::Mutator);
        mem.copy(mapped, base, 16, Phase::Mutator);
        type Access = Box<dyn Fn(&mut MemorySystem)>;
        let cases: [(&str, Access); 6] = [
            (
                "read",
                Box::new(move |m| m.read_bytes(straddling, &mut [0u8; 16], Phase::Mutator)),
            ),
            (
                "write",
                Box::new(move |m| m.write_bytes(unmapped, &[1u8; 4], Phase::Mutator)),
            ),
            (
                "copy from",
                Box::new(move |m| m.copy(straddling, base, 16, Phase::Mutator)),
            ),
            (
                "copy to",
                Box::new(move |m| m.copy(base, unmapped, 16, Phase::Mutator)),
            ),
            ("zero", Box::new(move |m| m.zero(straddling, 16, Phase::Mutator))),
            (
                "write",
                Box::new(move |m| m.write_u64(unmapped, 1, Phase::Mutator)),
            ),
        ];
        for (op, access) in cases {
            let err = catch_unwind(AssertUnwindSafe(|| access(&mut mem))).expect_err(op);
            let message = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.starts_with(&format!("{op} of unmapped address")),
                "{message}"
            );
        }
        assert_eq!(
            mem.resident_bytes(),
            crate::backing::CHUNK_SIZE,
            "no chunk was created"
        );
        mem.read_bytes(mapped, &mut buf, Phase::Mutator);
    }

    #[test]
    fn copy_accounts_reads_and_writes() {
        let mut mem = small_system();
        let base = mem.reserve_extent("copy", 1 << 20);
        mem.map_pages(base, 2, MemoryKind::Dram, 0);
        mem.map_pages(base.add(PAGE_SIZE), 2, MemoryKind::Pcm, 0);
        mem.write_bytes(base, &[7u8; 128], Phase::Mutator);
        mem.copy(base, base.add(PAGE_SIZE), 128, Phase::NurseryGc);
        let mut out = [0u8; 128];
        mem.read_bytes(base.add(PAGE_SIZE), &mut out, Phase::Mutator);
        assert!(out.iter().all(|&b| b == 7));
        let stats = mem.stats();
        assert_eq!(stats.phase_writes(MemoryKind::Pcm).get(Phase::NurseryGc), 2);
        assert!(stats.reads(MemoryKind::Dram) >= 2);
    }

    #[test]
    fn cached_mode_filters_repeated_writes() {
        let mut mem = MemorySystem::new(MemoryConfig::hybrid());
        let base = mem.reserve_extent("hot", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        for _ in 0..1000 {
            mem.write_u64(base, 1, Phase::Mutator);
        }
        mem.flush_caches();
        let stats = mem.stats();
        assert_eq!(
            stats.writes(MemoryKind::Pcm),
            1,
            "cache must coalesce repeated writes to one line"
        );
    }

    #[test]
    fn uncached_mode_counts_every_write() {
        let mut mem = small_system();
        let base = mem.reserve_extent("hot", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        for _ in 0..10 {
            mem.write_u64(base, 1, Phase::Mutator);
        }
        assert_eq!(mem.stats().writes(MemoryKind::Pcm), 10);
    }

    #[test]
    fn migration_updates_kind_and_traffic() {
        let mut mem = small_system();
        let base = mem.reserve_extent("mig", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        mem.migrate_page(base.page(), MemoryKind::Dram);
        assert_eq!(mem.kind_of(base), MemoryKind::Dram);
        let stats = mem.stats();
        assert!(stats.writes(MemoryKind::Dram) > 0);
        assert_eq!(
            stats.migration_writes(MemoryKind::Dram),
            stats.writes(MemoryKind::Dram)
        );
    }

    #[test]
    fn zero_initialisation_writes_are_charged() {
        let mut mem = small_system();
        let base = mem.reserve_extent("zero", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Dram, 0);
        mem.zero(base, 512, Phase::NurseryGc);
        assert_eq!(mem.stats().writes(MemoryKind::Dram), 512 / 64);
    }

    #[test]
    fn shard_attribution_folds_into_aggregate_stats() {
        let mut mem = small_system();
        let base = mem.reserve_extent("sharded", 1 << 20);
        mem.map_pages(base, 4, MemoryKind::Pcm, 0);
        let shard = mem.register_mutator_shard();
        mem.write_u64(base, 1, Phase::Mutator);
        mem.set_active_shard(shard);
        mem.write_u64(base.add(64), 2, Phase::Mutator);
        mem.set_active_shard(ShardId::BASE);
        assert_eq!(mem.stats().writes(MemoryKind::Pcm), 2, "aggregates fold shards");
        assert_eq!(mem.shard_stats(shard).writes(MemoryKind::Pcm), 1);
        mem.merge_shard(shard);
        assert_eq!(mem.shard_stats(shard).writes(MemoryKind::Pcm), 0);
        assert_eq!(mem.stats().writes(MemoryKind::Pcm), 2);
    }

    #[test]
    fn fault_pump_fails_lines_and_retirement_remaps_to_dram() {
        let fault = FaultConfig::accelerated(11, crate::lifetime::Endurance::Low10M)
            .with_wear_multiplier(u64::MAX / 4)
            .with_ecc_correctable_lines(0);
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent().with_faults(fault));
        let base = mem.reserve_extent("faulty", 1 << 20);
        mem.map_pages(base, 2, MemoryKind::Pcm, 3);
        mem.write_u64(base, 1, Phase::Mutator);
        let events = mem.pump_faults();
        assert!(
            events.iter().any(|e| matches!(e, FaultEvent::LineFailed { .. })),
            "extreme acceleration must fail the written line: {events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, FaultEvent::PageUncorrectable { .. })));
        assert_eq!(mem.retire_page(base.page()), Some(MemoryKind::Pcm));
        assert_eq!(mem.kind_of(base), MemoryKind::Dram, "retired page remapped");
        let stats = mem.stats();
        assert_eq!(stats.retired_pcm_pages, 1);
        assert!(stats.failed_pcm_lines >= 1);
        assert_eq!(stats.degraded_pcm_bytes, PAGE_SIZE as u64);
        // Re-pumping after retirement is quiescent: the page is DRAM now.
        assert!(mem.pump_faults().is_empty());
        // Retiring an already-DRAM page does not migrate again.
        assert_eq!(mem.retire_page(base.page()), None);
        assert_eq!(mem.stats().retired_pcm_pages, 1);
    }

    #[test]
    fn fault_free_system_reports_no_faults() {
        let mut mem = small_system();
        let base = mem.reserve_extent("clean", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        mem.write_u64(base, 1, Phase::Mutator);
        assert!(mem.pump_faults().is_empty());
        assert!(mem.fault_model().is_none());
        assert_eq!(mem.retire_page(base.page()), None);
        let stats = mem.stats();
        assert_eq!(stats.failed_pcm_lines, 0);
        assert_eq!(stats.degraded_pcm_bytes, 0);
        assert_eq!(stats.pcm_degradation(32 << 30), 0.0);
    }

    #[test]
    fn account_write_has_no_data_effect() {
        let mut mem = small_system();
        let base = mem.reserve_extent("acct", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Dram, 0);
        mem.write_u64(base, 42, Phase::Mutator);
        mem.account_write(base, Phase::Runtime);
        assert_eq!(mem.read_u64(base, Phase::Mutator), 42);
        assert_eq!(mem.stats().phase_writes(MemoryKind::Dram).get(Phase::Runtime), 1);
    }

    /// Mixed read/write/copy/zero workload spanning DRAM and PCM pages,
    /// used to compare profiled against unprofiled runs.
    fn drive_mixed_workload(mem: &mut MemorySystem) {
        let base = mem.reserve_extent("work", 1 << 20);
        mem.map_pages(base, 2, MemoryKind::Dram, 0);
        mem.map_pages(base.add(2 * PAGE_SIZE), 2, MemoryKind::Pcm, 0);
        for i in 0..200u64 {
            let slot = base.add((i as usize % 64) * 8);
            mem.write_u64(slot, i, Phase::Mutator);
            let _ = mem.read_u64(slot, Phase::Mutator);
        }
        mem.write_bytes(base, &[3u8; 256], Phase::NurseryGc);
        mem.copy(base, base.add(2 * PAGE_SIZE), 256, Phase::NurseryGc);
        mem.zero(base.add(PAGE_SIZE), 512, Phase::MajorGc);
        mem.account_read(base, Phase::Runtime);
        mem.account_write(base, Phase::Runtime);
        mem.flush_caches();
    }

    #[test]
    fn touch_profiler_does_not_perturb_simulation() {
        let mut config = MemoryConfig::hybrid();
        config.track_line_writes = true;
        let mut plain = MemorySystem::new(config.clone());
        drive_mixed_workload(&mut plain);
        let mut profiled = MemorySystem::new(config);
        profiled.enable_touch_profiler(3);
        drive_mixed_workload(&mut profiled);
        assert_eq!(
            format!("{:?}", plain.stats()),
            format!("{:?}", profiled.stats()),
            "simulation must be bit-identical with the profiler on"
        );
        assert_eq!(plain.pcm_line_writes(), profiled.pcm_line_writes());
        assert!(plain.touch_profile().is_none());
        assert!(profiled.touch_profile().is_some());
    }

    #[test]
    fn touch_profiler_counts_stage_events() {
        let mut mem = small_system();
        // Huge cadence: every touch takes the counting arm, none are timed.
        mem.enable_touch_profiler(1 << 40);
        let base = mem.reserve_extent("count", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        for i in 0..10u64 {
            mem.write_u64(base.add(i as usize * 8), i, Phase::Mutator);
        }
        let profile = mem.touch_profile().expect("profiler enabled");
        assert_eq!(profile.touches, 10);
        assert_eq!(profile.sampled_touches, 0);
        let events = |stage: Stage| profile.stages.iter().find(|s| s.stage == stage).unwrap().events;
        // Uncached mode: one cache-model pass, one page-map lookup and one
        // bookkeeping record per touched line; no line tracking configured.
        assert_eq!(events(Stage::CacheModel), 10);
        assert_eq!(events(Stage::PageMap), 10);
        assert_eq!(events(Stage::LineBookkeeping), 10);
        assert_eq!(events(Stage::WearTracking), 0);
        assert_eq!(events(Stage::BackingStore), 10);
        assert_eq!(profile.phases[Phase::Mutator as usize].touches, 10);
    }

    #[test]
    fn sampled_touches_cover_every_event_at_cadence_one() {
        let mut config = MemoryConfig::architecture_independent();
        config.track_line_writes = true;
        let mut mem = MemorySystem::new(config);
        mem.enable_touch_profiler(1);
        let base = mem.reserve_extent("sampled", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        for i in 0..20u64 {
            mem.write_u64(base.add(i as usize * 8), i, Phase::ObserverGc);
        }
        let profile = mem.touch_profile().expect("profiler enabled");
        assert_eq!(profile.touches, 20);
        assert_eq!(profile.sampled_touches, 20);
        for stage in profile.stages {
            assert_eq!(
                stage.events, stage.sampled_events,
                "cadence 1 must time every {} event",
                stage.stage
            );
        }
        assert_eq!(profile.phases[Phase::ObserverGc as usize].sampled_touches, 20);
    }
}
