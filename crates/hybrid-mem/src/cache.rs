//! Set-associative write-back cache hierarchy.
//!
//! The paper stresses that modelling the cache hierarchy matters because
//! caches absorb writes and are "the first line of defense in protecting PCM
//! from writes" (Section 6.1). This module implements a configurable
//! multi-level, set-associative, write-allocate, write-back hierarchy with
//! LRU replacement. Each cache line remembers the *phase* (mutator, nursery
//! GC, observer GC, major GC, runtime) that last wrote it so that when a
//! dirty line is finally evicted to memory the resulting device write can be
//! attributed to the phase that produced it — the mechanism behind Figure 10
//! of the paper.
//!
//! Each level is two flat arrays, a tag array (a probe is one compare per
//! way) and the ways' replacement state; the set index is a mask when the
//! set count is a power of two. A probe that misses also picks the way the
//! line will be installed into, so a miss scans each level's set once.
//! Levels hold at most 64 ways.

use crate::address::CACHE_LINE_SIZE;
use crate::fixed_hash::FixedState;
use crate::system::Phase;

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set), 1 to 64.
    pub ways: usize,
}

impl CacheLevelConfig {
    /// Number of sets implied by the capacity, associativity and line size.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / CACHE_LINE_SIZE / self.ways).max(1)
    }
}

/// Configuration of the whole hierarchy (closest level first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache levels ordered from L1 to LLC.
    pub levels: Vec<CacheLevelConfig>,
}

impl CacheConfig {
    /// The paper's simulated hierarchy (Table 2): 32 KB 8-way L1-D, 256 KB
    /// 8-way L2 and a shared 4 MB 16-way L3.
    pub fn paper_default() -> Self {
        CacheConfig {
            levels: vec![
                CacheLevelConfig {
                    capacity_bytes: 32 * 1024,
                    ways: 8,
                },
                CacheLevelConfig {
                    capacity_bytes: 256 * 1024,
                    ways: 8,
                },
                CacheLevelConfig {
                    capacity_bytes: 4 * 1024 * 1024,
                    ways: 16,
                },
            ],
        }
    }

    /// A small hierarchy useful for unit tests and scaled-down workloads: the
    /// capacities are divided by `divisor` (at least one set per level).
    pub fn scaled(divisor: usize) -> Self {
        let mut cfg = Self::paper_default();
        for level in &mut cfg.levels {
            level.capacity_bytes = (level.capacity_bytes / divisor).max(level.ways * CACHE_LINE_SIZE);
        }
        cfg
    }
}

/// A memory-side event produced by the hierarchy: a device read (miss fill)
/// or a device write (dirty eviction / flush).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemEvent {
    /// Cache-line index (address / 64).
    pub line: u64,
    /// `true` for a device write (write-back), `false` for a device read.
    pub write: bool,
    /// Phase responsible for the event: the requester for reads, the last
    /// writer of the line for write-backs.
    pub phase: Phase,
}

/// Replacement state of one way. The tag lives in a separate array so a
/// probe scans tags only.
#[derive(Clone, Copy, Debug)]
struct Way {
    /// Tick of the last access; 0 exactly when the way is invalid, so the
    /// least-recently-used scan picks the first invalid way when there is
    /// one.
    lru: u64,
    dirty: bool,
    last_writer: Phase,
}

impl Way {
    const INVALID: Way = Way {
        lru: 0,
        dirty: false,
        last_writer: Phase::Mutator,
    };
}

/// Tag value of an invalid way. Valid ways store `line + 1`.
const INVALID_TAG: u64 = 0;

/// One set-associative level: `sets × ways` entries in two flat arrays,
/// set `s` occupying indices `s * ways .. (s + 1) * ways`.
#[derive(Debug)]
struct CacheLevel {
    tags: Vec<u64>,
    state: Vec<Way>,
    ways: usize,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two, so the set index is a mask.
    set_mask: Option<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// The install way the last missing probe picked. Taken by the fill
    /// that follows the probe; cleared when a spill touches the level in
    /// between, since the spill may have changed that set.
    victim: Option<usize>,
}

/// A line leaving a level (an LRU victim or an extracted line).
struct Victim {
    line: u64,
    dirty: bool,
    last_writer: Phase,
}

impl CacheLevel {
    fn new(config: CacheLevelConfig) -> Self {
        assert!(
            (1..=64).contains(&config.ways),
            "a cache level has 1 to 64 ways, not {}",
            config.ways
        );
        let sets = config.sets();
        let entries = sets * config.ways;
        CacheLevel {
            tags: vec![INVALID_TAG; entries],
            state: vec![Way::INVALID; entries],
            ways: config.ways,
            sets: sets as u64,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            tick: 0,
            hits: 0,
            misses: 0,
            victim: None,
        }
    }

    /// Index of the first way of `line`'s set.
    #[inline]
    fn set_start(&self, line: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        };
        set as usize * self.ways
    }

    /// Finds `line` in its set: `Ok(way)` where it is held, else
    /// `Err(way)` with the way an install would take (the first invalid
    /// way, else the least recently used one).
    #[inline]
    fn lookup(&self, line: u64) -> Result<usize, usize> {
        let start = self.set_start(line);
        let (tags, state) = (&self.tags[start..], &self.state[start..]);
        // The common associativities get scans of a known length, which
        // the compiler unrolls.
        let found = match self.ways {
            8 => scan_set(&tags[..8], &state[..8], line + 1),
            16 => scan_set(&tags[..16], &state[..16], line + 1),
            ways => scan_set(&tags[..ways], &state[..ways], line + 1),
        };
        found.map(|way| start + way).map_err(|way| start + way)
    }

    /// Probes for `line`: on a hit updates LRU/dirty state and returns
    /// `Ok(way)`, on a miss returns `Err(way)` with the install way.
    #[inline]
    fn probe(&mut self, line: u64, write: bool, phase: Phase) -> Result<usize, usize> {
        let found = self.lookup(line);
        match found {
            Ok(index) => self.hit(index, write, phase),
            Err(_) => {
                self.tick += 1;
                self.misses += 1;
            }
        }
        found
    }

    /// Records a hit on the way at `index`.
    #[inline]
    fn hit(&mut self, index: usize, write: bool, phase: Phase) {
        self.tick += 1;
        let entry = &mut self.state[index];
        entry.lru = self.tick;
        if write {
            entry.dirty = true;
            entry.last_writer = phase;
        }
        self.hits += 1;
    }

    /// Installs `line` into the way at `index` (an install way from
    /// [`Self::lookup`]), returning the evicted valid line.
    #[inline]
    fn install(&mut self, index: usize, line: u64, dirty: bool, last_writer: Phase) -> Option<Victim> {
        self.tick += 1;
        let old_tag = std::mem::replace(&mut self.tags[index], line + 1);
        let old = std::mem::replace(
            &mut self.state[index],
            Way {
                lru: self.tick,
                dirty,
                last_writer,
            },
        );
        (old_tag != INVALID_TAG).then(|| Victim {
            line: old_tag - 1,
            dirty: old.dirty,
            last_writer: old.last_writer,
        })
    }

    /// Invalidates the way at `index` (from [`Self::probe`]), returning its
    /// dirty state and last writer.
    #[inline]
    fn extract(&mut self, index: usize) -> (bool, Phase) {
        self.tags[index] = INVALID_TAG;
        let old = std::mem::replace(&mut self.state[index], Way::INVALID);
        (old.dirty, old.last_writer)
    }

    fn drain_dirty(&mut self) -> Vec<Victim> {
        let mut out = Vec::new();
        for (tag, entry) in self.tags.iter_mut().zip(&mut self.state) {
            if *tag != INVALID_TAG && entry.dirty {
                out.push(Victim {
                    line: *tag - 1,
                    dirty: true,
                    last_writer: entry.last_writer,
                });
            }
            *tag = INVALID_TAG;
            *entry = Way::INVALID;
        }
        out
    }
}

/// Scans one set for `tag`: `Ok(way)` where it is held, else `Err(way)`
/// with the first invalid way, else the least recently used one. Both
/// loops are branch-free, and a set has at most 64 ways, so the tag
/// matches fit one mask.
#[inline(always)]
fn scan_set(tags: &[u64], state: &[Way], tag: u64) -> Result<usize, usize> {
    let mut matches = 0u64;
    for (way, &t) in tags.iter().enumerate() {
        matches |= u64::from(t == tag) << way;
    }
    if matches != 0 {
        return Ok(matches.trailing_zeros() as usize);
    }
    // First minimum wins; invalid ways have lru 0.
    let (mut victim, mut oldest) = (0, u64::MAX);
    for (way, entry) in state.iter().enumerate() {
        let older = entry.lru < oldest;
        victim = if older { way } else { victim };
        oldest = if older { entry.lru } else { oldest };
    }
    Err(victim)
}

/// A multi-level write-back cache hierarchy.
///
/// Accesses are performed at cache-line (64 B) granularity; the caller is
/// responsible for splitting wider accesses into lines (the
/// [`crate::MemorySystem`] does this automatically).
#[derive(Debug)]
pub struct CacheHierarchy {
    levels: Vec<CacheLevel>,
    enabled: bool,
    /// Per-shard tallies of accesses that hit in some level / missed all the
    /// way to memory (index = shard). Sharded alongside the controller's
    /// counters so multi-mutator runs get per-mutator locality for free.
    shard_hits: Vec<u64>,
    shard_misses: Vec<u64>,
    active_shard: usize,
    /// The line the last access left in L1, and its way there. Every access
    /// ends with its line in L1, so repeating the line is an L1 hit on that
    /// way without a probe.
    l1_last: Option<(u64, usize)>,
}

impl CacheHierarchy {
    /// Builds a hierarchy from `config`.
    pub fn new(config: &CacheConfig) -> Self {
        CacheHierarchy {
            levels: config.levels.iter().map(|&c| CacheLevel::new(c)).collect(),
            enabled: !config.levels.is_empty(),
            shard_hits: vec![0],
            shard_misses: vec![0],
            active_shard: 0,
            l1_last: None,
        }
    }

    /// Builds a pass-through "hierarchy" with no caching at all, used for the
    /// architecture-independent measurement mode.
    pub fn disabled() -> Self {
        CacheHierarchy {
            levels: Vec::new(),
            enabled: false,
            shard_hits: vec![0],
            shard_misses: vec![0],
            active_shard: 0,
            l1_last: None,
        }
    }

    /// Returns `true` if caching is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ensures per-shard tallies exist for shard indices `0..=shard`.
    #[inline]
    pub fn ensure_shard(&mut self, shard: usize) {
        if shard >= self.shard_hits.len() {
            self.shard_hits.resize(shard + 1, 0);
            self.shard_misses.resize(shard + 1, 0);
        }
    }

    /// Selects the shard whose hit/miss tallies subsequent accesses update.
    #[inline]
    pub fn set_active_shard(&mut self, shard: usize) {
        self.ensure_shard(shard);
        self.active_shard = shard;
    }

    /// Accesses of `shard` that hit in some cache level (0 with caching
    /// disabled).
    pub fn shard_hits(&self, shard: usize) -> u64 {
        self.shard_hits.get(shard).copied().unwrap_or(0)
    }

    /// Accesses of `shard` that missed every level and reached memory (0
    /// with caching disabled).
    pub fn shard_misses(&self, shard: usize) -> u64 {
        self.shard_misses.get(shard).copied().unwrap_or(0)
    }

    /// Accesses cache line `line`. Returns the memory-side events caused by
    /// the access (miss fills and dirty write-backs).
    pub fn access(&mut self, line: u64, write: bool, phase: Phase, events: &mut Vec<MemEvent>) {
        if !self.enabled {
            events.push(MemEvent { line, write, phase });
            return;
        }
        if let Some((last, way)) = self.l1_last {
            if last == line {
                self.levels[0].hit(way, write, phase);
                self.shard_hits[self.active_shard] += 1;
                return;
            }
        }
        // Probe levels closest-first.
        let mut hit_level = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            match level.probe(line, write && i == 0, phase) {
                Ok(way) => {
                    hit_level = Some((i, way));
                    break;
                }
                Err(victim) => level.victim = Some(victim),
            }
        }
        if hit_level.is_some() {
            self.shard_hits[self.active_shard] += 1;
        } else {
            self.shard_misses[self.active_shard] += 1;
        }
        let l1_way = match hit_level {
            Some((0, way)) => way,
            Some((level_idx, way)) => {
                // Move the line up into the levels above (inclusive-style fill),
                // preserving its dirty state from the level where it was found.
                let state = self.levels[level_idx].extract(way);
                let (dirty, last_writer) = if write { (true, phase) } else { state };
                self.fill(level_idx, line, dirty, last_writer, events)
            }
            None => {
                // Full miss: fetch the line from memory...
                events.push(MemEvent {
                    line,
                    write: false,
                    phase,
                });
                // ...and install it in every level up to L1.
                let levels = self.levels.len();
                self.fill(levels, line, write, phase, events)
            }
        };
        self.l1_last = Some((line, l1_way));
    }

    /// Installs `line` into levels `[0, to)`, which its probe just missed,
    /// pushing victims downwards, and returns its way in L1.
    fn fill(
        &mut self,
        to: usize,
        line: u64,
        dirty: bool,
        last_writer: Phase,
        events: &mut Vec<MemEvent>,
    ) -> usize {
        let mut l1_way = 0;
        for level_idx in 0..to {
            let level = &mut self.levels[level_idx];
            // The probe's pick, unless a spill has touched the level since.
            let way = match level.victim.take() {
                Some(way) => way,
                None => level
                    .lookup(line)
                    .expect_err("a line that missed is still absent"),
            };
            let victim = level.install(way, line, dirty && level_idx == 0, last_writer);
            if level_idx == 0 {
                l1_way = way;
            }
            if let Some(victim) = victim.filter(|v| v.dirty) {
                self.spill(level_idx + 1, victim, events);
            }
        }
        l1_way
    }

    /// Writes a dirty victim into level `level_idx`, or to memory if the
    /// victim fell out of the last level.
    fn spill(&mut self, level_idx: usize, victim: Victim, events: &mut Vec<MemEvent>) {
        if level_idx >= self.levels.len() {
            events.push(MemEvent {
                line: victim.line,
                write: true,
                phase: victim.last_writer,
            });
            return;
        }
        let level = &mut self.levels[level_idx];
        level.victim = None;
        // If the line is already present below, just mark it dirty there;
        // otherwise install it over the way the same scan picked.
        if let Err(way) = level.probe(victim.line, true, victim.last_writer) {
            let next_victim = level.install(way, victim.line, true, victim.last_writer);
            if let Some(next_victim) = next_victim.filter(|v| v.dirty) {
                self.spill(level_idx + 1, next_victim, events);
            }
        }
    }

    /// Flushes every dirty line to memory, returning the write-back events.
    /// Called at the end of a run so that pending writes are accounted.
    pub fn flush_all(&mut self, events: &mut Vec<MemEvent>) {
        if !self.enabled {
            return;
        }
        self.l1_last = None;
        // Drain from L1 downwards; lower levels may hold additional dirty
        // copies which are also drained. Duplicate write-backs of the same
        // line across levels are collapsed.
        let mut seen: std::collections::HashSet<u64, FixedState> = Default::default();
        for level in &mut self.levels {
            for victim in level.drain_dirty() {
                if seen.insert(victim.line) {
                    events.push(MemEvent {
                        line: victim.line,
                        write: true,
                        phase: victim.last_writer,
                    });
                }
            }
        }
    }

    /// Total hits across all levels.
    pub fn hits(&self) -> u64 {
        self.levels.iter().map(|l| l.hits).sum()
    }

    /// Total misses at the last level (i.e. accesses that reached memory).
    pub fn llc_misses(&self) -> u64 {
        self.levels.last().map(|l| l.misses).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CacheConfig {
        CacheConfig {
            levels: vec![
                CacheLevelConfig {
                    capacity_bytes: 4 * CACHE_LINE_SIZE,
                    ways: 2,
                },
                CacheLevelConfig {
                    capacity_bytes: 8 * CACHE_LINE_SIZE,
                    ways: 2,
                },
            ],
        }
    }

    #[test]
    fn repeated_writes_to_one_line_produce_one_writeback() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        for _ in 0..100 {
            cache.access(42, true, Phase::Mutator, &mut events);
        }
        // One miss fill, no write-backs yet.
        assert_eq!(events.iter().filter(|e| e.write).count(), 0);
        assert_eq!(events.iter().filter(|e| !e.write).count(), 1);
        cache.flush_all(&mut events);
        assert_eq!(events.iter().filter(|e| e.write).count(), 1);
    }

    #[test]
    fn disabled_cache_passes_every_access_through() {
        let mut cache = CacheHierarchy::disabled();
        let mut events = Vec::new();
        for i in 0..10 {
            cache.access(i, i % 2 == 0, Phase::Mutator, &mut events);
        }
        assert_eq!(events.len(), 10);
        assert_eq!(events.iter().filter(|e| e.write).count(), 5);
    }

    #[test]
    fn dirty_eviction_attributes_last_writer() {
        let mut cache = CacheHierarchy::new(&CacheConfig {
            levels: vec![CacheLevelConfig {
                capacity_bytes: 2 * CACHE_LINE_SIZE,
                ways: 1,
            }],
        });
        let mut events = Vec::new();
        // Write line 0 as the nursery GC, then touch enough conflicting lines
        // (same set, different tags) to force it out.
        cache.access(0, true, Phase::NurseryGc, &mut events);
        cache.access(2, false, Phase::Mutator, &mut events);
        cache.access(4, false, Phase::Mutator, &mut events);
        let wb: Vec<_> = events.iter().filter(|e| e.write).collect();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].line, 0);
        assert_eq!(wb[0].phase, Phase::NurseryGc);
    }

    #[test]
    fn hit_in_lower_level_promotes_without_memory_traffic() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        cache.access(7, false, Phase::Mutator, &mut events);
        let before = events.len();
        // Evict line 7 from L1 by filling its set, then access it again: it
        // should be found in L2 without a new memory read.
        cache.access(7 + 2, false, Phase::Mutator, &mut events);
        cache.access(7 + 4, false, Phase::Mutator, &mut events);
        cache.access(7 + 6, false, Phase::Mutator, &mut events);
        let mid = events.iter().filter(|e| !e.write).count();
        cache.access(7, false, Phase::Mutator, &mut events);
        let after = events.iter().filter(|e| !e.write).count();
        assert!(before >= 1);
        assert_eq!(after, mid, "L2 hit must not produce another memory read");
    }

    #[test]
    fn flush_is_idempotent() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        cache.access(11, true, Phase::MajorGc, &mut events);
        cache.flush_all(&mut events);
        let n = events.len();
        cache.flush_all(&mut events);
        assert_eq!(events.len(), n);
    }

    #[test]
    fn shard_tallies_follow_the_active_shard() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        cache.access(1, false, Phase::Mutator, &mut events); // miss, shard 0
        cache.set_active_shard(2);
        cache.access(1, false, Phase::Mutator, &mut events); // hit, shard 2
        cache.access(9, false, Phase::Mutator, &mut events); // miss, shard 2
        assert_eq!(cache.shard_misses(0), 1);
        assert_eq!(cache.shard_hits(0), 0);
        assert_eq!(cache.shard_hits(2), 1);
        assert_eq!(cache.shard_misses(2), 1);
        assert_eq!(cache.shard_hits(7), 0, "unknown shards read as zero");
    }

    #[test]
    #[should_panic(expected = "1 to 64 ways")]
    fn levels_wider_than_a_tag_mask_are_rejected() {
        CacheHierarchy::new(&CacheConfig {
            levels: vec![CacheLevelConfig {
                capacity_bytes: 65 * CACHE_LINE_SIZE,
                ways: 65,
            }],
        });
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = CacheConfig::paper_default();
        assert_eq!(cfg.levels.len(), 3);
        assert_eq!(cfg.levels[2].capacity_bytes, 4 * 1024 * 1024);
        assert_eq!(cfg.levels[2].sets(), 4 * 1024 * 1024 / 64 / 16);
        let scaled = CacheConfig::scaled(16);
        assert!(scaled.levels[0].capacity_bytes < cfg.levels[0].capacity_bytes);
    }

    /// The previous cache model (per-set `Vec`s of entries with a valid
    /// flag, `%` set indexing, a rescan on extraction), kept verbatim in
    /// behaviour as the reference the flat tag-array model must match.
    mod reference {
        use crate::cache::{CacheConfig, CacheLevelConfig, MemEvent};
        use crate::system::Phase;

        #[derive(Clone, Copy)]
        struct Entry {
            tag: u64,
            valid: bool,
            dirty: bool,
            last_writer: Phase,
            lru: u64,
        }

        struct Victim {
            tag: u64,
            dirty: bool,
            last_writer: Phase,
        }

        struct Level {
            sets: Vec<Vec<Entry>>,
            tick: u64,
            hits: u64,
            misses: u64,
        }

        impl Level {
            fn new(config: CacheLevelConfig) -> Self {
                let empty = Entry {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    last_writer: Phase::Mutator,
                    lru: 0,
                };
                Level {
                    sets: vec![vec![empty; config.ways]; config.sets()],
                    tick: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            fn set_index(&self, line: u64) -> usize {
                (line % self.sets.len() as u64) as usize
            }

            fn probe(&mut self, line: u64, write: bool, phase: Phase) -> bool {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_index(line);
                for entry in &mut self.sets[set] {
                    if entry.valid && entry.tag == line {
                        entry.lru = tick;
                        if write {
                            entry.dirty = true;
                            entry.last_writer = phase;
                        }
                        self.hits += 1;
                        return true;
                    }
                }
                self.misses += 1;
                false
            }

            fn install(&mut self, line: u64, dirty: bool, last_writer: Phase) -> Option<Victim> {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_index(line);
                let entries = &mut self.sets[set];
                let fresh = Entry {
                    tag: line,
                    valid: true,
                    dirty,
                    last_writer,
                    lru: tick,
                };
                if let Some(entry) = entries.iter_mut().find(|e| !e.valid) {
                    *entry = fresh;
                    return None;
                }
                let victim_idx = (0..entries.len()).min_by_key(|&i| entries[i].lru).unwrap();
                let victim = std::mem::replace(&mut entries[victim_idx], fresh);
                Some(Victim {
                    tag: victim.tag,
                    dirty: victim.dirty,
                    last_writer: victim.last_writer,
                })
            }

            fn extract(&mut self, line: u64) -> Option<Victim> {
                let set = self.set_index(line);
                for entry in &mut self.sets[set] {
                    if entry.valid && entry.tag == line {
                        entry.valid = false;
                        return Some(Victim {
                            tag: entry.tag,
                            dirty: entry.dirty,
                            last_writer: entry.last_writer,
                        });
                    }
                }
                None
            }

            fn drain_dirty(&mut self) -> Vec<Victim> {
                let mut out = Vec::new();
                for set in &mut self.sets {
                    for entry in set {
                        if entry.valid && entry.dirty {
                            out.push(Victim {
                                tag: entry.tag,
                                dirty: true,
                                last_writer: entry.last_writer,
                            });
                        }
                        entry.valid = false;
                        entry.dirty = false;
                    }
                }
                out
            }
        }

        pub(super) struct Hierarchy {
            levels: Vec<Level>,
            pub(super) hit_accesses: u64,
            pub(super) miss_accesses: u64,
        }

        impl Hierarchy {
            pub(super) fn new(config: &CacheConfig) -> Self {
                Hierarchy {
                    levels: config.levels.iter().map(|&c| Level::new(c)).collect(),
                    hit_accesses: 0,
                    miss_accesses: 0,
                }
            }

            pub(super) fn access(
                &mut self,
                line: u64,
                write: bool,
                phase: Phase,
                events: &mut Vec<MemEvent>,
            ) {
                let mut hit_level = None;
                for (i, level) in self.levels.iter_mut().enumerate() {
                    if level.probe(line, write && i == 0, phase) {
                        hit_level = Some(i);
                        break;
                    }
                }
                if hit_level.is_some() {
                    self.hit_accesses += 1;
                } else {
                    self.miss_accesses += 1;
                }
                match hit_level {
                    Some(0) => {}
                    Some(level_idx) => {
                        let state = self.levels[level_idx]
                            .extract(line)
                            .map(|v| (v.dirty, v.last_writer))
                            .unwrap_or((false, phase));
                        let (dirty, last_writer) = if write { (true, phase) } else { state };
                        self.fill(0, level_idx, line, dirty, last_writer, events);
                    }
                    None => {
                        events.push(MemEvent {
                            line,
                            write: false,
                            phase,
                        });
                        let levels = self.levels.len();
                        self.fill(0, levels, line, write, phase, events);
                    }
                }
            }

            fn fill(
                &mut self,
                from: usize,
                to: usize,
                line: u64,
                dirty: bool,
                last_writer: Phase,
                events: &mut Vec<MemEvent>,
            ) {
                for level_idx in from..to {
                    if let Some(victim) =
                        self.levels[level_idx].install(line, dirty && level_idx == from, last_writer)
                    {
                        if victim.dirty {
                            self.spill(level_idx + 1, victim, events);
                        }
                    }
                }
            }

            fn spill(&mut self, level_idx: usize, victim: Victim, events: &mut Vec<MemEvent>) {
                if level_idx >= self.levels.len() {
                    events.push(MemEvent {
                        line: victim.tag,
                        write: true,
                        phase: victim.last_writer,
                    });
                    return;
                }
                if self.levels[level_idx].probe(victim.tag, true, victim.last_writer) {
                    return;
                }
                if let Some(next) = self.levels[level_idx].install(victim.tag, true, victim.last_writer) {
                    if next.dirty {
                        self.spill(level_idx + 1, next, events);
                    }
                }
            }

            pub(super) fn flush_all(&mut self, events: &mut Vec<MemEvent>) {
                let mut seen = std::collections::HashSet::new();
                for level in &mut self.levels {
                    for victim in level.drain_dirty() {
                        if seen.insert(victim.tag) {
                            events.push(MemEvent {
                                line: victim.tag,
                                write: true,
                                phase: victim.last_writer,
                            });
                        }
                    }
                }
            }

            pub(super) fn hits(&self) -> u64 {
                self.levels.iter().map(|l| l.hits).sum()
            }

            pub(super) fn llc_misses(&self) -> u64 {
                self.levels.last().map_or(0, |l| l.misses)
            }
        }
    }

    /// Feeds the flat model and the reference the same seeded stream of
    /// accesses, one in `write_one_in` a write (repeats of the previous
    /// line, a working set of `hot_lines` lines, a streaming region and
    /// random far lines, including line 0) and requires identical memory
    /// events after every access, per-level hit/miss tallies and per-access
    /// hit/miss counts. Flushes every 10 000 accesses, each followed by a
    /// repeat of the line accessed before it, check that the model restarts
    /// cleanly.
    fn assert_matches_reference(config: &CacheConfig, seed: u64, write_one_in: u64, hot_lines: u64) {
        let mut flat = CacheHierarchy::new(config);
        let mut reference = reference::Hierarchy::new(config);
        let mut rng = crate::SplitMix64(seed);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (mut stream, mut line) = (0u64, 0u64);
        for step in 0..60_000u64 {
            let flush = step % 10_000 == 9_999;
            if flush {
                flat.flush_all(&mut got);
                reference.flush_all(&mut want);
            }
            line = match rng.below(10) {
                _ if flush => line,
                0 | 1 => line,
                2..=5 => rng.below(hot_lines),
                6 | 7 => {
                    stream += 1;
                    100_000 + stream
                }
                8 => rng.below(1 << 40),
                _ => rng.below(64) * 4_096,
            };
            let write = rng.below(write_one_in) == 0;
            let phase = Phase::ALL[rng.below(Phase::COUNT as u64) as usize];
            flat.access(line, write, phase, &mut got);
            reference.access(line, write, phase, &mut want);
            assert_eq!(got, want, "memory events diverge at step {step} (seed {seed})");
            got.clear();
            want.clear();
        }
        flat.flush_all(&mut got);
        reference.flush_all(&mut want);
        assert_eq!(got, want, "flush write-backs diverge (seed {seed})");
        assert_eq!(flat.hits(), reference.hits());
        assert_eq!(flat.llc_misses(), reference.llc_misses());
        assert_eq!(flat.shard_hits(0), reference.hit_accesses);
        assert_eq!(flat.shard_misses(0), reference.miss_accesses);
    }

    #[test]
    fn flat_model_matches_reference_with_power_of_two_sets() {
        let config = CacheConfig::scaled(16);
        assert!(config.levels.iter().all(|l| l.sets().is_power_of_two()));
        for seed in 0..3 {
            assert_matches_reference(&config, seed, 3, 3_000);
        }
        assert_matches_reference(&tiny_config(), 7, 3, 3_000);
    }

    #[test]
    fn flat_model_matches_reference_with_other_set_counts() {
        let config = CacheConfig::scaled(3);
        assert!(config.levels.iter().any(|l| !l.sets().is_power_of_two()));
        for seed in 0..3 {
            assert_matches_reference(&config, seed, 3, 3_000);
        }
    }

    /// Levels of `sets × 2` ways each, closest first.
    fn two_way(sets: &[usize]) -> CacheConfig {
        CacheConfig {
            levels: sets
                .iter()
                .map(|&sets| CacheLevelConfig {
                    capacity_bytes: sets * 2 * CACHE_LINE_SIZE,
                    ways: 2,
                })
                .collect(),
        }
    }

    /// Spill-heavy streams, where most evictions are dirty and spill into
    /// the set a pending fill picked its victim from: the fused probe and
    /// victim choice must still match the reference event for event.
    #[test]
    fn fused_miss_path_matches_reference_when_spills_dominate() {
        let configs = [
            tiny_config(),
            two_way(&[2, 4, 8]),
            two_way(&[3, 5, 7]),
            two_way(&[1, 3, 2]),
            CacheConfig::scaled(3),
        ];
        assert!(configs[2].levels.iter().all(|l| !l.sets().is_power_of_two()));
        for (seed, config) in configs.iter().enumerate() {
            let seed = seed as u64;
            // Every access a write.
            assert_matches_reference(config, seed, 1, 3_000);
            // Mostly writes over a working set a few times the capacity.
            let lines: usize = config.levels.iter().map(|l| l.sets() * l.ways).sum();
            assert_matches_reference(config, seed + 10, 1, 4 * lines as u64);
            assert_matches_reference(config, seed + 20, 2, 2 * lines as u64);
        }
    }
}
