//! Hybrid DRAM/PCM main-memory simulator.
//!
//! This crate is the memory-system substrate used by the write-rationing
//! garbage collectors in the `kingsguard` crate. It reproduces the
//! memory-system side of *Write-Rationing Garbage Collection for Hybrid
//! Memories* (Akram et al., PLDI 2018):
//!
//! * a simulated 64-bit virtual **address space** whose pages are mapped to
//!   either DRAM or PCM ([`PageMap`], [`MemoryKind`]),
//! * a lazily materialised **backing store** holding real bytes
//!   ([`backing::ChunkedMemory`]),
//! * a three-level set-associative write-back **cache hierarchy** that absorbs
//!   and coalesces writes and remembers the phase that last wrote each cache
//!   line ([`cache::CacheHierarchy`]),
//! * a **memory controller** that counts reads and writes per device, per
//!   page, per line and per GC phase ([`controller::MemoryController`]),
//! * DRAM/PCM **device models** with the latency and energy parameters of the
//!   paper's Table 2 ([`devices`]),
//! * an **energy / energy-delay-product model** ([`energy`]), an analytic
//!   **execution-time model** ([`timing`]), the paper's **PCM lifetime
//!   model** `Y = S·E / (B·2^25)` ([`lifetime`]) and ideal line
//!   **wear-leveling** statistics ([`wear`]).
//!
//! Per-page, per-chunk and per-line state is kept in dense per-extent side
//! tables indexed by offset from the extent base (the approach of MMTk's side
//! metadata), not in hash maps: the page map, the backing store's chunk
//! index and the controller's page and line write counters are all indexed
//! loads, and everything they report iterates in ascending address order.
//!
//! The central entry point is [`MemorySystem`]: heap code issues tagged reads
//! and writes through it and later extracts a [`stats::MemoryStats`] snapshot.
//!
//! # Example
//!
//! ```
//! use hybrid_mem::{MemoryConfig, MemorySystem, MemoryKind, Phase};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::hybrid());
//! // Reserve a 1 MiB extent and map its first 16 pages onto PCM.
//! let base = mem.reserve_extent("demo", 1 << 20);
//! mem.map_pages(base, 16, MemoryKind::Pcm, 0);
//! mem.write_u64(base, 0xdead_beef, Phase::Mutator);
//! assert_eq!(mem.read_u64(base, Phase::Mutator), 0xdead_beef);
//! mem.flush_caches();
//! let stats = mem.stats();
//! assert!(stats.writes(MemoryKind::Pcm) >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod address;
pub mod backing;
pub mod cache;
pub mod controller;
pub mod devices;
pub mod energy;
pub mod fault;
pub mod fixed_hash;
pub mod lifetime;
pub mod page_map;
mod side_table;
pub mod stats;
pub mod system;
pub mod timing;
pub mod wear;

pub use address::{Address, PageId, BLOCK_SIZE, CACHE_LINE_SIZE, LINE_SIZE, PAGE_SIZE};
pub use cache::{CacheConfig, CacheHierarchy};
pub use controller::{MemoryController, ShardId};
pub use devices::{DeviceParams, DramParams, PcmParams};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use fault::{years_to_first_uncorrectable, FaultConfig, FaultEvent, FaultModel};
pub use fixed_hash::FixedState;
pub use lifetime::{lifetime_years, Endurance, LifetimeModel};
pub use page_map::PageMap;
pub use stats::{MemoryStats, PhaseWrites, ShardStats};
pub use system::{AccessKind, MemoryConfig, MemoryKind, MemorySystem, Phase};
pub use timing::{ExecutionModel, TimeBreakdown};
pub use wear::{WearSummary, WearTracker};

/// Seeded splitmix64 stream for the crate's randomized equivalence tests.
#[cfg(test)]
pub(crate) struct SplitMix64(pub u64);

#[cfg(test)]
impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..bound`.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}
