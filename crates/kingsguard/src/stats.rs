//! Collector statistics.
//!
//! Everything the paper's evaluation section reports that is not already a
//! memory-controller counter is gathered here: collection counts, copied
//! bytes, nursery / observer survival rates, barrier-level (architecture
//! independent) write counts per target generation, per-object mature write
//! distribution (Figure 2), heap-composition samples over time (Figure 13)
//! and abstract work counts that feed the execution-time model.

use std::collections::HashMap;

use hybrid_mem::FixedState;

use advice::SiteId;
use hybrid_mem::timing::WorkCounts;
use hybrid_mem::Address;

/// Which generation a barrier-observed application write targeted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteTarget {
    /// The write hit an object still in the nursery.
    Nursery,
    /// The write hit an object outside the nursery (observer or mature or
    /// large).
    Mature,
}

/// One point of the heap-composition time series (Figure 13).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompositionSample {
    /// Cumulative bytes allocated by the application when the sample was
    /// taken (the x-axis proxy for execution time).
    pub allocated_bytes: u64,
    /// Bytes of mature + large heap residing in PCM.
    pub pcm_bytes: u64,
    /// Bytes of mature + large heap residing in DRAM (excluding nursery and
    /// observer space, as in the paper's Figure 13).
    pub dram_bytes: u64,
}

/// Counters describing one collection type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectionCounters {
    /// Number of collections of this type.
    pub collections: u64,
    /// Bytes of live objects copied (evacuated or promoted).
    pub bytes_copied: u64,
    /// Objects copied.
    pub objects_copied: u64,
}

/// Aggregated collector statistics for one run.
#[derive(Clone, Debug, Default)]
pub struct GcStats {
    /// Nursery collections.
    pub nursery: CollectionCounters,
    /// Observer-space collections (KG-W only).
    pub observer: CollectionCounters,
    /// Full-heap collections.
    pub major: CollectionCounters,

    /// Total bytes allocated by the application (all spaces).
    pub bytes_allocated: u64,
    /// Objects allocated by the application.
    pub objects_allocated: u64,
    /// Bytes allocated directly into a large object space.
    pub large_bytes_allocated: u64,
    /// Large objects allocated into the nursery by the LOO optimization.
    pub large_objects_in_nursery: u64,

    /// Bytes that survived a nursery collection (promoted out of the nursery).
    pub nursery_survived_bytes: u64,
    /// Bytes collected out of the nursery (denominator for survival).
    pub nursery_collected_bytes: u64,
    /// Bytes that survived an observer collection.
    pub observer_survived_bytes: u64,
    /// Bytes collected out of the observer space.
    pub observer_collected_bytes: u64,
    /// Observer survivors placed in the DRAM mature space (bytes).
    pub observer_to_dram_bytes: u64,
    /// Observer survivors placed in the PCM mature space (bytes).
    pub observer_to_pcm_bytes: u64,
    /// Observer survivors placed in DRAM (objects).
    pub observer_to_dram_objects: u64,
    /// Observer survivors placed in PCM (objects).
    pub observer_to_pcm_objects: u64,
    /// Written objects rescued from mature PCM back to mature DRAM.
    pub pcm_to_dram_rescues: u64,
    /// Unwritten objects demoted from mature DRAM to mature PCM.
    pub dram_to_pcm_demotions: u64,
    /// Written large objects moved from the PCM to the DRAM large space.
    pub large_pcm_to_dram_moves: u64,
    /// Live objects force-evacuated off dying PCM pages before retirement.
    pub fault_evacuated_objects: u64,
    /// Bytes force-evacuated off dying PCM pages before retirement.
    pub fault_evacuated_bytes: u64,
    /// PCM pages retired (fenced and remapped) after uncorrectable wear.
    pub fault_pages_retired: u64,
    /// Nursery survivors pretenured into mature DRAM by site advice (KG-A).
    pub advised_to_dram_objects: u64,
    /// Bytes pretenured into mature DRAM by site advice (KG-A).
    pub advised_to_dram_bytes: u64,
    /// Nursery survivors placed in PCM by site advice or its default (KG-A).
    pub advised_to_pcm_objects: u64,
    /// Bytes placed in PCM by site advice or its default (KG-A).
    pub advised_to_pcm_bytes: u64,

    /// Barrier-observed application reference writes.
    pub reference_writes: u64,
    /// Barrier-observed application primitive writes.
    pub primitive_writes: u64,
    /// Barrier-observed writes per target generation.
    pub writes_to_nursery_objects: u64,
    /// Barrier-observed writes to non-nursery objects.
    pub writes_to_mature_objects: u64,
    /// Remembered-set insertions performed by the barrier.
    pub remset_insertions: u64,

    /// Per-object write counts for non-nursery objects, keyed by the
    /// object's *current* address (entries are re-keyed when the collector
    /// moves an object). Drives the Figure 2 "top N %" analysis.
    pub mature_object_writes: HashMap<u64, u64, FixedState>,

    /// Allocation site of each tagged live object, keyed by the object's
    /// *current* address (re-keyed on every move, like
    /// [`GcStats::mature_object_writes`]). Feeds the site profiler and the
    /// KG-A placement decisions; objects allocated through the untagged
    /// [`crate::KingsguardHeap::alloc`] entry point have no entry.
    pub object_sites: HashMap<u64, u32, FixedState>,

    /// Rescued objects per allocation site (cumulative; only populated for
    /// site-tracking policies). Adaptive policies consume this in
    /// `PlacementPolicy::on_gc_feedback`.
    pub site_rescues: HashMap<u32, u64, FixedState>,
    /// Demoted objects per allocation site (cumulative; only populated for
    /// site-tracking policies).
    pub site_demotions: HashMap<u32, u64, FixedState>,

    /// Heap composition samples, one per collection (Figure 13).
    pub composition: Vec<CompositionSample>,

    /// Abstract work counts feeding the execution-time model.
    pub work: WorkCounts,

    /// Peak bytes of PCM mapped for heap spaces.
    pub peak_pcm_mapped: u64,
    /// Peak bytes of DRAM mapped for heap spaces.
    pub peak_dram_mapped: u64,
    /// Peak bytes used by the DRAM mature space.
    pub peak_mature_dram_used: u64,
    /// Peak bytes used by metadata tables.
    pub peak_metadata_used: u64,
}

impl GcStats {
    /// Nursery survival rate in `[0, 1]` (bytes surviving / bytes collected).
    pub fn nursery_survival(&self) -> f64 {
        ratio(self.nursery_survived_bytes, self.nursery_collected_bytes)
    }

    /// Observer-space survival rate in `[0, 1]`.
    pub fn observer_survival(&self) -> f64 {
        ratio(self.observer_survived_bytes, self.observer_collected_bytes)
    }

    /// Fraction of observer survivors (by bytes) retained in mature DRAM.
    pub fn observer_dram_fraction(&self) -> f64 {
        ratio(
            self.observer_to_dram_bytes,
            self.observer_to_dram_bytes + self.observer_to_pcm_bytes,
        )
    }

    /// Fraction of observer survivors (by objects) retained in mature DRAM.
    pub fn observer_dram_object_fraction(&self) -> f64 {
        ratio(
            self.observer_to_dram_objects,
            self.observer_to_dram_objects + self.observer_to_pcm_objects,
        )
    }

    /// Fraction of barrier-observed application writes that hit nursery
    /// objects (the per-benchmark bars of Figure 2).
    pub fn nursery_write_fraction(&self) -> f64 {
        ratio(
            self.writes_to_nursery_objects,
            self.writes_to_nursery_objects + self.writes_to_mature_objects,
        )
    }

    /// Records a barrier-observed application write.
    pub fn record_app_write(&mut self, target: WriteTarget, obj_addr: Address) {
        match target {
            WriteTarget::Nursery => self.writes_to_nursery_objects += 1,
            WriteTarget::Mature => {
                self.writes_to_mature_objects += 1;
                *self.mature_object_writes.entry(obj_addr.raw()).or_insert(0) += 1;
            }
        }
    }

    /// Re-keys the per-object write count and site tag of a moved object.
    pub fn object_moved(&mut self, from: Address, to: Address) {
        if let Some(count) = self.mature_object_writes.remove(&from.raw()) {
            *self.mature_object_writes.entry(to.raw()).or_insert(0) += count;
        }
        if !self.object_sites.is_empty() {
            match self.object_sites.remove(&from.raw()) {
                Some(site) => {
                    self.object_sites.insert(to.raw(), site);
                }
                // The destination address may be recycled space previously
                // occupied by a dead tagged object; an untagged arrival must
                // clear that stale tag, not inherit it.
                None => {
                    self.object_sites.remove(&to.raw());
                }
            }
        }
    }

    /// Tags the object at `addr` with its allocation site.
    pub fn record_site(&mut self, addr: Address, site: SiteId) {
        if !site.is_unknown() {
            self.object_sites.insert(addr.raw(), site.raw());
        } else {
            // The address may be recycled from a released site-tagged object;
            // drop the stale tag rather than misattribute the newcomer.
            self.object_sites.remove(&addr.raw());
        }
    }

    /// The allocation site of the object at `addr` ([`SiteId::UNKNOWN`] for
    /// untagged objects).
    pub fn site_of(&self, addr: Address) -> SiteId {
        self.object_sites
            .get(&addr.raw())
            .copied()
            .map(SiteId)
            .unwrap_or(SiteId::UNKNOWN)
    }

    /// Records a rescue of a known-site object (PCM → DRAM).
    pub fn record_site_rescue(&mut self, site: SiteId) {
        if !site.is_unknown() {
            *self.site_rescues.entry(site.raw()).or_insert(0) += 1;
        }
    }

    /// Records a demotion of a known-site object (DRAM → PCM).
    pub fn record_site_demotion(&mut self, site: SiteId) {
        if !site.is_unknown() {
            *self.site_demotions.entry(site.raw()).or_insert(0) += 1;
        }
    }

    /// Fraction of advised placements (by objects) that chose mature DRAM.
    pub fn advised_dram_object_fraction(&self) -> f64 {
        ratio(
            self.advised_to_dram_objects,
            self.advised_to_dram_objects + self.advised_to_pcm_objects,
        )
    }

    /// Fraction of writes to mature objects captured by the most-written
    /// `fraction` of mature objects (e.g. `0.02` reproduces the paper's
    /// "top 2 % of objects capture 81 % of mature writes").
    pub fn top_mature_writer_share(&self, fraction: f64) -> f64 {
        if self.mature_object_writes.is_empty() {
            return 0.0;
        }
        let mut counts: Vec<u64> = self.mature_object_writes.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let top_n = ((counts.len() as f64 * fraction).ceil() as usize).max(1);
        let top: u64 = counts.iter().take(top_n).sum();
        top as f64 / total as f64
    }

    /// Appends a heap-composition sample.
    pub fn sample_composition(&mut self, sample: CompositionSample) {
        self.composition.push(sample);
    }

    /// Total collections of all types.
    pub fn total_collections(&self) -> u64 {
        self.nursery.collections + self.observer.collections + self.major.collections
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_rates() {
        let stats = GcStats {
            nursery_survived_bytes: 20,
            nursery_collected_bytes: 100,
            observer_survived_bytes: 30,
            observer_collected_bytes: 60,
            ..Default::default()
        };
        assert!((stats.nursery_survival() - 0.2).abs() < 1e-12);
        assert!((stats.observer_survival() - 0.5).abs() < 1e-12);
        assert_eq!(GcStats::default().nursery_survival(), 0.0);
    }

    #[test]
    fn write_demographics() {
        let mut stats = GcStats::default();
        for _ in 0..70 {
            stats.record_app_write(WriteTarget::Nursery, Address::new(0x10));
        }
        for i in 0..30 {
            stats.record_app_write(WriteTarget::Mature, Address::new(0x1000 + (i % 3) * 64));
        }
        assert!((stats.nursery_write_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(stats.mature_object_writes.len(), 3);
    }

    #[test]
    fn top_writer_share_is_concentrated_for_skewed_writes() {
        let mut stats = GcStats::default();
        // One hot object gets 90 writes, 99 cold objects get one write each.
        for _ in 0..90 {
            stats.record_app_write(WriteTarget::Mature, Address::new(0xdead));
        }
        for i in 0..99u64 {
            stats.record_app_write(WriteTarget::Mature, Address::new(0x1_0000 + i * 64));
        }
        let share = stats.top_mature_writer_share(0.01);
        assert!(
            share > 0.45,
            "top 1% should capture the hot object's writes: {share}"
        );
        assert!(stats.top_mature_writer_share(1.0) > 0.999);
    }

    #[test]
    fn object_moved_rekeys_counts() {
        let mut stats = GcStats::default();
        stats.record_app_write(WriteTarget::Mature, Address::new(0x100));
        stats.record_app_write(WriteTarget::Mature, Address::new(0x100));
        stats.object_moved(Address::new(0x100), Address::new(0x200));
        assert_eq!(stats.mature_object_writes.get(&0x200), Some(&2));
        assert!(!stats.mature_object_writes.contains_key(&0x100));
        // Moving an object with no recorded writes is harmless.
        stats.object_moved(Address::new(0x300), Address::new(0x400));
    }

    #[test]
    fn site_tags_follow_moved_objects() {
        let mut stats = GcStats::default();
        stats.record_site(Address::new(0x100), SiteId(7));
        assert_eq!(stats.site_of(Address::new(0x100)), SiteId(7));
        stats.object_moved(Address::new(0x100), Address::new(0x200));
        assert_eq!(stats.site_of(Address::new(0x200)), SiteId(7));
        assert_eq!(stats.site_of(Address::new(0x100)), SiteId::UNKNOWN);
        // An untagged allocation at a recycled address clears the stale tag.
        stats.record_site(Address::new(0x200), SiteId::UNKNOWN);
        assert_eq!(stats.site_of(Address::new(0x200)), SiteId::UNKNOWN);
    }

    #[test]
    fn untagged_object_copied_onto_a_dead_tagged_objects_address_clears_the_tag() {
        let mut stats = GcStats::default();
        // A tagged object lived (and died) at 0x500; its entry lingers.
        stats.record_site(Address::new(0x500), SiteId(9));
        // An untagged object is copied onto the recycled address: it must
        // not inherit the dead object's site.
        stats.object_moved(Address::new(0x900), Address::new(0x500));
        assert_eq!(stats.site_of(Address::new(0x500)), SiteId::UNKNOWN);
    }

    #[test]
    fn site_rescue_and_demotion_counters_skip_unknown_sites() {
        let mut stats = GcStats::default();
        stats.record_site_rescue(SiteId(3));
        stats.record_site_rescue(SiteId(3));
        stats.record_site_rescue(SiteId::UNKNOWN);
        stats.record_site_demotion(SiteId(4));
        stats.record_site_demotion(SiteId::UNKNOWN);
        assert_eq!(stats.site_rescues.get(&3), Some(&2));
        assert_eq!(stats.site_demotions.get(&4), Some(&1));
        assert!(!stats.site_rescues.contains_key(&0));
        assert!(!stats.site_demotions.contains_key(&0));
    }

    #[test]
    fn advised_fraction() {
        let mut stats = GcStats::default();
        assert_eq!(stats.advised_dram_object_fraction(), 0.0);
        stats.advised_to_dram_objects = 1;
        stats.advised_to_pcm_objects = 3;
        assert!((stats.advised_dram_object_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dram_fraction_of_observer_survivors() {
        let stats = GcStats {
            observer_to_dram_bytes: 10,
            observer_to_pcm_bytes: 90,
            observer_to_dram_objects: 1,
            observer_to_pcm_objects: 9,
            ..Default::default()
        };
        assert!((stats.observer_dram_fraction() - 0.1).abs() < 1e-12);
        assert!((stats.observer_dram_object_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn composition_samples_accumulate() {
        let mut stats = GcStats::default();
        stats.sample_composition(CompositionSample {
            allocated_bytes: 1,
            pcm_bytes: 2,
            dram_bytes: 3,
        });
        stats.sample_composition(CompositionSample {
            allocated_bytes: 4,
            pcm_bytes: 5,
            dram_bytes: 6,
        });
        assert_eq!(stats.composition.len(), 2);
        assert_eq!(stats.composition[1].pcm_bytes, 5);
    }

    #[test]
    fn total_collections_sums_types() {
        let mut stats = GcStats::default();
        stats.nursery.collections = 3;
        stats.observer.collections = 2;
        stats.major.collections = 1;
        assert_eq!(stats.total_collections(), 6);
    }
}
