//! KG-D: online-adaptive per-site placement.
//!
//! KG-A needs a prior profiling run; KG-W needs an observer space and pays
//! its copying tax on every run. KG-D needs neither: it starts from
//! KG-N-like all-PCM placement (or a stale advice table) and *learns* the
//! per-site advice during the run, from signals the heap already produces:
//!
//! * **PCM write events** — the barrier reports every mutator write to a
//!   post-nursery object; once a site accumulates
//!   [`KgDynamicParams::promote_after_pcm_writes`] writes on PCM-resident
//!   objects, the site is advised into DRAM immediately (no need to wait
//!   for the next full collection).
//! * **Rescues** — a rescued object proves its site produced a written PCM
//!   object; the site is advised into DRAM at the next
//!   [`PlacementPolicy::on_gc_feedback`].
//! * **Demotions** — unlike KG-A, KG-D does *not* pin advised-hot sites:
//!   unwritten DRAM objects demote exactly as under KG-W, and a site that
//!   keeps demoting without an intervening rescue has its DRAM advice
//!   revoked — this is what un-learns stale or drifted advice.
//!
//! On a stationary workload the advice converges: write-hot sites are
//! promoted after their first write burst (and then stay, because their
//! objects are written in DRAM and never demote), write-cold sites never
//! leave PCM, and the PCM write rate settles at or below KG-N's — the
//! rescue fallback alone guarantees that bound — and approaches KG-W's.

use std::collections::{HashMap, HashSet};

use advice::{AdviceTable, Placement, SiteId};
use hybrid_mem::{FixedState, MemoryKind};

use crate::policy::{
    AdaptationEvent, AdaptationTrigger, BarrierMode, LargePlacement, PlacementPolicy, SurvivorPlacement,
    Topology,
};
use crate::stats::GcStats;

/// Tuning knobs of the adaptive policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KgDynamicParams {
    /// Mutator writes observed on a site's PCM-resident objects before the
    /// site is advised into DRAM (without waiting for a rescue).
    pub promote_after_pcm_writes: u64,
    /// Demotions of a site's objects, without an intervening rescue, before
    /// the site's DRAM advice is revoked.
    pub revert_after_demotions: u64,
}

impl Default for KgDynamicParams {
    fn default() -> Self {
        // One rescue moves one object and resets one write bit; sixteen
        // barrier-level writes to a site's PCM objects already cost more PCM
        // traffic than pretenuring the site's survivors ever could, so
        // promote early. Reverting tolerates one stray demotion (a single
        // quiet object) but not a pattern.
        KgDynamicParams {
            promote_after_pcm_writes: 16,
            revert_after_demotions: 2,
        }
    }
}

/// The online-adaptive Kingsguard-dynamic (KG-D) policy.
#[derive(Clone, Debug, Default)]
pub struct KgDynamicPolicy {
    params: KgDynamicParams,
    /// Sites currently advised into DRAM (everything else defaults to PCM).
    dram_sites: HashSet<u32, FixedState>,
    /// Mutator writes seen on PCM-resident objects, per site.
    pcm_writes: HashMap<u32, u64, FixedState>,
    /// Cumulative [`GcStats::site_rescues`] totals already consumed.
    seen_rescues: HashMap<u32, u64, FixedState>,
    /// Cumulative [`GcStats::site_demotions`] totals already consumed.
    seen_demotions: HashMap<u32, u64, FixedState>,
    /// Demotions per site since that site's last rescue.
    demotions_since_rescue: HashMap<u32, u64, FixedState>,
    promotions: u64,
    reversions: u64,
    /// Learn/un-learn decisions buffered for
    /// [`PlacementPolicy::drain_adaptation_events`]. Bounded: one entry per
    /// actual promotion or reversion, drained after every collection.
    events: Vec<AdaptationEvent>,
}

impl KgDynamicPolicy {
    /// An adaptive policy starting from all-PCM placement (KG-N-like).
    pub fn new() -> Self {
        Self::default()
    }

    /// An adaptive policy with explicit tuning knobs.
    pub fn with_params(params: KgDynamicParams) -> Self {
        KgDynamicPolicy {
            params,
            ..Self::default()
        }
    }

    /// An adaptive policy seeded from a (possibly stale) advice table: its
    /// DRAM placements become the starting advice and are refined online.
    pub fn from_table(table: &AdviceTable) -> Self {
        let mut policy = Self::new();
        for (site, placement) in table.iter() {
            if placement == Placement::DramMature {
                policy.dram_sites.insert(site.raw());
            }
        }
        policy
    }

    /// Number of sites currently advised into DRAM.
    pub fn hot_sites(&self) -> usize {
        self.dram_sites.len()
    }

    /// Sites promoted to DRAM advice during the run so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// DRAM advisories revoked during the run so far.
    pub fn reversions(&self) -> u64 {
        self.reversions
    }

    fn advises_dram(&self, site: SiteId) -> bool {
        self.dram_sites.contains(&site.raw())
    }

    fn promote(&mut self, site: u32, trigger: AdaptationTrigger) {
        if self.dram_sites.insert(site) {
            self.promotions += 1;
            self.demotions_since_rescue.insert(site, 0);
            self.events.push(AdaptationEvent {
                site,
                learned: true,
                trigger,
            });
        }
    }
}

impl PlacementPolicy for KgDynamicPolicy {
    fn name(&self) -> String {
        "KG-D".to_string()
    }

    fn topology(&self) -> Topology {
        Topology::hybrid_rationing()
    }

    fn survivor_placement(&mut self, site: SiteId, _written: bool) -> SurvivorPlacement {
        if self.advises_dram(site) {
            SurvivorPlacement::AdvisedDram
        } else {
            SurvivorPlacement::AdvisedPcm
        }
    }

    fn large_placement(&mut self, site: SiteId) -> LargePlacement {
        if self.advises_dram(site) {
            LargePlacement::AdvisedDram
        } else {
            LargePlacement::AdvisedPcm
        }
    }

    // demote_unwritten_dram stays at the default `true`: demotion is the
    // feedback channel that un-learns stale advice, so KG-D never pins.

    fn barrier(&self) -> BarrierMode {
        BarrierMode::FirstWriteOnly
    }

    fn needs_sites(&self) -> bool {
        true
    }

    fn adaptation_counters(&self) -> Option<(u64, u64)> {
        Some((self.promotions, self.reversions))
    }

    fn drain_adaptation_events(&mut self) -> Vec<AdaptationEvent> {
        std::mem::take(&mut self.events)
    }

    fn advice_snapshot(&self) -> Option<AdviceTable> {
        if self.dram_sites.is_empty() {
            return None;
        }
        let mut sites: Vec<u32> = self.dram_sites.iter().copied().collect();
        sites.sort_unstable();
        Some(AdviceTable::from_entries(
            sites
                .into_iter()
                .map(|site| (SiteId(site), Placement::DramMature)),
            Placement::PcmMature,
        ))
    }

    fn on_mature_write(&mut self, site: SiteId, kind: MemoryKind) {
        if kind != MemoryKind::Pcm {
            return;
        }
        let count = self.pcm_writes.entry(site.raw()).or_insert(0);
        *count += 1;
        if *count >= self.params.promote_after_pcm_writes {
            self.promote(site.raw(), AdaptationTrigger::PcmWriteBurst);
        }
    }

    fn on_page_retired(&mut self, _page: u64, evacuated_sites: &[SiteId]) {
        // Retirement feedback is a demotion signal: the evacuation parked
        // the site's objects in DRAM without any placement decision, so it
        // must not be mistaken for organic write evidence — instead it
        // counts against the site's DRAM advice exactly like a demotion,
        // un-learning advice whose objects keep wearing PCM pages out of
        // reach of the normal rescue/demote cycle.
        let mut sites: Vec<u32> = evacuated_sites
            .iter()
            .filter(|s| !s.is_unknown())
            .map(|s| s.raw())
            .collect();
        sites.sort_unstable();
        sites.dedup();
        for site in sites {
            let since = self.demotions_since_rescue.entry(site).or_insert(0);
            *since += 1;
            if *since >= self.params.revert_after_demotions && self.dram_sites.remove(&site) {
                self.pcm_writes.insert(site, 0);
                *since = 0;
                self.reversions += 1;
                self.events.push(AdaptationEvent {
                    site,
                    learned: false,
                    trigger: AdaptationTrigger::PageRetirement,
                });
            }
        }
    }

    fn on_gc_feedback(&mut self, stats: &GcStats) {
        // A rescue proves the site produced a written PCM object: advise it
        // into DRAM and forgive its demotion history.
        let mut rescued_now: HashSet<u32, FixedState> = HashSet::default();
        for (&site, &total) in &stats.site_rescues {
            let seen = self.seen_rescues.entry(site).or_insert(0);
            if total > *seen {
                *seen = total;
                rescued_now.insert(site);
                self.demotions_since_rescue.insert(site, 0);
                self.promote(site, AdaptationTrigger::Rescue);
            }
        }
        // Repeated demotions *without an intervening rescue* prove the
        // advice stale: revoke it and restart the site's write count from
        // zero. Demotions from a collection that also rescued the site are
        // forgiven — the rescue proves the site still produces written PCM
        // objects, and counting its quiet siblings would oscillate the
        // advice.
        for (&site, &total) in &stats.site_demotions {
            let seen = self.seen_demotions.entry(site).or_insert(0);
            if total > *seen {
                let delta = total - *seen;
                *seen = total;
                if rescued_now.contains(&site) {
                    continue;
                }
                let since = self.demotions_since_rescue.entry(site).or_insert(0);
                *since += delta;
                if *since >= self.params.revert_after_demotions && self.dram_sites.remove(&site) {
                    self.pcm_writes.insert(site, 0);
                    *since = 0;
                    self.reversions += 1;
                    self.events.push(AdaptationEvent {
                        site,
                        learned: false,
                        trigger: AdaptationTrigger::Demotions,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feedback_with(rescues: &[(u32, u64)], demotions: &[(u32, u64)]) -> GcStats {
        let mut stats = GcStats::default();
        for &(site, n) in rescues {
            stats.site_rescues.insert(site, n);
        }
        for &(site, n) in demotions {
            stats.site_demotions.insert(site, n);
        }
        stats
    }

    #[test]
    fn starts_all_cold_like_kg_n() {
        let mut policy = KgDynamicPolicy::new();
        assert_eq!(policy.hot_sites(), 0);
        assert_eq!(
            policy.survivor_placement(SiteId(5), true),
            SurvivorPlacement::AdvisedPcm
        );
        assert_eq!(policy.large_placement(SiteId(5)), LargePlacement::AdvisedPcm);
        assert!(policy.demote_unwritten_dram(SiteId(5)), "KG-D never pins");
    }

    #[test]
    fn pcm_write_burst_promotes_a_site() {
        let mut policy = KgDynamicPolicy::with_params(KgDynamicParams {
            promote_after_pcm_writes: 3,
            revert_after_demotions: 2,
        });
        for _ in 0..2 {
            policy.on_mature_write(SiteId(7), MemoryKind::Pcm);
        }
        assert_eq!(
            policy.survivor_placement(SiteId(7), false),
            SurvivorPlacement::AdvisedPcm,
            "below the threshold"
        );
        policy.on_mature_write(SiteId(7), MemoryKind::Pcm);
        assert_eq!(
            policy.survivor_placement(SiteId(7), false),
            SurvivorPlacement::AdvisedDram
        );
        assert_eq!(policy.promotions(), 1);
        // DRAM writes never promote.
        for _ in 0..100 {
            policy.on_mature_write(SiteId(8), MemoryKind::Dram);
        }
        assert_eq!(
            policy.survivor_placement(SiteId(8), false),
            SurvivorPlacement::AdvisedPcm
        );
    }

    #[test]
    fn advice_snapshot_exports_learned_dram_sites() {
        let mut policy = KgDynamicPolicy::new();
        assert!(
            policy.advice_snapshot().is_none(),
            "a policy that learned nothing has nothing to warm-start with"
        );
        policy.on_gc_feedback(&feedback_with(&[(9, 1), (4, 1)], &[]));
        let table = policy.advice_snapshot().expect("promoted sites export");
        assert_eq!(table.placement(SiteId(9)), Placement::DramMature);
        assert_eq!(table.placement(SiteId(4)), Placement::DramMature);
        assert_eq!(
            table.placement(SiteId(1)),
            Placement::PcmMature,
            "unadvised sites keep KG-D's all-PCM default"
        );
        // A reverted site drops back out of the snapshot.
        policy.on_gc_feedback(&feedback_with(&[], &[(9, 2)]));
        let table = policy.advice_snapshot().expect("site 4 is still advised");
        assert_eq!(table.placement(SiteId(9)), Placement::PcmMature);
        assert_eq!(table.placement(SiteId(4)), Placement::DramMature);
    }

    #[test]
    fn rescue_feedback_promotes_and_demotion_feedback_reverts() {
        let mut policy = KgDynamicPolicy::new();
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
        // One demotion is forgiven...
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[(3, 1)]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
        // ...a second one without a new rescue revokes the advice.
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[(3, 2)]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedPcm
        );
        assert_eq!(policy.reversions(), 1);
        // A fresh rescue re-promotes with a clean demotion slate.
        policy.on_gc_feedback(&feedback_with(&[(3, 2)], &[(3, 2)]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
    }

    #[test]
    fn a_same_gc_rescue_forgives_that_gcs_demotions() {
        let mut policy = KgDynamicPolicy::new();
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[]));
        // One full GC demotes two quiet siblings AND rescues a written
        // object of the same site: the rescue wins, the advice stays.
        policy.on_gc_feedback(&feedback_with(&[(3, 2)], &[(3, 2)]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
        assert_eq!(policy.reversions(), 0);
    }

    #[test]
    fn feedback_is_idempotent_per_counter_value() {
        let mut policy = KgDynamicPolicy::new();
        let stats = feedback_with(&[(1, 4)], &[(2, 4)]);
        policy.on_gc_feedback(&stats);
        policy.on_gc_feedback(&stats);
        policy.on_gc_feedback(&stats);
        assert_eq!(policy.promotions(), 1);
        assert_eq!(policy.reversions(), 0, "site 2 was never DRAM-advised");
    }

    #[test]
    fn adaptation_events_carry_site_and_trigger_and_drain_once() {
        let mut policy = KgDynamicPolicy::with_params(KgDynamicParams {
            promote_after_pcm_writes: 1,
            revert_after_demotions: 1,
        });
        policy.on_mature_write(SiteId(7), MemoryKind::Pcm);
        policy.on_gc_feedback(&feedback_with(&[(9, 1)], &[(7, 2)]));
        let events = policy.drain_adaptation_events();
        assert_eq!(
            events,
            vec![
                AdaptationEvent {
                    site: 7,
                    learned: true,
                    trigger: AdaptationTrigger::PcmWriteBurst,
                },
                AdaptationEvent {
                    site: 9,
                    learned: true,
                    trigger: AdaptationTrigger::Rescue,
                },
                AdaptationEvent {
                    site: 7,
                    learned: false,
                    trigger: AdaptationTrigger::Demotions,
                },
            ]
        );
        assert!(policy.drain_adaptation_events().is_empty(), "drained");
        assert_eq!(AdaptationTrigger::PcmWriteBurst.label(), "pcm-write-burst");
    }

    #[test]
    fn page_retirement_acts_as_demotion_pressure() {
        let mut policy = KgDynamicPolicy::with_params(KgDynamicParams {
            promote_after_pcm_writes: 1,
            revert_after_demotions: 2,
        });
        policy.on_gc_feedback(&feedback_with(&[(5, 1)], &[]));
        assert_eq!(policy.hot_sites(), 1);
        // First retirement touching the site: pressure, but advice holds
        // (duplicate sites on one page count once).
        policy.on_page_retired(100, &[SiteId(5), SiteId(5), SiteId(9)]);
        assert_eq!(
            policy.survivor_placement(SiteId(5), false),
            SurvivorPlacement::AdvisedDram
        );
        // A second retirement crosses the threshold and revokes the advice.
        policy.on_page_retired(101, &[SiteId(5)]);
        assert_eq!(
            policy.survivor_placement(SiteId(5), false),
            SurvivorPlacement::AdvisedPcm
        );
        assert_eq!(policy.reversions(), 1);
        let events = policy.drain_adaptation_events();
        assert!(events.contains(&AdaptationEvent {
            site: 5,
            learned: false,
            trigger: AdaptationTrigger::PageRetirement,
        }));
        assert_eq!(AdaptationTrigger::PageRetirement.label(), "page-retirement");
        // Unadvised sites accumulate pressure but nothing is revoked.
        policy.on_page_retired(102, &[SiteId(9)]);
        assert_eq!(policy.reversions(), 1);
    }

    #[test]
    fn stale_table_seeds_the_starting_advice() {
        let table = AdviceTable::from_entries(
            [
                (SiteId(1), Placement::DramMature),
                (SiteId(2), Placement::PcmMature),
            ],
            Placement::PcmMature,
        );
        let mut policy = KgDynamicPolicy::from_table(&table);
        assert_eq!(policy.hot_sites(), 1);
        assert_eq!(
            policy.survivor_placement(SiteId(1), false),
            SurvivorPlacement::AdvisedDram
        );
        // Stale advice is revocable like any learned advice.
        policy.on_gc_feedback(&feedback_with(&[], &[(1, 2)]));
        assert_eq!(
            policy.survivor_placement(SiteId(1), false),
            SurvivorPlacement::AdvisedPcm
        );
    }
}
