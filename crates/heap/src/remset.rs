//! Remembered sets.
//!
//! Generational collection requires remembering every pointer from outside
//! the independently-collected region into it. The paper's KG-W collector
//! maintains two remembered sets (Figure 4): `remset` records slots outside
//! the nursery that point into the nursery, and `remset_observers` records
//! slots outside the nursery *and* observer space that point into either.

use std::collections::HashSet;

use hybrid_mem::{Address, FixedState};

/// A deduplicated set of slot addresses (object fields holding interesting
/// pointers).
#[derive(Debug, Default, Clone)]
pub struct RememberedSet {
    slots: HashSet<u64, FixedState>,
    inserts: u64,
}

impl RememberedSet {
    /// Creates an empty remembered set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `slot`. Returns `true` if the slot was not already present.
    pub fn insert(&mut self, slot: Address) -> bool {
        self.inserts += 1;
        self.slots.insert(slot.raw())
    }

    /// Number of distinct slots currently remembered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no slots are remembered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of insert operations (including duplicates) — a proxy for
    /// barrier work.
    pub fn total_inserts(&self) -> u64 {
        self.inserts
    }

    /// Iterates over the remembered slots in ascending address order (a
    /// deterministic order keeps whole runs reproducible for a given seed).
    pub fn iter(&self) -> impl Iterator<Item = Address> + '_ {
        let mut slots: Vec<u64> = self.slots.iter().copied().collect();
        slots.sort_unstable();
        slots.into_iter().map(Address::new)
    }

    /// Removes and returns all remembered slots in ascending address order.
    pub fn drain(&mut self) -> Vec<Address> {
        let slots: Vec<Address> = self.iter().collect();
        self.slots.clear();
        slots
    }

    /// Discards all remembered slots.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut remset = RememberedSet::new();
        assert!(remset.insert(Address::new(0x100)));
        assert!(!remset.insert(Address::new(0x100)));
        assert!(remset.insert(Address::new(0x108)));
        assert_eq!(remset.len(), 2);
        assert_eq!(remset.total_inserts(), 3);
    }

    #[test]
    fn drain_empties_the_set() {
        let mut remset = RememberedSet::new();
        remset.insert(Address::new(0x10));
        remset.insert(Address::new(0x20));
        let mut drained = remset.drain();
        drained.sort();
        assert_eq!(drained, vec![Address::new(0x10), Address::new(0x20)]);
        assert!(remset.is_empty());
        // Counters survive the drain.
        assert_eq!(remset.total_inserts(), 2);
    }

    #[test]
    fn clear_resets_slots_only() {
        let mut remset = RememberedSet::new();
        remset.insert(Address::new(0x10));
        remset.clear();
        assert!(remset.is_empty());
        assert_eq!(remset.total_inserts(), 1);
    }

    #[test]
    fn iter_visits_each_slot_once() {
        let mut remset = RememberedSet::new();
        for i in 0..10u64 {
            remset.insert(Address::new(0x1000 + i * 8));
            remset.insert(Address::new(0x1000 + i * 8));
        }
        assert_eq!(remset.iter().count(), 10);
    }
}
