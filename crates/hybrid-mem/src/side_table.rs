//! Dense side tables indexed by simulated address.
//!
//! Per-page, per-chunk and per-line metadata lives in side tables in the
//! style of MMTk's side metadata: a dense array per extent, indexed by the
//! entry's offset from the extent base, instead of a hash map keyed by
//! address. The simulated address space is cut into 256 MB *slots*, the
//! alignment [`crate::MemorySystem::reserve_extent`] gives every extent, so
//! no slot is shared by two extents. Each slot that has held an entry owns
//! one `Vec<T>`, grown on demand to the highest index written so far
//! (rounded up to a power of two), never to the whole slot. Growth
//! allocates zeroed memory, so table pages that are never written are never
//! committed by the host.

use std::fmt;

/// log2 of the slot size: 256 MB, the extent alignment.
const SLOT_SHIFT: u32 = 28;
/// Slots beyond this bound (2^48 bytes of simulated address space) are
/// refused instead of growing the slot directory without limit.
const MAX_SLOTS: usize = 1 << 20;
/// Smallest table a slot grows to.
const MIN_LEN: usize = 64;

/// A dense table with one `T` per `2^granule_shift` bytes of simulated
/// address space. Entries never written read as `None` from [`Self::get`]
/// (past the table's end) or as `T::default()` (inside it).
pub(crate) struct SideTable<T> {
    /// log2 of the number of entries per slot.
    slot_bits: u32,
    slots: Vec<Vec<T>>,
}

impl<T: Clone + Default> SideTable<T> {
    /// An empty table with one entry per `2^granule_shift` bytes.
    pub(crate) const fn new(granule_shift: u32) -> Self {
        SideTable {
            slot_bits: SLOT_SHIFT - granule_shift,
            slots: Vec::new(),
        }
    }

    #[inline]
    fn split(&self, index: u64) -> (usize, usize) {
        let slot = (index >> self.slot_bits) as usize;
        let offset = (index & ((1u64 << self.slot_bits) - 1)) as usize;
        (slot, offset)
    }

    /// The entry at `index`, or `None` if its table never grew that far.
    #[inline]
    pub(crate) fn get(&self, index: u64) -> Option<&T> {
        let (slot, offset) = self.split(index);
        self.slots.get(slot)?.get(offset)
    }

    /// The entry at `index`, growing its slot's table to reach it.
    ///
    /// # Panics
    ///
    /// Panics if `index` lies beyond 2^48 bytes of simulated address space.
    #[inline]
    pub(crate) fn get_mut(&mut self, index: u64) -> &mut T {
        let (slot, offset) = self.split(index);
        if slot < self.slots.len() && offset < self.slots[slot].len() {
            return &mut self.slots[slot][offset];
        }
        self.grow(slot, offset)
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, slot: usize, offset: usize) -> &mut T {
        assert!(
            slot < MAX_SLOTS,
            "side-table index beyond the simulated address space (slot {slot})"
        );
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Vec::new);
        }
        let len = (offset + 1)
            .next_power_of_two()
            .max(MIN_LEN)
            .min(1 << self.slot_bits);
        let table = &mut self.slots[slot];
        // `vec![zero; n]` is a zeroed allocation: only the prefix copied
        // from the old table is written.
        let mut grown = vec![T::default(); len];
        for (dst, src) in grown.iter_mut().zip(table.drain(..)) {
            *dst = src;
        }
        *table = grown;
        &mut table[offset]
    }

    /// Every entry in ascending index order, including default ones inside
    /// the grown tables.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let bits = self.slot_bits;
        self.slots.iter().enumerate().flat_map(move |(slot, table)| {
            let base = (slot as u64) << bits;
            table
                .iter()
                .enumerate()
                .map(move |(offset, entry)| (base | offset as u64, entry))
        })
    }
}

impl<T> fmt::Debug for SideTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SideTable")
            .field("slots", &self.slots.iter().filter(|t| !t.is_empty()).count())
            .field("entries", &self.slots.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_entries_read_as_absent_or_default() {
        let mut table: SideTable<u64> = SideTable::new(12);
        assert_eq!(table.get(5), None);
        *table.get_mut(5) += 3;
        assert_eq!(table.get(5), Some(&3));
        assert_eq!(table.get(6), Some(&0), "inside the grown table");
        assert_eq!(table.get(1 << 20), None, "past the grown table");
    }

    #[test]
    fn tables_grow_to_the_highest_index_not_the_slot() {
        let mut table: SideTable<u8> = SideTable::new(12);
        *table.get_mut(100) = 1;
        assert_eq!(table.iter().count(), 128);
        *table.get_mut(1000) = 2;
        assert_eq!(table.iter().count(), 1024);
        assert_eq!(table.get(100), Some(&1), "growth keeps earlier entries");
    }

    #[test]
    fn iteration_is_in_index_order_across_slots() {
        let mut table: SideTable<u64> = SideTable::new(12);
        let per_slot = 1u64 << (SLOT_SHIFT - 12);
        for index in [3 * per_slot + 7, 9, per_slot + 1] {
            *table.get_mut(index) = index;
        }
        let written: Vec<u64> = table.iter().filter(|(_, &v)| v != 0).map(|(i, _)| i).collect();
        assert_eq!(written, vec![9, per_slot + 1, 3 * per_slot + 7]);
    }

    #[test]
    #[should_panic(expected = "beyond the simulated address space")]
    fn absurd_addresses_are_refused() {
        let mut table: SideTable<u8> = SideTable::new(12);
        *table.get_mut(u64::MAX >> 12) = 1;
    }
}
