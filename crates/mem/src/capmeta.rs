//! Capability metadata: the `C` dictionary of §4.3.
//!
//! "For each capability-size aligned memory location, we add metadata
//! consisting of the capability tag and a two-bit ghost state ... The first
//! bit of the ghost state for a given capability indicates whether the tag
//! is unspecified, and the second bit indicates whether the address and
//! bounds are unspecified."

use std::collections::BTreeMap;

use cheri_cap::GhostState;

/// How the model invalidates capabilities whose representation was touched
/// by a non-capability write.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TagInvalidation {
    /// Abstract-machine semantics (§3.5): the tag becomes *unspecified* in
    /// ghost state, so later use for access is UB but optimisations that
    /// remove the invalidation remain sound.
    #[default]
    Ghost,
    /// Hardware semantics: the tag is deterministically cleared (what a
    /// Morello or CHERI-RISC-V machine does). Used by the implementation
    /// emulation profiles.
    Clear,
}

/// The per-slot metadata: the stored tag and the two ghost bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SlotMeta {
    /// The stored capability tag.
    pub tag: bool,
    /// Ghost state of the stored capability.
    pub ghost: GhostState,
}

/// Packed per-allocation capability-slot metadata: the part of `C` for the
/// slots inside one allocation's reserved footprint.
///
/// Each capability-aligned slot needs three bits — the stored tag and the
/// two ghost bits — so slots are packed four bits wide into `u64` words
/// (16 slots per word). Absent metadata reads as untagged-and-clean, like
/// an absent key in [`CapMeta`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CapSlotBits {
    n: usize,
    words: Vec<u64>,
}

/// Bit layout of one 4-bit slot entry in [`CapSlotBits`].
const BIT_TAG: u64 = 0b0001;
const BIT_TAG_UNSPEC: u64 = 0b0010;
const BIT_BOUNDS_UNSPEC: u64 = 0b0100;
/// `BIT_TAG` replicated into every 4-bit lane of a word, for popcounts.
const TAG_LANES: u64 = 0x1111_1111_1111_1111;

impl CapSlotBits {
    /// A bitset for `n` capability slots, all untagged-and-clean.
    #[must_use]
    pub fn new(n: usize) -> Self {
        CapSlotBits {
            n,
            words: vec![0; n.div_ceil(16)],
        }
    }

    /// Number of slots tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Does this bitset track zero slots?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Metadata for slot `i` (out-of-range reads as untagged-and-clean).
    #[must_use]
    pub fn get(&self, i: usize) -> SlotMeta {
        if i >= self.n {
            return SlotMeta::default();
        }
        let nib = (self.words[i / 16] >> ((i % 16) * 4)) & 0xF;
        SlotMeta {
            tag: nib & BIT_TAG != 0,
            ghost: GhostState {
                tag_unspecified: nib & BIT_TAG_UNSPEC != 0,
                bounds_unspecified: nib & BIT_BOUNDS_UNSPEC != 0,
            },
        }
    }

    /// Record metadata for slot `i` (out-of-range writes are ignored).
    pub fn set(&mut self, i: usize, meta: SlotMeta) {
        if i >= self.n {
            return;
        }
        let mut nib = 0u64;
        if meta.tag {
            nib |= BIT_TAG;
        }
        if meta.ghost.tag_unspecified {
            nib |= BIT_TAG_UNSPEC;
        }
        if meta.ghost.bounds_unspecified {
            nib |= BIT_BOUNDS_UNSPEC;
        }
        let shift = (i % 16) * 4;
        let w = &mut self.words[i / 16];
        *w = (*w & !(0xF << shift)) | (nib << shift);
    }

    /// Reset every slot to untagged-and-clean.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of tagged slots, by popcount over the tag lanes.
    #[must_use]
    pub fn tagged_count(&self) -> usize {
        self.words
            .iter()
            .map(|w| (w & TAG_LANES).count_ones() as usize)
            .sum()
    }

    /// Indices of every tagged slot, in ascending order.
    pub fn tagged_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let w = w & TAG_LANES;
            (0..16)
                .filter(move |lane| w >> (lane * 4) & 1 != 0)
                .map(move |lane| wi * 16 + lane)
        })
    }
}

/// A sparse capability-metadata map, keyed by capability-aligned address.
/// The memory model keeps in one the slots no allocation's [`CapSlotBits`]
/// covers: those whose footprint crosses or lies outside every reserved
/// footprint, reachable through unpadded capabilities and, under the
/// hardware profiles, through pointers derived from `cheri_ddc_get()`.
#[derive(Clone, Debug, Default)]
pub struct CapMeta {
    slots: BTreeMap<u64, SlotMeta>,
}

impl CapMeta {
    /// An empty dictionary.
    #[must_use]
    pub fn new() -> Self {
        CapMeta::default()
    }

    /// Metadata for the slot at `addr` (which must be aligned); absent slots
    /// read as untagged-and-clean.
    #[must_use]
    pub fn get(&self, addr: u64) -> SlotMeta {
        self.slots.get(&addr).copied().unwrap_or_default()
    }

    /// Record a capability store at aligned address `addr`.
    pub fn set(&mut self, addr: u64, meta: SlotMeta) {
        if meta == SlotMeta::default() {
            self.slots.remove(&addr);
        } else {
            self.slots.insert(addr, meta);
        }
    }

    /// Invalidate every slot whose `cap_bytes`-sized footprint overlaps
    /// `[lo, hi)` — called for every non-capability write (§4.3: "Writing
    /// non-capabilities to memory marks all previously set tags for the
    /// corresponding address range as unspecified in the ghost state").
    ///
    /// Returns the number of slots affected.
    pub fn invalidate_range(
        &mut self,
        lo: u64,
        hi: u64,
        cap_bytes: u64,
        mode: TagInvalidation,
    ) -> usize {
        if hi <= lo {
            return 0;
        }
        let first_slot = lo & !(cap_bytes - 1);
        let mut affected = 0;
        let mut slot = first_slot;
        while slot < hi {
            if let Some(meta) = self.slots.get_mut(&slot) {
                if meta.tag || !meta.ghost.is_clean() {
                    affected += 1;
                    match mode {
                        TagInvalidation::Ghost => {
                            meta.ghost.tag_unspecified = true;
                        }
                        TagInvalidation::Clear => {
                            meta.tag = false;
                            meta.ghost = GhostState::CLEAN;
                        }
                    }
                }
            }
            slot = match slot.checked_add(cap_bytes) {
                Some(s) => s,
                None => break,
            };
        }
        affected
    }

    /// Forget all slots within `[lo, hi)` (used when an allocation dies).
    pub fn clear_range(&mut self, lo: u64, hi: u64) {
        let keys: Vec<u64> = self.slots.range(lo..hi).map(|(k, _)| *k).collect();
        for k in keys {
            self.slots.remove(&k);
        }
    }

    /// Number of tagged slots (diagnostics).
    #[must_use]
    pub fn tagged_count(&self) -> usize {
        self.slots.values().filter(|m| m.tag).count()
    }

    /// Is the dictionary empty (no slot carries any metadata)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Addresses of every tagged slot, in ascending order.
    #[must_use]
    pub fn tagged_addrs(&self) -> Vec<u64> {
        self.slots
            .iter()
            .filter(|(_, m)| m.tag)
            .map(|(a, _)| *a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged() -> SlotMeta {
        SlotMeta {
            tag: true,
            ghost: GhostState::CLEAN,
        }
    }

    #[test]
    fn absent_slots_are_untagged() {
        let m = CapMeta::new();
        assert!(!m.get(0x1000).tag);
        assert!(m.get(0x1000).ghost.is_clean());
    }

    #[test]
    fn ghost_invalidation_marks_unspecified() {
        let mut m = CapMeta::new();
        m.set(0x1000, tagged());
        let n = m.invalidate_range(0x1004, 0x1005, 16, TagInvalidation::Ghost);
        assert_eq!(n, 1);
        let s = m.get(0x1000);
        assert!(s.tag, "tag itself survives in ghost mode");
        assert!(s.ghost.tag_unspecified);
    }

    #[test]
    fn clear_invalidation_drops_tag() {
        let mut m = CapMeta::new();
        m.set(0x1000, tagged());
        m.invalidate_range(0x1000, 0x1010, 16, TagInvalidation::Clear);
        assert!(!m.get(0x1000).tag);
        assert!(m.get(0x1000).ghost.is_clean());
    }

    #[test]
    fn write_not_overlapping_slot_leaves_it() {
        let mut m = CapMeta::new();
        m.set(0x1000, tagged());
        let n = m.invalidate_range(0x1010, 0x1020, 16, TagInvalidation::Ghost);
        assert_eq!(n, 0);
        assert!(m.get(0x1000).ghost.is_clean());
    }

    #[test]
    fn wide_write_invalidates_multiple_slots() {
        let mut m = CapMeta::new();
        m.set(0x1000, tagged());
        m.set(0x1010, tagged());
        m.set(0x1020, tagged());
        let n = m.invalidate_range(0x1008, 0x1018, 16, TagInvalidation::Clear);
        assert_eq!(n, 2);
        assert!(!m.get(0x1000).tag);
        assert!(!m.get(0x1010).tag);
        assert!(m.get(0x1020).tag);
    }

    #[test]
    fn clear_range_forgets_slots() {
        let mut m = CapMeta::new();
        m.set(0x1000, tagged());
        m.set(0x1010, tagged());
        m.clear_range(0x1000, 0x1010);
        assert_eq!(m.tagged_count(), 1);
    }

    #[test]
    fn slot_bits_roundtrip_all_combinations() {
        let mut b = CapSlotBits::new(40);
        assert_eq!(b.len(), 40);
        assert!(!b.is_empty());
        for i in 0..40 {
            let meta = SlotMeta {
                tag: i % 2 == 0,
                ghost: GhostState {
                    tag_unspecified: i % 3 == 0,
                    bounds_unspecified: i % 5 == 0,
                },
            };
            b.set(i, meta);
            assert_eq!(b.get(i), meta, "slot {i}");
        }
        // Neighbours are untouched by a rewrite.
        b.set(17, tagged());
        assert!(b.get(16).tag);
        assert!(b.get(18).tag);
        assert_eq!(
            b.tagged_count(),
            (0..40).filter(|i| i % 2 == 0).count() + 1
        );
    }

    #[test]
    fn slot_bits_tagged_indices_and_clear() {
        let mut b = CapSlotBits::new(33);
        for i in [0usize, 15, 16, 31, 32] {
            b.set(i, tagged());
        }
        assert_eq!(b.tagged_indices().collect::<Vec<_>>(), vec![0, 15, 16, 31, 32]);
        assert_eq!(b.tagged_count(), 5);
        b.clear_all();
        assert_eq!(b.tagged_count(), 0);
        assert_eq!(b.get(15), SlotMeta::default());
    }

    #[test]
    fn slot_bits_out_of_range_is_inert() {
        let mut b = CapSlotBits::new(2);
        b.set(7, tagged()); // ignored
        assert_eq!(b.tagged_count(), 0);
        assert_eq!(b.get(7), SlotMeta::default());
        let empty = CapSlotBits::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.tagged_count(), 0);
    }
}
