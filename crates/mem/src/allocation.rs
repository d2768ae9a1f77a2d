//! Allocations (the `A` component of `mem_state`).
//!
//! Each allocation records its footprint, liveness, kind, whether it is
//! read-only (for `const`-qualified objects, §3.9) and whether it has been
//! *exposed* by having a pointer to it cast to an integer or its
//! representation examined (PNVI-*ae*, §2.3).

use cheri_cap::GhostState;
use cheri_obs::{AllocClass, Name};

use crate::absbyte::AbsByte;
use crate::capmeta::{CapSlotBits, SlotMeta, TagInvalidation};
use crate::AllocId;

/// One allocation in the abstract machine.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Unique ID (the provenance `@i`).
    pub id: AllocId,
    /// Base virtual address.
    pub base: u64,
    /// Size in bytes as requested by the program.
    pub size: u64,
    /// Size in bytes actually reserved (>= `size` when padding was needed
    /// for capability representability, §3.2).
    pub reserved_size: u64,
    /// Alignment of `base`.
    pub align: u64,
    /// Storage kind.
    pub kind: AllocClass,
    /// Still live?
    pub alive: bool,
    /// Marked exposed by a pointer-to-integer cast or representation access
    /// (PNVI-ae).
    pub exposed: bool,
    /// Read-only (`const`-qualified object or inherently read-only kind).
    pub readonly: bool,
    /// Diagnostic name (variable name or `"malloc"`), held inline like an
    /// event's, so naming an object costs no host allocation.
    pub prefix: Name,
    /// The allocation's part of `B`: one [`AbsByte`] per *reserved* byte,
    /// padding included, so the hardware-emulation profiles can read stale
    /// and padding bytes through a capability whose bounds cover them.
    pub(crate) buf: Vec<AbsByte>,
    /// The allocation's part of `C`: one packed entry per
    /// capability-aligned slot whose footprint lies inside the reserved
    /// footprint (slot `k` is at address `first_slot + k * cap_bytes`).
    pub(crate) slots: CapSlotBits,
    /// Address of slot 0 of `slots`: the first capability-aligned address at
    /// or above `base`.
    pub(crate) first_slot: u64,
}

impl Allocation {
    /// One-past-the-end address of the *requested* footprint.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base.wrapping_add(self.size)
    }

    /// Does the allocation footprint contain `[addr, addr+size)`?
    #[must_use]
    pub fn contains_range(&self, addr: u64, size: u64) -> bool {
        addr >= self.base && addr as u128 + size as u128 <= self.base as u128 + self.size as u128
    }

    /// Is `addr` within the footprint or one past it (the region in which
    /// ISO pointer arithmetic may roam, 6.5.6p8)?
    #[must_use]
    pub fn contains_or_one_past(&self, addr: u64) -> bool {
        addr >= self.base && addr as u128 <= self.base as u128 + self.size as u128
    }

    /// Is the allocation writable?
    #[must_use]
    pub fn writable(&self) -> bool {
        !self.readonly && !self.kind.inherently_readonly()
    }

    /// Slot index of the capability-aligned address `addr`, if
    /// the `cap_bytes`-sized footprint at `addr` lies inside the reserved
    /// footprint.
    pub(crate) fn slot_index(&self, addr: u64, cap_bytes: u64) -> Option<usize> {
        if addr < self.first_slot || !addr.is_multiple_of(cap_bytes) {
            return None;
        }
        let k = ((addr - self.first_slot) / cap_bytes) as usize;
        (k < self.slots.len()).then_some(k)
    }

    /// Invalidate this allocation's capability slots at addresses in
    /// `[lo, hi)` after a non-capability write (§4.3), returning how many
    /// were tagged or had a ghost bit set.
    pub(crate) fn invalidate_slots(
        &mut self,
        lo: u64,
        hi: u64,
        cap_bytes: u64,
        mode: TagInvalidation,
    ) -> usize {
        let n_slots = self.slots.len() as u64;
        if n_slots == 0 || hi <= self.first_slot {
            return 0;
        }
        // Slot `k` sits at `first_slot + k * cap_bytes`.
        let k_lo = lo.saturating_sub(self.first_slot).div_ceil(cap_bytes);
        let k_hi = (hi - self.first_slot).div_ceil(cap_bytes).min(n_slots);
        let mut affected = 0;
        for k in k_lo as usize..k_hi as usize {
            let m = self.slots.get(k);
            if m.tag || !m.ghost.is_clean() {
                affected += 1;
                let new = match mode {
                    TagInvalidation::Ghost => SlotMeta {
                        tag: m.tag,
                        ghost: GhostState {
                            tag_unspecified: true,
                            bounds_unspecified: m.ghost.bounds_unspecified,
                        },
                    },
                    TagInvalidation::Clear => SlotMeta::default(),
                };
                self.slots.set(k, new);
            }
        }
        affected
    }

    /// Number of capability-aligned slots fully contained in
    /// `[first_slot, base + reserved)`, given `first_slot` is the first
    /// aligned address `>= base`.
    pub(crate) fn slot_count(base: u64, reserved: u64, first_slot: u64, cap_bytes: u64) -> usize {
        let end = base.wrapping_add(reserved);
        if end < first_slot.wrapping_add(cap_bytes) {
            0
        } else {
            ((end - first_slot) / cap_bytes) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(base: u64, size: u64) -> Allocation {
        Allocation {
            id: AllocId(1),
            base,
            size,
            reserved_size: size,
            align: 4,
            kind: AllocClass::Auto,
            alive: true,
            exposed: false,
            readonly: false,
            prefix: "x".into(),
            buf: Vec::new(),
            slots: CapSlotBits::default(),
            first_slot: base,
        }
    }

    #[test]
    fn contains_range_edges() {
        let a = alloc(0x1000, 8);
        assert!(a.contains_range(0x1000, 8));
        assert!(a.contains_range(0x1004, 4));
        assert!(!a.contains_range(0x1004, 5));
        assert!(!a.contains_range(0xFFF, 1));
        assert!(a.contains_range(0x1008, 0)); // empty range at one-past
    }

    #[test]
    fn one_past_is_in_arith_range() {
        let a = alloc(0x1000, 8);
        assert!(a.contains_or_one_past(0x1008));
        assert!(!a.contains_or_one_past(0x1009));
        assert!(!a.contains_or_one_past(0xFFF));
    }

    #[test]
    fn function_allocations_readonly() {
        let mut a = alloc(0x4000, 1);
        a.kind = AllocClass::Function;
        assert!(!a.writable());
    }

    #[test]
    fn flat_store_slot_indexing() {
        // base 0x1004, reserved 0x40: first 16-aligned slot is 0x1010 and
        // only slots whose full footprint fits in [0x1004, 0x1044) count.
        assert_eq!(Allocation::slot_count(0x1004, 0x40, 0x1010, 16), 3);
        let mut a = alloc(0x1004, 0x40);
        a.first_slot = 0x1010;
        a.slots = CapSlotBits::new(3);
        assert_eq!(a.slot_index(0x1010, 16), Some(0));
        assert_eq!(a.slot_index(0x1030, 16), Some(2));
        assert_eq!(a.slot_index(0x1040, 16), None, "footprint crosses the end");
        assert_eq!(a.slot_index(0x1008, 16), None, "misaligned");
        assert_eq!(a.slot_index(0x1000, 16), None, "below base");
        // Allocation entirely below the next alignment boundary: no slots.
        assert_eq!(Allocation::slot_count(0x1004, 8, 0x1010, 16), 0);
    }
}
