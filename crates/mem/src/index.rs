//! The interval index: address → allocation over the reserved footprints.
//!
//! Each region is a bump allocator that never reuses an address, so its
//! footprints arrive in address order: descending on the stack, ascending
//! in the heap and among the globals (functions, statics, and string
//! literals, which are placed when first evaluated). The index keeps one
//! append-only run per region, so recording an allocation is a push
//! however many came before it, and a lookup is one binary search in the
//! run whose span covers the address. Dead allocations keep their entry.

use cheri_obs::AllocClass;

use crate::provenance::AllocId;

/// One reserved footprint `[base, end)` and its allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    pub base: u64,
    pub end: u64,
    pub id: AllocId,
}

/// One region's footprints, in allocation order. `DOWN`: each lies below
/// the one before it (the stack).
#[derive(Clone, Debug)]
struct Run<const DOWN: bool> {
    entries: Vec<Footprint>,
    /// The lowest base and the highest end (`u64::MAX` and 0 while empty).
    lo: u64,
    hi: u64,
}

impl<const DOWN: bool> Run<DOWN> {
    fn new() -> Self {
        Run {
            entries: Vec::new(),
            lo: u64::MAX,
            hi: 0,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        (self.lo, self.hi) = (u64::MAX, 0);
    }

    fn push(&mut self, f: Footprint) {
        let beyond = |l: &Footprint| {
            if DOWN {
                f.end <= l.base
            } else {
                l.end <= f.base
            }
        };
        debug_assert!(self.entries.last().is_none_or(beyond));
        self.entries.push(f);
        self.lo = self.lo.min(f.base);
        self.hi = self.hi.max(f.end);
    }

    /// The entries on either side of `addr`: the one with the greatest
    /// base at or below it and the one with the least base above it.
    #[inline]
    fn around(&self, addr: u64) -> (Option<&Footprint>, Option<&Footprint>) {
        let e = &self.entries;
        if DOWN {
            let i = e.partition_point(|f| f.base > addr);
            (e.get(i), i.checked_sub(1).and_then(|j| e.get(j)))
        } else {
            let i = e.partition_point(|f| f.base <= addr);
            (i.checked_sub(1).and_then(|j| e.get(j)), e.get(i))
        }
    }

    /// The entry whose footprint contains `addr`.
    #[inline]
    fn find(&self, addr: u64) -> Option<Footprint> {
        if addr < self.lo || addr >= self.hi {
            return None;
        }
        let f = *self.around(addr).0?;
        (addr < f.end).then_some(f)
    }
}

/// The interval index over every allocation's reserved footprint. The
/// footprints are pairwise disjoint, so an address lies in at most one.
#[derive(Clone, Debug)]
pub struct Index {
    stack: Run<true>,
    heap: Run<false>,
    globals: Run<false>,
}

impl Index {
    pub fn new() -> Index {
        Index {
            stack: Run::new(),
            heap: Run::new(),
            globals: Run::new(),
        }
    }

    /// Forget every entry, keeping the runs' capacity.
    pub fn clear(&mut self) {
        self.stack.clear();
        self.heap.clear();
        self.globals.clear();
    }

    /// Record the footprint of a new allocation of `kind`, which its
    /// region's bump allocator placed beyond every earlier one.
    pub fn push(&mut self, kind: AllocClass, f: Footprint) {
        match kind {
            AllocClass::Auto => self.stack.push(f),
            AllocClass::Heap => self.heap.push(f),
            AllocClass::Static | AllocClass::Function | AllocClass::StringLiteral => {
                self.globals.push(f);
            }
        }
    }

    /// The footprint containing `addr`.
    #[inline]
    pub fn find(&self, addr: u64) -> Option<Footprint> {
        self.stack
            .find(addr)
            .or_else(|| self.heap.find(addr))
            .or_else(|| self.globals.find(addr))
    }

    /// The lowest base above `addr`, in any region.
    pub fn next_base(&self, addr: u64) -> Option<u64> {
        [
            self.stack.around(addr).1,
            self.heap.around(addr).1,
            self.globals.around(addr).1,
        ]
        .into_iter()
        .flatten()
        .map(|f| f.base)
        .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(base: u64, end: u64, id: u64) -> Footprint {
        Footprint {
            base,
            end,
            id: AllocId(id),
        }
    }

    /// Stack entries at 0x90 and 0x80 (descending), heap entries at 0x20
    /// and 0x30 (ascending), one global at 0x00, with gaps between.
    fn sample() -> Index {
        let mut ix = Index::new();
        ix.push(AllocClass::Static, fp(0x00, 0x08, 1));
        ix.push(AllocClass::Auto, fp(0x90, 0x98, 2));
        ix.push(AllocClass::Heap, fp(0x20, 0x28, 3));
        ix.push(AllocClass::Auto, fp(0x80, 0x88, 4));
        ix.push(AllocClass::Heap, fp(0x30, 0x40, 5));
        ix
    }

    #[test]
    fn find_resolves_every_region() {
        let ix = sample();
        let id = |a| ix.find(a).map(|f| f.id.0);
        assert_eq!(
            [0x00, 0x07, 0x08, 0x20, 0x2f, 0x3f, 0x40, 0x80, 0x87, 0x88, 0x90, 0x97, 0x98].map(id),
            [
                Some(1),
                Some(1),
                None,
                Some(3),
                None,
                Some(5),
                None,
                Some(4),
                Some(4),
                None,
                Some(2),
                Some(2),
                None
            ]
        );
    }

    #[test]
    fn next_base_crosses_regions() {
        let ix = sample();
        assert_eq!(ix.next_base(0x08), Some(0x20));
        assert_eq!(ix.next_base(0x28), Some(0x30));
        assert_eq!(ix.next_base(0x40), Some(0x80));
        assert_eq!(ix.next_base(0x88), Some(0x90));
        assert_eq!(ix.next_base(0x90), None);
    }
    #[test]
    fn clear_forgets_every_entry() {
        let mut ix = sample();
        ix.clear();
        assert_eq!(ix.find(0x84), None);
        assert_eq!(ix.next_base(0), None);
        ix.push(AllocClass::Auto, fp(0x80, 0x88, 6));
        assert_eq!(ix.find(0x84).map(|f| f.id.0), Some(6));
    }
}
