//! Trace diffing: align two event streams and report the first divergence.
//!
//! The interesting artifact of a multi-profile comparison (paper Appendix A)
//! is *where* behaviours part ways, not just the final outcomes. Two
//! profiles rarely produce byte-identical traces though — their layout
//! policies place allocations at different addresses — so [`diff`]
//! compares events in *normalized* coordinates: a [`Normalizer`] per stream
//! rewrites every address into *(allocation ordinal, offset)* as the events
//! go by, making streams from different layouts alignable. The first event
//! whose normalized form differs is reported with a window of preceding
//! context from the left stream.

use crate::event::MemEvent;

/// The first point where two event streams disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDiff {
    /// Index (into both streams) of the first divergent event.
    pub index: usize,
    /// The left stream's event at `index` (`None`: stream ended early).
    pub left: Option<MemEvent>,
    /// The right stream's event at `index` (`None`: stream ended early).
    pub right: Option<MemEvent>,
    /// Up to `context` events preceding the divergence, from the left
    /// stream (the streams agree on this prefix under the chosen mode).
    pub context: Vec<MemEvent>,
}

/// Rewrites raw addresses into *(allocation ordinal, offset)* coordinates.
///
/// Allocations are numbered in stream order; an address inside the *n*-th
/// live allocation's reserved footprint becomes `n * ALLOC_STRIDE + offset`.
/// Addresses outside any live allocation are left as-is (they only arise in
/// wild-pointer events, where the raw value is itself the evidence).
#[derive(Default, Debug)]
pub struct Normalizer {
    /// Live allocations: `(base, end, ordinal)`.
    live: Vec<(u64, u64, u64)>,
    next_ordinal: u64,
}

/// Synthetic address stride between allocation ordinals: larger than any
/// single allocation the corpus produces, so normalized ranges never
/// collide.
pub const ALLOC_STRIDE: u64 = 1 << 32;

impl Normalizer {
    /// A normalizer with no allocations seen yet.
    #[must_use]
    pub fn new() -> Normalizer {
        Normalizer::default()
    }

    fn norm_addr(&self, addr: u64) -> u64 {
        for (base, end, ordinal) in &self.live {
            if addr >= *base && addr < *end {
                return ordinal * ALLOC_STRIDE + (addr - base);
            }
        }
        // One-past-the-end addresses (ISO-legal pointer arithmetic) belong
        // to their allocation too; checked second so an adjacent
        // allocation's base wins over a predecessor's one-past.
        for (base, end, ordinal) in &self.live {
            if addr == *end {
                return ordinal * ALLOC_STRIDE + (addr - base);
            }
        }
        addr
    }

    /// Normalize one event, updating the allocation table as a side effect.
    ///
    /// Must be fed the stream *in order* — allocation ordinals and
    /// liveness depend on every preceding `Alloc`/`Free`.
    pub fn norm_event(&mut self, ev: &MemEvent) -> MemEvent {
        match ev {
            MemEvent::Alloc {
                id: _,
                base,
                size,
                kind,
                name,
            } => {
                let ordinal = self.next_ordinal;
                self.next_ordinal += 1;
                self.live.push((*base, base + size, ordinal));
                MemEvent::Alloc {
                    id: ordinal,
                    base: ordinal * ALLOC_STRIDE,
                    size: *size,
                    kind: *kind,
                    name: name.clone(),
                }
            }
            MemEvent::Free {
                id: _,
                base,
                end,
                dynamic,
            } => {
                let entry = self
                    .live
                    .iter()
                    .position(|(b, _, _)| *b == *base);
                let ordinal = match entry {
                    Some(i) => {
                        let (_, _, ordinal) = self.live.remove(i);
                        ordinal
                    }
                    None => u64::MAX,
                };
                MemEvent::Free {
                    id: ordinal,
                    base: ordinal.wrapping_mul(ALLOC_STRIDE),
                    end: ordinal.wrapping_mul(ALLOC_STRIDE) + (end - base),
                    dynamic: *dynamic,
                }
            }
            MemEvent::Load { addr, size, intptr } => MemEvent::Load {
                addr: self.norm_addr(*addr),
                size: *size,
                intptr: *intptr,
            },
            MemEvent::Store { addr, size } => MemEvent::Store {
                addr: self.norm_addr(*addr),
                size: *size,
            },
            MemEvent::Memcpy { dst, src, n } => MemEvent::Memcpy {
                dst: self.norm_addr(*dst),
                src: self.norm_addr(*src),
                n: *n,
            },
            MemEvent::CapDerive {
                from,
                to,
                tag_cleared,
            } => MemEvent::CapDerive {
                from: self.norm_addr(*from),
                to: self.norm_addr(*to),
                tag_cleared: *tag_cleared,
            },
            MemEvent::CapTagClear {
                addr,
                count,
                reason,
            } => MemEvent::CapTagClear {
                addr: self.norm_addr(*addr),
                count: *count,
                reason: *reason,
            },
            MemEvent::Revoke { base, end, cleared } => MemEvent::Revoke {
                base: self.norm_addr(*base),
                end: self.norm_addr(*base) + (end - base),
                cleared: *cleared,
            },
            // No addresses to rewrite.
            MemEvent::RepCheck { .. } | MemEvent::Ub(_) | MemEvent::Trap(_) | MemEvent::Exit(_) => {
                ev.clone()
            }
        }
    }
}

/// Find the first divergence between two event streams in normalized
/// coordinates; `None` if they agree over their full common shape. Each
/// stream is normalized on the fly by a [`Normalizer`] of its own, so
/// neither is copied; the reported events and context are the raw ones.
#[must_use]
pub fn diff(left: &[MemEvent], right: &[MemEvent], context: usize) -> Option<TraceDiff> {
    let (mut nl, mut nr) = (Normalizer::new(), Normalizer::new());
    let mismatch = left
        .iter()
        .zip(right)
        .position(|(l, r)| nl.norm_event(l) != nr.norm_event(r));
    let index = match mismatch {
        Some(i) => i,
        None if left.len() != right.len() => left.len().min(right.len()),
        None => return None,
    };
    let start = index.saturating_sub(context);
    Some(TraceDiff {
        index,
        left: left.get(index).cloned(),
        right: right.get(index).cloned(),
        context: left[start..index].to_vec(),
    })
}

/// Render a [`TraceDiff`] for humans: context lines, then the two divergent
/// events marked `<`/`>` (a missing side renders as `(stream ends)`).
#[must_use]
pub fn render_diff(d: &TraceDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "first divergence at event {}", d.index);
    let base = d.index - d.context.len();
    for (i, ev) in d.context.iter().enumerate() {
        let _ = writeln!(out, "  = [{}] {}", base + i, crate::render::full_line(ev));
    }
    match &d.left {
        Some(ev) => {
            let _ = writeln!(out, "  < [{}] {}", d.index, crate::render::full_line(ev));
        }
        None => {
            let _ = writeln!(out, "  < [{}] (stream ends)", d.index);
        }
    }
    match &d.right {
        Some(ev) => {
            let _ = writeln!(out, "  > [{}] {}", d.index, crate::render::full_line(ev));
        }
        None => {
            let _ = writeln!(out, "  > [{}] (stream ends)", d.index);
        }
    }
    out
}

/// Render the first divergence of each named event stream against the
/// first (reference) stream, in normalized (allocation-relative)
/// coordinates — the report printed by `cheri-c --all --trace-diff` and by
/// the batch service's trace-diff mode. Empty when `runs` is empty.
#[must_use]
pub fn render_profile_diffs(runs: &[(String, Vec<MemEvent>)]) -> String {
    use std::fmt::Write as _;
    let Some((ref_name, ref_events)) = runs.first() else {
        return String::new();
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "── trace diff (reference: {ref_name}, normalized addresses) ──"
    );
    for (name, events) in &runs[1..] {
        match diff(ref_events, events, 3) {
            None => {
                let _ = writeln!(out, "{name}: no divergence ({} events)", events.len());
            }
            Some(d) => {
                let _ = writeln!(out, "{name}: diverges from {ref_name}:");
                out.push_str(&render_diff(&d));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AllocClass, Name};

    fn alloc(id: u64, base: u64, size: u64) -> MemEvent {
        MemEvent::Alloc {
            id,
            base,
            size,
            kind: AllocClass::Auto,
            name: Name::new("x"),
        }
    }

    fn store(addr: u64) -> MemEvent {
        MemEvent::Store { addr, size: 4 }
    }

    #[test]
    fn identical_streams_have_no_diff() {
        let a = vec![alloc(1, 0x1000, 8), store(0x1004), MemEvent::Exit(0)];
        assert_eq!(diff(&a, &a, 2), None);
    }

    #[test]
    fn layout_differences_align() {
        // Different raw addresses, same ordinal and offset.
        let a = vec![alloc(1, 0x1000, 8), store(0x1004)];
        let b = vec![alloc(1, 0x2000, 8), store(0x2004)];
        assert_eq!(diff(&a, &b, 4), None);
    }

    #[test]
    fn normalized_mode_reports_semantic_divergence() {
        // Same layout shift, but the second store lands at a different
        // offset — a genuine semantic divergence.
        let a = vec![alloc(1, 0x1000, 8), store(0x1004)];
        let b = vec![alloc(1, 0x2000, 8), store(0x2000)];
        let d = diff(&a, &b, 4).expect("differs");
        assert_eq!(d.index, 1);
        assert_eq!(d.left, Some(store(0x1004)));
        assert_eq!(d.right, Some(store(0x2000)));
        assert_eq!(d.context.len(), 1);
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let a = vec![store(0x1000), MemEvent::Exit(0)];
        let b = vec![store(0x1000)];
        let d = diff(&a, &b, 1).expect("differs");
        assert_eq!(d.index, 1);
        assert_eq!(d.left, Some(MemEvent::Exit(0)));
        assert_eq!(d.right, None);
        let rendered = render_diff(&d);
        assert!(rendered.contains("(stream ends)"), "{rendered}");
        assert!(rendered.contains("< [1] exit 0"), "{rendered}");
    }

    #[test]
    fn free_rejoins_its_allocation() {
        // Free carries the *reserved* end; normalization keys on base.
        let a = vec![
            alloc(1, 0x1000, 6),
            MemEvent::Free {
                id: 1,
                base: 0x1000,
                end: 0x1008,
                dynamic: true,
            },
        ];
        let b = vec![
            alloc(1, 0x9000, 6),
            MemEvent::Free {
                id: 1,
                base: 0x9000,
                end: 0x9008,
                dynamic: true,
            },
        ];
        assert_eq!(diff(&a, &b, 2), None);
    }

    #[test]
    fn context_window_is_bounded() {
        let a: Vec<MemEvent> = (0..10).map(|i| store(0x1000 + i * 4)).collect();
        let mut b = a.clone();
        b[9] = store(0x9999);
        let d = diff(&a, &b, 3).expect("differs");
        assert_eq!(d.index, 9);
        assert_eq!(d.context.len(), 3);
        assert_eq!(d.context[0], store(0x1000 + 6 * 4));
    }
}
