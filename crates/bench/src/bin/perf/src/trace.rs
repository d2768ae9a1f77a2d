//! Spans recorded around the calls into each layer, their self-time
//! aggregation, and the `trace.jsonl` writer.
//!
//! Spans stay in memory while the traced run executes and are written out
//! at the end, so writing costs nothing inside a span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc::{thread_count, Count};

/// One timed call. `allocs` and `bytes` are inclusive of child spans and
/// count the recording thread's allocations only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder's span list.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The job the span belongs to (`None` for set-up work).
    pub job: Option<u32>,
    /// Layer or stage name.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Heap allocations made during the span.
    pub allocs: u64,
    /// Heap bytes requested during the span.
    pub bytes: u64,
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Count)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a top-level span for `job`.
    pub fn root(&mut self, job: Option<u32>, name: &'static str) {
        assert!(
            self.open.is_empty(),
            "root span {name} opened inside another span"
        );
        self.push(None, job, name);
    }

    /// Open a span inside the innermost open one (same job).
    pub fn enter(&mut self, name: &'static str) {
        let &(parent, _) = self.open.last().expect("enter needs an open span");
        let job = self.spans[parent].job;
        self.push(Some(parent), job, name);
    }

    fn push(&mut self, parent: Option<usize>, job: Option<u32>, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(Span {
            id: u32::try_from(id).expect("fewer than 2^32 spans"),
            parent: parent.map(|p| self.spans[p].id),
            job,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
        });
        self.open.push((id, Count::default()));
        // Read the counters and the clock last, so that the recorder's own
        // bookkeeping falls outside the span.
        self.open.last_mut().expect("just pushed").1 = thread_count();
        self.spans[id].start_ns = self.now_ns();
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let (id, before) = self.open.pop().expect("exit needs an open span");
        let used = thread_count().since(before);
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = used.allocs;
        span.bytes = used.bytes;
    }

    /// Time `f` as a span inside the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's own cost: its duration minus the part of it that child spans
/// cover, and its allocations minus its children's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfCost {
    /// Self time in ns.
    pub ns: u64,
    /// Self allocations.
    pub allocs: u64,
    /// Self bytes.
    pub bytes: u64,
}

/// The self cost of every span, indexed like `spans`. Span ids must equal
/// their index (as [`Recorder`] makes them).
#[must_use]
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push(s.id as usize);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(s.start_ns),
                        spans[k].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let kid_allocs: u64 = kids.iter().map(|&k| spans[k].allocs).sum();
            let kid_bytes: u64 = kids.iter().map(|&k| spans[k].bytes).sum();
            SelfCost {
                ns: s.end_ns - s.start_ns - covered,
                allocs: s.allocs.saturating_sub(kid_allocs),
                bytes: s.bytes.saturating_sub(kid_bytes),
            }
        })
        .collect()
}

/// Self costs summed per span name, with the number of spans.
#[must_use]
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, SelfCost)> {
    let mut out: BTreeMap<&'static str, (u64, SelfCost)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(self_costs(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1.ns += c.ns;
        e.1.allocs += c.allocs;
        e.1.bytes += c.bytes;
    }
    out
}

/// Write one JSON object per span.
///
/// # Errors
///
/// Returns any error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let opt = |v: Option<u32>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{}}}",
            s.id,
            opt(s.parent),
            opt(s.job),
            s.name,
            s.start_ns,
            s.end_ns,
            s.allocs,
            s.bytes
        );
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: u64,
        end: u64,
        allocs: u64,
    ) -> Span {
        Span {
            id,
            parent,
            job: Some(0),
            name,
            start_ns: start,
            end_ns: end,
            allocs,
            bytes: allocs * 8,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span(0, None, "job", 0, 100, 10),
            span(1, Some(0), "a", 10, 30, 2),
            span(2, Some(0), "b", 40, 70, 5),
            span(3, Some(2), "c", 50, 60, 1),
        ];
        let c = self_costs(&spans);
        assert_eq!(c.iter().map(|c| c.ns).collect::<Vec<_>>(), [50, 20, 20, 10]);
        assert_eq!(c.iter().map(|c| c.allocs).collect::<Vec<_>>(), [3, 2, 4, 1]);
        assert_eq!(c[0].bytes, 24);
        // Self times of a tree add up to the root's duration.
        assert_eq!(c.iter().map(|c| c.ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, None, "job", 0, 100, 0),
            span(1, Some(0), "a", 10, 30, 0),
            span(2, Some(0), "b", 20, 40, 0),
            span(3, Some(0), "c", 90, 120, 0),
        ];
        assert_eq!(self_costs(&spans)[0].ns, 100 - 30 - 10);
    }

    #[test]
    fn recorder_nests_and_aggregates_by_name() {
        let mut r = Recorder::default();
        r.root(Some(7), "job");
        let v = r.span("alloc", || vec![1u8; 100]);
        r.enter("outer");
        r.span("alloc", || drop(vec![2u8; 10]));
        r.exit();
        r.exit();
        assert_eq!(v.len(), 100);
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|s| s.job == Some(7) && s.start_ns <= s.end_ns));
        let agg = by_name(s);
        assert_eq!(agg["alloc"].0, 2);
        assert_eq!(agg["alloc"].1.allocs, 2);
        assert_eq!(agg["alloc"].1.bytes, 110);
        assert_eq!(agg["outer"].1.allocs, 0);
        let total: u64 = self_costs(s).iter().map(|c| c.ns).sum();
        assert_eq!(total, s[0].end_ns - s[0].start_ns);
    }
}
