//! Event sinks: where emitted [`MemEvent`]s go.
//!
//! The memory model holds a [`SinkHandle`] — an `Option<Box<dyn EventSink>>`
//! behind a tiny facade. With no sink installed, emitting is a single branch
//! on that `Option` and the event-constructing closure is never run. With a
//! sink installed, construction is zero-allocation for typical events
//! (names inline up to 22 bytes) and the sink decides what to retain:
//! everything ([`VecSink`]) or nothing beyond a streamed binary trace
//! ([`StreamSink`]).

use std::any::Any;
use std::io::{self, Write};

use crate::event::MemEvent;

/// A consumer of memory events.
///
/// Implementations must not assume they see a complete run: the memory
/// model emits events as they happen and a run can stop at any point (UB,
/// trap, test harness bailout).
pub trait EventSink: Any {
    /// Consume one event. The event is borrowed: sinks that retain events
    /// clone them (cheap — at most one small-string heap clone).
    fn emit(&mut self, ev: &MemEvent);

    /// Flush any buffered output (meaningful for streaming sinks).
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Downcasting support so callers can recover a concrete sink from a
    /// `Box<dyn EventSink>` (e.g. to take the collected events back out).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The memory model's slot for an optional sink.
///
/// `Clone` yields an *empty* handle: a cloned memory state is a fresh
/// hypothetical execution, not a continuation of the observed one, so it
/// starts unobserved. This keeps `Clone` derivable on structs holding a
/// handle even though `Box<dyn EventSink>` itself is not cloneable.
#[derive(Default)]
pub struct SinkHandle(Option<Box<dyn EventSink>>);

impl SinkHandle {
    /// An empty handle (no sink installed; emitting is free).
    #[must_use]
    pub fn none() -> SinkHandle {
        SinkHandle(None)
    }

    /// Install a sink, returning the previous one if any.
    pub fn install(&mut self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        self.0.replace(sink)
    }

    /// Is a sink installed?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Emit an event, constructing it only if a sink is installed.
    ///
    /// This is *the* hot-path entry point: with no sink it compiles to a
    /// branch on the `Option` discriminant and `f` is never evaluated.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> MemEvent) {
        if let Some(sink) = self.0.as_mut() {
            sink.emit(&f());
        }
    }

    /// Mutable access to the concrete sink, if it is a `T`.
    pub fn downcast_mut<T: EventSink>(&mut self) -> Option<&mut T> {
        self.0.as_mut()?.as_any_mut().downcast_mut::<T>()
    }
}

impl Clone for SinkHandle {
    fn clone(&self) -> SinkHandle {
        SinkHandle(None)
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_active() {
            "SinkHandle(active)"
        } else {
            "SinkHandle(none)"
        })
    }
}

/// Retains every event, in order. The default sink behind `enable_trace`.
#[derive(Default, Debug)]
pub struct VecSink {
    /// The collected events.
    pub events: Vec<MemEvent>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> VecSink {
        VecSink::default()
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, ev: &MemEvent) {
        self.events.push(ev.clone());
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Streams events in the binary trace format to any writer as they happen;
/// nothing is retained in memory beyond the writer's own buffer.
pub struct StreamSink<W: Write + 'static> {
    writer: crate::binfmt::TraceWriter<W>,
    /// First I/O error encountered, if any (emitting cannot fail, so errors
    /// are latched here and surfaced by [`EventSink::flush`]).
    pub error: Option<io::Error>,
}

impl<W: Write + 'static> StreamSink<W> {
    /// Wrap a writer; the format header is written immediately.
    ///
    /// # Errors
    /// Fails if writing the header fails.
    pub fn new(w: W) -> io::Result<StreamSink<W>> {
        Ok(StreamSink {
            writer: crate::binfmt::TraceWriter::new(w)?,
            error: None,
        })
    }

    /// Unwrap the inner writer (flushing first is the caller's business).
    #[must_use]
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

impl<W: Write + 'static> EventSink for StreamSink<W> {
    fn emit(&mut self, ev: &MemEvent) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write_event(ev) {
                self.error = Some(e);
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_load(addr: u64) -> MemEvent {
        MemEvent::Load {
            addr,
            size: 4,
            intptr: false,
        }
    }

    #[test]
    fn handle_emit_is_lazy_when_empty() {
        let mut h = SinkHandle::none();
        assert!(!h.is_active());
        let mut ran = false;
        h.emit_with(|| {
            ran = true;
            ev_load(0)
        });
        assert!(!ran, "closure must not run with no sink installed");
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut h = SinkHandle::none();
        h.install(Box::new(VecSink::new()));
        for a in 0..5 {
            h.emit_with(|| ev_load(a));
        }
        let sink = h.downcast_mut::<VecSink>().expect("is VecSink");
        assert_eq!(sink.events.len(), 5);
        assert_eq!(sink.events[3], ev_load(3));
    }

    #[test]
    fn clone_of_handle_is_empty() {
        let mut h = SinkHandle::none();
        h.install(Box::new(VecSink::new()));
        let h2 = h.clone();
        assert!(h.is_active());
        assert!(!h2.is_active());
        assert_eq!(format!("{h:?}"), "SinkHandle(active)");
    }
}
