//! `cheri-obs` — structured event tracing and metrics for the CHERI C
//! executable semantics.
//!
//! The paper's semantics is valuable because it is *observable*: §5
//! validates implementations by comparing behaviours, and the interesting
//! artifact of a comparison is *where* two runs diverge. This crate is the
//! observability layer the memory model (`cheri-mem`) and interpreter
//! (`cheri-core`) emit into:
//!
//! * [`event`] — the typed [`MemEvent`] vocabulary (one variant per
//!   observable action of the §4.3 memory object model);
//! * [`sink`] — the zero-cost-when-off [`EventSink`] plumbing: with no
//!   sink installed, emitting is a branch on an `Option` and the event is
//!   never even constructed;
//! * [`binfmt`] — the `CHOB` compact binary trace format (varint-encoded,
//!   versioned header, streamable);
//! * [`render`] — text and JSON renderers; [`render::legacy_line`] is
//!   byte-identical to the pre-`cheri-obs` `--trace` output;
//! * [`diag`] — structured [`Diagnostic`] records (severity, verdict class,
//!   position, paper anchor) with text and JSON renderers, used by the
//!   `cheri-lint` static analyzer;
//! * [`mod@diff`] — the [`TraceDiff`] engine aligning two event streams
//!   (optionally normalizing addresses to allocation-relative coordinates)
//!   and reporting the first divergence with context;
//! * [`kinds`] — the [`Ub`] and [`TrapKind`] taxonomies (moved here from
//!   `cheri-mem` so events can carry them; `cheri-mem` re-exports them).
//!
//! The crate is a leaf: `std` only, no workspace dependencies, so every
//! layer of the stack can emit events without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod diag;
pub mod diff;
pub mod event;
pub mod kinds;
pub mod render;
pub mod sink;

pub use diag::{render_diagnostics_json, render_diagnostics_text, DiagSeverity, Diagnostic};
pub use diff::{diff, render_diff, render_profile_diffs, Normalizer, TraceDiff};
pub use event::{
    AllocClass, EventKind, MemEvent, Name, TagClearReason, EVENT_KINDS, TAG_CLEAR_REASONS,
};
pub use kinds::{TrapKind, Ub, ALL_TRAPS, ALL_UBS};
pub use sink::{EventSink, SinkHandle, StreamSink, VecSink};
