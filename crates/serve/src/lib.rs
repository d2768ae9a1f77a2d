//! `cheri-serve` — a long-lived, batched, multi-threaded
//! differential-execution service over the CHERI C semantics.
//!
//! Every other entry point in this workspace builds a fresh world per
//! invocation: parse, type-check, lower, allocate, run, throw everything
//! away. That is the right shape for a single differential check and the
//! wrong shape for sustained traffic — the ROADMAP's "heavy traffic, as
//! fast as the hardware allows" target means amortizing the front end and
//! the allocator across jobs. This crate provides that engine:
//!
//! * **Jobs**, not invocations ([`job`]): a [`JobSpec`] names a program
//!   source, a profile set, and a mode — [`Mode::Run`] (execute),
//!   [`Mode::Lint`] (static analysis), or [`Mode::TraceDiff`] (execute
//!   under every profile and diff the event streams against the first).
//! * **A program cache** ([`cache`]): a program is parsed and
//!   type-checked **once** per pointer size, then optimised and lowered
//!   **once** per compile key (source × pointer size × optimisation
//!   fingerprint, see [`CompileKey`]), and every result is shared
//!   immutably via [`std::sync::Arc`] across profiles, jobs and worker
//!   threads. Entries are keyed on the source text, not on a hash of it.
//! * **A worker pool with arena reuse** ([`service`]): jobs fan out over
//!   `std::thread` workers pulling from a shared queue; each worker keeps
//!   one [`cheri_mem::CheriMemory`] arena and *resets* it between jobs
//!   (capacity-preserving, observably identical to a fresh instance)
//!   instead of reallocating a world per program.
//! * **Deterministic ordered collection**: results flow back over an
//!   `mpsc` channel tagged with submission indices and are re-ordered
//!   before emission, so the output of a batch is byte-identical whatever
//!   the worker count — pinned by `tests/batch_determinism.rs` over the
//!   oracle corpus and by the `bench_pr9` gate.
//!
//! The CLI fronts this with `cheri-c --batch <manifest>` (one job per
//! manifest line) and `cheri-c --serve` (jobs streamed on stdin, results
//! streamed in submission order); `--jobs N` sets the worker count.
//!
//! Everything is hermetic: `std::thread` + `std::sync::mpsc`, no external
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod service;

pub use cache::{CachedProgram, CompileKey, ProgramCache};
pub use job::{
    fast_variant, load_manifest, parse_job_line, profile_by_name, profiles_from_spec, JobOutput,
    JobSpec, Mode, ProfileOutcome, PROFILE_NAMES,
};
pub use service::{execute_job, run_batch, Service};

#[cfg(test)]
mod tests;
