//! `cheri-qc` — the workspace's hermetic QC toolkit.
//!
//! The repo's headline claim (§7 of the paper) is that an *executable*
//! semantics can serve as a test oracle for randomly generated programs.
//! That only means something if the random-testing machinery itself runs
//! everywhere the semantics does — including fully offline. This crate
//! provides the two ingredients with **zero external dependencies**:
//!
//! * [`rng`] — deterministic PRNG ([`rng::SplitMix64`] for seeding,
//!   xoshiro256++ [`rng::Rng`] for generation) with a `rand`-shaped API;
//! * [`prop`] — a property-test harness: deterministic case generation,
//!   seed-pinned replay via `CHERI_QC_SEED`, and input [`prop::Shrink`]ing.
//!
//! [`mod@bench`] only re-exports [`std::hint::black_box`] for the `perf`
//! benchmark package; every speed figure comes from that benchmark.
//!
//! Everything is deterministic by construction: no entropy, no wall-clock
//! input to generation, the same seeds on every platform and every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod prop;
pub mod rng;

pub use prop::{check, Config, Shrink};
pub use rng::{Rng, SplitMix64};
