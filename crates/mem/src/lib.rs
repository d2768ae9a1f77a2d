//! The CHERI C memory object model, in Rust.
//!
//! This crate is the Rust counterpart of the paper's Coq memory object model
//! (§4.3 of *Formal Mechanised Semantics of CHERI C*, ASPLOS 2024): the
//! state `mem_state ≜ A × S × M` with `M ≜ B × C`, where
//!
//! * `A` is the allocation map ([`Allocation`], [`AllocId`]),
//! * `S` is PNVI-ae-udi provenance bookkeeping ([`Provenance`], iotas),
//! * `B` is the byte map (`ℤ ⇀ AbsByte`, [`AbsByte`]),
//! * `C` is the capability-metadata map: per capability-aligned slot, a tag
//!   and a two-bit ghost state ([`SlotMeta`]).
//!
//! `B` and `C` are stored per allocation (a byte buffer and a
//! [`CapSlotBits`] bitset over its reserved footprint), with a sparse spill
//! ([`CapMeta`] for slots) for the addresses between footprints.
//!
//! The central type is [`CheriMemory`], generic over the capability model
//! ([`cheri_cap::Capability`]). Three configurations cover the paper's
//! experimental axes (see [`MemConfig`]):
//!
//! * [`MemConfig::cheri_reference`] — the abstract CHERI C machine
//!   (capability checks *and* UB detection; Cerberus-like).
//! * [`MemConfig::cheri_hardware`] — emulates a real implementation:
//!   capability traps only, deterministic tag clearing, and a configurable
//!   allocator address layout (this is what differentiates the
//!   clang/gcc rows of Appendix A).
//! * [`MemConfig::iso_baseline`] — the ISO C PNVI-ae-udi concrete model with
//!   machine-word pointers and no capabilities (§2.3), used as the
//!   comparison baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absbyte;
mod allocation;
mod capmeta;
mod cheri;
mod index;
mod layout;
mod provenance;
mod ub;
mod value;

pub use absbyte::{recover_provenance, AbsByte};
pub use allocation::Allocation;
pub use capmeta::{CapMeta, CapSlotBits, SlotMeta, TagInvalidation};
pub use cheri::{CheriMemory, MemConfig, MemStats};
pub use layout::AddressLayout;
pub use provenance::{AllocId, IotaId, IotaState, Provenance};
pub use ub::{MemError, MemResult, TrapKind, Ub};
pub use value::{IntVal, MemVal, PtrVal};

// Re-exported observability vocabulary (the types `CheriMemory` emits);
// see the `cheri-obs` crate for sinks, renderers, binary traces, diffing.
pub use cheri_obs::{AllocClass, EventKind, MemEvent, TagClearReason};

/// The baseline ISO C memory model: [`CheriMemory`] in non-capability mode.
///
/// The capability type parameter is still needed as the address-width
/// carrier; use [`new_baseline`] to construct one.
pub type ConcreteMemory<C> = CheriMemory<C>;

/// Construct the baseline ISO C (PNVI-ae-udi, machine-word pointer) model.
#[must_use]
pub fn new_baseline<C: cheri_cap::Capability>() -> ConcreteMemory<C> {
    CheriMemory::new(MemConfig::iso_baseline())
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
