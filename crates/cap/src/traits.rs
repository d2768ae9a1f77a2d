//! The abstract capability interface.
//!
//! §4.1 of the paper defines abstract capabilities "as a Coq module type
//! which defines an opaque capability type and operations on it", with Arm
//! Morello chosen for the implementation-defined aspects. [`Capability`] is
//! that module type as a Rust trait. The CHERI C memory object model and the
//! interpreter are generic over it, which is what makes the semantics
//! portable across architectures (§3.10).

use std::fmt;
use std::hash::Hash;

use crate::{GhostState, OType, Perms};

/// Decoded capability bounds: a half-open interval `[base, top)` of virtual
/// addresses. `top` is `u128` because the top bound of a full-address-space
/// capability is 2^64, one past the largest address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Bounds {
    /// Inclusive lower bound.
    pub base: u64,
    /// Exclusive upper bound (at most 2^64).
    pub top: u128,
}

impl Bounds {
    /// Construct bounds from base and length.
    #[must_use]
    pub fn new(base: u64, length: u64) -> Self {
        Bounds {
            base,
            top: base as u128 + length as u128,
        }
    }

    /// The length of the region, saturating at `u64::MAX` for the full
    /// address space.
    #[must_use]
    pub fn length(&self) -> u64 {
        u64::try_from(self.top.saturating_sub(self.base as u128)).unwrap_or(u64::MAX)
    }

    /// Does `[addr, addr+size)` lie entirely within these bounds?
    #[must_use]
    pub fn contains_range(&self, addr: u64, size: u64) -> bool {
        addr >= self.base && (addr as u128 + size as u128) <= self.top
    }

    /// Does a single address lie within these bounds?
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        (addr as u128) >= (self.base as u128) && (addr as u128) < self.top
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}-{:#x}", self.base, self.top)
    }
}

/// Why a seal or unseal operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SealError {
    /// The authority capability lacks the `SEAL`/`UNSEAL` permission.
    MissingPermission,
    /// The authority capability is untagged or itself sealed.
    InvalidAuthority,
    /// The authority's address (the otype to use) is outside its bounds.
    OTypeOutOfBounds,
    /// The target capability is already sealed (for seal) or not sealed with
    /// the authority's otype (for unseal).
    WrongSealedness,
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SealError::MissingPermission => "authority lacks seal/unseal permission",
            SealError::InvalidAuthority => "authority capability is invalid",
            SealError::OTypeOutOfBounds => "object type outside authority bounds",
            SealError::WrongSealedness => "target capability has the wrong sealedness",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SealError {}

/// The abstract capability interface of §4.1.
///
/// Implementations are pure values: every operation returns a new capability.
/// The central architectural invariant — *monotonicity / unforgeability* — is
/// expressed by the contracts below: no operation ever yields a tagged
/// capability whose bounds or permissions exceed those of a tagged input.
///
/// Operations that would produce a non-representable capability (§3.2)
/// **clear the tag but keep the requested address**, matching the behaviour
/// of all current CHERI architectures (the trap-on-construct alternative
/// "turns out to be less useful").
pub trait Capability: Clone + PartialEq + Eq + Hash + fmt::Debug {
    /// Number of bits in a virtual address (64 for Morello, 32 for CHERIoT).
    const ADDR_BITS: u32;
    /// Size in bytes of the in-memory representation, excluding the tag.
    const CAP_BYTES: usize;
    /// Alignment in bytes required for a tagged in-memory capability.
    const CAP_ALIGN: usize = Self::CAP_BYTES;
    /// Width of the object-type field.
    const OTYPE_BITS: u32;
    /// Human-readable architecture name, e.g. `"morello"`.
    const ARCH_NAME: &'static str;

    /// The NULL capability: untagged, zero address, zero metadata, bounds
    /// covering the whole address space (so that out-of-bounds arithmetic on
    /// null-derived `(u)intptr_t` values stays representable).
    fn null() -> Self;

    /// The root (maximally permissive) capability: tagged, all permissions,
    /// bounds covering the entire address space.
    fn root() -> Self;

    /// The value of the address field.
    fn address(&self) -> u64;

    /// The decoded bounds.
    fn bounds(&self) -> Bounds;

    /// The tag: true iff this capability is valid for use.
    fn tag(&self) -> bool;

    /// The permission set.
    fn perms(&self) -> Perms;

    /// The object type. [`OType::UNSEALED`] iff not sealed.
    fn otype(&self) -> OType;

    /// The architecture-specific flags field.
    fn flags(&self) -> u8;

    /// The abstract-machine ghost state attached to this value.
    fn ghost(&self) -> GhostState;

    /// Is this capability sealed?
    fn is_sealed(&self) -> bool {
        self.otype().is_sealed()
    }

    /// Replace the ghost state (abstract-machine bookkeeping only).
    #[must_use]
    fn with_ghost(&self, ghost: GhostState) -> Self;

    /// Set the address field. If the new address is not representable with
    /// this capability's bounds encoding, the tag is cleared and the decoded
    /// bounds may change (§3.2); the address is always exactly `addr`.
    /// Setting the address of a sealed capability also clears the tag.
    #[must_use]
    fn with_address(&self, addr: u64) -> Self;

    /// Narrow the bounds to `[base, base+length)`, rounding outward to the
    /// nearest representable bounds if necessary (like the `CSetBounds`
    /// instruction / `cheri_bounds_set` intrinsic). Clears the tag if the
    /// requested region is not contained in the current bounds, if the
    /// capability is sealed, or if it is untagged.
    #[must_use]
    fn with_bounds(&self, base: u64, length: u64) -> Self;

    /// Like [`Capability::with_bounds`] but clears the tag if the requested
    /// bounds are not exactly representable (`cheri_bounds_set_exact`).
    #[must_use]
    fn with_bounds_exact(&self, base: u64, length: u64) -> Self;

    /// Intersect the permissions with `mask` (`cheri_perms_and`); clears the
    /// tag on sealed capabilities.
    #[must_use]
    fn with_perms_and(&self, mask: Perms) -> Self;

    /// Set the flags field (does not affect the tag; flags take part in
    /// bounds compression on some architectures but not in our profiles).
    #[must_use]
    fn with_flags(&self, flags: u8) -> Self;

    /// Clear the tag (`cheri_tag_clear`).
    #[must_use]
    fn clear_tag(&self) -> Self;

    /// Is `addr` representable with this capability's bounds encoding, i.e.
    /// would [`Capability::with_address`] preserve the decoded bounds?
    fn is_representable(&self, addr: u64) -> bool;

    /// Seal this capability with the object type given by `auth.address()`.
    ///
    /// # Errors
    ///
    /// See [`SealError`] for the failure cases.
    fn seal(&self, auth: &Self) -> Result<Self, SealError>;

    /// Unseal this capability using `auth`, whose address must equal the
    /// sealed object type.
    ///
    /// # Errors
    ///
    /// See [`SealError`] for the failure cases.
    fn unseal(&self, auth: &Self) -> Result<Self, SealError>;

    /// Seal as a sentry (sealed entry) capability.
    #[must_use]
    fn seal_entry(&self) -> Self;

    /// The in-memory representation, excluding the tag, in little-endian
    /// byte order. Exactly [`Capability::CAP_BYTES`] bytes.
    fn encode(&self) -> Vec<u8> {
        let mut bytes = vec![0; Self::CAP_BYTES];
        self.encode_into(&mut bytes);
        bytes
    }

    /// [`Capability::encode`] into `out`, which must be exactly
    /// [`Capability::CAP_BYTES`] long, without allocating.
    fn encode_into(&self, out: &mut [u8]);

    /// Decode an in-memory representation. Returns `None` if `bytes` has the
    /// wrong length; a malformed body decodes to an untagged capability
    /// rather than failing (hardware never traps on loads of bad bit
    /// patterns, it just won't let you use them).
    fn decode(bytes: &[u8], tag: bool) -> Option<Self>;

    /// Exact equality of all architectural fields including the tag
    /// (`cheri_is_equal_exact`). Ghost state is *not* compared here — the
    /// memory model decides whether the result is unspecified (§3.6).
    fn exact_eq(&self, other: &Self) -> bool {
        self.encode() == other.encode() && self.tag() == other.tag()
    }

    /// Is this capability derived from NULL (untagged with empty metadata)?
    fn is_null_derived(&self) -> bool {
        !self.tag() && self.perms().is_empty() && !self.is_sealed()
    }

    /// The representable length for a requested length (the
    /// `cheri_representable_length` intrinsic): the smallest length `>=
    /// length` for which bounds `[0, len)` are exactly representable.
    fn representable_length(length: u64) -> u64;

    /// Alignment mask for a requested length
    /// (`cheri_representable_alignment_mask`): aligning the base to this
    /// mask (and padding the length to [`Capability::representable_length`])
    /// guarantees exactly representable bounds.
    fn representable_alignment_mask(length: u64) -> u64;
}
