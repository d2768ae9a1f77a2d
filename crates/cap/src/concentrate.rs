//! CHERI-Concentrate-style compressed capability encoding.
//!
//! §2.1 of the paper: "A sophisticated compression scheme allows a capability
//! to include 64-bit lower and upper bounds ... Small regions can be
//! described precisely, with an arbitrary size in bytes, while for larger
//! regions, only certain combinations of bounds and size are representable."
//!
//! This module implements that scheme following the CHERI Concentrate design
//! (Woodruff et al., IEEE TC 2019; CHERI ISA v8 §3.5), parametric in the
//! address width and mantissa width so one algorithm serves both the
//! Morello-style 128-bit format and the CHERIoT-style 64-bit format:
//!
//! * Bounds are stored as a bottom field `B` (MW bits) and a truncated top
//!   field `T` (MW−2 bits) relative to the address, with an *internal
//!   exponent* bit `IE`.
//! * `IE = 0`: exponent `E = 0`; byte-granular bounds for lengths below
//!   2^(MW−2).
//! * `IE = 1`: the low three bits of `B` and `T` hold the 6-bit exponent
//!   `E`; mantissa granules are 2^(E+3) bytes and the top two bits of `T`
//!   are reconstructed from `B`, a carry, and an implied length MSB.
//! * An address is *representable* for given bounds fields iff moving the
//!   address does not change the decoded bounds; operations producing
//!   non-representable combinations clear the tag but keep the address
//!   (§3.2 of the paper).

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

use crate::{Bounds, Capability, GhostState, OType, Perms, SealError};

/// Static parameters of a concrete capability format.
///
/// Implementations are zero-sized marker types; see [`MorelloProfile`] and
/// [`CheriotProfile`].
pub trait CcProfile:
    Clone + Copy + PartialEq + Eq + Hash + fmt::Debug + Default + 'static
{
    /// Virtual address width in bits.
    const ADDR_BITS: u32;
    /// Mantissa width: the number of stored bits of the bottom bound.
    const MW: u32;
    /// Size of the encoded capability in bytes (excluding the tag).
    const CAP_BYTES: usize;
    /// Object type field width in bits.
    const OTYPE_BITS: u32;
    /// Bit offset of the object type field in the encoded form.
    const OTYPE_OFF: u32;
    /// Bit offset of the permissions field in the encoded form.
    const PERMS_OFF: u32;
    /// Permissions representable by this format, in encoding order (bit 0
    /// of the encoded permission field first).
    const PERMS_MAP: &'static [Perms];
    /// Human-readable architecture name.
    const ARCH_NAME: &'static str;

    /// Largest exponent: with `E = E_MAX` the bounds cover the whole
    /// address space.
    const E_MAX: u32 = Self::ADDR_BITS - Self::MW + 2;
}

/// The Morello-style 128-bit profile: 64-bit addresses, 14-bit mantissa,
/// 15-bit object types and the Figure 1 field layout (`otype[14:0]` at bit
/// 95, `perms[17:0]` at bit 110).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MorelloProfile;

impl CcProfile for MorelloProfile {
    const ADDR_BITS: u32 = 64;
    const MW: u32 = 14;
    const CAP_BYTES: usize = 16;
    const OTYPE_BITS: u32 = 15;
    const OTYPE_OFF: u32 = 95;
    const PERMS_OFF: u32 = 110;
    const PERMS_MAP: &'static [Perms] = &[
        Perms::GLOBAL,
        Perms::EXECUTIVE,
        Perms::USER0,
        Perms::USER1,
        Perms::USER2,
        Perms::USER3,
        Perms::MUTABLE_LOAD,
        Perms::COMPARTMENT_ID,
        Perms::BRANCH_SEALED_PAIR,
        Perms::SYSTEM,
        Perms::UNSEAL,
        Perms::SEAL,
        Perms::STORE_LOCAL_CAP,
        Perms::STORE_CAP,
        Perms::LOAD_CAP,
        Perms::EXECUTE,
        Perms::STORE,
        Perms::LOAD,
    ];
    const ARCH_NAME: &'static str = "morello";
}

/// The CHERIoT-style 64-bit profile: 32-bit addresses, 10-bit mantissa,
/// 3-bit object types, 9 permissions. Byte-granular bounds for objects up to
/// 2^8−1 = 255 bytes; the paper (§3.3) notes CHERIoT provides byte
/// granularity for small objects, unlike the conservative 64-bit rule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct CheriotProfile;

impl CcProfile for CheriotProfile {
    const ADDR_BITS: u32 = 32;
    const MW: u32 = 10;
    const CAP_BYTES: usize = 8;
    const OTYPE_BITS: u32 = 3;
    const OTYPE_OFF: u32 = 52;
    const PERMS_OFF: u32 = 55;
    const PERMS_MAP: &'static [Perms] = &[
        Perms::GLOBAL,
        Perms::LOAD,
        Perms::STORE,
        Perms::LOAD_CAP,
        Perms::STORE_CAP,
        Perms::STORE_LOCAL_CAP,
        Perms::EXECUTE,
        Perms::SEAL,
        Perms::UNSEAL,
    ];
    const ARCH_NAME: &'static str = "cheriot";
}

/// A compressed capability over profile `P`.
///
/// The bounds are stored *encoded* (fields `b`, `t`, `ie`), not decoded —
/// this is what makes representability a real phenomenon rather than a
/// simulation: [`Capability::bounds`] genuinely decompresses, and address
/// updates genuinely check representability against the stored fields.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CcCap<P: CcProfile> {
    tag: bool,
    address: u64,
    /// Bottom bound field, `MW` stored bits.
    b: u16,
    /// Top bound field, `MW − 2` stored bits.
    t: u16,
    /// Internal exponent flag.
    ie: bool,
    /// Memoised decode of `(b, t, ie, address)`: every constructor refreshes
    /// it whenever one of those fields changes, so `bounds()` is a field read
    /// and representability checks need one decode instead of two. Being a
    /// pure function of the other fields it is safe to include in the derived
    /// `PartialEq`/`Hash`, and it is deliberately *not* part of the encoded
    /// form ([`CcCap::to_bits`] / [`CcCap::from_bits`]).
    decoded_bounds: Bounds,
    perms: Perms,
    otype: OType,
    flags: u8,
    ghost: GhostState,
    _profile: PhantomData<P>,
}

#[inline]
fn mask_u64(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[inline]
fn mask_u128(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// The decoded (reconstructed) bounds fields before scaling.
#[derive(Clone, Copy, Debug)]
struct Reconstructed {
    e: u32,
    /// Full MW-bit bottom.
    b: u64,
    /// Full MW-bit top (top two bits derived).
    t: u64,
}

impl<P: CcProfile> CcCap<P> {
    const MW: u32 = P::MW;
    const A: u32 = P::ADDR_BITS;

    fn addr_mask() -> u64 {
        mask_u64(P::ADDR_BITS)
    }

    /// Reconstruct exponent and full MW-bit bounds fields from the stored
    /// compressed fields (CHERI ISA v8 §3.5.4 decoding step 1).
    fn reconstruct(b: u16, t: u16, ie: bool) -> Reconstructed {
        let mw = Self::MW;
        let (e, bfull, tlow, lmsb) = if ie {
            let e = (((t as u32) & 7) << 3) | ((b as u32) & 7);
            (
                e.min(P::E_MAX),
                (b as u64) & !7 & mask_u64(mw),
                (t as u64) & !7 & mask_u64(mw - 2),
                1u64,
            )
        } else {
            (0, (b as u64) & mask_u64(mw), (t as u64) & mask_u64(mw - 2), 0u64)
        };
        // Carry into the top two bits of T: set when the stored top mantissa
        // is numerically below the corresponding bits of B.
        let blow = bfull & mask_u64(mw - 2);
        let carry = u64::from(tlow < blow);
        let btop2 = bfull >> (mw - 2);
        let ttop2 = (btop2 + lmsb + carry) & 3;
        Reconstructed {
            e,
            b: bfull,
            t: (ttop2 << (mw - 2)) | tlow,
        }
    }

    /// Decode the bounds these fields denote for a capability whose address
    /// is `addr` (CHERI ISA v8 §3.5.4 decoding step 2: region corrections).
    fn bounds_for(b: u16, t: u16, ie: bool, addr: u64) -> Bounds {
        let mw = Self::MW;
        let a = Self::A;
        let r = Self::reconstruct(b, t, ie);
        let e = r.e;
        let amid = (addr >> e) & mask_u64(mw);
        // Lower edge of the representable region: R = (B[MW-1:MW-3] - 1) ‖ 0...
        let rr = ((r.b >> (mw - 3)).wrapping_sub(1) << (mw - 3)) & mask_u64(mw);
        let a_in_low = amid < rr;
        let correction = |v: u64| -> i128 {
            let v_in_low = v < rr;
            if v_in_low == a_in_low {
                0
            } else if v_in_low {
                1
            } else {
                -1
            }
        };
        let shift = e + mw;
        let atop: i128 = if shift >= a {
            0
        } else {
            (addr >> shift) as i128
        };
        let base = (((atop + correction(r.b)) << shift) + ((r.b as i128) << e)) as u128
            & mask_u128(a);
        let mut top = ((((atop + correction(r.t)) << shift) + ((r.t as i128) << e)) as u128)
            & mask_u128(a + 1);
        // Final adjustment so that top lands within the address space above
        // base (CHERI ISA v8: invert t[64] when t[64:63] − b[63] > 1).
        if e < P::E_MAX.saturating_sub(1) {
            let thi = ((top >> (a - 1)) & 3) as u64;
            let bhi = ((base >> (a - 1)) & 1) as u64;
            if (thi.wrapping_sub(bhi) & 3) > 1 {
                top ^= 1u128 << a;
            }
        }
        Bounds {
            base: base as u64,
            top,
        }
    }

    /// Compute encoded bounds fields covering `[req_base, req_top)`.
    /// Returns `(b, t, ie, exact)`; the decoded bounds always contain the
    /// request (outward rounding), and `exact` reports whether they equal it.
    fn encode_bounds(req_base: u64, req_top: u128) -> (u16, u16, bool, bool) {
        let mw = Self::MW;
        let req_base = req_base & Self::addr_mask();
        let req_top = req_top.min(1u128 << Self::A);
        let len = req_top.saturating_sub(req_base as u128);
        if len < (1u128 << (mw - 2)) {
            // IE = 0: byte-granular, always exact.
            let b = (req_base & mask_u64(mw)) as u16;
            let t = ((req_top as u64) & mask_u64(mw - 2)) as u16;
            return (b, t, false, true);
        }
        // IE = 1: find the smallest workable exponent.
        let msb = len.ilog2();
        let e0 = msb.saturating_sub(mw - 2).min(P::E_MAX);
        for e in e0..=P::E_MAX {
            let g = e + 3; // granule bits: mantissa low 3 bits hold E
            let b_units = req_base >> g;
            let t_units = (req_top + mask_u128(g)) >> g;
            let b_field = (((b_units & mask_u64(mw - 3)) << 3) | (e as u64 & 7)) as u16;
            let t_field =
                ((((t_units as u64) & mask_u64(mw - 5)) << 3) | ((e as u64 >> 3) & 7)) as u16;
            let dec = Self::bounds_for(b_field, t_field, true, req_base);
            if (dec.base as u128) <= (req_base as u128) && dec.top >= req_top {
                let exact = dec.base == req_base && dec.top == req_top;
                return (b_field, t_field, true, exact);
            }
        }
        // Fall back to the whole address space (always representable).
        let (b, t, ie, _) = Self::full_fields();
        (b, t, ie, false)
    }

    /// The bounds fields of a capability covering the entire address space.
    fn full_fields() -> (u16, u16, bool, bool) {
        let e = P::E_MAX;
        let b_field = (e & 7) as u16;
        let t_field = ((e >> 3) & 7) as u16;
        (b_field, t_field, true, true)
    }

    fn decoded(&self) -> Bounds {
        debug_assert_eq!(
            self.decoded_bounds,
            Self::bounds_for(self.b, self.t, self.ie, self.address),
            "stale bounds memo"
        );
        self.decoded_bounds
    }

    /// Pack the permissions into the profile's encoded permission field.
    fn pack_perms(perms: Perms) -> u128 {
        let mut out = 0u128;
        for (i, p) in P::PERMS_MAP.iter().enumerate() {
            if perms.contains(*p) {
                out |= 1u128 << i;
            }
        }
        out
    }

    fn unpack_perms(bits: u128) -> Perms {
        let mut out = Perms::empty();
        for (i, p) in P::PERMS_MAP.iter().enumerate() {
            if bits & (1u128 << i) != 0 {
                out |= *p;
            }
        }
        out
    }

    /// The maximal permission set representable by this profile.
    #[must_use]
    pub fn max_perms() -> Perms {
        P::PERMS_MAP
            .iter()
            .fold(Perms::empty(), |acc, p| acc | *p)
    }

    /// Bit offset of the bottom bounds field within the encoding; exposed so
    /// that the Figure 1 harness can print the genuine layout.
    #[must_use]
    pub fn field_layout() -> Vec<(&'static str, u32, u32)> {
        let b_off = P::ADDR_BITS;
        let t_off = b_off + P::MW;
        let ie_off = t_off + P::MW - 2;
        let flags_off = ie_off + 1;
        vec![
            ("address", 0, P::ADDR_BITS),
            ("bounds.B", b_off, P::MW),
            ("bounds.T", t_off, P::MW - 2),
            ("bounds.IE", ie_off, 1),
            ("flags", flags_off, 1),
            ("otype", P::OTYPE_OFF, P::OTYPE_BITS),
            ("perms", P::PERMS_OFF, P::PERMS_MAP.len() as u32),
        ]
    }

    fn to_bits(self) -> u128 {
        let mw = P::MW;
        let b_off = P::ADDR_BITS;
        let t_off = b_off + mw;
        let ie_off = t_off + mw - 2;
        let flags_off = ie_off + 1;
        let mut bits = (self.address & Self::addr_mask()) as u128;
        bits |= ((self.b as u128) & mask_u128(mw)) << b_off;
        bits |= ((self.t as u128) & mask_u128(mw - 2)) << t_off;
        bits |= (self.ie as u128) << ie_off;
        bits |= ((self.flags & 1) as u128) << flags_off;
        bits |= ((self.otype.value() as u128) & mask_u128(P::OTYPE_BITS)) << P::OTYPE_OFF;
        bits |= Self::pack_perms(self.perms) << P::PERMS_OFF;
        bits
    }

    fn from_bits(bits: u128, tag: bool) -> Self {
        let mw = P::MW;
        let b_off = P::ADDR_BITS;
        let t_off = b_off + mw;
        let ie_off = t_off + mw - 2;
        let flags_off = ie_off + 1;
        let address = (bits as u64) & Self::addr_mask();
        let b = ((bits >> b_off) & mask_u128(mw)) as u16;
        let t = ((bits >> t_off) & mask_u128(mw - 2)) as u16;
        let ie = (bits >> ie_off) & 1 != 0;
        CcCap {
            tag,
            address,
            b,
            t,
            ie,
            decoded_bounds: Self::bounds_for(b, t, ie, address),
            flags: ((bits >> flags_off) & 1) as u8,
            otype: OType::new(((bits >> P::OTYPE_OFF) & mask_u128(P::OTYPE_BITS)) as u32, P::OTYPE_BITS),
            perms: Self::unpack_perms(bits >> P::PERMS_OFF),
            ghost: GhostState::CLEAN,
            _profile: PhantomData,
        }
    }

    fn derived(&self) -> Self {
        // Helper for "copy with changes" starting points.
        *self
    }
}

impl<P: CcProfile> fmt::Debug for CcCap<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.decoded();
        write!(
            f,
            "CcCap<{}>{{ addr: {:#x}, bounds: {b}, tag: {}, perms: {}, otype: {:?}, ghost: {:?} }}",
            P::ARCH_NAME,
            self.address,
            self.tag,
            self.perms,
            self.otype,
            self.ghost,
        )
    }
}

impl<P: CcProfile> Capability for CcCap<P> {
    const ADDR_BITS: u32 = P::ADDR_BITS;
    const CAP_BYTES: usize = P::CAP_BYTES;
    const OTYPE_BITS: u32 = P::OTYPE_BITS;
    const ARCH_NAME: &'static str = P::ARCH_NAME;

    fn null() -> Self {
        let (b, t, ie, _) = Self::full_fields();
        CcCap {
            tag: false,
            address: 0,
            b,
            t,
            ie,
            decoded_bounds: Self::bounds_for(b, t, ie, 0),
            perms: Perms::empty(),
            otype: OType::UNSEALED,
            flags: 0,
            ghost: GhostState::CLEAN,
            _profile: PhantomData,
        }
    }

    fn root() -> Self {
        let (b, t, ie, _) = Self::full_fields();
        CcCap {
            tag: true,
            address: 0,
            b,
            t,
            ie,
            decoded_bounds: Self::bounds_for(b, t, ie, 0),
            perms: Self::max_perms(),
            otype: OType::UNSEALED,
            flags: 0,
            ghost: GhostState::CLEAN,
            _profile: PhantomData,
        }
    }

    fn address(&self) -> u64 {
        self.address
    }

    fn bounds(&self) -> Bounds {
        self.decoded()
    }

    fn tag(&self) -> bool {
        self.tag
    }

    fn perms(&self) -> Perms {
        self.perms
    }

    fn otype(&self) -> OType {
        self.otype
    }

    fn flags(&self) -> u8 {
        self.flags
    }

    fn ghost(&self) -> GhostState {
        self.ghost
    }

    fn with_ghost(&self, ghost: GhostState) -> Self {
        let mut c = self.derived();
        c.ghost = ghost;
        c
    }

    fn with_address(&self, addr: u64) -> Self {
        let addr = addr & Self::addr_mask();
        let mut c = self.derived();
        // One decode serves both the representability check (new bounds ==
        // memoised old bounds) and the refreshed memo.
        let at_new = Self::bounds_for(self.b, self.t, self.ie, addr);
        if self.tag && (self.is_sealed() || at_new != self.decoded_bounds) {
            c.tag = false;
        }
        c.address = addr;
        c.decoded_bounds = at_new;
        c
    }

    fn with_bounds(&self, base: u64, length: u64) -> Self {
        let req_top = base as u128 + length as u128;
        let (b, t, ie, _exact) = Self::encode_bounds(base, req_top);
        let mut c = self.derived();
        c.b = b;
        c.t = t;
        c.ie = ie;
        c.address = base & Self::addr_mask();
        let new = Self::bounds_for(b, t, ie, c.address);
        c.decoded_bounds = new;
        let old = self.decoded();
        // Monotonicity: the (possibly rounded) new bounds must stay within
        // the old ones; otherwise the result is untagged.
        if !self.tag
            || self.is_sealed()
            || (new.base as u128) < (old.base as u128)
            || new.top > old.top
        {
            c.tag = false;
        }
        c
    }

    fn with_bounds_exact(&self, base: u64, length: u64) -> Self {
        let req_top = base as u128 + length as u128;
        let (_, _, _, exact) = Self::encode_bounds(base, req_top);
        let mut c = self.with_bounds(base, length);
        if !exact {
            c.tag = false;
        }
        c
    }

    fn with_perms_and(&self, mask: Perms) -> Self {
        let mut c = self.derived();
        c.perms &= mask;
        if self.tag && self.is_sealed() {
            c.tag = false;
        }
        c
    }

    fn with_flags(&self, flags: u8) -> Self {
        let mut c = self.derived();
        c.flags = flags & 1;
        c
    }

    fn clear_tag(&self) -> Self {
        let mut c = self.derived();
        c.tag = false;
        c
    }

    fn is_representable(&self, addr: u64) -> bool {
        let addr = addr & Self::addr_mask();
        Self::bounds_for(self.b, self.t, self.ie, addr) == self.decoded_bounds
    }

    fn seal(&self, auth: &Self) -> Result<Self, SealError> {
        if !auth.tag || auth.is_sealed() {
            return Err(SealError::InvalidAuthority);
        }
        if !auth.perms.contains(Perms::SEAL) {
            return Err(SealError::MissingPermission);
        }
        if !auth.decoded().contains(auth.address) {
            return Err(SealError::OTypeOutOfBounds);
        }
        if self.is_sealed() {
            return Err(SealError::WrongSealedness);
        }
        let mut c = self.derived();
        c.otype = OType::new(auth.address as u32, P::OTYPE_BITS);
        Ok(c)
    }

    fn unseal(&self, auth: &Self) -> Result<Self, SealError> {
        if !auth.tag || auth.is_sealed() {
            return Err(SealError::InvalidAuthority);
        }
        if !auth.perms.contains(Perms::UNSEAL) {
            return Err(SealError::MissingPermission);
        }
        if !auth.decoded().contains(auth.address) {
            return Err(SealError::OTypeOutOfBounds);
        }
        if !self.is_sealed() || OType::new(auth.address as u32, P::OTYPE_BITS) != self.otype {
            return Err(SealError::WrongSealedness);
        }
        let mut c = self.derived();
        c.otype = OType::UNSEALED;
        if !auth.perms.contains(Perms::GLOBAL) {
            c.perms = c.perms - Perms::GLOBAL;
        }
        Ok(c)
    }

    fn seal_entry(&self) -> Self {
        let mut c = self.derived();
        if self.is_sealed() {
            c.tag = false;
        }
        c.otype = OType::SENTRY;
        c
    }

    fn encode_into(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_bits().to_le_bytes()[..P::CAP_BYTES]);
    }

    fn decode(bytes: &[u8], tag: bool) -> Option<Self> {
        if bytes.len() != P::CAP_BYTES {
            return None;
        }
        let mut buf = [0u8; 16];
        buf[..P::CAP_BYTES].copy_from_slice(bytes);
        Some(Self::from_bits(u128::from_le_bytes(buf), tag))
    }

    fn representable_length(length: u64) -> u64 {
        let (b, t, ie, _) = Self::encode_bounds(0, length as u128);
        Self::bounds_for(b, t, ie, 0).length()
    }

    fn representable_alignment_mask(length: u64) -> u64 {
        let len = length as u128;
        if len < (1u128 << (P::MW - 2)) {
            return u64::MAX;
        }
        let msb = len.ilog2();
        let mut e = msb.saturating_sub(P::MW - 2).min(P::E_MAX);
        // One extra exponent step if the rounded length spills over (same
        // rule as encode_bounds' search).
        let g = e + 3;
        if ((len + mask_u128(g)) >> g) << 3 >= (1u128 << (P::MW - 1)) {
            e += 1;
        }
        !mask_u64(e + 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheriotCap, MorelloCap};

    #[test]
    fn null_is_untagged_full_bounds() {
        let n = MorelloCap::null();
        assert!(!n.tag());
        assert_eq!(n.address(), 0);
        assert_eq!(n.bounds().base, 0);
        assert_eq!(n.bounds().top, 1u128 << 64);
        assert!(n.is_null_derived());
    }

    #[test]
    fn root_covers_address_space() {
        let r = MorelloCap::root();
        assert!(r.tag());
        assert_eq!(r.bounds().base, 0);
        assert_eq!(r.bounds().top, 1u128 << 64);
        assert_eq!(r.perms(), Perms::all());
    }

    #[test]
    fn small_bounds_are_exact() {
        let r = MorelloCap::root();
        for (base, len) in [(0u64, 1u64), (0x1234, 17), (0xFFFF_0003, 4095), (7, 0)] {
            let c = r.with_bounds(base, len);
            assert!(c.tag(), "bounds ({base:#x},{len}) should stay tagged");
            assert_eq!(c.bounds(), Bounds::new(base, len), "({base:#x},{len})");
        }
    }

    #[test]
    fn large_bounds_cover_request() {
        let r = MorelloCap::root();
        for (base, len) in [
            (0u64, 8192u64),
            (0x1001, 70000),
            (0xdead_beef, 1 << 30),
            (0x1234_5678_9abc, (1 << 40) + 12345),
        ] {
            let c = r.with_bounds(base, len);
            assert!(c.tag());
            let b = c.bounds();
            assert!(b.base <= base, "{b} vs base {base:#x}");
            assert!(b.top >= base as u128 + len as u128, "{b} vs len {len}");
        }
    }

    #[test]
    fn widening_clears_tag() {
        let r = MorelloCap::root();
        let narrow = r.with_bounds(0x1000, 16);
        let widened = narrow.with_bounds(0x1000, 32);
        assert!(!widened.tag());
        let below = narrow.with_bounds(0xFF0, 16);
        assert!(!below.tag());
    }

    #[test]
    fn set_address_within_bounds_keeps_tag() {
        let c = MorelloCap::root().with_bounds(0x1000, 64);
        let c2 = c.with_address(0x1020);
        assert!(c2.tag());
        assert_eq!(c2.address(), 0x1020);
        assert_eq!(c2.bounds(), c.bounds());
    }

    #[test]
    fn one_past_and_small_oob_representable() {
        // §3.2: representable ranges extend somewhat beyond the object.
        let c = MorelloCap::root().with_bounds(0x1000, 64);
        assert!(c.is_representable(0x1040)); // one past
        assert!(c.is_representable(0x1000 + 64 + 128)); // a bit above
        assert!(c.is_representable(0x1000 - 128)); // a bit below
    }

    #[test]
    fn far_oob_clears_tag_keeps_address() {
        let c = MorelloCap::root().with_bounds(0x1000, 64);
        let far = c.with_address(0x100_0000);
        assert!(!far.tag());
        assert_eq!(far.address(), 0x100_0000);
    }

    #[test]
    fn transient_oob_does_not_recover_tag() {
        // (p + 100001*4) - 100000*4 at the capability level: the tag is lost
        // at the non-representable intermediate and never comes back.
        let c = MorelloCap::root().with_bounds(0x10000, 8).with_address(0x10000);
        let out = c.with_address(c.address().wrapping_add(400004));
        assert!(!out.tag());
        let back = out.with_address(out.address().wrapping_sub(400000));
        assert!(!back.tag());
        assert_eq!(back.address(), 0x10004);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let caps = [
            MorelloCap::root(),
            MorelloCap::null(),
            MorelloCap::root().with_bounds(0x4000, 123),
            MorelloCap::root().with_bounds(0x12345000, 1 << 20).with_address(0x12345678),
            MorelloCap::root().with_perms_and(Perms::data_readonly()),
        ];
        for c in caps {
            let bytes = c.encode();
            assert_eq!(bytes.len(), 16);
            let d = MorelloCap::decode(&bytes, c.tag()).unwrap();
            assert_eq!(d, c.with_ghost(GhostState::CLEAN));
        }
    }

    #[test]
    fn decode_wrong_length_fails() {
        assert!(MorelloCap::decode(&[0u8; 8], true).is_none());
        assert!(CheriotCap::decode(&[0u8; 16], true).is_none());
    }

    #[test]
    fn sealing_roundtrip() {
        let sealer = MorelloCap::root().with_address(42);
        let c = MorelloCap::root().with_bounds(0x1000, 16);
        let sealed = c.seal(&sealer).unwrap();
        assert!(sealed.is_sealed());
        assert_eq!(sealed.otype().value(), 42);
        // Sealed capabilities are immutable: address updates clear the tag.
        assert!(!sealed.with_address(0x1004).tag());
        let unsealed = sealed.unseal(&sealer).unwrap();
        assert!(!unsealed.is_sealed());
        assert_eq!(unsealed.bounds(), c.bounds());
    }

    #[test]
    fn seal_requires_permission() {
        let no_seal = MorelloCap::root().with_perms_and(Perms::data()).with_address(42);
        let c = MorelloCap::root().with_bounds(0x1000, 16);
        assert_eq!(c.seal(&no_seal), Err(SealError::MissingPermission));
    }

    #[test]
    fn sentry_sealing() {
        let f = MorelloCap::root().with_bounds(0x4000, 64).seal_entry();
        assert!(f.is_sealed());
        assert_eq!(f.otype(), OType::SENTRY);
    }

    #[test]
    fn perms_only_shrink() {
        let c = MorelloCap::root().with_perms_and(Perms::data());
        let c2 = c.with_perms_and(Perms::all());
        assert_eq!(c2.perms(), Perms::data());
    }

    #[test]
    fn representable_length_monotone_and_covering() {
        for len in [0u64, 1, 100, 4095, 4096, 8191, 1 << 20, (1 << 30) + 7] {
            let rl = MorelloCap::representable_length(len);
            assert!(rl >= len, "len {len}: got {rl}");
            let mask = MorelloCap::representable_alignment_mask(len);
            let base = 0x1234_5678_9000u64 & mask;
            let c = MorelloCap::root().with_bounds_exact(base, rl);
            assert!(c.tag(), "len {len} rl {rl} mask {mask:#x} base {base:#x}");
        }
    }

    #[test]
    fn cheriot_small_objects_exact() {
        let r = CheriotCap::root();
        for len in [1u64, 16, 100, 255] {
            let c = r.with_bounds(0x8000, len);
            assert!(c.tag());
            assert_eq!(c.bounds(), Bounds::new(0x8000, len), "len {len}");
        }
        assert_eq!(r.bounds().top, 1u128 << 32);
    }

    #[test]
    fn cheriot_encodes_in_8_bytes() {
        let c = CheriotCap::root().with_bounds(0x1000, 64);
        let bytes = c.encode();
        assert_eq!(bytes.len(), 8);
        let d = CheriotCap::decode(&bytes, true).unwrap();
        assert_eq!(d.bounds(), c.bounds());
        assert_eq!(d.perms(), c.perms());
    }

    #[test]
    fn guaranteed_representable_slack_64bit() {
        // §3.3(i): for 64-bit CHERI, pointers are guaranteed representable
        // within max(1KiB, size/8) below and max(2KiB, size/4) above.
        for size in [64u64, 4096, 1 << 16, 1 << 24] {
            let base = 1u64 << 32;
            let c = MorelloCap::root().with_bounds(base, size);
            let below = (size / 8).max(1024);
            let above = (size / 4).max(2048);
            assert!(
                c.is_representable(base.wrapping_sub(below)),
                "size {size}: below slack {below}"
            );
            assert!(
                c.is_representable(base + size + above - 1),
                "size {size}: above slack {above}"
            );
        }
    }

    #[test]
    fn memoised_bounds_track_every_mutation() {
        // The memo must agree with a from-scratch decode of the encoded
        // fields after every kind of derivation (decoded() also
        // debug-asserts this on each read).
        let c = MorelloCap::root().with_bounds(0x1000, 64);
        let steps = [
            c,
            c.with_address(0x1020),
            c.with_address(0x100_0000), // non-representable: bounds move
            c.with_bounds(0x1010, 16),
            c.with_perms_and(Perms::data()),
            c.seal_entry(),
            c.clear_tag(),
            MorelloCap::null(),
            MorelloCap::root(),
        ];
        for (i, s) in steps.iter().enumerate() {
            let fresh = MorelloCap::decode(&s.encode(), s.tag()).unwrap();
            assert_eq!(s.bounds(), fresh.bounds(), "step {i}");
        }
    }

    #[test]
    fn field_layout_is_fig1_like() {
        let layout = MorelloCap::field_layout();
        let get = |name: &str| layout.iter().find(|(n, _, _)| *n == name).copied().unwrap();
        assert_eq!(get("address"), ("address", 0, 64));
        assert_eq!(get("otype"), ("otype", 95, 15));
        assert_eq!(get("perms"), ("perms", 110, 18));
    }
}
