//! The C type system fragment of CHERI C.
//!
//! Sizes and alignments follow the CHERI 64-bit data model: pointers and
//! `(u)intptr_t` occupy one capability (16 bytes on Morello), while their
//! *value range* is the 64-bit address space. §3.7 of the paper requires
//! that "no other standard integer type shall have a higher integer
//! conversion rank than `intptr_t` and `uintptr_t`" — the rank table below
//! implements exactly that rule.

use std::fmt;

use cheri_mem::Ub;

use crate::ast::{BinOp, UnOp};

/// Integer types of the model, including the CHERI C additions
/// (`(u)intptr_t` as capability-carrying types, `ptraddr_t` as the abstract
/// address type of §3.10).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntTy {
    /// `_Bool`.
    Bool,
    /// Plain `char` (signed in this implementation, like AArch64... actually
    /// Morello `char` is unsigned on Arm, but CheriBSD uses signed plain
    /// char on RISC-V; we pick signed and the test suite treats plain-char
    /// signedness as implementation-defined).
    Char,
    /// `signed char`.
    SChar,
    /// `unsigned char`.
    UChar,
    /// `short`.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int`.
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` (64-bit).
    Long,
    /// `unsigned long` (64-bit); also `size_t`.
    ULong,
    /// `long long` (64-bit).
    LongLong,
    /// `unsigned long long` (64-bit).
    ULongLong,
    /// `intptr_t`: capability-carrying (§3.3).
    IntPtr,
    /// `uintptr_t`: capability-carrying (§3.3).
    UIntPtr,
    /// `ptraddr_t`: the plain integer address type (§3.10); unsigned 64-bit.
    PtrAddr,
}

impl IntTy {
    /// Is the type signed?
    #[must_use]
    pub fn signed(self) -> bool {
        matches!(
            self,
            IntTy::Char
                | IntTy::SChar
                | IntTy::Short
                | IntTy::Int
                | IntTy::Long
                | IntTy::LongLong
                | IntTy::IntPtr
        )
    }

    /// Is this a capability-carrying type (`intptr_t`/`uintptr_t`)?
    #[must_use]
    pub fn is_capability(self) -> bool {
        matches!(self, IntTy::IntPtr | IntTy::UIntPtr)
    }

    /// Width in bits of the *value range* (for arithmetic). `(u)intptr_t`
    /// arithmetic operates on the 64-bit address despite the 16-byte
    /// representation.
    #[must_use]
    pub fn value_bits(self) -> u32 {
        match self {
            IntTy::Bool => 1,
            IntTy::Char | IntTy::SChar | IntTy::UChar => 8,
            IntTy::Short | IntTy::UShort => 16,
            IntTy::Int | IntTy::UInt => 32,
            _ => 64,
        }
    }

    /// Integer conversion rank. §3.7: `(u)intptr_t` outrank every standard
    /// integer type.
    #[must_use]
    pub fn rank(self) -> u32 {
        match self {
            IntTy::Bool => 0,
            IntTy::Char | IntTy::SChar | IntTy::UChar => 1,
            IntTy::Short | IntTy::UShort => 2,
            IntTy::Int | IntTy::UInt => 3,
            IntTy::Long | IntTy::ULong | IntTy::PtrAddr => 4,
            IntTy::LongLong | IntTy::ULongLong => 5,
            IntTy::IntPtr | IntTy::UIntPtr => 6,
        }
    }

    /// The unsigned counterpart of this type (self if already unsigned).
    #[must_use]
    pub fn to_unsigned(self) -> IntTy {
        match self {
            IntTy::Char | IntTy::SChar => IntTy::UChar,
            IntTy::Short => IntTy::UShort,
            IntTy::Int => IntTy::UInt,
            IntTy::Long => IntTy::ULong,
            IntTy::LongLong => IntTy::ULongLong,
            IntTy::IntPtr => IntTy::UIntPtr,
            other => other,
        }
    }

    /// Smallest representable value.
    #[must_use]
    pub fn min(self) -> i128 {
        if self.signed() {
            -(1i128 << (self.value_bits() - 1))
        } else {
            0
        }
    }

    /// Largest representable value.
    #[must_use]
    pub fn max(self) -> i128 {
        if self == IntTy::Bool {
            1
        } else if self.signed() {
            (1i128 << (self.value_bits() - 1)) - 1
        } else {
            (1i128 << self.value_bits()) - 1
        }
    }

    /// Wrap `v` into this type's range, modular for unsigned types and
    /// two's-complement for signed ones (casts, and results of
    /// [`IntTy::arith`], which reports signed overflow first).
    #[must_use]
    pub fn wrap(self, v: i128) -> i128 {
        let bits = self.value_bits();
        if bits >= 128 {
            return v;
        }
        if self == IntTy::Bool {
            return i128::from(v != 0);
        }
        let m = v & ((1i128 << bits) - 1);
        if self.signed() && (m >> (bits - 1)) & 1 == 1 {
            m - (1i128 << bits)
        } else {
            m
        }
    }

    /// Does `v` fit this type without wrapping?
    #[must_use]
    pub fn fits(self, v: i128) -> bool {
        v >= self.min() && v <= self.max()
    }

    /// `a op b` at this type, before wrapping: C's integer arithmetic and
    /// comparison, in the one body the interpreter runs and the peephole
    /// folds by. The operands are values of this type (a shift count, of
    /// its own); a comparison, `&&` or `||` gives 0 or 1. The caller wraps
    /// the result, or derives a capability from it (§3.3), so unsigned
    /// and capability-carrying arithmetic is modular. `Err` is the UB when
    /// C leaves the operation undefined: division or remainder by zero,
    /// `MIN / -1`, a shift count out of range, or a signed result that
    /// does not fit (C11 6.5p5, 6.5.5p5, 6.5.7p3–4).
    // Every VM `Binary` step runs this; left to the inliner's heuristic
    // it stayed a call, and a comparison loop under `--fast` ran 8% slower.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    pub fn arith(self, op: BinOp, a: i128, b: i128) -> Result<i128, Ub> {
        let bits = self.value_bits();
        let raw = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            // Operands have at most 64 bits, so only an unsigned product
            // can leave i128; it is taken modulo 2^128 and wraps anyway.
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div | BinOp::Rem if b == 0 => return Err(Ub::DivisionByZero),
            BinOp::Div | BinOp::Rem if self.signed() && a == self.min() && b == -1 => {
                return Err(Ub::SignedOverflow)
            }
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl | BinOp::Shr if b < 0 || b >= i128::from(bits) => {
                return Err(Ub::ShiftOutOfRange)
            }
            BinOp::Shl => a << b,
            BinOp::Shr if self.signed() => a >> b,
            BinOp::Shr => ((a as u128 & (u128::MAX >> (128 - bits))) >> b) as i128,
            BinOp::LogAnd => i128::from(a != 0 && b != 0),
            BinOp::LogOr => i128::from(a != 0 || b != 0),
            _ => return Ok(i128::from(op.compare(Some(a.cmp(&b))) == Some(true))),
        };
        // A signed result must fit; a capability-carrying `+`, `-` or `*`
        // is derived instead.
        let checked = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => !self.is_capability(),
            BinOp::Shl => true,
            _ => false,
        };
        if checked && self.signed() && !self.fits(raw) {
            return Err(Ub::SignedOverflow);
        }
        Ok(raw)
    }

    /// `op a` at this type by [`IntTy::arith`]: `-a` is `0 - a`, `~a` is
    /// `a ^ -1`, `!a` is `a == 0`, and `+a` is `a`.
    #[inline]
    pub fn arith_unary(self, op: UnOp, a: i128) -> Result<i128, Ub> {
        match op {
            UnOp::Neg => self.arith(BinOp::Sub, 0, a),
            UnOp::BitNot => self.arith(BinOp::Xor, a, -1),
            UnOp::LogNot => self.arith(BinOp::Eq, a, 0),
            UnOp::Plus => Ok(a),
        }
    }
}

impl fmt::Display for IntTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IntTy::Bool => "_Bool",
            IntTy::Char => "char",
            IntTy::SChar => "signed char",
            IntTy::UChar => "unsigned char",
            IntTy::Short => "short",
            IntTy::UShort => "unsigned short",
            IntTy::Int => "int",
            IntTy::UInt => "unsigned int",
            IntTy::Long => "long",
            IntTy::ULong => "unsigned long",
            IntTy::LongLong => "long long",
            IntTy::ULongLong => "unsigned long long",
            IntTy::IntPtr => "intptr_t",
            IntTy::UIntPtr => "uintptr_t",
            IntTy::PtrAddr => "ptraddr_t",
        };
        f.write_str(s)
    }
}

/// Floating-point types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FloatTy {
    /// `float` (IEEE binary32).
    F32,
    /// `double` (IEEE binary64).
    F64,
}

impl FloatTy {
    /// Size in bytes.
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            FloatTy::F32 => 4,
            FloatTy::F64 => 8,
        }
    }
}

impl fmt::Display for FloatTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FloatTy::F32 => "float",
            FloatTy::F64 => "double",
        })
    }
}

/// Identifier of a struct or union layout in the [`TypeTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StructId(pub usize);

/// A C type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// `void`.
    Void,
    /// An integer type.
    Int(IntTy),
    /// A floating-point type (the Cerberus memory interface covers
    /// "integer, floating point, and pointer memory values", §4.3).
    Float(FloatTy),
    /// A pointer; `const_pointee` records a `const`-qualified pointee
    /// (affects the write permission of derived capabilities, §3.9).
    Ptr {
        /// The pointed-to type.
        pointee: Box<Ty>,
        /// Pointee is `const`-qualified.
        const_pointee: bool,
    },
    /// An array with optionally-known length.
    Array(Box<Ty>, Option<u64>),
    /// A struct type (layout in the [`TypeTable`]).
    Struct(StructId),
    /// A union type (layout in the [`TypeTable`]).
    Union(StructId),
    /// A function type.
    Func {
        /// Return type.
        ret: Box<Ty>,
        /// Parameter types.
        params: Vec<Ty>,
        /// Accepts extra (variadic) arguments.
        variadic: bool,
    },
}

impl Ty {
    /// Shorthand for `int`.
    #[must_use]
    pub fn int() -> Ty {
        Ty::Int(IntTy::Int)
    }

    /// Shorthand for a non-const pointer to `t`.
    #[must_use]
    pub fn ptr(t: Ty) -> Ty {
        Ty::Ptr {
            pointee: Box::new(t),
            const_pointee: false,
        }
    }

    /// Is this an integer type?
    #[must_use]
    pub fn as_int(&self) -> Option<IntTy> {
        match self {
            Ty::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Is this a pointer type?
    #[must_use]
    pub fn is_ptr(&self) -> bool {
        matches!(self, Ty::Ptr { .. })
    }

    /// Is this a scalar (integer, float or pointer) type?
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        matches!(self, Ty::Int(_) | Ty::Float(_) | Ty::Ptr { .. })
    }

    /// The floating-point type, if any.
    #[must_use]
    pub fn as_float(&self) -> Option<FloatTy> {
        match self {
            Ty::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Does a value of this type carry a capability (pointer or
    /// `(u)intptr_t`)?
    #[must_use]
    pub fn is_capability_carrying(&self) -> bool {
        match self {
            Ty::Ptr { .. } => true,
            Ty::Int(i) => i.is_capability(),
            _ => false,
        }
    }

    /// The pointee type, for pointers and arrays.
    #[must_use]
    pub fn pointee(&self) -> Option<&Ty> {
        match self {
            Ty::Ptr { pointee, .. } => Some(pointee),
            Ty::Array(t, _) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Void => write!(f, "void"),
            Ty::Int(i) => write!(f, "{i}"),
            Ty::Float(t) => write!(f, "{t}"),
            Ty::Ptr {
                pointee,
                const_pointee,
            } => {
                if *const_pointee {
                    write!(f, "const ")?;
                }
                write!(f, "{pointee}*")
            }
            Ty::Array(t, Some(n)) => write!(f, "{t}[{n}]"),
            Ty::Array(t, None) => write!(f, "{t}[]"),
            Ty::Struct(id) => write!(f, "struct#{}", id.0),
            Ty::Union(id) => write!(f, "union#{}", id.0),
            Ty::Func { ret, params, .. } => {
                write!(f, "{ret}(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A field of a struct or union layout.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// Byte offset within the aggregate (0 for union members).
    pub offset: u64,
}

/// Layout of a struct or union.
#[derive(Clone, Debug)]
pub struct StructLayout {
    /// Tag name (or a generated name for anonymous aggregates).
    pub name: String,
    /// Is this a union?
    pub is_union: bool,
    /// The fields, with offsets assigned.
    pub fields: Vec<Field>,
    /// Total size in bytes (with tail padding).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
}

/// The target data layout: how big pointers are in memory. Capability mode
/// gives 16-byte pointers, the baseline gives 8.
#[derive(Clone, Copy, Debug)]
pub struct TargetLayout {
    /// Size and alignment of pointers and `(u)intptr_t` in bytes.
    pub ptr_size: u64,
}

impl Default for TargetLayout {
    fn default() -> Self {
        TargetLayout { ptr_size: 16 }
    }
}

/// Type table: struct/union layouts and size/alignment computation.
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    /// All struct/union layouts, indexed by [`StructId`].
    pub structs: Vec<StructLayout>,
    /// The target data layout.
    pub layout: TargetLayout,
}

impl TypeTable {
    /// New table for a target layout.
    #[must_use]
    pub fn new(layout: TargetLayout) -> Self {
        TypeTable {
            structs: Vec::new(),
            layout,
        }
    }

    /// Size of a type in bytes.
    ///
    /// # Panics
    ///
    /// Panics on `void`, function types and unsized arrays. The front end
    /// takes every size the program asks for through
    /// [`TypeTable::object_size`], which rejects those, and rejects types
    /// whose size does not fit in a `u64` ([`TypeTable::check_size`]).
    #[must_use]
    pub fn size_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => panic!("sizeof(void)"),
            Ty::Int(i) => {
                if i.is_capability() {
                    self.layout.ptr_size
                } else {
                    u64::from(i.value_bits().max(8) / 8)
                }
            }
            Ty::Float(t) => t.size(),
            Ty::Ptr { .. } => self.layout.ptr_size,
            Ty::Array(t, Some(n)) => self.size_of(t) * n,
            Ty::Array(_, None) => panic!("sizeof(unsized array)"),
            Ty::Struct(id) | Ty::Union(id) => self.structs[id.0].size,
            Ty::Func { .. } => panic!("sizeof(function)"),
        }
    }

    /// Size in bytes of an object of type `ty`: the checked form of
    /// [`TypeTable::size_of`], for every size the program asks for
    /// (declarations, members, `sizeof`, pointer arithmetic).
    ///
    /// # Errors
    ///
    /// A message if `ty` has no size (`void`, a function, an array of
    /// unknown length, or an array of those) or its size does not fit in a
    /// `u64`.
    pub fn object_size(&self, ty: &Ty) -> Result<u64, String> {
        match ty {
            Ty::Void | Ty::Func { .. } | Ty::Array(_, None) => {
                Err(format!("type `{ty}` has no size"))
            }
            Ty::Array(elem, Some(n)) => {
                self.object_size(elem)?.checked_mul(*n).ok_or_else(|| {
                    format!("type `{ty}` is too large: its size does not fit in 64 bits")
                })
            }
            Ty::Int(_) | Ty::Float(_) | Ty::Ptr { .. } | Ty::Struct(_) | Ty::Union(_) => {
                Ok(self.size_of(ty))
            }
        }
    }

    /// Check that the size in bytes of `ty`, and of every type it refers
    /// to through arrays, pointers and function signatures, fits in a
    /// `u64`.
    ///
    /// # Errors
    ///
    /// A message naming `ty` if it does not.
    pub fn check_size(&self, ty: &Ty) -> Result<(), String> {
        match self.checked_size(ty) {
            Some(_) => Ok(()),
            None => Err(format!(
                "type `{ty}` is too large: its size does not fit in 64 bits"
            )),
        }
    }

    /// [`TypeTable::size_of`] with overflow checked, over every type `ty`
    /// refers to; types without a size count as 0.
    fn checked_size(&self, ty: &Ty) -> Option<u64> {
        match ty {
            Ty::Array(elem, n) => self.checked_size(elem)?.checked_mul(n.unwrap_or(0)),
            Ty::Ptr { pointee, .. } => self.checked_size(pointee).map(|_| self.layout.ptr_size),
            Ty::Func { ret, params, .. } => {
                self.checked_size(ret)?;
                params
                    .iter()
                    .try_for_each(|p| self.checked_size(p).map(drop))?;
                Some(0)
            }
            Ty::Void => Some(0),
            Ty::Int(_) | Ty::Float(_) | Ty::Struct(_) | Ty::Union(_) => Some(self.size_of(ty)),
        }
    }

    /// Alignment of a type in bytes.
    #[must_use]
    pub fn align_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => 1,
            Ty::Int(i) => {
                if i.is_capability() {
                    self.layout.ptr_size
                } else {
                    u64::from(i.value_bits().max(8) / 8)
                }
            }
            Ty::Float(t) => t.size(),
            Ty::Ptr { .. } => self.layout.ptr_size,
            Ty::Array(t, _) => self.align_of(t),
            Ty::Struct(id) | Ty::Union(id) => self.structs[id.0].align,
            Ty::Func { .. } => 1,
        }
    }

    /// Reserve a struct id before its body is parsed, so self-referential
    /// types (`struct node { struct node *next; }`) can name themselves.
    pub fn reserve_struct(&mut self, name: &str, is_union: bool) -> StructId {
        let id = StructId(self.structs.len());
        self.structs.push(StructLayout {
            name: name.to_string(),
            is_union,
            fields: Vec::new(),
            size: 1,
            align: 1,
        });
        id
    }

    /// Complete a reserved struct with its members, computing offsets.
    ///
    /// # Errors
    ///
    /// If a member has no size (such as a flexible array member) or the
    /// struct's size does not fit in a `u64`; the struct keeps its
    /// reserved placeholder layout.
    pub fn complete_struct(
        &mut self,
        id: StructId,
        is_union: bool,
        members: Vec<(String, Ty)>,
    ) -> Result<(), String> {
        let name = &self.structs[id.0].name;
        let layout = self.layout_members(is_union, members).map_err(|what| {
            let kind = if is_union { "union" } else { "struct" };
            format!("{kind} `{name}` {what}")
        })?;
        let name = name.clone();
        self.structs[id.0] = StructLayout { name, ..layout };
        Ok(())
    }

    /// Lay out members, or say what is wrong with them: one has no size,
    /// or the whole does not fit in a `u64`.
    fn layout_members(
        &self,
        is_union: bool,
        members: Vec<(String, Ty)>,
    ) -> Result<StructLayout, String> {
        let too_large = || "is too large: its size does not fit in 64 bits".to_string();
        let mut fields = Vec::new();
        let mut offset = 0u64;
        let mut align = 1u64;
        let mut size = 0u64;
        for (fname, fty) in members {
            let fa = self.align_of(&fty);
            let fs = self
                .object_size(&fty)
                .map_err(|msg| format!("member `{fname}`: {msg}"))?;
            align = align.max(fa);
            let foff = if is_union {
                0
            } else {
                offset = offset.checked_add(fa - 1).ok_or_else(too_large)? & !(fa - 1);
                let o = offset;
                offset = offset.checked_add(fs).ok_or_else(too_large)?;
                o
            };
            if is_union {
                size = size.max(fs);
            }
            fields.push(Field {
                name: fname,
                ty: fty,
                offset: foff,
            });
        }
        if !is_union {
            size = offset;
        }
        size = size.checked_add(align - 1).ok_or_else(too_large)? & !(align - 1);
        Ok(StructLayout {
            name: String::new(),
            is_union,
            fields,
            size: size.max(1),
            align,
        })
    }

    /// Register a struct/union layout in one step, computing offsets.
    ///
    /// # Errors
    ///
    /// As [`TypeTable::complete_struct`].
    pub fn define_struct(
        &mut self,
        name: &str,
        is_union: bool,
        members: Vec<(String, Ty)>,
    ) -> Result<StructId, String> {
        let id = self.reserve_struct(name, is_union);
        self.complete_struct(id, is_union, members)?;
        Ok(id)
    }

    /// Find a field by name.
    #[must_use]
    pub fn field(&self, id: StructId, name: &str) -> Option<&Field> {
        self.structs[id.0].fields.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intptr_has_highest_rank() {
        for t in [
            IntTy::Bool,
            IntTy::Char,
            IntTy::Short,
            IntTy::Int,
            IntTy::Long,
            IntTy::ULong,
            IntTy::LongLong,
            IntTy::PtrAddr,
        ] {
            assert!(t.rank() < IntTy::IntPtr.rank(), "{t} must rank below intptr_t");
            assert!(t.rank() < IntTy::UIntPtr.rank());
        }
    }

    #[test]
    fn wrap_signed_and_unsigned() {
        assert_eq!(IntTy::UChar.wrap(256), 0);
        assert_eq!(IntTy::SChar.wrap(128), -128);
        assert_eq!(IntTy::Int.wrap(i128::from(u32::MAX)), -1);
        assert_eq!(IntTy::Bool.wrap(42), 1);
        assert_eq!(IntTy::UIntPtr.wrap(-1), i128::from(u64::MAX));
    }

    #[test]
    fn capability_types_are_16_bytes_but_64_bit_valued() {
        let tt = TypeTable::new(TargetLayout { ptr_size: 16 });
        assert_eq!(tt.size_of(&Ty::Int(IntTy::IntPtr)), 16);
        assert_eq!(tt.size_of(&Ty::ptr(Ty::int())), 16);
        assert_eq!(IntTy::IntPtr.value_bits(), 64);
        // ... and in the baseline model they are 8 bytes.
        let tt8 = TypeTable::new(TargetLayout { ptr_size: 8 });
        assert_eq!(tt8.size_of(&Ty::Int(IntTy::UIntPtr)), 8);
    }

    #[test]
    fn struct_layout_with_capability_alignment() {
        let mut tt = TypeTable::new(TargetLayout { ptr_size: 16 });
        let id = tt
            .define_struct(
                "s",
                false,
                vec![
                    ("c".into(), Ty::Int(IntTy::Char)),
                    ("p".into(), Ty::ptr(Ty::int())),
                    ("n".into(), Ty::int()),
                ],
            )
            .unwrap();
        let s = &tt.structs[id.0];
        assert_eq!(s.fields[0].offset, 0);
        assert_eq!(s.fields[1].offset, 16, "capability field 16-aligned");
        assert_eq!(s.fields[2].offset, 32);
        assert_eq!(s.size, 48, "tail padding to 16");
        assert_eq!(s.align, 16);
    }

    #[test]
    fn union_layout() {
        let mut tt = TypeTable::new(TargetLayout { ptr_size: 16 });
        let id = tt
            .define_struct(
                "ptr",
                true,
                vec![
                    ("ptr".into(), Ty::ptr(Ty::int())),
                    ("iptr".into(), Ty::Int(IntTy::UIntPtr)),
                ],
            )
            .unwrap();
        let s = &tt.structs[id.0];
        assert!(s.is_union);
        assert_eq!(s.fields[0].offset, 0);
        assert_eq!(s.fields[1].offset, 0);
        assert_eq!(s.size, 16);
    }

    #[test]
    fn array_size() {
        let tt = TypeTable::new(TargetLayout::default());
        assert_eq!(tt.size_of(&Ty::Array(Box::new(Ty::int()), Some(10))), 40);
    }

    #[test]
    fn min_max_values() {
        assert_eq!(IntTy::Int.max(), i128::from(i32::MAX));
        assert_eq!(IntTy::Int.min(), i128::from(i32::MIN));
        assert_eq!(IntTy::UInt.max(), i128::from(u32::MAX));
        assert_eq!(IntTy::UIntPtr.max(), i128::from(u64::MAX));
        assert!(IntTy::Int.fits(42));
        assert!(!IntTy::Int.fits(1i128 << 40));
    }
}
