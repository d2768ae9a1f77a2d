//! Typed intermediate representation ("mini-Core").
//!
//! The type checker lowers the untyped AST into this form, making explicit
//! everything the CHERI C semantics cares about: every implicit conversion
//! is a [`TExprKind::Cast`] node, array decay and lvalue-to-rvalue
//! conversion are explicit, pointer arithmetic is distinguished from integer
//! arithmetic, and every binary operation on capability-carrying types is
//! annotated with which operand the result capability derives from —
//! the elaboration step of §4.4 of the paper. Names are resolved too:
//! every variable reference is a numbered [`LocalId`] or [`GlobalId`], so
//! the lowering and both engines index tables instead of looking names up.

use crate::ast::{BinOp, UnOp};
use crate::lex::Pos;
use crate::types::{IntTy, Ty};

/// Which operand a binary operation's result capability derives from
/// (§3.7/§4.4: "the capability derivation picks as a source for the
/// resulting capability the argument which was not a result of implicit or
/// explicit conversion from a non-capability type"; ties go left).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeriveFrom {
    /// Derive from the left operand.
    Left,
    /// Derive from the right operand.
    Right,
}

/// How a cast converts its operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CastKind {
    /// Integer to integer (possibly capability-carrying on either side;
    /// int→intptr derives from NULL, intptr→int takes the address value).
    IntToInt,
    /// Pointer to integer: exposes the allocation (PNVI-ae); to
    /// `(u)intptr_t` it preserves the capability (§3.3).
    PtrToInt,
    /// Integer to pointer: PNVI-ae-udi provenance lookup; from
    /// `(u)intptr_t` it preserves the capability.
    IntToPtr,
    /// Pointer to pointer (including const-adding/removing casts, which are
    /// no-ops on the capability, §3.9).
    PtrToPtr,
    /// Scalar to `_Bool` (zero test).
    ToBool,
    /// Discard the value (`(void)e`).
    ToVoid,
    /// Integer to floating point.
    IntToFloat,
    /// Floating point to integer (UB when the truncated value does not
    /// fit the target type, ISO 6.3.1.4).
    FloatToInt,
    /// Between floating-point types (precision change).
    FloatToFloat,
}

/// Identified builtin functions and CHERI intrinsics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Builtin {
    /// `printf(fmt, ...)`.
    Printf,
    /// `fprintf(stream, fmt, ...)` — the stream argument is evaluated and
    /// ignored; output goes to the captured stderr stream.
    Fprintf,
    /// `assert(e)`.
    Assert,
    /// `abort()`.
    Abort,
    /// `exit(code)`.
    Exit,
    /// `malloc(n)`.
    Malloc,
    /// `calloc(n, sz)`.
    Calloc,
    /// `free(p)`.
    Free,
    /// `realloc(p, n)`.
    Realloc,
    /// `memcpy(dst, src, n)`.
    Memcpy,
    /// `memmove(dst, src, n)`.
    Memmove,
    /// `memset(p, c, n)`.
    Memset,
    /// `memcmp(a, b, n)`.
    Memcmp,
    /// `strlen(s)`.
    Strlen,
    /// `strcmp(a, b)`.
    Strcmp,
    /// `strcpy(dst, src)`.
    Strcpy,
    /// Test helper: print a capability-carrying value in Appendix A format.
    PrintCap,
    /// `fabs(x)`.
    Fabs,
    /// `sqrt(x)`.
    Sqrt,
    // ── CHERI intrinsics (§4.5) ─────────────────────────────────────────
    /// `cheri_tag_get(c)` — unspecified result if ghost-tag-unspecified.
    CheriTagGet,
    /// `cheri_tag_clear(c)`.
    CheriTagClear,
    /// `cheri_is_valid(c)` (alias of tag get).
    CheriIsValid,
    /// `cheri_address_get(c)`.
    CheriAddressGet,
    /// `cheri_address_set(c, a)`.
    CheriAddressSet,
    /// `cheri_base_get(c)`.
    CheriBaseGet,
    /// `cheri_length_get(c)`.
    CheriLengthGet,
    /// `cheri_offset_get(c)`.
    CheriOffsetGet,
    /// `cheri_offset_set(c, o)`.
    CheriOffsetSet,
    /// `cheri_perms_get(c)`.
    CheriPermsGet,
    /// `cheri_perms_and(c, mask)`.
    CheriPermsAnd,
    /// `cheri_bounds_set(c, len)`.
    CheriBoundsSet,
    /// `cheri_bounds_set_exact(c, len)`.
    CheriBoundsSetExact,
    /// `cheri_is_equal_exact(a, b)` — unspecified if ghost state set (§3.6).
    CheriIsEqualExact,
    /// `cheri_is_subset(a, b)`.
    CheriIsSubset,
    /// `cheri_representable_length(n)`.
    CheriReprLength,
    /// `cheri_representable_alignment_mask(n)`.
    CheriReprAlignMask,
    /// `cheri_sentry_create(c)`.
    CheriSentryCreate,
    /// `cheri_seal(c, auth)`.
    CheriSeal,
    /// `cheri_unseal(c, auth)`.
    CheriUnseal,
    /// `cheri_is_sealed(c)`.
    CheriIsSealed,
    /// `cheri_type_get(c)`.
    CheriTypeGet,
    /// `cheri_flags_get(c)`.
    CheriFlagsGet,
    /// `cheri_flags_set(c, f)`.
    CheriFlagsSet,
    /// `cheri_ddc_get()` — the default data capability.
    CheriDdcGet,
    /// `cheri_pcc_get()` — the program counter capability.
    CheriPccGet,
}

/// A typed expression.
#[derive(Clone, Debug)]
pub struct TExpr {
    /// The C type of the expression's value.
    pub ty: Ty,
    /// Node kind.
    pub kind: TExprKind,
    /// Source position.
    pub pos: Pos,
    /// Was this value produced by (implicit or explicit) conversion from a
    /// non-capability-carrying type? Drives capability derivation (§3.7).
    pub from_noncap: bool,
}

/// What a call dispatches to.
#[derive(Clone, Debug)]
pub enum Callee {
    /// Direct call to a named, defined function.
    Direct(String),
    /// Call through a function-pointer expression.
    Indirect(Box<TExpr>),
    /// A builtin or CHERI intrinsic.
    Builtin(Builtin),
}

/// Typed expression kinds. Nodes whose name starts with `Lv` are *lvalues*:
/// they evaluate to a location (a pointer value), not a value.
#[derive(Clone, Debug)]
pub enum TExprKind {
    /// Integer constant.
    ConstInt(i128),
    /// Floating-point constant.
    ConstFloat(f64),
    /// String literal (materialised as a read-only allocation, decayed).
    StrLit(String),
    /// A local object of the enclosing function (lvalue).
    LvLocal(LocalId),
    /// An object with static storage duration (lvalue).
    LvGlobal(GlobalId),
    /// Dereference of a pointer rvalue (lvalue).
    LvDeref(Box<TExpr>),
    /// Field of an lvalue: base lvalue plus constant offset (lvalue).
    LvMember(Box<TExpr>, u64),
    /// Lvalue-to-rvalue conversion: load from the location.
    Load(Box<TExpr>),
    /// Address-of: the location as a pointer value.
    AddrOf(Box<TExpr>),
    /// Array-to-pointer decay of an lvalue.
    Decay(Box<TExpr>),
    /// Function designator, as a (sentry-sealed) function pointer.
    FuncAddr(String),
    /// Integer binary operation (operands pre-converted to `ty`).
    Binary {
        /// The operator (arithmetic, bitwise, or comparison on integers).
        op: BinOp,
        /// Left operand.
        lhs: Box<TExpr>,
        /// Right operand.
        rhs: Box<TExpr>,
        /// Capability derivation choice (§4.4); meaningful only when the
        /// result type is capability-carrying.
        derive: DeriveFrom,
    },
    /// Short-circuit `&&` / `||`.
    Logical {
        /// `true` for `&&`.
        and: bool,
        /// Left operand.
        lhs: Box<TExpr>,
        /// Right operand.
        rhs: Box<TExpr>,
    },
    /// Unary integer operation.
    Unary(UnOp, Box<TExpr>),
    /// Pointer ± integer (ISO 6.5.6; the §3.2 rules).
    PtrAdd {
        /// The pointer operand.
        ptr: Box<TExpr>,
        /// The (signed) index operand.
        idx: Box<TExpr>,
        /// Element size in bytes.
        elem: u64,
        /// Negate the index (`p - i`).
        neg: bool,
    },
    /// Pointer difference in elements.
    PtrDiff {
        /// Left pointer.
        a: Box<TExpr>,
        /// Right pointer.
        b: Box<TExpr>,
        /// Element size in bytes.
        elem: u64,
    },
    /// Pointer comparison.
    PtrCmp {
        /// Comparison operator.
        op: BinOp,
        /// Left pointer.
        a: Box<TExpr>,
        /// Right pointer.
        b: Box<TExpr>,
    },
    /// Conversion.
    Cast {
        /// How to convert.
        kind: CastKind,
        /// Operand.
        arg: Box<TExpr>,
    },
    /// Simple assignment; `rhs` already converted to the target type.
    Assign {
        /// Target location.
        lv: Box<TExpr>,
        /// Value.
        rhs: Box<TExpr>,
    },
    /// Compound assignment `lv op= rhs`: load, operate in `common` type,
    /// convert back, store; yields the stored value.
    AssignOp {
        /// Target location (evaluated once).
        lv: Box<TExpr>,
        /// Operator.
        op: BinOp,
        /// Right operand, already converted to `common`.
        rhs: Box<TExpr>,
        /// The type the operation is performed at.
        common: Ty,
        /// Capability derivation for the operation.
        derive: DeriveFrom,
    },
    /// Pointer compound assignment `p += i` / `p -= i`.
    PtrAssignAdd {
        /// Target pointer location.
        lv: Box<TExpr>,
        /// Index operand.
        idx: Box<TExpr>,
        /// Element size.
        elem: u64,
        /// Negate (`-=`).
        neg: bool,
    },
    /// `++`/`--` on an integer or pointer lvalue.
    IncDec {
        /// Target location.
        lv: Box<TExpr>,
        /// Increment (vs decrement).
        inc: bool,
        /// Prefix (yield new value) vs postfix (yield old value).
        prefix: bool,
        /// Element size for pointer targets; 1 for integers.
        elem: u64,
    },
    /// Function call.
    Call {
        /// What to call.
        callee: Callee,
        /// Arguments, converted to parameter types (or default-promoted for
        /// variadic positions).
        args: Vec<TExpr>,
    },
    /// Conditional expression.
    Cond {
        /// Condition.
        c: Box<TExpr>,
        /// Then value.
        t: Box<TExpr>,
        /// Else value.
        f: Box<TExpr>,
    },
    /// Comma operator.
    Comma(Box<TExpr>, Box<TExpr>),
}

/// A typed initialiser.
#[derive(Clone, Debug)]
pub enum TInit {
    /// Scalar initialiser, converted to the object type.
    Scalar(TExpr),
    /// Aggregate initialiser; unmentioned elements are zero-initialised.
    List(Vec<TInit>),
    /// String literal initialising a char array.
    Str(String),
}

/// A typed statement.
#[derive(Clone, Debug)]
pub enum TStmt {
    /// Local variable declaration: allocates a fresh object for `local`
    /// each time it runs, and binds it after the initialiser ran.
    Decl {
        /// The declared object; its name and type are in [`TFunc::locals`].
        local: LocalId,
        /// The object is `const`-qualified (read-only capability, §3.9).
        is_const: bool,
        /// Initialiser.
        init: Option<TInit>,
        /// Position.
        pos: Pos,
    },
    /// Expression statement.
    Expr(TExpr),
    /// Block.
    Block(Vec<TStmt>),
    /// `if`.
    If(TExpr, Box<TStmt>, Option<Box<TStmt>>),
    /// `while`.
    While(TExpr, Box<TStmt>),
    /// `do while`.
    DoWhile(Box<TStmt>, TExpr),
    /// `for`.
    For {
        /// Init statement.
        init: Option<Box<TStmt>>,
        /// Condition.
        cond: Option<TExpr>,
        /// Step.
        step: Option<TExpr>,
        /// Body.
        body: Box<TStmt>,
    },
    /// `switch` (cases with constant values; `None` = `default`).
    Switch(TExpr, Vec<(Option<i128>, Vec<TStmt>)>),
    /// `return`.
    Return(Option<TExpr>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// Emulated `memcpy` from a recognised byte-copy loop (the
    /// tree-loop-distribute-patterns optimisation of §3.5). Operands are
    /// pointer rvalues and a byte count.
    OptMemcpy {
        /// Destination pointer.
        dst: TExpr,
        /// Source pointer.
        src: TExpr,
        /// Number of bytes.
        n: TExpr,
    },
    /// Empty.
    Empty,
}

/// A local object of a function: an index into [`TFunc::locals`]. The
/// type checker numbers the parameters first, then the declarations in
/// source order, so the id is also the object's IR frame slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LocalId(pub u32);

/// An object with static storage duration, numbered as the IR numbers its
/// globals: [`TProgram::globals`], then [`TProgram::streams`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GlobalId(pub u32);

/// A local object's entry in its function's table.
#[derive(Clone, Debug)]
pub struct TLocal {
    /// Unique name: the source name, `#`, and a number.
    pub name: String,
    /// Object type (an array parameter's is already a pointer).
    pub ty: Ty,
}

/// A typed function.
#[derive(Clone, Debug)]
pub struct TFunc {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Ty,
    /// Every local object, indexed by [`LocalId`]: the parameters first,
    /// then each declaration in source order.
    pub locals: Box<[TLocal]>,
    /// How many of `locals` are parameters.
    pub n_params: usize,
    /// Variadic.
    pub variadic: bool,
    /// Body.
    pub body: Vec<TStmt>,
    /// Position.
    pub pos: Pos,
}

/// A typed global.
#[derive(Clone, Debug)]
pub struct TGlobal {
    /// Global name.
    pub name: String,
    /// Object type.
    pub ty: Ty,
    /// `const`-qualified.
    pub is_const: bool,
    /// Initialiser.
    pub init: Option<TInit>,
    /// Position.
    pub pos: Pos,
    /// For a hoisted `static` local, the function that declares it: its
    /// initialiser is checked in that function's scope.
    pub func: Option<String>,
}

/// A fully type-checked program.
#[derive(Clone, Debug)]
pub struct TProgram {
    /// Struct layouts and target sizes.
    pub types: crate::types::TypeTable,
    /// Globals in declaration order, then the hoisted `static` locals.
    pub globals: Vec<TGlobal>,
    /// The predefined stream handles (`stderr`, `stdout`) the program does
    /// not declare itself; they follow `globals` in [`GlobalId`] order.
    pub streams: Vec<&'static str>,
    /// Functions by name, in name order: the order in which both engines
    /// give functions their addresses and the lowering numbers them.
    pub funcs: std::collections::BTreeMap<String, Box<TFunc>>,
}

impl TExpr {
    /// Is this node an lvalue (a location)?
    #[must_use]
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self.kind,
            TExprKind::LvLocal(_)
                | TExprKind::LvGlobal(_)
                | TExprKind::LvDeref(_)
                | TExprKind::LvMember(..)
        )
    }

    /// The integer type, if the expression has one.
    #[must_use]
    pub fn int_ty(&self) -> Option<IntTy> {
        self.ty.as_int()
    }
}
