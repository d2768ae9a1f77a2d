//! Flat bytecode IR: the hot-path execution format.
//!
//! The tree walker in [`crate::interp`] is the reference engine, but AST
//! dispatch dominates end-to-end time once the memory model is fast
//! (BENCH_pr3). This module lowers the typechecked AST to a compact
//! MIR-like program — basic blocks of explicit-order instructions over
//! virtual registers, locals addressed by the frame slot the type checker
//! numbered them with, literals
//! and type metadata constant-pooled, and structured control flow
//! (`if`/`while`/`&&`/`||`/`?:`/`switch`) compiled to explicit jumps — and
//! executes it with a flat match-on-opcode loop ([`vm`]).
//!
//! The VM drives the *same* [`cheri_mem::CheriMemory`] machine through the
//! same `Interp` helpers as the tree engine, so memory events, statistics,
//! UB detection and trace goldens are identical by construction; the
//! engines can only disagree if lowering mis-sequences an effect, which is
//! what the differential property test pins down.
//!
//! Lowering invariants (checked by `tests/engine_differential.rs`):
//!
//! * every memory effect (alloc, load, store, kill, intern, shift) is a
//!   distinct instruction placed at the exact program point the tree
//!   engine performs it — pure computation may be fused, effects may not;
//! * locals are *bindings*, not storage: a `Decl` allocates a fresh object
//!   each time it executes and only binds its slot **after** the
//!   initialiser ran, as the tree engine binds its frame entry. (The type
//!   checker brings a name into scope after its initialiser too, so
//!   `int x = x + 1;` is "unknown identifier `x`", or reads a global `x`
//!   if there is one, rather than the C11 6.2.1p7 reading of the new
//!   `x`.) A slot read before its binding reports the variable unbound;
//! * unlowerable or ill-typed constructs become [`Inst::Unsupported`] with
//!   the tree engine's exact message, preserving its lazy-error semantics;
//! * frame teardown kills locals in reverse allocation order, innermost
//!   frame first, even when unwinding an error.
//!
//! Lowering also records, per local slot, why the local must stay in
//! memory ([`IrFunc::locals`]): the facts from which [`escape`] decides
//! and reports which locals the fast mode promotes to registers
//! ([`promote`]).

pub mod escape;
pub mod lower;
pub mod peephole;
pub mod promote;
pub mod vm;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ast::{BinOp, UnOp};
use crate::tast::{Builtin, DeriveFrom};
use crate::types::{FloatTy, IntTy, Ty};

pub use lower::lower;

/// Lower and then peephole-optimise: the pipeline the bytecode engine
/// actually runs. [`lower()`] alone is the raw, unoptimised form (used by
/// the golden dumps to pin the lowering itself).
#[must_use]
pub fn lower_opt(prog: &crate::tast::TProgram) -> IrProgram {
    let mut ir = lower(prog);
    peephole::optimize(&mut ir);
    ir
}

/// The fast-mode pipeline (DESIGN.md §12): lower, register-promote
/// never-addressed scalar locals ([`promote`]), then peephole-optimise.
/// Only selected when [`crate::OptFlags::register_promote`] is set.
#[must_use]
pub fn lower_fast(prog: &crate::tast::TProgram) -> IrProgram {
    let mut ir = lower(prog);
    promote::promote(&mut ir);
    peephole::optimize(&mut ir);
    ir
}

/// Select the lowering pipeline for an optimisation-flag set: the fast
/// (register-promoting) pipeline when `opt.register_promote` is set, the
/// default trace-preserving pipeline otherwise.
#[must_use]
pub fn lower_for(prog: &crate::tast::TProgram, opt: &crate::profile::OptFlags) -> IrProgram {
    if opt.register_promote {
        lower_fast(prog)
    } else {
        lower_opt(prog)
    }
}

/// A virtual register index (frame-local, dense from 0).
pub type Reg = u32;

/// Index into the [`IrProgram::types`] pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TyId(pub u32);

/// Index into the [`IrProgram::strs`] pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StrId(pub u32);

/// Index into [`IrProgram::funcs`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuncId(pub u32);

pub use crate::tast::GlobalId;

/// One bytecode instruction. Register operands are read before `dst` is
/// written; jump targets are absolute instruction offsets after linking.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // field meanings are given per-variant
pub enum Inst {
    // ── Constants and addresses ─────────────────────────────────────────
    /// `dst = (ity) v` — materialise an integer constant.
    ConstInt { dst: Reg, ity: IntTy, v: i128 },
    /// `dst = (fty) v` — materialise a float constant.
    ConstFloat { dst: Reg, fty: FloatTy, v: f64 },
    /// `dst = &"…"` — intern (lazily, first execution) a string literal.
    StrLit { dst: Reg, s: StrId, ty: TyId },
    /// `dst = &func` — sentry-sealed function pointer.
    FuncAddr { dst: Reg, name: StrId, ty: TyId },
    /// `dst = src` — copy a register (merges `?:`/`&&`/`||` arms).
    Move { dst: Reg, src: Reg },
    /// `dst = (int) truthy(src)` — normalise to a 0/1 `int`.
    BoolOf { dst: Reg, src: Reg },
    /// `dst = void`.
    SetVoid { dst: Reg },

    // ── Locations (lvalues) ─────────────────────────────────────────────
    /// `dst = loc(slot)` — the object currently bound to a local slot;
    /// errors with "unbound variable" if the slot has no binding yet.
    SlotLoc { dst: Reg, slot: u32, name: StrId },
    /// `dst = loc(global)`.
    GlobalLoc { dst: Reg, g: GlobalId },
    /// `dst = loc(*src)` — pointer rvalue to location.
    DerefLoc { dst: Reg, src: Reg },
    /// `dst = loc(src + off)` — struct/union member offset (pure shift).
    MemberShift { dst: Reg, src: Reg, off: u64 },

    // ── Memory ──────────────────────────────────────────────────────────
    /// `dst = *(ty*)loc`.
    Load { dst: Reg, loc: Reg, ty: TyId },
    /// `*(ty*)loc = src`.
    Store { loc: Reg, ty: TyId, src: Reg },
    /// `dst = &loc` as a `ty` pointer; `narrow` is the sub-object size for
    /// §3.8 bounds narrowing (applied only under `subobject_bounds`
    /// capability profiles).
    AddrOf { dst: Reg, loc: Reg, ty: TyId, narrow: Option<u64> },
    /// Aggregate assignment: `memcpy(dst_loc, src_loc, n)`.
    MemcpyAgg { dst: Reg, src: Reg, n: u64 },
    /// The §3.5 recognised byte-copy loop: `memcpy(dst, src, n)` with
    /// pointer rvalues and a runtime byte count.
    OptMemcpy { dst: Reg, src: Reg, n: Reg },

    // ── Arithmetic ──────────────────────────────────────────────────────
    /// Integer (or, dispatched on runtime operand kinds, float) binary
    /// operation at type `ity`; `ty` is the result type for the float
    /// path, `derive` the capability derivation side (§4.4).
    Binary {
        dst: Reg,
        op: BinOp,
        ity: IntTy,
        ty: TyId,
        derive: DeriveFrom,
        lhs: Reg,
        rhs: Reg,
    },
    /// Unary operation at type `ity`.
    Unary { dst: Reg, op: UnOp, ity: IntTy, src: Reg },
    /// `dst = ptr ± idx*elem` (ISO 6.5.6 / §3.2 representability rules).
    PtrAdd { dst: Reg, ptr: Reg, idx: Reg, elem: u64, neg: bool, ty: TyId },
    /// `dst = (a - b) / elem` in elements.
    PtrDiff { dst: Reg, a: Reg, b: Reg, elem: u64 },
    /// Pointer comparison (provenance-aware, §3.6).
    PtrCmp { dst: Reg, op: BinOp, a: Reg, b: Reg },

    // ── Compound assignment (fused finishers) ───────────────────────────
    /// `++`/`--` on the object at `loc`: load, adjust, store; `dst` is the
    /// new (prefix) or old (postfix) value.
    IncDec { dst: Reg, loc: Reg, ty: TyId, inc: bool, prefix: bool, elem: u64 },
    /// Integer `lv op= rhs` finisher: `cur` holds the already-loaded
    /// value, `lt` the target int type, `ct` the common operation type.
    AssignOpInt {
        dst: Reg,
        loc: Reg,
        ty: TyId,
        lt: IntTy,
        ct: IntTy,
        op: BinOp,
        derive: DeriveFrom,
        cur: Reg,
        rhs: Reg,
    },
    /// Float-common `lv op= rhs` finisher.
    AssignOpFloat {
        dst: Reg,
        loc: Reg,
        ty: TyId,
        common: FloatTy,
        op: BinOp,
        cur: Reg,
        rhs: Reg,
    },
    /// `p += i` / `p -= i` finisher: `cur` holds the loaded pointer.
    PtrAssignAdd { dst: Reg, loc: Reg, ty: TyId, cur: Reg, idx: Reg, elem: u64, neg: bool },

    // ── Register-promoted finishers (fast mode, DESIGN.md §12) ──────────
    // Emitted only by `promote`: the same semantics as the memory forms
    // above minus the load/store against `CheriMemory`; `reg` is the
    // register that *is* the promoted local (both read and written).
    /// `++`/`--` on a register-promoted local.
    RegIncDec { dst: Reg, reg: Reg, inc: bool, prefix: bool, elem: u64 },
    /// Integer `lv op= rhs` on a register-promoted local.
    RegAssignOpInt {
        dst: Reg,
        reg: Reg,
        lt: IntTy,
        ct: IntTy,
        op: BinOp,
        derive: DeriveFrom,
        cur: Reg,
        rhs: Reg,
    },
    /// Float-common `lv op= rhs` on a register-promoted local.
    RegAssignOpFloat {
        dst: Reg,
        reg: Reg,
        ty: TyId,
        common: FloatTy,
        op: BinOp,
        cur: Reg,
        rhs: Reg,
    },
    /// `p += i` / `p -= i` on a register-promoted pointer local.
    RegPtrAssignAdd { dst: Reg, reg: Reg, ty: TyId, cur: Reg, idx: Reg, elem: u64, neg: bool },

    // ── Casts ───────────────────────────────────────────────────────────
    /// Integer conversion.
    IntToInt { dst: Reg, src: Reg, to: IntTy },
    /// Pointer to integer; `size` is the target size in bytes.
    PtrToInt { dst: Reg, src: Reg, to: IntTy, size: u64 },
    /// Integer to pointer (PNVI-ae-udi cast semantics).
    IntToPtr { dst: Reg, src: Reg, ty: TyId },
    /// Pointer to pointer (no-op on the capability, §3.9).
    PtrToPtr { dst: Reg, src: Reg, ty: TyId },
    /// Integer to float.
    IntToFloat { dst: Reg, src: Reg, fty: FloatTy },
    /// Float to integer (UB when out of range, ISO 6.3.1.4p1).
    FloatToInt { dst: Reg, src: Reg, to: IntTy },
    /// Float precision change.
    FloatToFloat { dst: Reg, src: Reg, fty: FloatTy },
    /// `dst = (_Bool) truthy(src)`.
    ToBool { dst: Reg, src: Reg },

    // ── Control flow ────────────────────────────────────────────────────
    /// Unconditional jump.
    Jump { target: u32 },
    /// Jump when `src` is falsy.
    JumpIfFalse { src: Reg, target: u32 },
    /// Jump when `src` is truthy.
    JumpIfTrue { src: Reg, target: u32 },
    /// `switch`: first matching case value, else the first `None`
    /// (default), else `end`. Case bodies fall through in block order.
    SwitchInt { src: Reg, cases: Box<[(Option<i128>, u32)]>, end: u32 },

    // ── Calls and frames ────────────────────────────────────────────────
    /// Call a defined function; argument values were evaluated
    /// left-to-right into `args`.
    CallDirect { dst: Reg, f: FuncId, args: Box<[Reg]> },
    /// Call through a function pointer in `callee` (tag and EXECUTE
    /// permission checked under capability profiles).
    CallIndirect { dst: Reg, callee: Reg, args: Box<[Reg]> },
    /// Call a builtin/intrinsic; each argument carries its static type
    /// (the §4.5 polymorphic intrinsics dispatch on it).
    CallBuiltin { dst: Reg, b: Builtin, args: Box<[(Reg, TyId)]> },
    /// `return e;`.
    Ret { src: Reg },
    /// `return;` — yields `void` (even from `main`).
    RetVoid,
    /// Implicit function end: `main` yields 0, other functions `void`.
    RetFall,

    // ── Locals ──────────────────────────────────────────────────────────
    /// Allocate a fresh object for a local declaration (every execution —
    /// loop iterations re-allocate); `zero` pre-zeroes aggregates with
    /// initialisers. The object is pushed on the frame kill list.
    AllocLocal { dst: Reg, name: StrId, size: u64, align: u64, zero: bool },
    /// Freeze a `const` local's capability read-only (§3.9).
    FreezeLoc { dst: Reg, src: Reg },
    /// Bind a slot to the object in `src` (after initialisation).
    BindSlot { slot: u32, src: Reg },
    /// Store a string-literal initialiser byte-by-byte into `loc`.
    InitStr { loc: Reg, s: StrId, elem: u64 },
    /// A construct the engine does not support: fail with the tree
    /// engine's message when (and only when) reached.
    Unsupported { msg: StrId },
}

/// A lowered function parameter: the callee allocates an object per
/// parameter (in order), stores the argument value, and binds the slot.
#[derive(Clone, Debug)]
pub struct IrParam {
    /// The slot the parameter binds.
    pub slot: u32,
    /// Pretty (unmangled) name, for the allocation label.
    pub name: StrId,
    /// Declared type.
    pub ty: TyId,
    /// Object size in bytes.
    pub size: u64,
    /// Object alignment in bytes.
    pub align: u64,
}

/// What lowering recorded about one local slot: the facts the fast
/// mode's promotion decision reads ([`escape`], DESIGN.md §12).
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalFacts {
    /// Pretty (unmangled) name, once the slot's parameter or declaration
    /// is lowered; `None` for a declaration an optimisation pass deleted,
    /// which gets no decision.
    pub name: Option<StrId>,
    /// Why the local must stay in memory; empty when it may be promoted.
    pub why_not: escape::WhyNotSet,
}

/// A lowered function: flat, linked code plus block boundaries (kept for
/// the pretty-printer; jumps hold absolute instruction offsets).
#[derive(Clone, Debug)]
pub struct IrFunc {
    /// Function name.
    pub name: String,
    /// Is this `main` (affects the implicit return value)?
    pub is_main: bool,
    /// Parameters, in declaration order.
    pub params: Vec<IrParam>,
    /// Number of local slots (params + declarations): the length of the
    /// function's locals table, one slot per [`crate::tast::LocalId`].
    pub n_slots: u32,
    /// Number of virtual registers.
    pub n_regs: u32,
    /// Linked instruction stream.
    pub code: Vec<Inst>,
    /// Starting offset of each basic block (ascending; for rendering).
    pub block_pc: Vec<u32>,
    /// Per slot, the facts lowering recorded for the promotion decision.
    pub locals: Vec<LocalFacts>,
    /// Fast mode only: `(slot, reg)` pairs for register-promoted locals
    /// (empty in the default pipeline). The VM consults this to pass
    /// promoted *parameters* in registers; promoted declarations were
    /// rewritten in place by [`promote`].
    pub promoted: Vec<(u32, Reg)>,
}

/// A whole lowered program with its constant pools.
#[derive(Clone, Debug, Default)]
pub struct IrProgram {
    /// Functions, sorted by name (deterministic ids and dumps).
    pub funcs: Vec<IrFunc>,
    /// Name → [`FuncId`] index.
    pub func_index: BTreeMap<String, u32>,
    /// Type pool (deduplicated, insertion order).
    pub types: Vec<Ty>,
    /// String pool (names, literals, messages; deduplicated).
    pub strs: Vec<String>,
    /// Global object names, indexed by [`GlobalId`]: declaration order,
    /// hoisted `static` locals, then the undeclared `stderr`/`stdout`.
    pub globals: Vec<String>,
    /// The entry function, when the program defines `main`.
    pub main: Option<u32>,
}

impl IrProgram {
    /// Total instruction count across all functions.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// Render the program in the stable `--emit-ir` format: pools first,
    /// then each function as labelled basic blocks with symbolic jump
    /// targets. The output is deterministic for a given source program
    /// and target layout.
    #[must_use]
    #[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "ir: {} funcs, {} insts", self.funcs.len(), self.code_len());
        if !self.types.is_empty() {
            out.push_str("types:\n");
            for (i, t) in self.types.iter().enumerate() {
                let _ = writeln!(out, "  t{i}: {t}");
            }
        }
        if !self.strs.is_empty() {
            out.push_str("strings:\n");
            for (i, s) in self.strs.iter().enumerate() {
                let _ = writeln!(out, "  s{i}: {s:?}");
            }
        }
        if !self.globals.is_empty() {
            out.push_str("globals:\n");
            for (i, g) in self.globals.iter().enumerate() {
                let _ = writeln!(out, "  g{i}: {g}");
            }
        }
        for (fi, f) in self.funcs.iter().enumerate() {
            let params: Vec<String> = f
                .params
                .iter()
                .map(|p| format!("slot{}: t{} {:?}", p.slot, p.ty.0, self.strs[p.name.0 as usize]))
                .collect();
            let promoted = if f.promoted.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> =
                    f.promoted.iter().map(|&(s, r)| format!("slot{s}:r{r}")).collect();
                format!(" promoted=[{}]", pairs.join(", "))
            };
            let _ = writeln!(
                out,
                "\nfunc f{fi} {}({}) slots={} regs={}{}{}",
                f.name,
                params.join(", "),
                f.n_slots,
                f.n_regs,
                promoted,
                if f.is_main { " [main]" } else { "" },
            );
            // Map pc → block label for jump rendering.
            let block_of = |pc: u32| -> String {
                match f.block_pc.binary_search(&pc) {
                    Ok(b) => format!("b{b}"),
                    // A jump target is always a block start; fall back to a
                    // raw offset if a malformed program says otherwise.
                    Err(_) => format!("@{pc}"),
                }
            };
            let mut next_block = 0usize;
            for (pc, inst) in f.code.iter().enumerate() {
                while next_block < f.block_pc.len() && f.block_pc[next_block] == pc as u32 {
                    let _ = writeln!(out, "  b{next_block}:");
                    next_block += 1;
                }
                let _ = writeln!(out, "    {:4}: {}", pc, self.render_inst(inst, &block_of));
            }
            // Trailing empty blocks (e.g. an unreachable end block).
            while next_block < f.block_pc.len() && f.block_pc[next_block] == f.code.len() as u32 {
                let _ = writeln!(out, "  b{next_block}:");
                next_block += 1;
            }
        }
        out
    }

    #[allow(clippy::too_many_lines)]
    fn render_inst(&self, inst: &Inst, block_of: &dyn Fn(u32) -> String) -> String {
        let s = |id: StrId| format!("{:?}", self.strs[id.0 as usize]);
        match inst {
            Inst::ConstInt { dst, ity, v } => format!("r{dst} = const.{ity} {v}"),
            Inst::ConstFloat { dst, fty, v } => format!("r{dst} = const.{fty} {v:?}"),
            Inst::StrLit { dst, s: sid, ty } => {
                format!("r{dst} = str t{} {}", ty.0, s(*sid))
            }
            Inst::FuncAddr { dst, name, ty } => {
                format!("r{dst} = funcaddr t{} {}", ty.0, s(*name))
            }
            Inst::Move { dst, src } => format!("r{dst} = r{src}"),
            Inst::BoolOf { dst, src } => format!("r{dst} = bool r{src}"),
            Inst::SetVoid { dst } => format!("r{dst} = void"),
            Inst::SlotLoc { dst, slot, name } => {
                format!("r{dst} = slot{slot} ({})", s(*name))
            }
            Inst::GlobalLoc { dst, g } => {
                format!("r{dst} = global g{} ({})", g.0, self.globals[g.0 as usize])
            }
            Inst::DerefLoc { dst, src } => format!("r{dst} = deref r{src}"),
            Inst::MemberShift { dst, src, off } => format!("r{dst} = r{src} .+ {off}"),
            Inst::Load { dst, loc, ty } => format!("r{dst} = load.t{} [r{loc}]", ty.0),
            Inst::Store { loc, ty, src } => format!("store.t{} [r{loc}] = r{src}", ty.0),
            Inst::AddrOf { dst, loc, ty, narrow } => match narrow {
                Some(n) => format!("r{dst} = addrof.t{} r{loc} narrow={n}", ty.0),
                None => format!("r{dst} = addrof.t{} r{loc}", ty.0),
            },
            Inst::MemcpyAgg { dst, src, n } => format!("memcpy [r{dst}] [r{src}] {n}"),
            Inst::OptMemcpy { dst, src, n } => format!("optmemcpy r{dst} r{src} r{n}"),
            Inst::Binary { dst, op, ity, derive, lhs, rhs, .. } => {
                format!("r{dst} = {op:?}.{ity} r{lhs} r{rhs} ({derive:?})")
            }
            Inst::Unary { dst, op, ity, src } => format!("r{dst} = {op:?}.{ity} r{src}"),
            Inst::PtrAdd { dst, ptr, idx, elem, neg, ty } => format!(
                "r{dst} = ptradd.t{} r{ptr} {} r{idx} * {elem}",
                ty.0,
                if *neg { "-" } else { "+" },
            ),
            Inst::PtrDiff { dst, a, b, elem } => {
                format!("r{dst} = ptrdiff r{a} r{b} / {elem}")
            }
            Inst::PtrCmp { dst, op, a, b } => format!("r{dst} = ptrcmp.{op:?} r{a} r{b}"),
            Inst::IncDec { dst, loc, ty, inc, prefix, elem } => format!(
                "r{dst} = {}{}.t{} [r{loc}] elem={elem}",
                if *prefix { "pre" } else { "post" },
                if *inc { "inc" } else { "dec" },
                ty.0,
            ),
            Inst::AssignOpInt { dst, loc, ty, lt, ct, op, derive, cur, rhs } => format!(
                "r{dst} = assignop.{op:?} [r{loc}]:t{} cur=r{cur} rhs=r{rhs} {lt}->{ct} ({derive:?})",
                ty.0,
            ),
            Inst::AssignOpFloat { dst, loc, ty, common, op, cur, rhs } => format!(
                "r{dst} = assignop.{op:?} [r{loc}]:t{} cur=r{cur} rhs=r{rhs} common={common}",
                ty.0,
            ),
            Inst::PtrAssignAdd { dst, loc, ty, cur, idx, elem, neg } => format!(
                "r{dst} = ptrassign.t{} [r{loc}] cur=r{cur} {} r{idx} * {elem}",
                ty.0,
                if *neg { "-" } else { "+" },
            ),
            Inst::RegIncDec { dst, reg, inc, prefix, elem } => format!(
                "r{dst} = {}{}.reg r{reg} elem={elem}",
                if *prefix { "pre" } else { "post" },
                if *inc { "inc" } else { "dec" },
            ),
            Inst::RegAssignOpInt { dst, reg, lt, ct, op, derive, cur, rhs } => format!(
                "r{dst} = assignop.{op:?} reg=r{reg} cur=r{cur} rhs=r{rhs} {lt}->{ct} ({derive:?})",
            ),
            Inst::RegAssignOpFloat { dst, reg, ty, common, op, cur, rhs } => format!(
                "r{dst} = assignop.{op:?} reg=r{reg}:t{} cur=r{cur} rhs=r{rhs} common={common}",
                ty.0,
            ),
            Inst::RegPtrAssignAdd { dst, reg, ty, cur, idx, elem, neg } => format!(
                "r{dst} = ptrassign.t{} reg=r{reg} cur=r{cur} {} r{idx} * {elem}",
                ty.0,
                if *neg { "-" } else { "+" },
            ),
            Inst::IntToInt { dst, src, to } => format!("r{dst} = int.{to} r{src}"),
            Inst::PtrToInt { dst, src, to, size } => {
                format!("r{dst} = ptr2int.{to} r{src} size={size}")
            }
            Inst::IntToPtr { dst, src, ty } => format!("r{dst} = int2ptr.t{} r{src}", ty.0),
            Inst::PtrToPtr { dst, src, ty } => format!("r{dst} = ptrcast.t{} r{src}", ty.0),
            Inst::IntToFloat { dst, src, fty } => format!("r{dst} = int2float.{fty} r{src}"),
            Inst::FloatToInt { dst, src, to } => format!("r{dst} = float2int.{to} r{src}"),
            Inst::FloatToFloat { dst, src, fty } => format!("r{dst} = float.{fty} r{src}"),
            Inst::ToBool { dst, src } => format!("r{dst} = tobool r{src}"),
            Inst::Jump { target } => format!("jump {}", block_of(*target)),
            Inst::JumpIfFalse { src, target } => {
                format!("jump_if_false r{src} {}", block_of(*target))
            }
            Inst::JumpIfTrue { src, target } => {
                format!("jump_if_true r{src} {}", block_of(*target))
            }
            Inst::SwitchInt { src, cases, end } => {
                let arms: Vec<String> = cases
                    .iter()
                    .map(|(v, t)| match v {
                        Some(v) => format!("{v} -> {}", block_of(*t)),
                        None => format!("default -> {}", block_of(*t)),
                    })
                    .collect();
                format!("switch r{src} [{}] end {}", arms.join(", "), block_of(*end))
            }
            Inst::CallDirect { dst, f, args } => {
                let a: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
                format!(
                    "r{dst} = call f{} {} ({})",
                    f.0,
                    self.funcs[f.0 as usize].name,
                    a.join(", "),
                )
            }
            Inst::CallIndirect { dst, callee, args } => {
                let a: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
                format!("r{dst} = call_indirect r{callee} ({})", a.join(", "))
            }
            Inst::CallBuiltin { dst, b, args } => {
                let a: Vec<String> = args
                    .iter()
                    .map(|(r, t)| format!("r{r}: t{}", t.0))
                    .collect();
                format!("r{dst} = builtin {b:?} ({})", a.join(", "))
            }
            Inst::Ret { src } => format!("ret r{src}"),
            Inst::RetVoid => "ret void".into(),
            Inst::RetFall => "ret fallthrough".into(),
            Inst::AllocLocal { dst, name, size, align, zero } => format!(
                "r{dst} = alloc {} size={size} align={align}{}",
                s(*name),
                if *zero { " zero" } else { "" },
            ),
            Inst::FreezeLoc { dst, src } => format!("r{dst} = freeze r{src}"),
            Inst::BindSlot { slot, src } => format!("slot{slot} = r{src}"),
            Inst::InitStr { loc, s: sid, elem } => {
                format!("initstr [r{loc}] {} elem={elem}", s(*sid))
            }
            Inst::Unsupported { msg } => format!("unsupported {}", s(*msg)),
        }
    }
}
