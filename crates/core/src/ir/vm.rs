//! The bytecode engine: a flat match-on-opcode loop over [`Inst`].
//!
//! The VM owns control flow: explicit frames, the pc, registers and slot
//! bindings. Every C operation — arithmetic, `++`/`--`, compound
//! assignment, pointer arithmetic and comparison, casts, indirect-call
//! checks, the call-depth limit, loads, stores, builtins — is the same
//! `Interp` method the tree engine calls, so the two engines produce
//! identical memory-event streams, statistics and error messages by
//! construction. This file raises no undefined behaviour itself. A
//! memory-form instruction and its register (`--fast`) form differ only
//! in where they read and write the target.
//!
//! Frame teardown mirrors the tree engine exactly: a returning (or
//! unwinding) frame kills its locals in reverse allocation order; a kill
//! error replaces the in-flight error and aborts that frame's remaining
//! kills, while outer frames still run theirs.

use cheri_cap::Capability;
use cheri_mem::{IntVal, PtrVal};

use crate::interp::{EResult, Interp, Stop, Value};
use crate::types::IntTy;

use super::{Inst, IrProgram, Reg};

/// A virtual register: either a value or an object location (lvalue).
enum RVal<C: Capability> {
    Val(Value<C>),
    Loc(PtrVal<C>),
}

struct VmFrame<C: Capability> {
    func: u32,
    pc: u32,
    regs: Vec<RVal<C>>,
    slots: Vec<Option<PtrVal<C>>>,
    to_kill: Vec<PtrVal<C>>,
    ret_dst: Reg,
}

fn val<C: Capability>(frame: &VmFrame<C>, r: Reg) -> EResult<&Value<C>> {
    match &frame.regs[r as usize] {
        RVal::Val(v) => Ok(v),
        RVal::Loc(_) => Err(Stop::Unsupported("location register used as value".into())),
    }
}

fn loc<C: Capability>(frame: &VmFrame<C>, r: Reg) -> EResult<&PtrVal<C>> {
    match &frame.regs[r as usize] {
        RVal::Loc(p) => Ok(p),
        RVal::Val(_) => Err(Stop::Unsupported("value register used as location".into())),
    }
}

/// Copy the argument registers `regs` into the empty buffer `args`.
fn collect_args<C: Capability>(
    frame: &VmFrame<C>,
    regs: impl Iterator<Item = Reg>,
    args: &mut Vec<Value<C>>,
) -> EResult<()> {
    for r in regs {
        args.push(val(frame, r)?.clone());
    }
    Ok(())
}

/// Run a lowered program to completion against `it` (whose world —
/// globals, function sentries, streams — must already be set up) and
/// return the exit code, exactly as the tree engine's `main` call does.
pub(crate) fn execute<C: Capability>(it: &mut Interp<'_, C>, ir: &IrProgram) -> EResult<i64> {
    let main = ir.main.expect("program has no `main`");
    let mut frames: Vec<VmFrame<C>> = Vec::new();
    push_frame(it, ir, &mut frames, main, &mut Vec::new(), 0)?;
    match run_loop(it, ir, &mut frames) {
        // One shared conversion with the tree engine (see
        // `interp::exit_code`): the engines cannot drift on how wide or
        // unsigned returns from `main` become exit statuses.
        Ok(v) => Ok(crate::interp::exit_code(&v)),
        Err(e) => Err(unwind(it, &mut frames, e)),
    }
}

/// Allocate a callee frame: depth check first, then per-parameter object
/// allocation + argument store + slot binding, in declaration order. A
/// parameter-setup error leaves already-allocated objects alive (tree
/// engine parity: its kill loop is skipped on that path too). The
/// arguments are drained from `args`, which keeps its capacity.
fn push_frame<C: Capability>(
    it: &mut Interp<'_, C>,
    ir: &IrProgram,
    frames: &mut Vec<VmFrame<C>>,
    f: u32,
    args: &mut Vec<Value<C>>,
    ret_dst: Reg,
) -> EResult<()> {
    it.enter_call()?;
    let func = &ir.funcs[f as usize];
    let mut frame = VmFrame {
        func: f,
        pc: 0,
        regs: Vec::new(),
        slots: vec![None; func.n_slots as usize],
        to_kill: Vec::new(),
        ret_dst,
    };
    frame
        .regs
        .resize_with(func.n_regs as usize, || RVal::Val(Value::Void));
    for (p, v) in func.params.iter().zip(args.drain(..)) {
        // Fast mode (DESIGN.md §12): a register-promoted parameter is
        // passed straight into its register — no object, no store, no
        // kill-list entry. The escape analysis proved no address of it is
        // ever taken, so nothing can observe the missing allocation
        // besides the (out-of-contract) event trace and statistics.
        if let Some(&(_, r)) = func.promoted.iter().find(|&&(s, _)| s == p.slot) {
            frame.regs[r as usize] = RVal::Val(v);
            continue;
        }
        let ty = &ir.types[p.ty.0 as usize];
        let obj = it
            .mem
            .allocate_object(&ir.strs[p.name.0 as usize], p.size, p.align, false, None)?;
        it.store_value(&obj, ty, &v)?;
        frame.to_kill.push(obj.clone());
        frame.slots[p.slot as usize] = Some(obj);
    }
    frames.push(frame);
    Ok(())
}

/// Pop the top frame with return value `v`: kill locals in reverse, then
/// either deliver `v` to the caller's destination register or — if that
/// was the outermost frame — yield it as the program result.
fn pop_return<C: Capability>(
    it: &mut Interp<'_, C>,
    frames: &mut Vec<VmFrame<C>>,
    v: Value<C>,
) -> EResult<Option<Value<C>>> {
    let mut fr = frames.pop().expect("active frame");
    for p in fr.to_kill.drain(..).rev() {
        it.mem.kill(&p, false)?;
    }
    it.call_depth -= 1;
    match frames.last_mut() {
        Some(parent) => {
            parent.regs[fr.ret_dst as usize] = RVal::Val(v);
            Ok(None)
        }
        None => Ok(Some(v)),
    }
}

/// Unwind all live frames after an error, killing each frame's locals
/// innermost-first. A kill error replaces the propagating error and
/// aborts that frame's remaining kills (tree-engine semantics).
fn unwind<C: Capability>(
    it: &mut Interp<'_, C>,
    frames: &mut Vec<VmFrame<C>>,
    mut e: Stop,
) -> Stop {
    while let Some(mut fr) = frames.pop() {
        for p in fr.to_kill.drain(..).rev() {
            if let Err(ke) = it.mem.kill(&p, false) {
                e = Stop::Mem(ke);
                break;
            }
        }
        it.call_depth -= 1;
    }
    e
}

/// A control transfer that needs the whole frame stack: the dispatch loop
/// executes straight-line code against a single borrowed frame and only
/// surfaces to push or pop frames, so the per-instruction path touches
/// neither the frame vector nor the function table. A call's arguments
/// wait in the loop's argument buffer.
enum Xfer<C: Capability> {
    Call { f: u32, dst: Reg },
    Ret(Value<C>),
}

fn run_loop<C: Capability>(
    it: &mut Interp<'_, C>,
    ir: &IrProgram,
    frames: &mut Vec<VmFrame<C>>,
) -> EResult<Value<C>> {
    // Argument values of the call being made, reused by every call so
    // that passing arguments does not allocate.
    let mut args = Vec::new();
    loop {
        let xfer = {
            let frame = frames.last_mut().expect("active frame");
            let func = &ir.funcs[frame.func as usize];
            dispatch(it, ir, frame, func, &mut args)?
        };
        match xfer {
            Xfer::Call { f, dst } => push_frame(it, ir, frames, f, &mut args, dst)?,
            Xfer::Ret(v) => {
                if let Some(out) = pop_return(it, frames, v)? {
                    return Ok(out);
                }
            }
        }
    }
}

/// Execute instructions in `frame` until a call or return transfers
/// control to another frame. `args` is the (empty) argument buffer.
#[allow(clippy::too_many_lines)]
fn dispatch<C: Capability>(
    it: &mut Interp<'_, C>,
    ir: &IrProgram,
    frame: &mut VmFrame<C>,
    func: &super::IrFunc,
    args: &mut Vec<Value<C>>,
) -> EResult<Xfer<C>> {
    loop {
        let inst = &func.code[frame.pc as usize];
        frame.pc += 1;
        it.tick()?;
        match inst {
            // ── Constants and addresses ─────────────────────────────────
            Inst::ConstInt { dst, ity, v } => {
                let v = it.mk_int(*ity, *v);
                frame.regs[*dst as usize] = RVal::Val(Value::Int { ity: *ity, v });
            }
            Inst::ConstFloat { dst, fty, v } => {
                frame.regs[*dst as usize] = RVal::Val(Value::Float { fty: *fty, v: *v });
            }
            Inst::StrLit { dst, s, ty: _ } => {
                let p = it.intern_string(&ir.strs[s.0 as usize])?;
                frame.regs[*dst as usize] = RVal::Val(Value::Ptr(p));
            }
            Inst::FuncAddr { dst, name, ty: _ } => {
                let v = it.func_addr(&ir.strs[name.0 as usize])?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::Move { dst, src } => {
                let v = match &frame.regs[*src as usize] {
                    RVal::Val(v) => RVal::Val(v.clone()),
                    RVal::Loc(p) => RVal::Loc(p.clone()),
                };
                frame.regs[*dst as usize] = v;
            }
            Inst::BoolOf { dst, src } => {
                let b = val(frame, *src)?.truthy();
                frame.regs[*dst as usize] = RVal::Val(Value::Int {
                    ity: IntTy::Int,
                    v: IntVal::Num(i128::from(b)),
                });
            }
            Inst::SetVoid { dst } => {
                frame.regs[*dst as usize] = RVal::Val(Value::Void);
            }

            // ── Locations ───────────────────────────────────────────────
            Inst::SlotLoc { dst, slot, name } => {
                let p = frame.slots[*slot as usize].clone().ok_or_else(|| {
                    Stop::Unsupported(format!(
                        "unbound variable `{}`",
                        ir.strs[name.0 as usize]
                    ))
                })?;
                frame.regs[*dst as usize] = RVal::Loc(p);
            }
            Inst::GlobalLoc { dst, g } => {
                // The world setup allocated (and froze) every global.
                frame.regs[*dst as usize] = RVal::Loc(it.globals[g.0 as usize].clone());
            }
            Inst::DerefLoc { dst, src } => {
                let p = it.deref(val(frame, *src)?.clone())?;
                frame.regs[*dst as usize] = RVal::Loc(p);
            }
            Inst::MemberShift { dst, src, off } => {
                let q = {
                    let p = loc(frame, *src)?;
                    it.mem.member_shift(p, *off)
                };
                frame.regs[*dst as usize] = RVal::Loc(q);
            }

            // ── Memory ──────────────────────────────────────────────────
            Inst::Load { dst, loc: l, ty } => {
                let v = {
                    let p = loc(frame, *l)?;
                    it.load_value(p, &ir.types[ty.0 as usize])?
                };
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::Store { loc: l, ty, src } => {
                let p = loc(frame, *l)?;
                let v = val(frame, *src)?;
                it.store_value(p, &ir.types[ty.0 as usize], v)?;
            }
            Inst::AddrOf { dst, loc: l, ty: _, narrow } => {
                let p = loc(frame, *l)?.clone();
                let p = match narrow {
                    Some(size) => it.narrow_subobject(p, *size),
                    None => p,
                };
                frame.regs[*dst as usize] = RVal::Val(Value::Ptr(p));
            }
            Inst::MemcpyAgg { dst, src, n } => {
                let d = loc(frame, *dst)?.clone();
                let s = loc(frame, *src)?.clone();
                it.mem.memcpy(&d, &s, *n)?;
            }
            Inst::OptMemcpy { dst, src, n } => {
                it.opt_memcpy(val(frame, *dst)?, val(frame, *src)?, val(frame, *n)?)?;
            }

            // ── Arithmetic ──────────────────────────────────────────────
            Inst::Binary { dst, op, ity, ty, derive, lhs, rhs } => {
                let res = {
                    let l = val(frame, *lhs)?;
                    let r = val(frame, *rhs)?;
                    if l.as_float().is_some() || r.as_float().is_some() {
                        it.binary_float(*op, l, r, &ir.types[ty.0 as usize])?
                    } else {
                        it.binary_int(*op, l, r, *ity, *derive)?
                    }
                };
                frame.regs[*dst as usize] = RVal::Val(res);
            }
            Inst::Unary { dst, op, ity, src } => {
                let res = it.unary_int(*op, val(frame, *src)?, *ity)?;
                frame.regs[*dst as usize] = RVal::Val(res);
            }
            Inst::PtrAdd { dst, ptr, idx, elem, neg, ty: _ } => {
                let v = it.ptr_add(val(frame, *ptr)?, val(frame, *idx)?, *elem, *neg)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::PtrDiff { dst, a, b, elem } => {
                let v = it.ptr_diff(val(frame, *a)?, val(frame, *b)?, *elem)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::PtrCmp { dst, op, a, b } => {
                let v = it.ptr_compare(*op, val(frame, *a)?, val(frame, *b)?)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }

            // ── Compound assignment ─────────────────────────────────────
            // Each memory form loads from and stores to the object at
            // `loc`; its register form (fast mode) reads and writes the
            // promoted register `reg` instead. The operation between is one
            // `Interp` call, the same in both and in the tree engine.
            Inst::IncDec { dst, loc: l, ty, inc, prefix, elem } => {
                let p = loc(frame, *l)?;
                let ty = &ir.types[ty.0 as usize];
                let old = it.load_value(p, ty)?;
                let new = it.inc_dec(&old, *inc, *elem)?;
                it.store_value(p, ty, &new)?;
                frame.regs[*dst as usize] = RVal::Val(if *prefix { new } else { old });
            }
            Inst::RegIncDec { dst, reg, inc, prefix, elem } => {
                let old = val(frame, *reg)?.clone();
                let new = it.inc_dec(&old, *inc, *elem)?;
                frame.regs[*reg as usize] = RVal::Val(new.clone());
                frame.regs[*dst as usize] = RVal::Val(if *prefix { new } else { old });
            }
            Inst::AssignOpInt { dst, loc: l, ty, lt, ct, op, derive, cur, rhs } => {
                let p = loc(frame, *l)?;
                let (cur, rhs) = (val(frame, *cur)?, val(frame, *rhs)?);
                let out = it.assign_op_int(*op, cur, rhs, *lt, *ct, *derive)?;
                it.store_value(p, &ir.types[ty.0 as usize], &out)?;
                frame.regs[*dst as usize] = RVal::Val(out);
            }
            Inst::RegAssignOpInt { dst, reg, lt, ct, op, derive, cur, rhs } => {
                let (cur, rhs) = (val(frame, *cur)?, val(frame, *rhs)?);
                let out = it.assign_op_int(*op, cur, rhs, *lt, *ct, *derive)?;
                frame.regs[*reg as usize] = RVal::Val(out.clone());
                frame.regs[*dst as usize] = RVal::Val(out);
            }
            Inst::AssignOpFloat { dst, loc: l, ty, common, op, cur, rhs } => {
                let p = loc(frame, *l)?;
                let ty = &ir.types[ty.0 as usize];
                let (cur, rhs) = (val(frame, *cur)?, val(frame, *rhs)?);
                let out = it.assign_op_float(*op, cur, rhs, *common, ty)?;
                it.store_value(p, ty, &out)?;
                frame.regs[*dst as usize] = RVal::Val(out);
            }
            Inst::RegAssignOpFloat { dst, reg, ty, common, op, cur, rhs } => {
                let ty = &ir.types[ty.0 as usize];
                let (cur, rhs) = (val(frame, *cur)?, val(frame, *rhs)?);
                let out = it.assign_op_float(*op, cur, rhs, *common, ty)?;
                frame.regs[*reg as usize] = RVal::Val(out.clone());
                frame.regs[*dst as usize] = RVal::Val(out);
            }
            Inst::PtrAssignAdd { dst, loc: l, ty, cur, idx, elem, neg } => {
                let p = loc(frame, *l)?;
                let (cur, idx) = (val(frame, *cur)?, val(frame, *idx)?);
                let out = it.ptr_add(cur, idx, *elem, *neg)?;
                it.store_value(p, &ir.types[ty.0 as usize], &out)?;
                frame.regs[*dst as usize] = RVal::Val(out);
            }
            Inst::RegPtrAssignAdd { dst, reg, ty: _, cur, idx, elem, neg } => {
                let (cur, idx) = (val(frame, *cur)?, val(frame, *idx)?);
                let out = it.ptr_add(cur, idx, *elem, *neg)?;
                frame.regs[*reg as usize] = RVal::Val(out.clone());
                frame.regs[*dst as usize] = RVal::Val(out);
            }

            // ── Casts ───────────────────────────────────────────────────
            Inst::IntToInt { dst, src, to } => {
                let v = it.int_to_int(val(frame, *src)?, *to)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::PtrToInt { dst, src, to, size } => {
                let v = it.ptr_to_int(val(frame, *src)?, *to, *size)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::IntToPtr { dst, src, ty: _ } => {
                let v = it.int_to_ptr(val(frame, *src)?)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::PtrToPtr { dst, src, ty: _ } => {
                let v = it.ptr_to_ptr(val(frame, *src)?)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::IntToFloat { dst, src, fty } => {
                let v = it.int_to_float(val(frame, *src)?, *fty)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::FloatToInt { dst, src, to } => {
                let v = it.float_to_int(val(frame, *src)?, *to)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::FloatToFloat { dst, src, fty } => {
                let v = it.float_to_float(val(frame, *src)?, *fty)?;
                frame.regs[*dst as usize] = RVal::Val(v);
            }
            Inst::ToBool { dst, src } => {
                let b = val(frame, *src)?.truthy();
                frame.regs[*dst as usize] = RVal::Val(Value::Int {
                    ity: IntTy::Bool,
                    v: IntVal::Num(i128::from(b)),
                });
            }

            // ── Control flow ────────────────────────────────────────────
            Inst::Jump { target } => frame.pc = *target,
            Inst::JumpIfFalse { src, target } => {
                if !val(frame, *src)?.truthy() {
                    frame.pc = *target;
                }
            }
            Inst::JumpIfTrue { src, target } => {
                if val(frame, *src)?.truthy() {
                    frame.pc = *target;
                }
            }
            Inst::SwitchInt { src, cases, end } => {
                let n = val(frame, *src)?.as_int().map(IntVal::value).unwrap_or(0);
                let mut t = *end;
                if let Some((_, tt)) = cases.iter().find(|(v, _)| *v == Some(n)) {
                    t = *tt;
                } else if let Some((_, tt)) = cases.iter().find(|(v, _)| v.is_none()) {
                    t = *tt;
                }
                frame.pc = t;
            }

            // ── Calls and returns ───────────────────────────────────────
            Inst::CallDirect { dst, f, args: regs } => {
                collect_args(frame, regs.iter().copied(), args)?;
                return Ok(Xfer::Call { f: f.0, dst: *dst });
            }
            Inst::CallIndirect { dst, callee, args: regs } => {
                let f = *it.indirect_callee(val(frame, *callee)?, &ir.func_index)?;
                collect_args(frame, regs.iter().copied(), args)?;
                return Ok(Xfer::Call { f, dst: *dst });
            }
            Inst::CallBuiltin { dst, b, args: regs } => {
                collect_args(frame, regs.iter().map(|&(r, _)| r), args)?;
                let res = it.eval_builtin(*b, args);
                args.clear();
                frame.regs[*dst as usize] = RVal::Val(res?);
            }
            Inst::Ret { src } => {
                let v = val(frame, *src)?.clone();
                return Ok(Xfer::Ret(v));
            }
            Inst::RetVoid => return Ok(Xfer::Ret(Value::Void)),
            Inst::RetFall => {
                let v = if func.is_main {
                    Value::Int { ity: IntTy::Int, v: IntVal::Num(0) }
                } else {
                    Value::Void
                };
                return Ok(Xfer::Ret(v));
            }

            // ── Locals ──────────────────────────────────────────────────
            Inst::AllocLocal { dst, name, size, align, zero } => {
                let p = it
                    .mem
                    .allocate_object(&ir.strs[name.0 as usize], *size, *align, false, None)?;
                frame.to_kill.push(p.clone());
                if *zero {
                    it.mem.memset(&p, 0, *size)?;
                }
                frame.regs[*dst as usize] = RVal::Loc(p);
            }
            Inst::FreezeLoc { dst, src } => {
                let q = {
                    let p = loc(frame, *src)?;
                    it.mem.freeze_readonly(p)?
                };
                frame.regs[*dst as usize] = RVal::Loc(q);
            }
            Inst::BindSlot { slot, src } => {
                let p = loc(frame, *src)?.clone();
                frame.slots[*slot as usize] = Some(p);
            }
            Inst::InitStr { loc: l, s, elem } => {
                it.init_str(loc(frame, *l)?, &ir.strs[s.0 as usize], *elem)?;
            }
            Inst::Unsupported { msg } => {
                return Err(Stop::Unsupported(ir.strs[msg.0 as usize].clone()))
            }
        }
    }
}
