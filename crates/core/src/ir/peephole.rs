//! Trace-preserving peephole optimisation over linked bytecode.
//!
//! The engine-differential contract (ROADMAP item 1) pins the *event
//! trace*, not the instruction count: the VM may execute fewer
//! instructions than the tree engine walks AST nodes, but every memory
//! effect — alloc, load, store, kill, intern — and every error must
//! happen identically. The passes here therefore only touch instructions
//! that are pure (no memory events, no statistics), infallible *or*
//! error-equivalent after the rewrite, and whose results are provably
//! unobservable afterwards:
//!
//! * **jump threading / jump-to-next elimination** — control-flow only;
//! * **pair fusion** — `BoolOf`/`ToBool` feeding a conditional jump reads
//!   the untested value directly (`truthy` is idempotent across both);
//!   adjacent `MemberShift`s over a dead intermediate combine their
//!   offsets (a pure address add; see the fusion site for why the
//!   intermediate representability check is preserved);
//! * **constant folding** — `ConstInt`/`ConstInt`/`Binary` triples (and
//!   `IntToInt`/`Unary` pairs) fold by calling what the interpreter runs
//!   ([`IntTy::arith`], `IntTy::wrap`), **only** when it returns a value —
//!   an operation that raises UB at runtime (`SignedOverflow`,
//!   `DivisionByZero`, `ShiftOutOfRange`) stays in place, so the error
//!   (and its event position) is unchanged;
//! * **dead-register elimination** — deletes pure, infallible defs
//!   (`ConstInt`, `ConstFloat`, `Move`, `SetVoid`, `GlobalLoc`) whose
//!   destination is dead, established by a backward liveness fixpoint
//!   over the instruction-level CFG.
//!
//! The only observable the passes change is the VM step counter, which is
//! not part of the differential contract (the engines already tick at
//! different granularities); a program can in principle move from "step
//! limit exceeded" to terminating, exactly as any VM speedup would.

use crate::ast::UnOp;
use crate::types::IntTy;

use super::{Inst, IrFunc, IrProgram, Reg};

/// Upper bound on optimisation rounds per function. Each round runs every
/// pass once and compacts the code; a round that changes nothing ends the
/// loop early. Two or three rounds reach the fixpoint in practice (a
/// fusion exposes a dead def, the next round deletes it).
const MAX_ROUNDS: usize = 4;

/// Optimise every function of a lowered program in place.
pub fn optimize(ir: &mut IrProgram) {
    for f in &mut ir.funcs {
        for _ in 0..MAX_ROUNDS {
            let mut changed = thread_jumps(f);
            let mut lv = Liveness::compute(f);
            // Fusion rewrites nothing unless it reports a change, so its
            // liveness still describes the code dead-def elimination sees.
            if fuse_pairs(f, &lv) {
                changed = true;
                lv = Liveness::compute(f);
            }
            changed |= delete_dead(f, &lv);
            if !changed {
                break;
            }
        }
    }
}

// ── Register use/def and the instruction-level CFG ──────────────────────

/// Visit every register an instruction *reads*. For the register-promoted
/// finishers the promoted register itself is visited as a use even where
/// the finisher only writes it: the register is the local's storage, and
/// keeping it live is the conservative (sound) direction for every
/// consumer of this function.
pub(crate) fn for_each_use(inst: &Inst, mut f: impl FnMut(Reg)) {
    match inst {
        Inst::ConstInt { .. }
        | Inst::ConstFloat { .. }
        | Inst::StrLit { .. }
        | Inst::FuncAddr { .. }
        | Inst::SetVoid { .. }
        | Inst::SlotLoc { .. }
        | Inst::GlobalLoc { .. }
        | Inst::Jump { .. }
        | Inst::RetVoid
        | Inst::RetFall
        | Inst::AllocLocal { .. }
        | Inst::Unsupported { .. } => {}
        Inst::Move { src, .. }
        | Inst::BoolOf { src, .. }
        | Inst::DerefLoc { src, .. }
        | Inst::MemberShift { src, .. }
        | Inst::Unary { src, .. }
        | Inst::IntToInt { src, .. }
        | Inst::PtrToInt { src, .. }
        | Inst::IntToPtr { src, .. }
        | Inst::PtrToPtr { src, .. }
        | Inst::IntToFloat { src, .. }
        | Inst::FloatToInt { src, .. }
        | Inst::FloatToFloat { src, .. }
        | Inst::ToBool { src, .. }
        | Inst::JumpIfFalse { src, .. }
        | Inst::JumpIfTrue { src, .. }
        | Inst::SwitchInt { src, .. }
        | Inst::Ret { src }
        | Inst::FreezeLoc { src, .. }
        | Inst::BindSlot { src, .. } => f(*src),
        Inst::Load { loc, .. } | Inst::IncDec { loc, .. } | Inst::InitStr { loc, .. } => f(*loc),
        Inst::Store { loc, src, .. } => {
            f(*loc);
            f(*src);
        }
        Inst::AddrOf { loc, .. } => f(*loc),
        Inst::MemcpyAgg { dst, src, .. } => {
            // Both operands are *reads*: the registers hold the two
            // locations of the copy.
            f(*dst);
            f(*src);
        }
        Inst::OptMemcpy { dst, src, n } => {
            f(*dst);
            f(*src);
            f(*n);
        }
        Inst::Binary { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        Inst::PtrAdd { ptr, idx, .. } => {
            f(*ptr);
            f(*idx);
        }
        Inst::PtrDiff { a, b, .. } | Inst::PtrCmp { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Inst::AssignOpInt { loc, cur, rhs, .. } | Inst::AssignOpFloat { loc, cur, rhs, .. } => {
            f(*loc);
            f(*cur);
            f(*rhs);
        }
        Inst::PtrAssignAdd { loc, cur, idx, .. } => {
            f(*loc);
            f(*cur);
            f(*idx);
        }
        Inst::RegIncDec { reg, .. } => f(*reg),
        Inst::RegAssignOpInt { reg, cur, rhs, .. }
        | Inst::RegAssignOpFloat { reg, cur, rhs, .. } => {
            f(*reg);
            f(*cur);
            f(*rhs);
        }
        Inst::RegPtrAssignAdd { reg, cur, idx, .. } => {
            f(*reg);
            f(*cur);
            f(*idx);
        }
        Inst::CallDirect { args, .. } => {
            for &r in args {
                f(r);
            }
        }
        Inst::CallIndirect { callee, args, .. } => {
            f(*callee);
            for &r in args {
                f(r);
            }
        }
        Inst::CallBuiltin { args, .. } => {
            for &(r, _) in args {
                f(r);
            }
        }
    }
}

/// The register an instruction *writes*, if any. The register-promoted
/// finishers write two registers (`dst` and the promoted `reg`); only
/// `dst` is reported — a missing kill merely over-approximates liveness,
/// which is sound for fusion and dead-code decisions.
pub(crate) fn def_of(inst: &Inst) -> Option<Reg> {
    match inst {
        Inst::ConstInt { dst, .. }
        | Inst::ConstFloat { dst, .. }
        | Inst::StrLit { dst, .. }
        | Inst::FuncAddr { dst, .. }
        | Inst::Move { dst, .. }
        | Inst::BoolOf { dst, .. }
        | Inst::SetVoid { dst }
        | Inst::SlotLoc { dst, .. }
        | Inst::GlobalLoc { dst, .. }
        | Inst::DerefLoc { dst, .. }
        | Inst::MemberShift { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::AddrOf { dst, .. }
        | Inst::Binary { dst, .. }
        | Inst::Unary { dst, .. }
        | Inst::PtrAdd { dst, .. }
        | Inst::PtrDiff { dst, .. }
        | Inst::PtrCmp { dst, .. }
        | Inst::IncDec { dst, .. }
        | Inst::AssignOpInt { dst, .. }
        | Inst::AssignOpFloat { dst, .. }
        | Inst::PtrAssignAdd { dst, .. }
        | Inst::IntToInt { dst, .. }
        | Inst::PtrToInt { dst, .. }
        | Inst::IntToPtr { dst, .. }
        | Inst::PtrToPtr { dst, .. }
        | Inst::IntToFloat { dst, .. }
        | Inst::FloatToInt { dst, .. }
        | Inst::FloatToFloat { dst, .. }
        | Inst::ToBool { dst, .. }
        | Inst::CallDirect { dst, .. }
        | Inst::CallIndirect { dst, .. }
        | Inst::CallBuiltin { dst, .. }
        | Inst::AllocLocal { dst, .. }
        | Inst::FreezeLoc { dst, .. }
        | Inst::RegIncDec { dst, .. }
        | Inst::RegAssignOpInt { dst, .. }
        | Inst::RegAssignOpFloat { dst, .. }
        | Inst::RegPtrAssignAdd { dst, .. } => Some(*dst),
        Inst::Store { .. }
        | Inst::MemcpyAgg { .. }
        | Inst::OptMemcpy { .. }
        | Inst::Jump { .. }
        | Inst::JumpIfFalse { .. }
        | Inst::JumpIfTrue { .. }
        | Inst::SwitchInt { .. }
        | Inst::Ret { .. }
        | Inst::RetVoid
        | Inst::RetFall
        | Inst::BindSlot { .. }
        | Inst::InitStr { .. }
        | Inst::Unsupported { .. } => None,
    }
}

/// Successor pcs of the instruction at `pc`. Error exits are not edges:
/// no register value is observable past an error (the unwinder only runs
/// kills), so liveness may ignore them.
pub(crate) fn successors(code: &[Inst], pc: usize, mut f: impl FnMut(usize)) {
    match &code[pc] {
        Inst::Jump { target } => f(*target as usize),
        Inst::JumpIfFalse { target, .. } | Inst::JumpIfTrue { target, .. } => {
            f(pc + 1);
            f(*target as usize);
        }
        Inst::SwitchInt { cases, end, .. } => {
            for (_, t) in &**cases {
                f(*t as usize);
            }
            f(*end as usize);
        }
        Inst::Ret { .. } | Inst::RetVoid | Inst::RetFall | Inst::Unsupported { .. } => {}
        _ => {
            if pc + 1 < code.len() {
                f(pc + 1);
            }
        }
    }
}

/// Per-pc register liveness, as a dense bitset matrix. `live_after(pc)`
/// is the set of registers whose current value may still be read on some
/// path out of `pc` — the condition under which a def at `pc` (or an
/// intermediate of a fused pair ending at `pc`) is unobservable.
struct Liveness {
    words: usize,
    /// `live_in` per pc, backward-fixpoint result.
    live_in: Vec<u64>,
    n: usize,
}

impl Liveness {
    fn compute(func: &IrFunc) -> Liveness {
        Self::fixpoint(func).0
    }

    /// The least fixpoint of the backward equations, and how many sweeps
    /// reached it. A sweep from high to low pcs reads each forward
    /// successor after that successor's row is final for the sweep, so
    /// only a row that changes at the target of a backward edge (a
    /// self-loop included) can leave a predecessor's row stale: another
    /// sweep runs only when such a row changed. When none did, every row
    /// satisfies its equation. Rows start empty and only grow, never past
    /// the least fixpoint, so the fixpoint reached is the least one.
    fn fixpoint(func: &IrFunc) -> (Liveness, usize) {
        let code = &func.code;
        let n = code.len();
        let words = (func.n_regs as usize).div_ceil(64).max(1);
        let mut lv = Liveness {
            words,
            live_in: vec![0u64; n * words],
            n,
        };
        let mut back_target = vec![false; n];
        for pc in 0..n {
            successors(code, pc, |s| {
                if s <= pc {
                    back_target[s] = true;
                }
            });
        }
        let mut out = vec![0u64; words];
        let mut sweeps = 0;
        loop {
            sweeps += 1;
            let mut again = false;
            for pc in (0..n).rev() {
                out.fill(0);
                successors(code, pc, |s| {
                    if s < n {
                        for (o, l) in out.iter_mut().zip(&lv.live_in[s * words..(s + 1) * words]) {
                            *o |= l;
                        }
                    }
                });
                if let Some(d) = def_of(&code[pc]) {
                    out[d as usize / 64] &= !(1u64 << (d % 64));
                }
                for_each_use(&code[pc], |r| {
                    out[r as usize / 64] |= 1u64 << (r % 64);
                });
                let row = &mut lv.live_in[pc * words..(pc + 1) * words];
                if row != &out[..] {
                    row.copy_from_slice(&out);
                    again |= back_target[pc];
                }
            }
            if !again {
                return (lv, sweeps);
            }
        }
    }

    /// Is `r`'s value possibly read on some path *out of* `pc`?
    fn live_after(&self, func: &IrFunc, pc: usize, r: Reg) -> bool {
        let mut live = false;
        successors(&func.code, pc, |s| {
            if s < self.n {
                live |= self.live_in[s * self.words + r as usize / 64] >> (r % 64) & 1 != 0;
            }
        });
        live
    }
}

// ── Pass 1: jump threading ──────────────────────────────────────────────

/// Retarget jumps whose destination is an unconditional `Jump` (chains
/// followed with a hop bound as the cycle guard) and delete jumps to the
/// next instruction. Skipping a `Jump` skips only a `tick()`.
fn thread_jumps(func: &mut IrFunc) -> bool {
    // Where each pc jumps unconditionally; any other pc maps to itself,
    // which ends a chain exactly as a self-loop does.
    let hop: Vec<u32> = func
        .code
        .iter()
        .enumerate()
        .map(|(pc, inst)| match inst {
            Inst::Jump { target } => *target,
            _ => pc as u32,
        })
        .collect();
    let thread = |mut t: u32| -> u32 {
        for _ in 0..8 {
            match hop.get(t as usize) {
                Some(&next) if next != t => t = next,
                _ => break,
            }
        }
        t
    };
    let mut changed = false;
    for inst in &mut func.code {
        match inst {
            Inst::Jump { target }
            | Inst::JumpIfFalse { target, .. }
            | Inst::JumpIfTrue { target, .. } => {
                let t = thread(*target);
                if t != *target {
                    *target = t;
                    changed = true;
                }
            }
            Inst::SwitchInt { cases, end, .. } => {
                for (_, t) in cases.iter_mut() {
                    let tt = thread(*t);
                    if tt != *t {
                        *t = tt;
                        changed = true;
                    }
                }
                let tt = thread(*end);
                if tt != *end {
                    *end = tt;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    // Delete `jump pc+1` (every lowered `if`/loop join emits one).
    let keep: Vec<bool> = func
        .code
        .iter()
        .enumerate()
        .map(|(pc, inst)| !matches!(inst, Inst::Jump { target } if *target as usize == pc + 1))
        .collect();
    changed | compact(func, &keep)
}

// ── Pass 2: adjacent-pair fusion and constant folding ───────────────────

/// Fuse producer/consumer pairs at adjacent pcs. Every rewrite requires
/// the consumer's pc not to be a jump target (so all paths through the
/// consumer run the producer first) and the producer's result to be dead
/// after the consumer (liveness), making the intermediate unobservable.
#[allow(clippy::too_many_lines)]
fn fuse_pairs(func: &mut IrFunc, lv: &Liveness) -> bool {
    if func.code.is_empty() {
        return false;
    }
    // Jump targets are always block starts (a lowering invariant `link`
    // preserves), so the block table is the complete set of join points.
    let is_join = |pc: usize| func.block_pc.binary_search(&(pc as u32)).is_ok();
    let mut keep = vec![true; func.code.len()];
    let mut changed = false;
    for pc in 0..func.code.len() - 1 {
        if !keep[pc] || is_join(pc + 1) {
            continue;
        }
        match (&func.code[pc], &func.code[pc + 1]) {
            // `bool r; jump_if r` → `jump_if src`: the conditional jump
            // applies the same `truthy` the bool normalisation did, and
            // both read the operand through the same register access, so
            // values, errors and events are identical.
            (
                Inst::BoolOf { dst: d, src: s } | Inst::ToBool { dst: d, src: s },
                Inst::JumpIfFalse { src: js, target } | Inst::JumpIfTrue { src: js, target },
            ) if *js == *d && !lv.live_after(func, pc + 1, *d) => {
                let (s, target) = (*s, *target);
                let neg = matches!(func.code[pc + 1], Inst::JumpIfFalse { .. });
                func.code[pc + 1] = if neg {
                    Inst::JumpIfFalse { src: s, target }
                } else {
                    Inst::JumpIfTrue { src: s, target }
                };
                keep[pc] = false;
                changed = true;
            }
            // `d1 = s .+ a; d2 = d1 .+ b` → `d2 = s .+ (a+b)`: the shift
            // is a pure address add (`member_shift` emits no events). The
            // intermediate `with_address` representability check is
            // subsumed: member offsets are non-negative and `a + b` is
            // required not to wrap, so the intermediate address lies
            // between the base and final addresses, inside the same
            // contiguous representable window whenever both endpoints are.
            (
                Inst::MemberShift { dst: d1, src: s, off: a },
                Inst::MemberShift { dst: d2, src: s2, off: b },
            ) if *s2 == *d1 && *s != *d1 && !lv.live_after(func, pc + 1, *d1) => {
                if let Some(off) = a.checked_add(*b) {
                    func.code[pc + 1] = Inst::MemberShift { dst: *d2, src: *s, off };
                    keep[pc] = false;
                    changed = true;
                }
            }
            // `c1 = const; c2 = int.to c1` → `c2 = const.to wrapped`:
            // replicates `convert_int` (which for non-capability targets
            // is a plain wrap of the logical value).
            (
                Inst::ConstInt { dst: d1, ity, v },
                Inst::IntToInt { dst: d2, src, to },
            ) if *src == *d1
                && !ity.is_capability()
                && !to.is_capability()
                && !lv.live_after(func, pc + 1, *d1) =>
            {
                let folded = to.wrap(ity.wrap(*v));
                func.code[pc + 1] = Inst::ConstInt { dst: *d2, ity: *to, v: folded };
                keep[pc] = false;
                changed = true;
            }
            // `c1 = const; r = op c1` → `r = const`, by the arithmetic
            // `unary_int` runs; an operand that raises UB is not folded.
            (
                Inst::ConstInt { dst: d1, ity: sity, v },
                Inst::Unary { dst: d2, op, ity, src },
            ) if *src == *d1
                && !sity.is_capability()
                && !ity.is_capability()
                && !lv.live_after(func, pc + 1, *d1) =>
            {
                // `!` gives an `int`, `+` its operand unchanged.
                let rty = match op {
                    UnOp::LogNot => IntTy::Int,
                    UnOp::Plus => *sity,
                    UnOp::Neg | UnOp::BitNot => *ity,
                };
                if let Ok(raw) = rty.arith_unary(*op, sity.wrap(*v)) {
                    func.code[pc + 1] = Inst::ConstInt { dst: *d2, ity: rty, v: rty.wrap(raw) };
                    keep[pc] = false;
                    changed = true;
                }
            }
            _ => {}
        }
        // `c1; c2; r = c1 op c2` triples (needs a window of three).
        if pc + 2 < func.code.len() && keep[pc] && !is_join(pc + 1) && !is_join(pc + 2) {
            if let (
                Inst::ConstInt { dst: r1, ity: i1, v: v1 },
                Inst::ConstInt { dst: r2, ity: i2, v: v2 },
                Inst::Binary { dst, op, ity, lhs, rhs, .. },
            ) = (&func.code[pc], &func.code[pc + 1], &func.code[pc + 2])
            {
                if *lhs == *r1
                    && *rhs == *r2
                    && *r1 != *r2
                    && !i1.is_capability()
                    && !i2.is_capability()
                    && !ity.is_capability()
                {
                    if let Ok(raw) = ity.arith(*op, i1.wrap(*v1), i2.wrap(*v2)) {
                        let rty = if op.is_comparison() { IntTy::Int } else { *ity };
                        let (dst, r1, r2) = (*dst, *r1, *r2);
                        func.code[pc + 2] = Inst::ConstInt { dst, ity: rty, v: rty.wrap(raw) };
                        // The operand defs go too, if now unobservable.
                        if !lv.live_after(func, pc + 2, r1) {
                            keep[pc] = false;
                        }
                        if !lv.live_after(func, pc + 2, r2) {
                            keep[pc + 1] = false;
                        }
                        changed = true;
                    }
                }
            }
        }
    }
    compact(func, &keep) || changed
}

// ── Pass 3: dead-register elimination ───────────────────────────────────

/// Delete pure, infallible, event-free defs whose destination is dead.
/// Fallible producers (`SlotLoc`, `Load`, `BoolOf`, …) and event sources
/// (`StrLit` interns) must stay even when dead: their error or event is
/// the observable.
fn delete_dead(func: &mut IrFunc, lv: &Liveness) -> bool {
    let keep: Vec<bool> = func
        .code
        .iter()
        .enumerate()
        .map(|(pc, inst)| {
            let deletable = matches!(
                inst,
                Inst::ConstInt { .. }
                    | Inst::ConstFloat { .. }
                    | Inst::Move { .. }
                    | Inst::SetVoid { .. }
                    | Inst::GlobalLoc { .. }
            );
            if !deletable {
                return true;
            }
            let dst = def_of(inst).expect("deletable insts all define");
            lv.live_after(func, pc, dst)
        })
        .collect();
    compact(func, &keep)
}

// ── Code compaction ─────────────────────────────────────────────────────

/// Drop the instructions marked `false` in `keep`, in place, remapping
/// jump targets and the block table. A deleted instruction always behaves
/// as a fall-through (that is what made it deletable), so a target
/// pointing at one maps to the next surviving pc.
pub(crate) fn compact(func: &mut IrFunc, keep: &[bool]) -> bool {
    if keep.iter().all(|&k| k) {
        return false;
    }
    // new_pc[i] = how many kept instructions precede i; doubles as the
    // "next survivor" map for deleted targets. One extra slot so targets
    // one past the end (empty trailing blocks) remap too.
    let mut new_pc = Vec::with_capacity(keep.len() + 1);
    let mut n = 0u32;
    for &k in keep {
        new_pc.push(n);
        n += u32::from(k);
    }
    new_pc.push(n);
    let mut keep = keep.iter();
    func.code.retain_mut(|inst| {
        let k = *keep.next().expect("one keep flag per instruction");
        if k {
            match inst {
                Inst::Jump { target }
                | Inst::JumpIfFalse { target, .. }
                | Inst::JumpIfTrue { target, .. } => *target = new_pc[*target as usize],
                Inst::SwitchInt { cases, end, .. } => {
                    for (_, t) in cases.iter_mut() {
                        *t = new_pc[*t as usize];
                    }
                    *end = new_pc[*end as usize];
                }
                _ => {}
            }
        }
        k
    });
    for pc in &mut func.block_pc {
        *pc = new_pc[*pc as usize];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::tast::DeriveFrom;
    use crate::types::Ty;
    use crate::ir::TyId;

    /// A one-function program around hand-written code, so each pattern
    /// can be tested in isolation from the lowering.
    fn func(code: Vec<Inst>, n_regs: u32, block_pc: Vec<u32>) -> IrProgram {
        IrProgram {
            funcs: vec![IrFunc {
                name: "main".into(),
                is_main: true,
                params: Vec::new(),
                n_slots: 0,
                n_regs,
                code,
                block_pc,
                locals: Vec::new(),
                promoted: Vec::new(),
            }],
            func_index: std::iter::once(("main".to_string(), 0)).collect(),
            types: vec![Ty::Int(IntTy::Int)],
            strs: Vec::new(),
            globals: Vec::new(),
            main: Some(0),
        }
    }

    fn binary(dst: Reg, op: BinOp, lhs: Reg, rhs: Reg) -> Inst {
        Inst::Binary {
            dst,
            op,
            ity: IntTy::Int,
            ty: TyId(0),
            derive: DeriveFrom::Left,
            lhs,
            rhs,
        }
    }

    #[test]
    fn const_triple_folds_and_operands_die() {
        let mut ir = func(
            vec![
                Inst::ConstInt { dst: 0, ity: IntTy::Int, v: 7 },
                Inst::ConstInt { dst: 1, ity: IntTy::Int, v: 5 },
                binary(2, BinOp::Add, 0, 1),
                Inst::Ret { src: 2 },
            ],
            3,
            vec![0],
        );
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert_eq!(code.len(), 2, "{code:?}");
        assert!(
            matches!(code[0], Inst::ConstInt { dst: 2, ity: IntTy::Int, v: 12 }),
            "{code:?}"
        );
    }

    /// What `optimize` makes of `c0 = a; c1 = b; r = c0 op c1` at `ity`:
    /// the folded constant, or `None` when the code stays as it was.
    fn fold(op: BinOp, ity: IntTy, a: i128, b: i128) -> Option<(IntTy, i128)> {
        let code = vec![
            Inst::ConstInt { dst: 0, ity, v: a },
            Inst::ConstInt { dst: 1, ity, v: b },
            Inst::Binary { dst: 2, op, ity, ty: TyId(0), derive: DeriveFrom::Left, lhs: 0, rhs: 1 },
            Inst::Ret { src: 2 },
        ];
        let mut ir = func(code.clone(), 3, vec![0]);
        optimize(&mut ir);
        match ir.funcs[0].code[..] {
            [Inst::ConstInt { dst: 2, ity, v }, Inst::Ret { src: 2 }] => Some((ity, v)),
            ref left => {
                assert_eq!(left.len(), code.len(), "{left:?}");
                None
            }
        }
    }

    #[test]
    fn possible_signed_overflow_is_never_folded() {
        // i32::MAX + 1 and 65536 * 65536 raise SignedOverflow at runtime:
        // the Binary (and both operands it reads) must survive untouched.
        assert_eq!(fold(BinOp::Add, IntTy::Int, i128::from(i32::MAX), 1), None);
        assert_eq!(fold(BinOp::Mul, IntTy::Int, 65536, 65536), None);
        // Same for division by zero and out-of-range shifts.
        for op in [BinOp::Div, BinOp::Rem] {
            assert_eq!(fold(op, IntTy::Int, 1, 0), None);
        }
        assert_eq!(fold(BinOp::Shl, IntTy::Int, 1, 32), None);
        assert_eq!(fold(BinOp::Shr, IntTy::Int, 1, -1), None);
        // ... while the in-range forms fold to the wrapped result, an
        // unsigned product of 2^127 or more included.
        assert_eq!(fold(BinOp::Add, IntTy::UInt, (1 << 32) - 1, 1), Some((IntTy::UInt, 0)));
        let max = i128::from(u64::MAX);
        assert_eq!(max.checked_mul(max), None, "the product is 2^127 or more");
        assert_eq!(fold(BinOp::Mul, IntTy::ULong, max, max), Some((IntTy::ULong, 1)));
        assert_eq!(fold(BinOp::Lt, IntTy::Int, -1, 0), Some((IntTy::Int, 1)));
    }

    #[test]
    fn member_shift_chains_fuse_over_dead_intermediate() {
        let mut ir = func(
            vec![
                Inst::GlobalLoc { dst: 0, g: super::super::GlobalId(0) },
                Inst::MemberShift { dst: 1, src: 0, off: 8 },
                Inst::MemberShift { dst: 2, src: 1, off: 4 },
                Inst::Load { dst: 3, loc: 2, ty: TyId(0) },
                Inst::Ret { src: 3 },
            ],
            4,
            vec![0],
        );
        ir.globals.push("g".into());
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert!(
            code.iter()
                .any(|i| matches!(i, Inst::MemberShift { src: 0, off: 12, .. })),
            "{code:?}"
        );
        assert_eq!(
            code.iter()
                .filter(|i| matches!(i, Inst::MemberShift { .. }))
                .count(),
            1,
            "{code:?}"
        );
    }

    #[test]
    fn bool_feeding_branch_fuses() {
        let mut ir = func(
            vec![
                Inst::ConstInt { dst: 0, ity: IntTy::Int, v: 3 },
                Inst::BoolOf { dst: 1, src: 0 },
                Inst::JumpIfFalse { src: 1, target: 4 },
                Inst::Ret { src: 0 },
                Inst::RetFall,
            ],
            2,
            vec![0, 4],
        );
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert!(!code.iter().any(|i| matches!(i, Inst::BoolOf { .. })), "{code:?}");
        assert!(
            code.iter()
                .any(|i| matches!(i, Inst::JumpIfFalse { src: 0, .. })),
            "{code:?}"
        );
    }

    #[test]
    fn dead_defs_die_live_and_fallible_ones_stay() {
        let mut ir = func(
            vec![
                Inst::ConstInt { dst: 0, ity: IntTy::Int, v: 1 },  // dead
                Inst::ConstFloat { dst: 1, fty: crate::types::FloatTy::F64, v: 0.5 }, // dead
                Inst::SlotLoc { dst: 2, slot: 0, name: super::super::StrId(0) }, // fallible: stays
                Inst::ConstInt { dst: 3, ity: IntTy::Int, v: 9 },  // live via Ret
                Inst::Ret { src: 3 },
            ],
            4,
            vec![0],
        );
        ir.strs.push("x".into());
        ir.funcs[0].n_slots = 1;
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert_eq!(code.len(), 3, "{code:?}");
        assert!(matches!(code[0], Inst::SlotLoc { .. }), "{code:?}");
    }

    #[test]
    fn jumps_thread_through_trampolines_and_to_next_die() {
        let mut ir = func(
            vec![
                Inst::JumpIfTrue { src: 0, target: 3 }, // → threads to 4
                Inst::Jump { target: 2 },               // jump-to-next: dies
                Inst::RetFall,
                Inst::Jump { target: 4 },               // trampoline
                Inst::RetVoid,
            ],
            1,
            vec![0, 1, 2, 3, 4],
        );
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        // The jump-to-next is gone; the conditional jump lands on RetVoid.
        assert!(matches!(code[0], Inst::JumpIfTrue { target, .. }
            if matches!(code[target as usize], Inst::RetVoid)), "{code:?}");
    }

    /// The textbook round-robin fixpoint, as the reference for
    /// [`Liveness::compute`]: sweep every pc from high to low, with a fresh
    /// row per pc, until a whole sweep changes nothing.
    fn round_robin_live_in(func: &IrFunc) -> Vec<u64> {
        let n = func.code.len();
        let words = (func.n_regs as usize).div_ceil(64).max(1);
        let mut live_in = vec![0u64; n * words];
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (0..n).rev() {
                let mut out = vec![0u64; words];
                successors(&func.code, pc, |s| {
                    if s < n {
                        for (w, o) in out.iter_mut().enumerate() {
                            *o |= live_in[s * words + w];
                        }
                    }
                });
                if let Some(d) = def_of(&func.code[pc]) {
                    out[d as usize / 64] &= !(1u64 << (d % 64));
                }
                for_each_use(&func.code[pc], |r| {
                    out[r as usize / 64] |= 1u64 << (r % 64);
                });
                let row = &mut live_in[pc * words..(pc + 1) * words];
                if row != &out[..] {
                    row.copy_from_slice(&out);
                    changed = true;
                }
            }
        }
        live_in
    }

    /// Compare every function's liveness with the reference, row by row,
    /// and return the most sweeps any function needed.
    fn check_least_fixpoint(ir: &IrProgram, stage: &str) -> usize {
        let mut most = 0;
        for f in &ir.funcs {
            let (lv, sweeps) = Liveness::fixpoint(f);
            let want = round_robin_live_in(f);
            let w = lv.words;
            for pc in 0..f.code.len() {
                assert_eq!(
                    lv.live_in[pc * w..(pc + 1) * w],
                    want[pc * w..(pc + 1) * w],
                    "{stage} {} pc {pc}: {:?}",
                    f.name,
                    f.code[pc]
                );
            }
            most = most.max(sweeps);
        }
        most
    }

    /// Loop-heavy programs: nested and sequential loops, `continue` and
    /// `break`, `switch` inside a loop, and locals carried around every
    /// back edge (registers, once the fast pipeline promotes them).
    const LOOPY: &[&str] = &[
        // The `control_flow` IR golden program.
        "
        int main(void) {
          int s = 0;
          for (int i = 0; i < 8; i++) {
            if (i % 2 == 0) continue;
            s += i;
          }
          while (s > 10) { s -= 3; }
          do { s++; } while (s < 5 && s != 4);
          switch (s) {
            case 4: s = 40; break;
            case 5: s = 50;
            default: s += 1;
          }
          return s ? s : -1;
        }",
        "
        int main(void) {
          long acc = 0;
          int k = 3;
          for (int i = 0; i < 4; i++) {
            for (int j = 0; j < i; j++) {
              int t = 0;
              while (t < j) { t++; if (t == 2) break; }
              acc += t * k;
            }
            k = k + (int)acc % 5;
          }
          return (int)acc;
        }",
        "
        int collatz(int n) {
          int steps = 0;
          while (n != 1) { n = n % 2 ? 3 * n + 1 : n / 2; steps++; }
          return steps;
        }
        int main(void) {
          int best = 0, arg = 0;
          for (int n = 1; n < 12; n++) {
            int c = collatz(n);
            switch (c % 3) {
              case 0: continue;
              case 1: if (c > best) { best = c; arg = n; } break;
              default: do { c -= 2; } while (c > 0);
            }
          }
          return best * 100 + arg;
        }",
    ];

    #[test]
    fn liveness_is_the_least_fixpoint_on_lowered_programs() {
        let (mut raw, mut opt, mut fast) = (0, 0, 0);
        for src in LOOPY {
            let prog = crate::compile(src, &crate::Profile::cerberus()).expect("compiles");
            raw = raw.max(check_least_fixpoint(&super::super::lower(&prog), "raw"));
            opt = opt.max(check_least_fixpoint(&super::super::lower_opt(&prog), "opt"));
            fast = fast.max(check_least_fixpoint(
                &super::super::lower_fast(&prog),
                "fast",
            ));
        }
        // Promoted locals are registers live across back edges, so the
        // fast pipeline's loops take a repeat sweep.
        assert!(fast >= 2, "sweeps: raw {raw}, opt {opt}, fast {fast}");
    }

    /// Nested loops that carry `r0` across both back edges, and a
    /// self-loop `Jump`. `r0` reaches the inner header only through the
    /// outer back edge (sweep 2) and the inner body only through the inner
    /// back edge after that (sweep 3).
    #[test]
    fn liveness_across_nested_back_edges_takes_three_sweeps() {
        let int = |dst, v| Inst::ConstInt {
            dst,
            ity: IntTy::Int,
            v,
        };
        let ir = func(
            vec![
                int(0, 5),                                // 0: r0 = x
                int(1, 2),                                // 1
                Inst::Move { dst: 2, src: 0 },            // 2: outer header reads r0
                Inst::JumpIfFalse { src: 1, target: 10 }, // 3: outer exit
                int(3, 2),                                // 4
                Inst::JumpIfFalse { src: 3, target: 8 },  // 5: inner header
                int(3, 0),                                // 6
                Inst::Jump { target: 5 },                 // 7: inner back edge
                int(1, 0),                                // 8
                Inst::Jump { target: 2 },                 // 9: outer back edge
                Inst::JumpIfTrue { src: 2, target: 12 },  // 10
                Inst::Jump { target: 11 },                // 11: self-loop
                Inst::Ret { src: 2 },                     // 12
            ],
            4,
            vec![0, 2, 4, 5, 6, 8, 10, 11, 12],
        );
        let f = &ir.funcs[0];
        let (lv, sweeps) = Liveness::fixpoint(f);
        assert_eq!(lv.live_in, round_robin_live_in(f));
        assert_eq!(sweeps, 3);
        // Four registers: one word per pc.
        let live_in = |pc: usize, r: u32| lv.live_in[pc] >> r & 1 != 0;
        for pc in [2, 5, 6, 7, 9] {
            assert!(live_in(pc, 0), "r0 dead at pc {pc}");
        }
        assert!(
            (0..4).all(|r| !live_in(11, r)),
            "self-loop has live registers"
        );
    }

    /// Optimising twice changes nothing: the rounds loop reached a real
    /// fixpoint, not an oscillation.
    #[test]
    fn optimization_is_idempotent_on_lowered_programs() {
        let src = "
            struct in { int x; int y; };
            struct out { int pad; struct in i; };
            int pick(int c) { if (c > 0) return c; else return -c; }
            int main(void) {
              struct out s;
              s.i.y = 6;
              int t = 0;
              for (int k = 0; k < 4; k++) t += pick(k - 2);
              return t + s.i.y;
            }";
        let prog = crate::compile(src, &crate::Profile::cerberus()).expect("compiles");
        let mut once = super::super::lower(&prog);
        optimize(&mut once);
        let mut twice = once.clone();
        optimize(&mut twice);
        assert_eq!(once.render(), twice.render());
    }
}
