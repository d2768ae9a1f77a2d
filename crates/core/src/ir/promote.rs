//! Register promotion: the rewrite half of the fast mode (DESIGN.md §12).
//!
//! For every local whose lowering recorded no reason to stay in memory
//! ([`super::escape`]), this pass elides the local's entire memory life
//! cycle — `AllocLocal`, the initialising `Store`, `BindSlot`, every
//! `SlotLoc`, and the frame kill-list entry — and keeps the value in a
//! fresh virtual register instead:
//!
//! | memory form                  | register form                    |
//! |------------------------------|----------------------------------|
//! | `AllocLocal` / `BindSlot` / `SlotLoc` | *(deleted)*             |
//! | `Load {dst, loc}`            | `Move {dst, src: R}`             |
//! | `Store {loc, src}`           | `Move {dst: R, src}`             |
//! | `IncDec {loc, …}`            | `RegIncDec {reg: R, …}`          |
//! | `AssignOpInt {loc, …}`       | `RegAssignOpInt {reg: R, …}`     |
//! | `AssignOpFloat {loc, …}`     | `RegAssignOpFloat {reg: R, …}`   |
//! | `PtrAssignAdd {loc, …}`      | `RegPtrAssignAdd {reg: R, …}`    |
//!
//! Promoted *parameters* keep their [`super::IrParam`] entry but are
//! recorded in [`super::IrFunc::promoted`]; the VM passes their argument
//! value straight into the register instead of allocating a parameter
//! object.
//!
//! Which accesses to rewrite takes one forward walk over the control-flow
//! graph (`Locations`): it finds, at each instruction, which register
//! locates which local. A scan in pc order is not enough, because an
//! assignment or declaration holds its location register across the
//! blocks of a `?:`, `&&` or `||` operand, and those blocks are laid out
//! after any block created before them.
//!
//! The register forms run the identical `Interp` helpers (conversions,
//! UB checks, capability derivation) as the memory forms — only the
//! `load_value`/`store_value` round-trip through `CheriMemory` is gone.
//! What this pass may change, by design, is the *event trace* and memory
//! statistics (allocations, loads, stores, kills for promoted locals
//! disappear) and — like any real register allocator — the addresses the
//! bump allocator hands to the remaining objects. What it must never
//! change is the outcome, stdout and exit code; `tests/
//! fast_mode_differential.rs` pins that over the oracle corpus, and that
//! a local the report keeps in memory is never elided.
//!
//! The pass is idempotent: a slot already in [`super::IrFunc::promoted`]
//! is not promoted again.

use std::collections::VecDeque;

use super::escape::promotable;
use super::peephole::{compact, def_of, successors};
use super::{Inst, IrFunc, IrProgram, Reg};

/// Promote every never-addressed scalar local of every function, in
/// place. Runs on the raw lowering, before the peephole passes.
pub fn promote(ir: &mut IrProgram) {
    for func in &mut ir.funcs {
        promote_func(func);
    }
}

fn promote_func(func: &mut IrFunc) {
    // Fresh registers, one per promoted slot, in slot order.
    let mut next = func.n_regs;
    let promo: Vec<(u32, Reg)> = func
        .locals
        .iter()
        .zip(0u32..)
        .filter(|&(&facts, slot)| {
            promotable(facts) && !func.promoted.iter().any(|&(s, _)| s == slot)
        })
        .map(|(_, slot)| {
            let r = next;
            next += 1;
            (slot, r)
        })
        .collect();
    if promo.is_empty() {
        return;
    }
    let reg_of = |slot: u32| promo.iter().find(|&&(s, _)| s == slot).map(|&(_, r)| r);
    let locs = Locations::compute(func);
    // The promoted register for the loc operand `r` at `pc`, if `r`
    // locates a promoted slot there.
    let promoted_loc = |pc: usize, r: Reg| locs.slot_at(pc, r).and_then(reg_of);

    let mut keep = vec![true; func.code.len()];
    for (pc, (kept, inst)) in keep.iter_mut().zip(func.code.iter_mut()).enumerate() {
        let new = match &*inst {
            Inst::AllocLocal { .. } => {
                if locs.alloc_slot[pc].and_then(reg_of).is_some() {
                    *kept = false;
                }
                continue;
            }
            Inst::BindSlot { slot, .. } | Inst::SlotLoc { slot, .. } => {
                if reg_of(*slot).is_some() {
                    *kept = false;
                }
                continue;
            }
            Inst::Load { dst, loc, .. } => match promoted_loc(pc, *loc) {
                Some(r) => Inst::Move { dst: *dst, src: r },
                None => continue,
            },
            Inst::Store { loc, src, .. } => match promoted_loc(pc, *loc) {
                Some(r) => Inst::Move { dst: r, src: *src },
                None => continue,
            },
            Inst::IncDec { dst, loc, inc, prefix, elem, .. } => match promoted_loc(pc, *loc) {
                Some(r) => Inst::RegIncDec {
                    dst: *dst,
                    reg: r,
                    inc: *inc,
                    prefix: *prefix,
                    elem: *elem,
                },
                None => continue,
            },
            Inst::AssignOpInt { dst, loc, lt, ct, op, derive, cur, rhs, .. } => {
                match promoted_loc(pc, *loc) {
                    Some(r) => Inst::RegAssignOpInt {
                        dst: *dst,
                        reg: r,
                        lt: *lt,
                        ct: *ct,
                        op: *op,
                        derive: *derive,
                        cur: *cur,
                        rhs: *rhs,
                    },
                    None => continue,
                }
            }
            Inst::AssignOpFloat { dst, loc, ty, common, op, cur, rhs } => {
                match promoted_loc(pc, *loc) {
                    Some(r) => Inst::RegAssignOpFloat {
                        dst: *dst,
                        reg: r,
                        ty: *ty,
                        common: *common,
                        op: *op,
                        cur: *cur,
                        rhs: *rhs,
                    },
                    None => continue,
                }
            }
            Inst::PtrAssignAdd { dst, loc, ty, cur, idx, elem, neg } => {
                match promoted_loc(pc, *loc) {
                    Some(r) => Inst::RegPtrAssignAdd {
                        dst: *dst,
                        reg: r,
                        ty: *ty,
                        cur: *cur,
                        idx: *idx,
                        elem: *elem,
                        neg: *neg,
                    },
                    None => continue,
                }
            }
            _ => continue,
        };
        *inst = new;
    }

    // No surviving instruction may still consume a promoted location: the
    // decision promotes only locals whose every use is one of the
    // rewritten shapes above.
    #[cfg(debug_assertions)]
    for (pc, (kept, inst)) in keep.iter().zip(&func.code).enumerate() {
        if !kept {
            continue;
        }
        super::peephole::for_each_use(inst, |r| {
            if (r as usize) < func.n_regs as usize {
                debug_assert!(
                    promoted_loc(pc, r).is_none(),
                    "unrewritten use of promoted slot at pc {pc}: {inst:?}",
                );
            }
        });
    }

    compact(func, &keep);
    func.n_regs = next;
    func.promoted.extend(promo);
    func.promoted.sort_unstable();
}

/// What a register locates at a program point.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Nothing the rewrite follows (or disagreeing values at a join).
    Other,
    /// The object the `AllocLocal` at this pc made, before `BindSlot`
    /// gives it its slot.
    Alloc(u32),
    /// The object bound to this slot.
    Slot(u32),
}

/// The forward walk: per reachable pc, what each register locates on
/// entry, and the slot each reachable `AllocLocal`'s object is bound to.
struct Locations {
    n_regs: usize,
    /// `n_regs` entries per pc; meaningful only where `reached`.
    at: Vec<Loc>,
    reached: Vec<bool>,
    alloc_slot: Vec<Option<u32>>,
}

impl Locations {
    fn compute(func: &IrFunc) -> Locations {
        let n = func.code.len();
        let nr = func.n_regs as usize;
        let mut l = Locations {
            n_regs: nr,
            at: vec![Loc::Other; n * nr],
            reached: vec![false; n],
            alloc_slot: vec![None; n],
        };
        if n == 0 {
            return l;
        }
        l.reached[0] = true;
        let mut work = VecDeque::from([0]);
        let mut out = vec![Loc::Other; nr];
        while let Some(pc) = work.pop_front() {
            out.copy_from_slice(&l.at[pc * nr..(pc + 1) * nr]);
            match func.code[pc] {
                Inst::AllocLocal { dst, .. } => out[dst as usize] = Loc::Alloc(pc as u32),
                Inst::SlotLoc { dst, slot, .. } => out[dst as usize] = Loc::Slot(slot),
                // A frozen location still locates the same object.
                Inst::Move { dst, src } | Inst::FreezeLoc { dst, src } => {
                    out[dst as usize] = out[src as usize];
                }
                Inst::BindSlot { slot, src } => {
                    if let Loc::Alloc(p) = out[src as usize] {
                        l.alloc_slot[p as usize] = Some(slot);
                    }
                }
                ref inst => {
                    if let Some(d) = def_of(inst) {
                        out[d as usize] = Loc::Other;
                    }
                }
            }
            successors(&func.code, pc, |s| {
                if s >= n {
                    return;
                }
                let row = &mut l.at[s * nr..(s + 1) * nr];
                let changed = if l.reached[s] {
                    let mut any = false;
                    for (cur, &new) in row.iter_mut().zip(&out) {
                        if *cur != new && *cur != Loc::Other {
                            *cur = Loc::Other;
                            any = true;
                        }
                    }
                    any
                } else {
                    row.copy_from_slice(&out);
                    l.reached[s] = true;
                    true
                };
                if changed {
                    work.push_back(s);
                }
            });
        }
        l
    }

    /// The slot the register `r` locates at `pc`, if any.
    fn slot_at(&self, pc: usize, r: Reg) -> Option<u32> {
        if !self.reached[pc] {
            return None;
        }
        match self.at[pc * self.n_regs + r as usize] {
            Loc::Slot(s) => Some(s),
            Loc::Alloc(p) => self.alloc_slot[p as usize],
            Loc::Other => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lower, lower_fast, Inst};

    fn fast_ir(src: &str) -> super::IrProgram {
        let prog = crate::compile(src, &crate::Profile::cerberus()).expect("compiles");
        lower_fast(&prog)
    }

    #[test]
    fn promoted_locals_leave_no_memory_traffic() {
        let ir = fast_ir(
            "int main(void) { long s = 0; for (int i = 0; i < 9; i++) s += i; return (int)s; }",
        );
        let main = &ir.funcs[ir.main.expect("main") as usize];
        assert_eq!(main.promoted.len(), 2, "{:?}", main.promoted);
        for inst in &main.code {
            assert!(
                !matches!(
                    inst,
                    Inst::AllocLocal { .. }
                        | Inst::SlotLoc { .. }
                        | Inst::BindSlot { .. }
                        | Inst::Load { .. }
                        | Inst::Store { .. }
                        | Inst::IncDec { .. }
                        | Inst::AssignOpInt { .. }
                ),
                "memory traffic survived promotion: {inst:?}"
            );
        }
    }

    #[test]
    fn escaping_locals_keep_their_allocation() {
        let ir = fast_ir("int main(void) { int x = 1; int *p = &x; return *p; }");
        let main = &ir.funcs[ir.main.expect("main") as usize];
        // `x` stays in memory (`p` is promoted).
        assert!(
            main.code.iter().any(|i| matches!(i, Inst::AllocLocal { .. })),
            "escaping local lost its allocation",
        );
        assert_eq!(main.promoted.len(), 1, "{:?}", main.promoted);
    }

    #[test]
    fn promoted_parameters_are_recorded() {
        let ir = fast_ir(
            "int add(int a, int b) { return a + b; } int main(void) { return add(2, 3) - 5; }",
        );
        let add = &ir.funcs[*ir.func_index.get("add").expect("add") as usize];
        assert_eq!(add.promoted.len(), 2, "{:?}", add.promoted);
        assert_eq!(add.params.len(), 2);
    }

    /// Promotion is idempotent: running it a second time (plus the
    /// peephole fixpoint) changes nothing.
    #[test]
    fn promotion_is_idempotent() {
        let src = "
            int scale(int f, int x) { int acc = 0; while (x-- > 0) acc += f; return acc; }
            int main(void) {
              int t = 0;
              for (int k = 0; k < 5; k++) t += scale(k, 3);
              int *p = &t;
              return *p;
            }";
        let prog = crate::compile(src, &crate::Profile::cerberus()).expect("compiles");
        let mut once = lower(&prog);
        super::promote(&mut once);
        let mut twice = once.clone();
        super::promote(&mut twice);
        assert_eq!(once.render(), twice.render());
        let promoted_once: Vec<_> = once.funcs.iter().map(|f| f.promoted.clone()).collect();
        let promoted_twice: Vec<_> = twice.funcs.iter().map(|f| f.promoted.clone()).collect();
        assert_eq!(promoted_once, promoted_twice);
    }
}
