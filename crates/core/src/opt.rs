//! Optimisation-effect emulation passes.
//!
//! The paper's §3 repeatedly observes that what a CHERI C program does at
//! `-O3` differs observably from `-O0` because specific transformations
//! remove or introduce capability-relevant operations. This module
//! implements the two transformations that act at the IR level:
//!
//! * **Constant folding / reassociation** (§3.2, §3.3): `(p + 100001) -
//!   100000` becomes `p + 1`, eliminating a transient excursion into
//!   non-representability — which is why the paper's semantics must allow
//!   optimisations to *eliminate* (but never *introduce*)
//!   non-representability.
//! * **Byte-copy-loop to `memcpy`** (§3.5): GCC's
//!   `tree-loop-distribute-patterns` turns a manual byte-copy loop into a
//!   `memcpy` call, which in CHERI C preserves capability tags the manual
//!   loop would have lost.
//!
//! (The third emulated effect, identity-write elision, acts at runtime in
//! the interpreter because it needs the current memory contents.)

use crate::ast::BinOp;
use crate::profile::OptFlags;
use crate::tast::*;
use crate::typeck::fold_const;

/// Apply the optimisation-effect passes enabled in `opt` to the program.
#[must_use]
pub fn optimize(mut prog: TProgram, opt: &OptFlags) -> TProgram {
    if !opt.rewrites_ast() {
        return prog;
    }
    let funcs = std::mem::take(&mut prog.funcs);
    prog.funcs = funcs
        .into_iter()
        .map(|(name, mut f)| {
            f.body = opt_stmts(f.body, opt);
            (name, f)
        })
        .collect();
    prog
}

fn opt_stmts(stmts: Vec<TStmt>, opt: &OptFlags) -> Vec<TStmt> {
    let mut out: Vec<TStmt> = stmts.into_iter().map(|s| opt_stmt(s, opt)).collect();
    if opt.fold_transient_arith {
        peephole_copy_prop(&mut out);
    }
    out
}

/// Statement-level emulation of copy propagation + dead-store elimination
/// for the §3.2 pattern:
///
/// ```c
/// int *q = p + 100001;
/// q = q - 100000;
/// ```
///
/// becomes `int *q = p + 1;` — the transient non-representable value never
/// exists in the optimised program.
fn peephole_copy_prop(stmts: &mut [TStmt]) {
    for i in 0..stmts.len().saturating_sub(1) {
        let (a, b) = stmts.split_at_mut(i + 1);
        let decl = a.last_mut().expect("split point");
        let next = &mut b[0];
        let TStmt::Decl {
            local,
            init: Some(TInit::Scalar(init)),
            ..
        } = decl
        else {
            continue;
        };
        let TExprKind::PtrAdd {
            ptr: p0,
            idx: idx1,
            elem: e1,
            neg: n1,
        } = &init.kind
        else {
            continue;
        };
        let Some(c1) = fold_const(idx1) else { continue };
        // Next statement: `name = PtrAdd(Load(name), c2)`.
        let TStmt::Expr(TExpr {
            kind: TExprKind::Assign { lv, rhs },
            ..
        }) = next
        else {
            continue;
        };
        if !is_var(lv, *local) {
            continue;
        }
        let TExprKind::PtrAdd {
            ptr: inner,
            idx: idx2,
            elem: e2,
            neg: n2,
        } = &rhs.kind
        else {
            continue;
        };
        if e1 != e2 || !loads_var(inner, *local) {
            continue;
        }
        let Some(c2) = fold_const(idx2) else { continue };
        let total = (if *n1 { -c1 } else { c1 }) + (if *n2 { -c2 } else { c2 });
        let (neg, c) = if total >= 0 { (false, total) } else { (true, -total) };
        let combined = TExpr {
            ty: init.ty.clone(),
            kind: TExprKind::PtrAdd {
                ptr: p0.clone(),
                idx: Box::new(TExpr {
                    ty: idx1.ty.clone(),
                    kind: TExprKind::ConstInt(c),
                    pos: idx1.pos,
                    from_noncap: true,
                }),
                elem: *e1,
                neg,
            },
            pos: init.pos,
            from_noncap: init.from_noncap,
        };
        *init = combined;
        *next = TStmt::Empty;
    }
}

fn opt_stmt(s: TStmt, opt: &OptFlags) -> TStmt {
    match s {
        TStmt::Decl {
            local,
            is_const,
            init,
            pos,
        } => TStmt::Decl {
            local,
            is_const,
            init: init.map(|i| opt_init(i, opt)),
            pos,
        },
        TStmt::Expr(e) => TStmt::Expr(opt_expr(e, opt)),
        TStmt::Block(b) => TStmt::Block(opt_stmts(b, opt)),
        TStmt::If(c, t, e) => TStmt::If(
            opt_expr(c, opt),
            Box::new(opt_stmt(*t, opt)),
            e.map(|e| Box::new(opt_stmt(*e, opt))),
        ),
        TStmt::While(c, b) => TStmt::While(opt_expr(c, opt), Box::new(opt_stmt(*b, opt))),
        TStmt::DoWhile(b, c) => TStmt::DoWhile(Box::new(opt_stmt(*b, opt)), opt_expr(c, opt)),
        TStmt::For {
            init,
            cond,
            step,
            body,
        } => {
            let folded = TStmt::For {
                init: init.map(|s| Box::new(opt_stmt(*s, opt))),
                cond: cond.map(|e| opt_expr(e, opt)),
                step: step.map(|e| opt_expr(e, opt)),
                body: Box::new(opt_stmt(*body, opt)),
            };
            if opt.loops_to_memcpy {
                if let Some(m) = match_copy_loop(&folded) {
                    return m;
                }
            }
            folded
        }
        TStmt::Switch(e, cases) => TStmt::Switch(
            opt_expr(e, opt),
            cases
                .into_iter()
                .map(|(v, b)| (v, opt_stmts(b, opt)))
                .collect(),
        ),
        TStmt::Return(e) => TStmt::Return(e.map(|e| opt_expr(e, opt))),
        other => other,
    }
}

fn opt_init(i: TInit, opt: &OptFlags) -> TInit {
    match i {
        TInit::Scalar(e) => TInit::Scalar(opt_expr(e, opt)),
        TInit::List(items) => TInit::List(items.into_iter().map(|i| opt_init(i, opt)).collect()),
        s @ TInit::Str(_) => s,
    }
}

fn opt_expr(e: TExpr, opt: &OptFlags) -> TExpr {
    let e = map_children(e, opt);
    if opt.fold_transient_arith {
        fold_arith(e)
    } else {
        e
    }
}

fn map_children(mut e: TExpr, opt: &OptFlags) -> TExpr {
    let kind = std::mem::replace(&mut e.kind, TExprKind::ConstInt(0));
    e.kind = match kind {
        TExprKind::Binary {
            op,
            lhs,
            rhs,
            derive,
        } => TExprKind::Binary {
            op,
            lhs: Box::new(opt_expr(*lhs, opt)),
            rhs: Box::new(opt_expr(*rhs, opt)),
            derive,
        },
        TExprKind::Logical { and, lhs, rhs } => TExprKind::Logical {
            and,
            lhs: Box::new(opt_expr(*lhs, opt)),
            rhs: Box::new(opt_expr(*rhs, opt)),
        },
        TExprKind::Unary(op, a) => TExprKind::Unary(op, Box::new(opt_expr(*a, opt))),
        TExprKind::PtrAdd {
            ptr,
            idx,
            elem,
            neg,
        } => TExprKind::PtrAdd {
            ptr: Box::new(opt_expr(*ptr, opt)),
            idx: Box::new(opt_expr(*idx, opt)),
            elem,
            neg,
        },
        TExprKind::PtrDiff { a, b, elem } => TExprKind::PtrDiff {
            a: Box::new(opt_expr(*a, opt)),
            b: Box::new(opt_expr(*b, opt)),
            elem,
        },
        TExprKind::PtrCmp { op, a, b } => TExprKind::PtrCmp {
            op,
            a: Box::new(opt_expr(*a, opt)),
            b: Box::new(opt_expr(*b, opt)),
        },
        TExprKind::Cast { kind, arg } => TExprKind::Cast {
            kind,
            arg: Box::new(opt_expr(*arg, opt)),
        },
        TExprKind::Assign { lv, rhs } => TExprKind::Assign {
            lv: Box::new(opt_expr(*lv, opt)),
            rhs: Box::new(opt_expr(*rhs, opt)),
        },
        TExprKind::AssignOp {
            lv,
            op,
            rhs,
            common,
            derive,
        } => TExprKind::AssignOp {
            lv: Box::new(opt_expr(*lv, opt)),
            op,
            rhs: Box::new(opt_expr(*rhs, opt)),
            common,
            derive,
        },
        TExprKind::PtrAssignAdd { lv, idx, elem, neg } => TExprKind::PtrAssignAdd {
            lv: Box::new(opt_expr(*lv, opt)),
            idx: Box::new(opt_expr(*idx, opt)),
            elem,
            neg,
        },
        TExprKind::Call { callee, args } => TExprKind::Call {
            callee,
            args: args.into_iter().map(|a| opt_expr(a, opt)).collect(),
        },
        TExprKind::Cond { c, t, f } => TExprKind::Cond {
            c: Box::new(opt_expr(*c, opt)),
            t: Box::new(opt_expr(*t, opt)),
            f: Box::new(opt_expr(*f, opt)),
        },
        TExprKind::Comma(a, b) => {
            TExprKind::Comma(Box::new(opt_expr(*a, opt)), Box::new(opt_expr(*b, opt)))
        }
        TExprKind::LvDeref(p) => TExprKind::LvDeref(Box::new(opt_expr(*p, opt))),
        TExprKind::LvMember(b, off) => TExprKind::LvMember(Box::new(opt_expr(*b, opt)), off),
        TExprKind::Load(lv) => TExprKind::Load(Box::new(opt_expr(*lv, opt))),
        TExprKind::AddrOf(lv) => TExprKind::AddrOf(Box::new(opt_expr(*lv, opt))),
        TExprKind::Decay(lv) => TExprKind::Decay(Box::new(opt_expr(*lv, opt))),
        TExprKind::IncDec {
            lv,
            inc,
            prefix,
            elem,
        } => TExprKind::IncDec {
            lv: Box::new(opt_expr(*lv, opt)),
            inc,
            prefix,
            elem,
        },
        other => other,
    };
    e
}

/// Constant folding and ± reassociation: collapse `(x ± c1) ± c2` into
/// `x ± (c1 ± c2)` and fully-constant subtrees into constants, on both
/// integer arithmetic and pointer arithmetic nodes.
fn fold_arith(e: TExpr) -> TExpr {
    // Whole subtree constant?
    if !matches!(e.kind, TExprKind::ConstInt(_)) {
        if let Some(v) = fold_const(&e) {
            return TExpr {
                ty: e.ty,
                kind: TExprKind::ConstInt(v),
                pos: e.pos,
                from_noncap: e.from_noncap,
            };
        }
    }
    match e.kind {
        // (x op1 c1) op2 c2 → x op (c1 ∘ c2) for op ∈ {+,-}
        TExprKind::Binary {
            op: op2 @ (BinOp::Add | BinOp::Sub),
            lhs,
            rhs: rhs2,
            derive,
        } => {
            if let (Some(c2), TExprKind::Binary {
                op: op1 @ (BinOp::Add | BinOp::Sub),
                lhs: x,
                rhs: rhs1,
                derive: d1,
            }) = (fold_const(&rhs2), lhs.kind.clone())
            {
                if let Some(c1) = fold_const(&rhs1) {
                    let total = (if op1 == BinOp::Add { c1 } else { -c1 })
                        + (if op2 == BinOp::Add { c2 } else { -c2 });
                    let (op, c) = if total >= 0 {
                        (BinOp::Add, total)
                    } else {
                        (BinOp::Sub, -total)
                    };
                    let cnode = TExpr {
                        ty: rhs1.ty.clone(),
                        kind: TExprKind::ConstInt(c),
                        pos: rhs1.pos,
                        from_noncap: true,
                    };
                    return TExpr {
                        ty: e.ty,
                        kind: TExprKind::Binary {
                            op,
                            lhs: x,
                            rhs: Box::new(cnode),
                            derive: d1,
                        },
                        pos: e.pos,
                        from_noncap: e.from_noncap,
                    };
                }
            }
            TExpr {
                ty: e.ty,
                kind: TExprKind::Binary {
                    op: op2,
                    lhs,
                    rhs: rhs2,
                    derive,
                },
                pos: e.pos,
                from_noncap: e.from_noncap,
            }
        }
        // (PtrAdd (PtrAdd p c1) c2) → PtrAdd p (c1 ∘ c2)
        TExprKind::PtrAdd {
            ptr,
            idx,
            elem,
            neg,
        } => {
            if let (Some(c2), TExprKind::PtrAdd {
                ptr: p0,
                idx: idx1,
                elem: elem1,
                neg: neg1,
            }) = (fold_const(&idx), ptr.kind.clone())
            {
                if elem1 == elem {
                    if let Some(c1) = fold_const(&idx1) {
                        let total = (if neg1 { -c1 } else { c1 }) + (if neg { -c2 } else { c2 });
                        let (nneg, c) = if total >= 0 { (false, total) } else { (true, -total) };
                        let cnode = TExpr {
                            ty: idx1.ty.clone(),
                            kind: TExprKind::ConstInt(c),
                            pos: idx1.pos,
                            from_noncap: true,
                        };
                        return TExpr {
                            ty: e.ty,
                            kind: TExprKind::PtrAdd {
                                ptr: p0,
                                idx: Box::new(cnode),
                                elem,
                                neg: nneg,
                            },
                            pos: e.pos,
                            from_noncap: e.from_noncap,
                        };
                    }
                }
            }
            TExpr {
                ty: e.ty,
                kind: TExprKind::PtrAdd {
                    ptr,
                    idx,
                    elem,
                    neg,
                },
                pos: e.pos,
                from_noncap: e.from_noncap,
            }
        }
        kind => TExpr {
            ty: e.ty,
            kind,
            pos: e.pos,
            from_noncap: e.from_noncap,
        },
    }
}

/// Recognise the §3.5 byte-copy loop
/// `for (i = 0; i < N; i++) d[i] = s[i];` (element size 1) and replace it
/// with an `OptMemcpy` — emulating GCC's tree-loop-distribute-patterns.
fn match_copy_loop(s: &TStmt) -> Option<TStmt> {
    let TStmt::For {
        init: Some(init),
        cond: Some(cond),
        step: Some(step),
        body,
    } = s
    else {
        return None;
    };
    // init: declaration of `i` with scalar 0, or assignment i = 0.
    let ivar = match &**init {
        TStmt::Decl {
            local,
            init: Some(TInit::Scalar(z)),
            ..
        } if matches!(z.kind, TExprKind::ConstInt(0)) => *local,
        _ => return None,
    };
    // cond: Load(i) < N (possibly through casts).
    let (cmp_lhs, n_expr) = match &cond.kind {
        TExprKind::Binary {
            op: BinOp::Lt,
            lhs,
            rhs,
            ..
        } => (lhs, rhs),
        _ => return None,
    };
    if !loads_var(cmp_lhs, ivar) {
        return None;
    }
    // step: i++ (IncDec on i).
    match &step.kind {
        TExprKind::IncDec { lv, inc: true, .. } if is_var(lv, ivar) => {}
        _ => return None,
    }
    // body: single statement `d[i] = s[i]` at element size 1.
    let assign = match &**body {
        TStmt::Expr(e) => e,
        TStmt::Block(b) if b.len() == 1 => match &b[0] {
            TStmt::Expr(e) => e,
            _ => return None,
        },
        _ => return None,
    };
    let TExprKind::Assign { lv, rhs } = &assign.kind else {
        return None;
    };
    let dst = indexed_base(lv, ivar)?;
    let TExprKind::Load(src_lv) = &rhs.kind else {
        return None;
    };
    let src = indexed_base(src_lv, ivar)?;
    Some(TStmt::OptMemcpy {
        dst,
        src,
        n: strip_casts(n_expr).clone(),
    })
}

fn strip_casts(e: &TExpr) -> &TExpr {
    match &e.kind {
        TExprKind::Cast { arg, .. } => strip_casts(arg),
        _ => e,
    }
}

fn is_var(e: &TExpr, local: LocalId) -> bool {
    matches!(e.kind, TExprKind::LvLocal(l) if l == local)
}

fn loads_var(e: &TExpr, local: LocalId) -> bool {
    match &e.kind {
        TExprKind::Load(lv) => is_var(lv, local),
        TExprKind::Cast { arg, .. } => loads_var(arg, local),
        _ => false,
    }
}

/// If `e` is the lvalue `base[i]` with element size 1 and index variable
/// `ivar`, return the base pointer expression.
fn indexed_base(e: &TExpr, ivar: LocalId) -> Option<TExpr> {
    let TExprKind::LvDeref(p) = &e.kind else {
        return None;
    };
    let TExprKind::PtrAdd {
        ptr,
        idx,
        elem: 1,
        neg: false,
    } = &p.kind
    else {
        return None;
    };
    if !loads_var(idx, ivar) {
        return None;
    }
    Some((**ptr).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::typeck::check;
    use crate::types::TargetLayout;

    fn compile_opt(src: &str, opt: &OptFlags) -> TProgram {
        let p = parse(src, TargetLayout::default()).expect("parse");
        optimize(check(p).expect("typecheck"), opt)
    }

    fn main_body(p: &TProgram) -> &[TStmt] {
        &p.funcs["main"].body
    }

    #[test]
    fn constant_chains_fold_in_expressions() {
        let src = "#include <stdint.h>\n\
                   int main(void) { int a[2]; uintptr_t u = (uintptr_t)a;\n\
                   uintptr_t v = (u + 100) - 99; return (int)(v - u); }";
        let prog = compile_opt(src, &OptFlags::o3());
        // Find v's initialiser: the (+100)-99 chain must have collapsed to
        // a single +1.
        let mut found = false;
        let main = &prog.funcs["main"];
        for s in main_body(&prog) {
            if let TStmt::Decl {
                local,
                init: Some(TInit::Scalar(e)),
                ..
            } = s
            {
                if main.locals[local.0 as usize].name.starts_with("v#") {
                    if let TExprKind::Binary { op, rhs, .. } = &e.kind {
                        assert_eq!(*op, crate::ast::BinOp::Add);
                        assert!(matches!(rhs.kind, TExprKind::ConstInt(1)));
                        found = true;
                    }
                }
            }
        }
        assert!(found, "folded addition not found");
    }

    #[test]
    fn peephole_merges_decl_then_reassign() {
        let src = "int main(void) { int a[2]; int *q = a + 100001;\n\
                   q = q - 100000; return *q == a[1]; }";
        let prog = compile_opt(src, &OptFlags::o3());
        // The reassignment statement must have become Empty and the decl's
        // index must be the combined +1.
        let body = main_body(&prog);
        let mut combined = false;
        let mut erased = false;
        for s in body {
            match s {
                TStmt::Decl {
                    init: Some(TInit::Scalar(e)),
                    ..
                } => {
                    if let TExprKind::PtrAdd { idx, neg: false, .. } = &e.kind {
                        if matches!(idx.kind, TExprKind::ConstInt(1)) {
                            combined = true;
                        }
                    }
                }
                TStmt::Empty => erased = true,
                _ => {}
            }
        }
        assert!(combined, "combined pointer add not found");
        assert!(erased, "dead store not erased");
    }

    #[test]
    fn copy_loop_becomes_memcpy() {
        let src = "int main(void) {\n\
                   char s[8]; char d[8];\n\
                   for (int i = 0; i < 8; i++) s[i] = (char)i;\n\
                   for (int i = 0; i < 8; i++) d[i] = s[i];\n\
                   return d[7]; }";
        let prog = compile_opt(src, &OptFlags::o3());
        let n = main_body(&prog)
            .iter()
            .filter(|s| matches!(s, TStmt::OptMemcpy { .. }))
            .count();
        assert_eq!(n, 1, "exactly the copy loop becomes memcpy");
    }

    #[test]
    fn o0_performs_no_transformations() {
        let src = "int main(void) { int a[2]; int *q = a + 100001;\n\
                   q = q - 100000; return 0; }";
        let prog = compile_opt(src, &OptFlags::o0());
        assert!(
            !main_body(&prog).iter().any(|s| matches!(s, TStmt::Empty)),
            "O0 must not rewrite statements"
        );
    }
}
