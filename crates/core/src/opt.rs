//! Optimisation-effect emulation passes.
//!
//! The paper's §3 repeatedly observes that what a CHERI C program does at
//! `-O3` differs observably from `-O0` because specific transformations
//! remove or introduce capability-relevant operations. One switch,
//! [`OptFlags::o3`], turns all of them on. This module implements the two
//! that rewrite the typed program:
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
//!
//! The pass edits the program in place, bottom-up: a node is folded after
//! its operands. A node that folds becomes a `ConstInt`, and one that does
//! not could not have folded from its folded operands either, so by the
//! time a node is visited, every operand with a constant value already is
//! a `ConstInt`. The constant checks therefore look one level down, and
//! the pass takes time linear in the program and, when it only folds, no
//! host allocation. Rewrites move subtrees; nothing is cloned.

use crate::ast::BinOp;
use crate::profile::OptFlags;
use crate::tast::*;
use crate::typeck::fold_node;
use crate::types::Ty;

/// Apply the `-O3` rewrites to the program when `opt` asks for them.
#[must_use]
pub fn optimize(mut prog: TProgram, opt: &OptFlags) -> TProgram {
    if opt.o3 {
        for f in prog.funcs.values_mut() {
            stmts(&mut f.body);
        }
    }
    prog
}

fn stmts(stmts: &mut [TStmt]) {
    stmts.iter_mut().for_each(stmt);
    peephole_copy_prop(stmts);
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
            idx: idx1,
            elem: e1,
            neg: n1,
            ..
        } = &mut init.kind
        else {
            continue;
        };
        let Some(c1) = const_of(idx1) else { continue };
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
        let Some(c2) = const_of(idx2) else { continue };
        let (neg, c) = combine(*n1, c1, *n2, c2);
        *n1 = neg;
        constant(idx1, c);
        *next = TStmt::Empty;
    }
}

fn stmt(s: &mut TStmt) {
    match s {
        TStmt::Decl { init: Some(i), .. } => init(i),
        TStmt::Expr(e) | TStmt::Return(Some(e)) => expr(e),
        TStmt::Block(b) => stmts(b),
        TStmt::If(c, t, e) => {
            expr(c);
            stmt(t);
            if let Some(e) = e {
                stmt(e);
            }
        }
        TStmt::While(c, b) | TStmt::DoWhile(b, c) => {
            expr(c);
            stmt(b);
        }
        TStmt::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                stmt(i);
            }
            cond.iter_mut().chain(step).for_each(expr);
            stmt(body);
        }
        TStmt::Switch(e, cases) => {
            expr(e);
            for (_, b) in cases {
                stmts(b);
            }
        }
        _ => {}
    }
    if let Some(m) = match_copy_loop(s) {
        *s = m;
    }
}

fn init(i: &mut TInit) {
    match i {
        TInit::Scalar(e) => expr(e),
        TInit::List(items) => items.iter_mut().for_each(init),
        TInit::Str(_) => {}
    }
}

fn expr(e: &mut TExpr) {
    match &mut e.kind {
        TExprKind::Binary { lhs: a, rhs: b, .. }
        | TExprKind::Logical { lhs: a, rhs: b, .. }
        | TExprKind::PtrAdd { ptr: a, idx: b, .. }
        | TExprKind::PtrDiff { a, b, .. }
        | TExprKind::PtrCmp { a, b, .. }
        | TExprKind::Assign { lv: a, rhs: b }
        | TExprKind::AssignOp { lv: a, rhs: b, .. }
        | TExprKind::PtrAssignAdd { lv: a, idx: b, .. }
        | TExprKind::Comma(a, b) => {
            expr(a);
            expr(b);
        }
        TExprKind::Unary(_, a)
        | TExprKind::Cast { arg: a, .. }
        | TExprKind::LvDeref(a)
        | TExprKind::LvMember(a, _)
        | TExprKind::Load(a)
        | TExprKind::AddrOf(a)
        | TExprKind::Decay(a)
        | TExprKind::IncDec { lv: a, .. } => expr(a),
        // An indirect callee is left as written.
        TExprKind::Call { args, .. } => args.iter_mut().for_each(expr),
        TExprKind::Cond { c, t, f } => {
            expr(c);
            expr(t);
            expr(f);
        }
        TExprKind::ConstInt(_)
        | TExprKind::ConstFloat(_)
        | TExprKind::StrLit(_)
        | TExprKind::LvLocal(_)
        | TExprKind::LvGlobal(_)
        | TExprKind::FuncAddr(_) => {}
    }
    fold_arith(e);
}

/// The value of an operand the pass has already visited.
fn const_of(e: &TExpr) -> Option<i128> {
    match e.kind {
        TExprKind::ConstInt(v) => Some(v),
        _ => None,
    }
}

/// `±c1 ± c2` (a flag set means minus), as a sign flag and a magnitude.
fn combine(neg1: bool, c1: i128, neg2: bool, c2: i128) -> (bool, i128) {
    let total = (if neg1 { -c1 } else { c1 }) + (if neg2 { -c2 } else { c2 });
    (total < 0, total.abs())
}

/// Make the constant operand `e` hold the folded constant `c`.
fn constant(e: &mut TExpr, c: i128) {
    e.kind = TExprKind::ConstInt(c);
    e.from_noncap = true;
}

/// Constant folding and ± reassociation: collapse `(x ± c1) ± c2` into
/// `x ± (c1 ± c2)` and fully-constant subtrees into constants, on both
/// integer arithmetic and pointer arithmetic nodes.
fn fold_arith(e: &mut TExpr) {
    if !matches!(e.kind, TExprKind::ConstInt(_)) {
        if let Some(v) = fold_node(e, const_of) {
            e.kind = TExprKind::ConstInt(v);
            return;
        }
    }
    match &mut e.kind {
        // (x op1 c1) op2 c2 → x op (c1 ∘ c2) for op ∈ {+,-}
        TExprKind::Binary {
            op: op2 @ (BinOp::Add | BinOp::Sub),
            lhs,
            rhs,
            derive,
        } => {
            let Some(c2) = const_of(rhs) else { return };
            let TExprKind::Binary {
                op: op1 @ (BinOp::Add | BinOp::Sub),
                rhs: rhs1,
                derive: d1,
                ..
            } = &lhs.kind
            else {
                return;
            };
            let Some(c1) = const_of(rhs1) else { return };
            let (sub, c) = combine(*op1 == BinOp::Sub, c1, *op2 == BinOp::Sub, c2);
            *op2 = if sub { BinOp::Sub } else { BinOp::Add };
            *derive = *d1;
            let (x, mut rhs1) = operands(lhs);
            constant(&mut rhs1, c);
            (*lhs, *rhs) = (x, rhs1);
        }
        // (PtrAdd (PtrAdd p c1) c2) → PtrAdd p (c1 ∘ c2)
        TExprKind::PtrAdd {
            ptr,
            idx,
            elem,
            neg,
        } => {
            let Some(c2) = const_of(idx) else { return };
            let TExprKind::PtrAdd {
                idx: idx1,
                elem: elem1,
                neg: neg1,
                ..
            } = &ptr.kind
            else {
                return;
            };
            if elem1 != elem {
                return;
            }
            let Some(c1) = const_of(idx1) else { return };
            let (n, c) = combine(*neg1, c1, *neg, c2);
            *neg = n;
            let (p0, mut idx1) = operands(ptr);
            constant(&mut idx1, c);
            (*ptr, *idx) = (p0, idx1);
        }
        _ => {}
    }
}

/// Move the operands out of `e`, an integer `+`/`-` or a pointer
/// addition, leaving a constant in its place.
fn operands(e: &mut TExpr) -> (Box<TExpr>, Box<TExpr>) {
    match take(e).kind {
        TExprKind::Binary { lhs, rhs, .. }
        | TExprKind::PtrAdd {
            ptr: lhs, idx: rhs, ..
        } => (lhs, rhs),
        _ => unreachable!("matched by the caller"),
    }
}

/// Move `e` out, leaving a constant in its place.
fn take(e: &mut TExpr) -> TExpr {
    let hole = TExpr {
        ty: Ty::Void,
        kind: TExprKind::ConstInt(0),
        pos: e.pos,
        from_noncap: false,
    };
    std::mem::replace(e, hole)
}

/// Recognise the §3.5 byte-copy loop
/// `for (i = 0; i < N; i++) d[i] = s[i];` (element size 1) and return the
/// `OptMemcpy` that replaces it — emulating GCC's
/// tree-loop-distribute-patterns. The operands move out of the loop.
fn match_copy_loop(s: &mut TStmt) -> Option<TStmt> {
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
    let TExprKind::Binary {
        op: BinOp::Lt,
        lhs: cmp_lhs,
        rhs: n_expr,
        ..
    } = &mut cond.kind
    else {
        return None;
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
    let assign = match &mut **body {
        TStmt::Expr(e) => e,
        TStmt::Block(b) if b.len() == 1 => match &mut b[0] {
            TStmt::Expr(e) => e,
            _ => return None,
        },
        _ => return None,
    };
    let TExprKind::Assign { lv, rhs } = &mut assign.kind else {
        return None;
    };
    let dst = indexed_base(lv, ivar)?;
    let TExprKind::Load(src_lv) = &mut rhs.kind else {
        return None;
    };
    let src = indexed_base(src_lv, ivar)?;
    let mut n = take(n_expr);
    while let TExprKind::Cast { arg, .. } = n.kind {
        n = *arg;
    }
    Some(TStmt::OptMemcpy {
        dst: take(dst),
        src: take(src),
        n,
    })
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
fn indexed_base(e: &mut TExpr, ivar: LocalId) -> Option<&mut TExpr> {
    let TExprKind::LvDeref(p) = &mut e.kind else {
        return None;
    };
    let TExprKind::PtrAdd {
        ptr,
        idx,
        elem: 1,
        neg: false,
    } = &mut p.kind
    else {
        return None;
    };
    loads_var(idx, ivar).then_some(&mut **ptr)
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
