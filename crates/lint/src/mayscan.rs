//! Mode B: the syntactic may-analysis — the ⊤ element of the analysis
//! lattice.
//!
//! When the definite executor widens (step budget, call depth,
//! unsupported construct), precision is gone but soundness must survive:
//! the analyzer may no longer answer `Clean` for a class unless the
//! program *syntactically cannot* exhibit it. This pass walks the typed
//! AST once and records, per verdict class, the first construct that
//! could trigger it. A class with no trigger anywhere in the program is
//! still `Clean` after widening (a program with no casts and no pointer
//! reads cannot strip provenance no matter how long it loops); everything
//! else becomes `MayUb`.
//!
//! The trigger sets are deliberately coarse over-approximations — any
//! memory access may be out of bounds, any call may free — because the
//! soundness gate only constrains `MustUb` and `Clean`; the `MayUb` rate
//! is reported, not bounded.

use cheri_core::lex::Pos;
use cheri_core::profile::Profile;
use cheri_core::tast::{
    Builtin, Callee, CastKind, TExpr, TExprKind, TInit, TProgram, TStmt,
};
use cheri_core::types::Ty;

use crate::classes::UbClass;

/// A may-trigger: the first syntactic site that could exhibit a class.
#[derive(Clone, Debug)]
pub struct MayTrigger {
    /// The class that may occur.
    pub class: UbClass,
    /// Position of the first triggering construct.
    pub pos: Pos,
    /// What the construct is.
    pub what: String,
}

struct Scan<'p> {
    profile: &'p Profile,
    first: Vec<Option<MayTrigger>>,
}

impl Scan<'_> {
    fn mark(&mut self, class: UbClass, pos: Pos, what: &str) {
        let slot = &mut self.first[class as usize];
        if slot.is_none() {
            *slot = Some(MayTrigger {
                class,
                pos,
                what: what.to_string(),
            });
        }
    }

    /// Any expression that reads or writes memory through a pointer: the
    /// access classes all become possible.
    fn mark_access(&mut self, pos: Pos, what: &str) {
        self.mark(UbClass::OutOfBounds, pos, what);
        self.mark(UbClass::UseAfterFree, pos, what);
        self.mark(UbClass::Uninit, pos, what);
        self.mark(UbClass::NullDeref, pos, what);
        self.mark(UbClass::Permission, pos, what);
        if self.profile.mem.capabilities {
            self.mark(UbClass::TagStripped, pos, what);
        }
    }

    fn stmt(&mut self, s: &TStmt) {
        match s {
            TStmt::Decl { init, .. } => {
                if let Some(init) = init {
                    self.init(init);
                }
            }
            TStmt::Expr(e) | TStmt::Return(Some(e)) => self.expr(e),
            TStmt::Block(body) => {
                for s in body {
                    self.stmt(s);
                }
            }
            TStmt::If(c, t, e) => {
                self.expr(c);
                self.stmt(t);
                if let Some(e) = e {
                    self.stmt(e);
                }
            }
            TStmt::While(c, body) | TStmt::DoWhile(body, c) => {
                self.expr(c);
                self.stmt(body);
            }
            TStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(s) = step {
                    self.expr(s);
                }
                self.stmt(body);
            }
            TStmt::Switch(scrut, cases) => {
                self.expr(scrut);
                for (_, body) in cases {
                    for s in body {
                        self.stmt(s);
                    }
                }
            }
            TStmt::OptMemcpy { dst, src, n } => {
                self.expr(dst);
                self.expr(src);
                self.expr(n);
                self.mark_access(dst.pos, "optimised memcpy");
                if self.profile.mem.capabilities {
                    self.mark(UbClass::Misaligned, dst.pos, "optimised memcpy");
                }
            }
            TStmt::Return(None) | TStmt::Break | TStmt::Continue | TStmt::Empty => {}
        }
    }

    fn init(&mut self, init: &TInit) {
        match init {
            TInit::Scalar(e) => self.expr(e),
            TInit::List(items) => {
                for i in items {
                    self.init(i);
                }
            }
            TInit::Str(_) => {}
        }
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &TExpr) {
        let pos = e.pos;
        match &e.kind {
            TExprKind::ConstInt(_)
            | TExprKind::ConstFloat(_)
            | TExprKind::StrLit(_)
            | TExprKind::LvLocal(_)
            | TExprKind::LvGlobal(_)
            | TExprKind::FuncAddr(_) => {}
            TExprKind::LvDeref(p) => {
                self.mark(UbClass::Provenance, pos, "pointer dereference");
                self.expr(p);
            }
            TExprKind::LvMember(base, _) => self.expr(base),
            TExprKind::Load(lv) => {
                self.mark_access(pos, "memory read");
                self.expr(lv);
            }
            TExprKind::AddrOf(lv) | TExprKind::Decay(lv) => self.expr(lv),
            TExprKind::Binary { lhs, rhs, .. } => {
                self.mark(UbClass::Arithmetic, pos, "integer arithmetic");
                self.expr(lhs);
                self.expr(rhs);
            }
            TExprKind::Logical { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            TExprKind::Unary(_, a) => {
                self.mark(UbClass::Arithmetic, pos, "integer arithmetic");
                self.expr(a);
            }
            TExprKind::PtrAdd { ptr, idx, .. } => {
                self.mark(UbClass::OutOfBounds, pos, "pointer arithmetic");
                self.expr(ptr);
                self.expr(idx);
            }
            TExprKind::PtrDiff { a, b, .. } => {
                self.mark(UbClass::OutOfBounds, pos, "pointer difference");
                self.mark(UbClass::Provenance, pos, "pointer difference");
                self.expr(a);
                self.expr(b);
            }
            TExprKind::PtrCmp { a, b, .. } => {
                self.mark(UbClass::Provenance, pos, "pointer comparison");
                self.expr(a);
                self.expr(b);
            }
            TExprKind::Cast { kind, arg } => {
                match kind {
                    CastKind::IntToPtr | CastKind::PtrToInt => {
                        self.mark(UbClass::Provenance, pos, "pointer/integer cast");
                        if self.profile.mem.capabilities {
                            self.mark(UbClass::TagStripped, pos, "pointer/integer cast");
                        }
                    }
                    CastKind::FloatToInt => {
                        self.mark(UbClass::Arithmetic, pos, "float-to-int conversion");
                    }
                    _ => {}
                }
                self.expr(arg);
            }
            TExprKind::Assign { lv, rhs } => {
                self.mark_access(pos, "assignment");
                if self.profile.mem.capabilities && matches!(lv.ty, Ty::Ptr { .. }) {
                    self.mark(UbClass::Misaligned, pos, "pointer store");
                }
                self.expr(lv);
                self.expr(rhs);
            }
            TExprKind::AssignOp { lv, rhs, .. } => {
                self.mark_access(pos, "compound assignment");
                self.mark(UbClass::Arithmetic, pos, "compound assignment");
                self.expr(lv);
                self.expr(rhs);
            }
            TExprKind::PtrAssignAdd { lv, idx, .. } => {
                self.mark_access(pos, "pointer compound assignment");
                self.mark(UbClass::OutOfBounds, pos, "pointer compound assignment");
                self.expr(lv);
                self.expr(idx);
            }
            TExprKind::IncDec { lv, .. } => {
                self.mark_access(pos, "increment/decrement");
                self.mark(UbClass::Arithmetic, pos, "increment/decrement");
                self.expr(lv);
            }
            TExprKind::Call { callee, args } => {
                self.mark_access(pos, "function call");
                match callee {
                    Callee::Builtin(
                        Builtin::Memcpy | Builtin::Memmove | Builtin::Strcpy,
                    ) if self.profile.mem.capabilities => {
                        self.mark(UbClass::Misaligned, pos, "memory copy");
                    }
                    Callee::Indirect(f) => {
                        self.mark(UbClass::Provenance, pos, "indirect call");
                        self.expr(f);
                    }
                    _ => {}
                }
                for a in args {
                    self.expr(a);
                }
            }
            TExprKind::Cond { c, t, f } => {
                self.expr(c);
                self.expr(t);
                self.expr(f);
            }
            TExprKind::Comma(a, b) => {
                self.expr(a);
                self.expr(b);
            }
        }
    }
}

/// Scan the whole program and return the first may-trigger per class, in
/// class order. Classes with no trigger are absent (still provably
/// `Clean` even under widening).
#[must_use]
pub fn scan(prog: &TProgram, profile: &Profile) -> Vec<MayTrigger> {
    let mut s = Scan {
        profile,
        first: vec![None; crate::classes::ALL_CLASSES.len()],
    };
    for g in &prog.globals {
        if let Some(init) = &g.init {
            s.init(init);
        }
    }
    for f in prog.funcs.values() {
        for st in &f.body {
            s.stmt(st);
        }
    }
    s.first.into_iter().flatten().collect()
}
