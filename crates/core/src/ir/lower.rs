//! TAST → bytecode lowering.
//!
//! One pass per function, compiling statements into basic blocks with
//! explicit jumps. The type checker already numbered every object: a
//! local's [`crate::tast::LocalId`] is its frame slot and a
//! [`crate::tast::GlobalId`] is its global's index. Every memory effect becomes its
//! own instruction at the exact program point the tree engine performs
//! it; anything unlowerable becomes [`Inst::Unsupported`] with the tree
//! engine's message, raised only if reached (lazy-error parity).
//!
//! Lowering also records, per slot, the facts the fast mode's promotion
//! decision reads ([`super::escape`]): each node that takes a local's
//! address or uses it as an aggregate marks the local as it is lowered.

use std::collections::{BTreeMap, HashMap};

use crate::tast::{Callee, LocalId, TExpr, TExprKind, TFunc, TInit, TLocal, TProgram, TStmt};
use crate::types::{IntTy, Ty};

use super::escape::WhyNot;
use super::{FuncId, Inst, IrFunc, IrParam, IrProgram, LocalFacts, Reg, StrId, TyId};

/// Lower a typechecked program to bytecode. Deterministic: functions are
/// lowered in sorted-name order, pools in first-intern order.
#[must_use]
pub fn lower(prog: &TProgram) -> IrProgram {
    let mut pools = Pools::default();
    let globals: Vec<String> = prog
        .globals
        .iter()
        .map(|g| g.name.clone())
        .chain(prog.streams.iter().map(|s| (*s).to_string()))
        .collect();
    let func_index: BTreeMap<String, u32> = prog
        .funcs
        .keys()
        .enumerate()
        .map(|(i, n)| (n.clone(), i as u32))
        .collect();
    let funcs = prog
        .funcs
        .values()
        .map(|f| lower_func(prog, &mut pools, &func_index, f))
        .collect();
    let main = func_index.get("main").copied();
    IrProgram {
        funcs,
        func_index,
        types: pools.types,
        strs: pools.strs,
        globals,
        main,
    }
}

#[derive(Default)]
struct Pools {
    types: Vec<Ty>,
    type_index: HashMap<Ty, u32>,
    strs: Vec<String>,
    str_index: HashMap<String, u32>,
}

impl Pools {
    fn ty(&mut self, t: &Ty) -> TyId {
        if let Some(&i) = self.type_index.get(t) {
            return TyId(i);
        }
        let i = self.types.len() as u32;
        self.types.push(t.clone());
        self.type_index.insert(t.clone(), i);
        TyId(i)
    }

    fn s(&mut self, s: &str) -> StrId {
        if let Some(&i) = self.str_index.get(s) {
            return StrId(i);
        }
        let i = self.strs.len() as u32;
        self.strs.push(s.to_string());
        self.str_index.insert(s.to_string(), i);
        StrId(i)
    }
}

struct FnLower<'a> {
    prog: &'a TProgram,
    pools: &'a mut Pools,
    fidx: &'a BTreeMap<String, u32>,
    /// The function's locals table: slot `i` holds `locals[i]`.
    locals: &'a [TLocal],
    /// Per slot, what the promotion decision needs ([`IrFunc::locals`]).
    facts: Vec<LocalFacts>,
    blocks: Vec<Vec<Inst>>,
    cur: usize,
    next_reg: u32,
    max_reg: u32,
    brk: Vec<u32>,
    cont: Vec<u32>,
}

fn lower_func(
    prog: &TProgram,
    pools: &mut Pools,
    fidx: &BTreeMap<String, u32>,
    f: &TFunc,
) -> IrFunc {
    let mut fl = FnLower {
        prog,
        pools,
        fidx,
        locals: &f.locals,
        facts: vec![LocalFacts::default(); f.locals.len()],
        blocks: vec![Vec::new()],
        cur: 0,
        next_reg: 0,
        max_reg: 0,
        brk: Vec::new(),
        cont: Vec::new(),
    };
    let mut params = Vec::new();
    for (slot, TLocal { name, ty }) in f.locals[..f.n_params].iter().enumerate() {
        let pretty = name.split('#').next().unwrap_or(name);
        let name = fl.pools.s(pretty);
        fl.facts[slot].name = Some(name);
        if !ty.is_scalar() {
            fl.facts[slot].why_not.insert(WhyNot::NotScalar);
        }
        params.push(IrParam {
            slot: slot as u32,
            name,
            ty: fl.pools.ty(ty),
            size: prog.types.size_of(ty),
            align: prog.types.align_of(ty),
        });
    }
    for s in &f.body {
        fl.stmt(s);
    }
    fl.emit(Inst::RetFall);
    let (code, block_pc) = link(fl.blocks);
    IrFunc {
        name: f.name.clone(),
        is_main: f.name == "main",
        params,
        n_slots: f.locals.len() as u32,
        n_regs: fl.max_reg,
        code,
        block_pc,
        locals: fl.facts,
        promoted: Vec::new(),
    }
}

/// Concatenate blocks in creation order, rewriting jump targets from
/// block ids to absolute instruction offsets.
fn link(blocks: Vec<Vec<Inst>>) -> (Vec<Inst>, Vec<u32>) {
    let mut block_pc = Vec::with_capacity(blocks.len());
    let mut pc = 0u32;
    for b in &blocks {
        block_pc.push(pc);
        pc += b.len() as u32;
    }
    let mut code = Vec::with_capacity(pc as usize);
    for b in blocks {
        for mut inst in b {
            match &mut inst {
                Inst::Jump { target }
                | Inst::JumpIfFalse { target, .. }
                | Inst::JumpIfTrue { target, .. } => *target = block_pc[*target as usize],
                Inst::SwitchInt { cases, end, .. } => {
                    for (_, t) in cases.iter_mut() {
                        *t = block_pc[*t as usize];
                    }
                    *end = block_pc[*end as usize];
                }
                _ => {}
            }
            code.push(inst);
        }
    }
    (code, block_pc)
}

impl FnLower<'_> {
    fn emit(&mut self, i: Inst) {
        self.blocks[self.cur].push(i);
    }

    fn reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn free_to(&mut self, mark: u32) {
        self.next_reg = mark;
    }

    fn new_block(&mut self) -> u32 {
        self.blocks.push(Vec::new());
        (self.blocks.len() - 1) as u32
    }

    fn switch_to(&mut self, b: u32) {
        self.cur = b as usize;
    }

    fn ty(&mut self, t: &Ty) -> TyId {
        self.pools.ty(t)
    }

    fn size(&self, t: &Ty) -> u64 {
        self.prog.types.size_of(t)
    }

    fn unsupported(&mut self, msg: impl AsRef<str>) -> Reg {
        let m = self.pools.s(msg.as_ref());
        self.emit(Inst::Unsupported { msg: m });
        self.reg()
    }

    /// Record why the local `l` must stay in memory.
    fn keep(&mut self, l: LocalId, why: WhyNot) {
        self.facts[l.0 as usize].why_not.insert(why);
    }

    /// Record `why` against the local whose address `e` computes, if it
    /// computes one: the node `e` feeds refines `addr-taken`.
    fn addr_feeds(&mut self, e: &TExpr, why: WhyNot) {
        if let Some(l) = addressed_local(e) {
            self.keep(l, why);
        }
    }

    // ── Statements ──────────────────────────────────────────────────────

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &TStmt) {
        let mark = self.next_reg;
        match s {
            TStmt::Decl { local, is_const, init, .. } => {
                let locals = self.locals;
                let TLocal { name, ty } = &locals[local.0 as usize];
                let size = self.size(ty);
                let align = self.prog.types.align_of(ty);
                let pretty = name.split('#').next().unwrap_or(name);
                let pretty = self.pools.s(pretty);
                self.facts[local.0 as usize].name = Some(pretty);
                let zero = matches!(init, Some(TInit::List(_) | TInit::Str(_)));
                if zero {
                    self.keep(*local, WhyNot::NotScalar);
                }
                if !matches!(init, Some(TInit::Scalar(_))) {
                    self.keep(*local, WhyNot::NoInitialiser);
                }
                if *is_const {
                    self.keep(*local, WhyNot::ConstQualified);
                }
                let loc = self.reg();
                self.emit(Inst::AllocLocal { dst: loc, name: pretty, size, align, zero });
                if let Some(init) = init {
                    self.init(loc, ty, init);
                }
                let bound = if *is_const {
                    let f = self.reg();
                    self.emit(Inst::FreezeLoc { dst: f, src: loc });
                    f
                } else {
                    loc
                };
                self.emit(Inst::BindSlot { slot: local.0, src: bound });
            }
            TStmt::Expr(e) => {
                self.expr(e);
            }
            TStmt::Block(body) => {
                for s in body {
                    self.stmt(s);
                }
            }
            TStmt::If(c, t, e) => {
                let cr = self.expr(c);
                match e {
                    None => {
                        let lend = self.new_block();
                        self.emit(Inst::JumpIfFalse { src: cr, target: lend });
                        self.free_to(mark);
                        self.stmt(t);
                        self.emit(Inst::Jump { target: lend });
                        self.switch_to(lend);
                    }
                    Some(els) => {
                        let lelse = self.new_block();
                        let lend = self.new_block();
                        self.emit(Inst::JumpIfFalse { src: cr, target: lelse });
                        self.free_to(mark);
                        self.stmt(t);
                        self.emit(Inst::Jump { target: lend });
                        self.switch_to(lelse);
                        self.stmt(els);
                        self.emit(Inst::Jump { target: lend });
                        self.switch_to(lend);
                    }
                }
            }
            TStmt::While(c, body) => {
                let lcond = self.new_block();
                let lbody = self.new_block();
                let lend = self.new_block();
                self.emit(Inst::Jump { target: lcond });
                self.switch_to(lcond);
                let cr = self.expr(c);
                self.emit(Inst::JumpIfFalse { src: cr, target: lend });
                self.emit(Inst::Jump { target: lbody });
                self.free_to(mark);
                self.switch_to(lbody);
                self.brk.push(lend);
                self.cont.push(lcond);
                self.stmt(body);
                self.brk.pop();
                self.cont.pop();
                self.emit(Inst::Jump { target: lcond });
                self.switch_to(lend);
            }
            TStmt::DoWhile(body, c) => {
                let lbody = self.new_block();
                let lcond = self.new_block();
                let lend = self.new_block();
                self.emit(Inst::Jump { target: lbody });
                self.switch_to(lbody);
                self.brk.push(lend);
                self.cont.push(lcond);
                self.stmt(body);
                self.brk.pop();
                self.cont.pop();
                self.emit(Inst::Jump { target: lcond });
                self.switch_to(lcond);
                let cr = self.expr(c);
                self.emit(Inst::JumpIfTrue { src: cr, target: lbody });
                self.emit(Inst::Jump { target: lend });
                self.free_to(mark);
                self.switch_to(lend);
            }
            TStmt::For { init, cond, step, body } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                let lcond = self.new_block();
                let lbody = self.new_block();
                let lstep = self.new_block();
                let lend = self.new_block();
                self.emit(Inst::Jump { target: lcond });
                self.switch_to(lcond);
                match cond {
                    Some(c) => {
                        let cr = self.expr(c);
                        self.emit(Inst::JumpIfFalse { src: cr, target: lend });
                        self.emit(Inst::Jump { target: lbody });
                        self.free_to(mark);
                    }
                    None => self.emit(Inst::Jump { target: lbody }),
                }
                self.switch_to(lbody);
                self.brk.push(lend);
                self.cont.push(lstep);
                self.stmt(body);
                self.brk.pop();
                self.cont.pop();
                self.emit(Inst::Jump { target: lstep });
                self.switch_to(lstep);
                if let Some(step) = step {
                    self.expr(step);
                    self.free_to(mark);
                }
                self.emit(Inst::Jump { target: lcond });
                self.switch_to(lend);
            }
            TStmt::Switch(scrut, cases) => {
                let sr = self.expr(scrut);
                let body_blocks: Vec<u32> = cases.iter().map(|_| self.new_block()).collect();
                let lend = self.new_block();
                let arms: Vec<(Option<i128>, u32)> = cases
                    .iter()
                    .zip(&body_blocks)
                    .map(|((v, _), &b)| (*v, b))
                    .collect();
                self.emit(Inst::SwitchInt { src: sr, cases: arms.into(), end: lend });
                self.free_to(mark);
                self.brk.push(lend);
                for (i, (_, body)) in cases.iter().enumerate() {
                    self.switch_to(body_blocks[i]);
                    for s in body {
                        self.stmt(s);
                    }
                    let next = body_blocks.get(i + 1).copied().unwrap_or(lend);
                    self.emit(Inst::Jump { target: next });
                }
                self.brk.pop();
                self.switch_to(lend);
            }
            TStmt::Return(e) => match e {
                Some(e) => {
                    let r = self.expr(e);
                    self.emit(Inst::Ret { src: r });
                }
                None => self.emit(Inst::RetVoid),
            },
            // The type checker rejects a `break` outside a loop or `switch`
            // and a `continue` outside a loop.
            TStmt::Break => match self.brk.last().copied() {
                Some(t) => self.emit(Inst::Jump { target: t }),
                None => {
                    self.unsupported("`break` outside a loop or `switch`");
                }
            },
            TStmt::Continue => match self.cont.last().copied() {
                Some(t) => self.emit(Inst::Jump { target: t }),
                None => {
                    self.unsupported("`continue` outside a loop");
                }
            },
            TStmt::OptMemcpy { dst, src, n } => {
                let d = self.expr(dst);
                let s = self.expr(src);
                let n = self.expr(n);
                self.emit(Inst::OptMemcpy { dst: d, src: s, n });
            }
            TStmt::Empty => {}
        }
        self.free_to(mark);
    }

    fn init(&mut self, loc: Reg, ty: &Ty, init: &TInit) {
        match (ty, init) {
            (_, TInit::Scalar(e)) => {
                self.addr_feeds(e, WhyNot::StoredToMemory);
                let v = self.expr(e);
                let t = self.ty(ty);
                self.emit(Inst::Store { loc, ty: t, src: v });
            }
            (Ty::Array(elem, _), TInit::Str(s)) => {
                let sid = self.pools.s(s);
                let elem = self.size(elem);
                self.emit(Inst::InitStr { loc, s: sid, elem });
            }
            (Ty::Array(elem, _), TInit::List(items)) => {
                let esz = self.size(elem);
                for (i, item) in items.iter().enumerate() {
                    let ep = self.reg();
                    self.emit(Inst::MemberShift { dst: ep, src: loc, off: i as u64 * esz });
                    self.init(ep, elem, item);
                }
            }
            (Ty::Struct(id) | Ty::Union(id), TInit::List(items)) => {
                let fields: Vec<(u64, Ty)> = self.prog.types.structs[id.0]
                    .fields
                    .iter()
                    .map(|f| (f.offset, f.ty.clone()))
                    .collect();
                for (item, (off, fty)) in items.iter().zip(fields.iter()) {
                    let fp = self.reg();
                    self.emit(Inst::MemberShift { dst: fp, src: loc, off: *off });
                    self.init(fp, fty, item);
                }
            }
            (t, _) => {
                self.unsupported(format!("initialiser for type {t}"));
            }
        }
    }

    // ── Lvalues ─────────────────────────────────────────────────────────

    fn lvalue(&mut self, e: &TExpr) -> Reg {
        match &e.kind {
            TExprKind::LvLocal(l) => {
                let n = self.pools.s(&self.locals[l.0 as usize].name);
                let d = self.reg();
                self.emit(Inst::SlotLoc { dst: d, slot: l.0, name: n });
                d
            }
            TExprKind::LvGlobal(g) => {
                let d = self.reg();
                self.emit(Inst::GlobalLoc { dst: d, g: *g });
                d
            }
            TExprKind::LvDeref(p) => {
                let v = self.expr(p);
                let d = self.reg();
                self.emit(Inst::DerefLoc { dst: d, src: v });
                d
            }
            TExprKind::LvMember(base, off) => {
                if let TExprKind::LvLocal(l) = base.kind {
                    self.keep(l, WhyNot::NotScalar);
                }
                let b = self.lvalue(base);
                let d = self.reg();
                self.emit(Inst::MemberShift { dst: d, src: b, off: *off });
                d
            }
            _ => self.unsupported("expected lvalue"),
        }
    }

    // ── Expressions ─────────────────────────────────────────────────────

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &TExpr) -> Reg {
        match &e.kind {
            TExprKind::ConstInt(v) => {
                let ity = e.ty.as_int().unwrap_or(IntTy::Int);
                let d = self.reg();
                self.emit(Inst::ConstInt { dst: d, ity, v: *v });
                d
            }
            TExprKind::ConstFloat(v) => {
                let fty = e.ty.as_float().unwrap_or(crate::types::FloatTy::F64);
                let d = self.reg();
                self.emit(Inst::ConstFloat { dst: d, fty, v: *v });
                d
            }
            TExprKind::StrLit(s) => {
                let sid = self.pools.s(s);
                let t = self.ty(&e.ty);
                let d = self.reg();
                self.emit(Inst::StrLit { dst: d, s: sid, ty: t });
                d
            }
            // Bare lvalue in value position: evaluate to its address (the
            // tree engine's robustness fallback).
            TExprKind::LvLocal(_)
            | TExprKind::LvGlobal(_)
            | TExprKind::LvDeref(_)
            | TExprKind::LvMember(..) => {
                self.addr_feeds(e, WhyNot::AddressTaken);
                let loc = self.lvalue(e);
                let t = self.ty(&Ty::ptr(e.ty.clone()));
                let d = self.reg();
                self.emit(Inst::AddrOf { dst: d, loc, ty: t, narrow: None });
                d
            }
            TExprKind::Load(lv) => {
                if let TExprKind::LvLocal(l) = lv.kind {
                    if !lv.ty.is_scalar() {
                        self.keep(l, WhyNot::NotScalar);
                    }
                }
                let loc = self.lvalue(lv);
                let t = self.ty(&lv.ty);
                let d = self.reg();
                self.emit(Inst::Load { dst: d, loc, ty: t });
                d
            }
            TExprKind::AddrOf(lv) | TExprKind::Decay(lv) => {
                self.addr_feeds(e, WhyNot::AddressTaken);
                let narrow = if matches!(lv.kind, TExprKind::LvMember(..)) {
                    Some(self.size(&lv.ty))
                } else {
                    None
                };
                let loc = self.lvalue(lv);
                let t = self.ty(&e.ty);
                let d = self.reg();
                self.emit(Inst::AddrOf { dst: d, loc, ty: t, narrow });
                d
            }
            TExprKind::FuncAddr(name) => {
                let n = self.pools.s(name);
                let t = self.ty(&e.ty);
                let d = self.reg();
                self.emit(Inst::FuncAddr { dst: d, name: n, ty: t });
                d
            }
            TExprKind::Binary { op, lhs, rhs, derive } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                let ity = e.ty.as_int().unwrap_or(IntTy::Int);
                let t = self.ty(&e.ty);
                let d = self.reg();
                self.emit(Inst::Binary { dst: d, op: *op, ity, ty: t, derive: *derive, lhs: l, rhs: r });
                d
            }
            TExprKind::Logical { and, lhs, rhs } => {
                let l = self.expr(lhs);
                let d = self.reg();
                self.emit(Inst::BoolOf { dst: d, src: l });
                let lrhs = self.new_block();
                let lend = self.new_block();
                if *and {
                    self.emit(Inst::JumpIfFalse { src: d, target: lend });
                } else {
                    self.emit(Inst::JumpIfTrue { src: d, target: lend });
                }
                self.emit(Inst::Jump { target: lrhs });
                self.switch_to(lrhs);
                let m = self.next_reg;
                let r = self.expr(rhs);
                self.emit(Inst::BoolOf { dst: d, src: r });
                self.free_to(m);
                self.emit(Inst::Jump { target: lend });
                self.switch_to(lend);
                d
            }
            TExprKind::Unary(op, a) => {
                let av = self.expr(a);
                let ity = e.ty.as_int().unwrap_or(IntTy::Int);
                let d = self.reg();
                self.emit(Inst::Unary { dst: d, op: *op, ity, src: av });
                d
            }
            TExprKind::PtrAdd { ptr, idx, elem, neg } => {
                self.addr_feeds(ptr, WhyNot::CapabilityDerived);
                let p = self.expr(ptr);
                let i = self.expr(idx);
                let t = self.ty(&e.ty);
                let d = self.reg();
                self.emit(Inst::PtrAdd { dst: d, ptr: p, idx: i, elem: *elem, neg: *neg, ty: t });
                d
            }
            TExprKind::PtrDiff { a, b, elem } => {
                let ar = self.expr(a);
                let br = self.expr(b);
                let d = self.reg();
                self.emit(Inst::PtrDiff { dst: d, a: ar, b: br, elem: *elem });
                d
            }
            TExprKind::PtrCmp { op, a, b } => {
                self.addr_feeds(a, WhyNot::Compared);
                self.addr_feeds(b, WhyNot::Compared);
                let ar = self.expr(a);
                let br = self.expr(b);
                let d = self.reg();
                self.emit(Inst::PtrCmp { dst: d, op: *op, a: ar, b: br });
                d
            }
            TExprKind::Cast { kind, arg } => self.cast(e, *kind, arg),
            TExprKind::Assign { lv, rhs } => {
                let loc = self.lvalue(lv);
                if matches!(lv.ty, Ty::Struct(_) | Ty::Union(_) | Ty::Array(..)) {
                    if let TExprKind::Load(src_lv) = &rhs.kind {
                        for side in [lv, src_lv] {
                            if let TExprKind::LvLocal(l) = side.kind {
                                self.keep(l, WhyNot::NotScalar);
                            }
                        }
                        let src = self.lvalue(src_lv);
                        let n = self.size(&lv.ty);
                        self.emit(Inst::MemcpyAgg { dst: loc, src, n });
                        let d = self.reg();
                        self.emit(Inst::SetVoid { dst: d });
                        d
                    } else {
                        self.unsupported("aggregate assignment")
                    }
                } else {
                    self.addr_feeds(rhs, WhyNot::StoredToMemory);
                    let v = self.expr(rhs);
                    let t = self.ty(&lv.ty);
                    self.emit(Inst::Store { loc, ty: t, src: v });
                    v
                }
            }
            TExprKind::AssignOp { lv, op, rhs, common, derive } => {
                let loc = self.lvalue(lv);
                let lty = self.ty(&lv.ty);
                if let Some(cf) = common.as_float() {
                    let cur = self.reg();
                    self.emit(Inst::Load { dst: cur, loc, ty: lty });
                    let r = self.expr(rhs);
                    let d = self.reg();
                    self.emit(Inst::AssignOpFloat {
                        dst: d,
                        loc,
                        ty: lty,
                        common: cf,
                        op: *op,
                        cur,
                        rhs: r,
                    });
                    d
                } else if let Some(lt) = lv.ty.as_int() {
                    let Some(ct) = common.as_int() else {
                        return self.unsupported("compound assignment common type");
                    };
                    let cur = self.reg();
                    self.emit(Inst::Load { dst: cur, loc, ty: lty });
                    let r = self.expr(rhs);
                    let d = self.reg();
                    self.emit(Inst::AssignOpInt {
                        dst: d,
                        loc,
                        ty: lty,
                        lt,
                        ct,
                        op: *op,
                        derive: *derive,
                        cur,
                        rhs: r,
                    });
                    d
                } else {
                    self.unsupported("compound assignment on non-integer")
                }
            }
            TExprKind::PtrAssignAdd { lv, idx, elem, neg } => {
                let loc = self.lvalue(lv);
                let t = self.ty(&lv.ty);
                let cur = self.reg();
                self.emit(Inst::Load { dst: cur, loc, ty: t });
                let i = self.expr(idx);
                let d = self.reg();
                self.emit(Inst::PtrAssignAdd {
                    dst: d,
                    loc,
                    ty: t,
                    cur,
                    idx: i,
                    elem: *elem,
                    neg: *neg,
                });
                d
            }
            TExprKind::IncDec { lv, inc, prefix, elem } => {
                let loc = self.lvalue(lv);
                let t = self.ty(&lv.ty);
                let d = self.reg();
                self.emit(Inst::IncDec {
                    dst: d,
                    loc,
                    ty: t,
                    inc: *inc,
                    prefix: *prefix,
                    elem: *elem,
                });
                d
            }
            TExprKind::Call { callee, args } => {
                for a in args {
                    self.addr_feeds(a, WhyNot::PassedToCall);
                }
                let argr: Vec<Reg> = args.iter().map(|a| self.expr(a)).collect();
                match callee {
                    Callee::Direct(name) => match self.fidx.get(name) {
                        Some(&f) => {
                            let d = self.reg();
                            self.emit(Inst::CallDirect { dst: d, f: FuncId(f), args: argr.into() });
                            d
                        }
                        None => self.unsupported(format!("call of undefined `{name}`")),
                    },
                    Callee::Indirect(fe) => {
                        let c = self.expr(fe);
                        let d = self.reg();
                        self.emit(Inst::CallIndirect { dst: d, callee: c, args: argr.into() });
                        d
                    }
                    Callee::Builtin(b) => {
                        let pairs: Vec<(Reg, TyId)> = args
                            .iter()
                            .zip(&argr)
                            .map(|(a, &r)| (r, self.pools.ty(&a.ty)))
                            .collect();
                        let d = self.reg();
                        self.emit(Inst::CallBuiltin { dst: d, b: *b, args: pairs.into() });
                        d
                    }
                }
            }
            TExprKind::Cond { c, t, f } => {
                let cr = self.expr(c);
                let d = self.reg();
                let lfalse = self.new_block();
                let lend = self.new_block();
                self.emit(Inst::JumpIfFalse { src: cr, target: lfalse });
                let m = self.next_reg;
                let tr = self.expr(t);
                self.emit(Inst::Move { dst: d, src: tr });
                self.free_to(m);
                self.emit(Inst::Jump { target: lend });
                self.switch_to(lfalse);
                let fr = self.expr(f);
                self.emit(Inst::Move { dst: d, src: fr });
                self.free_to(m);
                self.emit(Inst::Jump { target: lend });
                self.switch_to(lend);
                d
            }
            TExprKind::Comma(a, b) => {
                let m = self.next_reg;
                self.expr(a);
                self.free_to(m);
                self.expr(b)
            }
        }
    }

    fn cast(&mut self, e: &TExpr, kind: crate::tast::CastKind, arg: &TExpr) -> Reg {
        use crate::tast::CastKind;
        if kind == CastKind::PtrToInt {
            self.addr_feeds(arg, WhyNot::CapabilityDerived);
        }
        let a = self.expr(arg);
        let d = self.reg();
        match kind {
            CastKind::ToVoid => self.emit(Inst::SetVoid { dst: d }),
            CastKind::ToBool => self.emit(Inst::ToBool { dst: d, src: a }),
            CastKind::IntToInt => {
                let to = e.ty.as_int().expect("int target");
                self.emit(Inst::IntToInt { dst: d, src: a, to });
            }
            CastKind::PtrToInt => {
                let to = e.ty.as_int().expect("int target");
                let size = self.size(&e.ty);
                self.emit(Inst::PtrToInt { dst: d, src: a, to, size });
            }
            CastKind::IntToPtr => {
                let t = self.ty(&e.ty);
                self.emit(Inst::IntToPtr { dst: d, src: a, ty: t });
            }
            CastKind::PtrToPtr => {
                let t = self.ty(&e.ty);
                self.emit(Inst::PtrToPtr { dst: d, src: a, ty: t });
            }
            CastKind::IntToFloat => {
                let fty = e.ty.as_float().expect("float target");
                self.emit(Inst::IntToFloat { dst: d, src: a, fty });
            }
            CastKind::FloatToInt => {
                let to = e.ty.as_int().expect("int target");
                self.emit(Inst::FloatToInt { dst: d, src: a, to });
            }
            CastKind::FloatToFloat => {
                let fty = e.ty.as_float().expect("float target");
                self.emit(Inst::FloatToFloat { dst: d, src: a, fty });
            }
        }
        d
    }
}

/// The local whose address `e` computes directly, if any: `&x`, the decay
/// of an array `x`, or a bare `x` in value position.
fn addressed_local(e: &TExpr) -> Option<LocalId> {
    match &e.kind {
        TExprKind::LvLocal(l) => Some(*l),
        TExprKind::AddrOf(lv) | TExprKind::Decay(lv) => match lv.kind {
            TExprKind::LvLocal(l) => Some(l),
            _ => None,
        },
        _ => None,
    }
}
