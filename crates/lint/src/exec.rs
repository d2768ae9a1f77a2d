//! Mode A: the *definite* abstract executor.
//!
//! A flow-sensitive abstract interpretation at singleton precision: every
//! abstract value is either a fully concrete machine value or the analysis
//! has already given up (widened to the [`crate::mayscan`] over-
//! approximation). Programs here take no input, so the concrete fragment
//! of the domain covers entire executions — and because the executor's
//! memory is a real [`CheriMemory`] instance (the same type, configuration
//! and capability encoding the dynamic semantics runs on), every bounds,
//! representability, provenance and ghost-state decision is *shared* with
//! the interpreter rather than re-modelled. That sharing is what makes the
//! soundness gate meaningful: a `MustUb` prediction is the memory model
//! itself faulting, one statement at a time, with a source position
//! attached.
//!
//! The executor mirrors `cheri_core::interp` operation for operation
//! (evaluation order, integer semantics, capability derivation at
//! arithmetic, builtins and intrinsics, the §3.5 optimisation emulations).
//! Divergence between the two is a bug; `tests/lint_soundness.rs` runs
//! both over the oracle-fuzz corpus and shrinks any disagreement into a
//! regression.
//!
//! On top of the mirrored execution the executor *observes*: a `VecSink`
//! is installed on the embedded memory, and after every step the drained
//! events are folded into cause notes (tag clears with their mechanism,
//! non-representable derivations, representability padding) annotated
//! with the current source position — the provenance-stripping mechanics
//! of §2.2/§3.3/§3.5 that never stop a run by themselves but explain the
//! fault when one follows.

use std::collections::HashMap;

use cheri_cap::{Capability, GhostState, Perms};
use cheri_mem::{
    AllocKind, CheriMemory, IntVal, MemError, MemEvent, Provenance, PtrVal, TagClearReason, Ub,
};
use cheri_core::ast::{BinOp, UnOp};
use cheri_core::lex::Pos;
use cheri_core::profile::Profile;
use cheri_core::tast::{
    Builtin, Callee, CastKind, DeriveFrom, TExpr, TExprKind, TFunc, TInit, TProgram, TStmt,
};
use cheri_core::types::{FloatTy, IntTy, Ty, TypeTable};

use crate::classes::UbClass;

/// How the mirrored execution ended.
#[derive(Debug)]
pub enum RunEnd {
    /// Normal termination with an exit code.
    Exit(i64),
    /// An `assert` failed (not a memory-safety stop).
    Assert,
    /// `abort()` (not a memory-safety stop).
    Abort,
    /// The memory model stopped the program: UB or a hardware trap. This
    /// is the `MustUb` case.
    Fault(MemError),
    /// The interpreter would report [`cheri_core::Outcome::Error`]
    /// (internal failure, not a program behaviour).
    Fail(String),
    /// The definite analysis cannot continue (unsupported construct, step
    /// budget, call depth): widen to the syntactic may-analysis.
    Bail(String),
}

/// A cause note harvested during execution (deduplicated by class +
/// message).
#[derive(Clone, Debug)]
pub struct Note {
    /// Verdict class the note belongs to.
    pub class: UbClass,
    /// What happened.
    pub message: String,
    /// Paper anchor.
    pub anchor: &'static str,
    /// Source position of the first occurrence.
    pub pos: Pos,
    /// Number of occurrences.
    pub count: u64,
}

/// Result of the definite pass.
pub struct ExecReport {
    /// How the mirrored run ended.
    pub end: RunEnd,
    /// Position of the fault (or of the last executed expression).
    pub pos: Pos,
    /// Cause notes, in first-occurrence order.
    pub notes: Vec<Note>,
    /// Steps executed (expression + statement ticks).
    pub steps: u64,
}

/// Runtime value of the singleton domain — structurally the interpreter's
/// `Value`, re-stated here because its helper methods are private to
/// `cheri_core::interp`.
#[derive(Clone, Debug)]
enum Value<C> {
    Void,
    Int { ity: IntTy, v: IntVal<C> },
    Float { fty: FloatTy, v: f64 },
    Ptr { ty: Ty, v: PtrVal<C> },
}

impl<C: Capability> Value<C> {
    fn truthy(&self) -> bool {
        match self {
            Value::Void => false,
            Value::Int { v, .. } => v.value() != 0,
            Value::Float { v, .. } => *v != 0.0,
            Value::Ptr { v, .. } => v.addr() != 0,
        }
    }

    fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float { v, .. } => Some(*v),
            _ => None,
        }
    }

    fn as_int(&self) -> Option<&IntVal<C>> {
        match self {
            Value::Int { v, .. } => Some(v),
            _ => None,
        }
    }

    fn as_ptr(&self) -> Option<&PtrVal<C>> {
        match self {
            Value::Ptr { v, .. } => Some(v),
            _ => None,
        }
    }

    fn cap(&self) -> Option<&C> {
        match self {
            Value::Ptr { v, .. } => Some(&v.cap),
            Value::Int { v, .. } => v.as_cap(),
            Value::Float { .. } | Value::Void => None,
        }
    }
}

enum Flow<C> {
    Normal,
    Break,
    Continue,
    Return(Value<C>),
}

enum Stop {
    Mem(MemError),
    Assert,
    Abort,
    Exit(i64),
    Bail(String),
}

impl From<MemError> for Stop {
    fn from(e: MemError) -> Self {
        Stop::Mem(e)
    }
}

type EResult<T> = Result<T, Stop>;

struct Frame<C: Capability> {
    vars: HashMap<String, (PtrVal<C>, Ty)>,
    to_kill: Vec<PtrVal<C>>,
}

/// The definite executor. See the module docs for the relationship to
/// `cheri_core::interp::Interp`.
pub struct Exec<'p, C: Capability> {
    prog: &'p TProgram,
    profile: &'p Profile,
    mem: CheriMemory<C>,
    globals: HashMap<String, (PtrVal<C>, Ty)>,
    func_ptrs: HashMap<String, PtrVal<C>>,
    addr_to_func: HashMap<u64, String>,
    strings: HashMap<String, PtrVal<C>>,
    stdout: String,
    stderr: String,
    steps: u64,
    budget: u64,
    call_depth: u32,
    pos: Pos,
    notes: Vec<Note>,
    note_index: HashMap<(UbClass, String), usize>,
}

fn types_size(tt: &TypeTable, ty: &Ty) -> u64 {
    tt.size_of(ty)
}

impl<'p, C: Capability> Exec<'p, C> {
    /// Create an executor with the given step budget (the widening
    /// threshold of the analysis; exceeding it bails to the may-scan).
    #[must_use]
    pub fn new(prog: &'p TProgram, profile: &'p Profile, budget: u64) -> Self {
        let mut mem = CheriMemory::new(profile.mem);
        mem.enable_trace();
        Exec {
            prog,
            profile,
            mem,
            globals: HashMap::new(),
            func_ptrs: HashMap::new(),
            addr_to_func: HashMap::new(),
            strings: HashMap::new(),
            stdout: String::new(),
            stderr: String::new(),
            steps: 0,
            budget,
            call_depth: 0,
            pos: Pos { line: 0, col: 0 },
            notes: Vec::new(),
            note_index: HashMap::new(),
        }
    }

    /// Run the definite pass to its end.
    #[must_use] 
    pub fn run(mut self) -> ExecReport {
        let end = match self.run_inner() {
            Ok(code) => RunEnd::Exit(code),
            Err(Stop::Mem(MemError::Fail(m))) => RunEnd::Fail(m),
            Err(Stop::Mem(e)) => RunEnd::Fault(e),
            Err(Stop::Assert) => RunEnd::Assert,
            Err(Stop::Abort) => RunEnd::Abort,
            Err(Stop::Exit(c)) => RunEnd::Exit(c),
            Err(Stop::Bail(m)) => RunEnd::Bail(m),
        };
        self.harvest();
        ExecReport {
            end,
            pos: self.pos,
            notes: self.notes,
            steps: self.steps,
        }
    }

    // ── Observation ──────────────────────────────────────────────────────

    fn note(&mut self, class: UbClass, anchor: &'static str, message: String) {
        let key = (class, message.clone());
        if let Some(i) = self.note_index.get(&key) {
            self.notes[*i].count += 1;
            return;
        }
        self.note_index.insert(key, self.notes.len());
        self.notes.push(Note {
            class,
            message,
            anchor,
            pos: self.pos,
            count: 1,
        });
    }

    /// Drain the embedded memory's event sink and fold tag-clearing /
    /// representability events into cause notes at the current position.
    fn harvest(&mut self) {
        let events = self.mem.take_events();
        for ev in events {
            match ev {
                MemEvent::CapTagClear { reason, .. } => {
                    let (class, anchor, msg) = match reason {
                        TagClearReason::MisalignedStore => (
                            UbClass::Misaligned,
                            "§3.5",
                            "capability store at a non-capability-aligned address: stored tag cleared".to_string(),
                        ),
                        TagClearReason::NonCapWrite => (
                            UbClass::TagStripped,
                            "§3.5/§4.3",
                            "non-capability data write overlapped a stored capability: tag cleared".to_string(),
                        ),
                        TagClearReason::Memcpy => (
                            UbClass::TagStripped,
                            "§3.5",
                            "partial or misaligned memcpy overwrote a capability slot: tag cleared".to_string(),
                        ),
                        TagClearReason::Revoked => (
                            UbClass::UseAfterFree,
                            "§3.8/§5.4",
                            "revocation sweep cleared capabilities referring to the freed region".to_string(),
                        ),
                    };
                    self.note(class, anchor, msg);
                }
                MemEvent::CapDerive { tag_cleared: true, .. } => {
                    self.note(
                        UbClass::TagStripped,
                        "§3.3",
                        "pointer arithmetic produced a non-representable capability: tag cleared"
                            .to_string(),
                    );
                }
                MemEvent::RepCheck { padded: true, size, reserved } => {
                    self.note(
                        UbClass::OutOfBounds,
                        "§2.1/§3.7",
                        format!(
                            "allocation padded for bounds representability ({size} requested, {reserved} reserved)"
                        ),
                    );
                }
                _ => {}
            }
        }
    }

    // ── Mirrored execution ───────────────────────────────────────────────

    fn run_inner(&mut self) -> EResult<i64> {
        let mut names: Vec<&String> = self.prog.funcs.keys().collect();
        names.sort();
        for name in names {
            let p = self
                .mem
                .allocate_kind(name, 1, 16, AllocKind::Function, true, Some(&[0]))?;
            let sentry = PtrVal::new(p.prov, p.cap.seal_entry());
            self.addr_to_func.insert(p.addr(), name.clone());
            self.func_ptrs.insert(name.clone(), sentry);
        }
        for g in &self.prog.globals {
            let size = types_size(&self.prog.types, &g.ty);
            let align = self.prog.types.align_of(&g.ty);
            let p = self
                .mem
                .allocate_kind(&g.name, size, align, AllocKind::Static, false, None)?;
            self.globals.insert(g.name.clone(), (p, g.ty.clone()));
        }
        for stream in ["stderr", "stdout"] {
            if !self.globals.contains_key(stream) {
                let p = self.mem.allocate_kind(
                    stream,
                    16,
                    16,
                    AllocKind::Static,
                    false,
                    Some(&[0; 16]),
                )?;
                self.globals
                    .insert(stream.to_string(), (p, Ty::ptr(Ty::Void)));
            }
        }
        let mut frame = Frame {
            vars: HashMap::new(),
            to_kill: Vec::new(),
        };
        for g in &self.prog.globals {
            self.pos = g.pos;
            let (p, ty) = self.globals[&g.name].clone();
            let size = types_size(&self.prog.types, &ty);
            self.mem.memset(&p, 0, size)?;
            if let Some(init) = &g.init {
                self.run_init(&mut frame, &p, &ty, init)?;
            }
            if g.is_const {
                let frozen = self.mem.freeze_readonly(&p)?;
                self.globals.insert(g.name.clone(), (frozen, ty));
            }
        }
        let Some(main) = self.prog.funcs.get("main") else {
            return Err(Stop::Bail("no main function".into()));
        };
        match self.call_function(main, Vec::new())? {
            Value::Int { v, .. } => Ok(v.value() as i64),
            _ => Ok(0),
        }
    }

    fn tick(&mut self) -> EResult<()> {
        self.steps += 1;
        if self.steps > self.budget {
            return Err(Stop::Bail("step budget exceeded".into()));
        }
        if self.steps.is_multiple_of(64) {
            self.harvest();
        }
        Ok(())
    }

    fn ub(&self, ub: Ub, detail: impl Into<String>) -> Stop {
        Stop::Mem(MemError::ub(ub, detail))
    }

    fn mk_int(&self, ity: IntTy, v: i128) -> IntVal<C> {
        if ity.is_capability() {
            IntVal::Cap {
                signed: ity.signed(),
                cap: C::null().with_address(v as u64),
                prov: Provenance::Empty,
            }
        } else {
            IntVal::Num(ity.wrap(v))
        }
    }

    fn convert_int(&self, v: &IntVal<C>, _from: IntTy, to: IntTy) -> IntVal<C> {
        if to.is_capability() {
            match v {
                IntVal::Cap { cap, prov, .. } => IntVal::Cap {
                    signed: to.signed(),
                    cap: cap.clone(),
                    prov: *prov,
                },
                IntVal::Num(n) => self.mk_int(to, *n),
            }
        } else {
            IntVal::Num(to.wrap(v.value()))
        }
    }

    fn derive_cap_result(&mut self, src: &IntVal<C>, ity: IntTy, addr: i128) -> IntVal<C> {
        let addr = ity.wrap(addr) as u64;
        let ghosted = match src.as_cap() {
            Some(cap) => {
                cap.tag() && !cap.is_representable(addr) && self.profile.mem.abstract_ub
            }
            None => false,
        };
        let mut out = src.derive_with_address(ity.signed(), addr);
        if ghosted {
            self.note(
                UbClass::TagStripped,
                "§3.3",
                "integer arithmetic moved a capability-carrying value outside its representable range: ghost state set".to_string(),
            );
            if let IntVal::Cap { cap, .. } = &mut out {
                *cap = cap.with_ghost(cap.ghost().join(GhostState::UNSPECIFIED));
            }
        } else if let (IntVal::Cap { cap: out_cap, .. }, Some(src_cap)) =
            (&mut out, src.as_cap())
        {
            *out_cap = out_cap.with_ghost(src_cap.ghost());
        }
        out
    }

    fn load_value(&mut self, p: &PtrVal<C>, ty: &Ty) -> EResult<Value<C>> {
        match ty {
            Ty::Int(ity) => {
                let size = types_size(&self.prog.types, ty);
                let v = self
                    .mem
                    .load_int(p, size, ity.signed(), ity.is_capability())?;
                let v = match v {
                    IntVal::Num(n) => IntVal::Num(ity.wrap(n)),
                    cap @ IntVal::Cap { .. } => cap,
                };
                Ok(Value::Int { ity: *ity, v })
            }
            Ty::Float(fty) => {
                let size = fty.size();
                let bits = self.mem.load_int(p, size, false, false)?.value() as u64;
                let v = match fty {
                    FloatTy::F32 => f64::from(f32::from_bits(bits as u32)),
                    FloatTy::F64 => f64::from_bits(bits),
                };
                Ok(Value::Float { fty: *fty, v })
            }
            Ty::Ptr { .. } => {
                let v = self.mem.load_ptr(p)?;
                Ok(Value::Ptr { ty: ty.clone(), v })
            }
            t => Err(Stop::Bail(format!("load of type {t}"))),
        }
    }

    fn store_value(&mut self, p: &PtrVal<C>, ty: &Ty, v: &Value<C>) -> EResult<()> {
        match (ty, v) {
            (Ty::Int(_), Value::Int { v, .. }) => {
                let size = types_size(&self.prog.types, ty);
                if self.profile.opt.elide_identity_writes && !v.is_cap() {
                    if let Ok(old) = self.mem.load_int(p, size, false, false) {
                        if old.value() == IntVal::<C>::Num(v.value()).value() {
                            return Ok(());
                        }
                    }
                }
                self.mem.store_int(p, size, v)?;
                Ok(())
            }
            (Ty::Float(fty), Value::Float { v, .. }) => {
                let (size, bits) = match fty {
                    FloatTy::F32 => (4, u64::from((*v as f32).to_bits())),
                    FloatTy::F64 => (8, v.to_bits()),
                };
                self.mem.store_int(p, size, &IntVal::Num(i128::from(bits)))?;
                Ok(())
            }
            (Ty::Ptr { .. }, Value::Ptr { v, .. }) => {
                self.mem.store_ptr(p, v)?;
                Ok(())
            }
            (Ty::Ptr { .. }, Value::Int { v, .. }) => {
                let ptr = self.mem.cast_int_to_ptr(v);
                self.mem.store_ptr(p, &ptr)?;
                Ok(())
            }
            (t, _) => Err(Stop::Bail(format!("store of type {t}"))),
        }
    }

    fn maybe_narrow_subobject(&self, p: PtrVal<C>, lv: &TExpr) -> PtrVal<C> {
        if !self.profile.subobject_bounds || !self.profile.mem.capabilities {
            return p;
        }
        if !matches!(lv.kind, TExprKind::LvMember(..)) {
            return p;
        }
        let size = types_size(&self.prog.types, &lv.ty);
        PtrVal::new(p.prov, p.cap.with_bounds(p.addr(), size))
    }

    fn intern_string(&mut self, s: &str) -> EResult<PtrVal<C>> {
        if let Some(p) = self.strings.get(s) {
            return Ok(p.clone());
        }
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        let p = self.mem.allocate_kind(
            "string-literal",
            bytes.len() as u64,
            1,
            AllocKind::StringLiteral,
            true,
            Some(&bytes),
        )?;
        self.strings.insert(s.to_string(), p.clone());
        Ok(p)
    }

    fn run_init(
        &mut self,
        frame: &mut Frame<C>,
        p: &PtrVal<C>,
        ty: &Ty,
        init: &TInit,
    ) -> EResult<()> {
        match (ty, init) {
            (_, TInit::Scalar(e)) => {
                let v = self.eval(frame, e)?;
                self.store_value(p, ty, &v)
            }
            (Ty::Array(elem, _), TInit::Str(s)) => {
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                for (i, b) in bytes.iter().enumerate() {
                    let ep = self
                        .mem
                        .member_shift(p, i as u64 * types_size(&self.prog.types, elem));
                    self.mem.store_int(&ep, 1, &IntVal::Num(i128::from(*b)))?;
                }
                Ok(())
            }
            (Ty::Array(elem, _), TInit::List(items)) => {
                let esz = types_size(&self.prog.types, elem);
                for (i, item) in items.iter().enumerate() {
                    let ep = self.mem.member_shift(p, i as u64 * esz);
                    self.run_init(frame, &ep, elem, item)?;
                }
                Ok(())
            }
            (Ty::Struct(id) | Ty::Union(id), TInit::List(items)) => {
                let fields: Vec<(u64, Ty)> = self.prog.types.structs[id.0]
                    .fields
                    .iter()
                    .map(|f| (f.offset, f.ty.clone()))
                    .collect();
                for (item, (off, fty)) in items.iter().zip(fields.iter()) {
                    let fp = self.mem.member_shift(p, *off);
                    self.run_init(frame, &fp, fty, item)?;
                }
                Ok(())
            }
            (t, _) => Err(Stop::Bail(format!("initialiser for type {t}"))),
        }
    }

    fn exec_block(&mut self, frame: &mut Frame<C>, stmts: &[TStmt]) -> EResult<Flow<C>> {
        for s in stmts {
            match self.exec(frame, s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, frame: &mut Frame<C>, s: &TStmt) -> EResult<Flow<C>> {
        self.tick()?;
        match s {
            TStmt::Decl {
                name,
                ty,
                is_const,
                init,
                pos,
            } => {
                self.pos = *pos;
                let size = types_size(&self.prog.types, ty);
                let align = self.prog.types.align_of(ty);
                let pretty = name.split('#').next().unwrap_or(name);
                let p = self.mem.allocate_object(pretty, size, align, false, None)?;
                frame.to_kill.push(p.clone());
                if let Some(init) = init {
                    if matches!(init, TInit::List(_) | TInit::Str(_)) {
                        self.mem.memset(&p, 0, size)?;
                    }
                    self.run_init(frame, &p, ty, init)?;
                }
                let p = if *is_const {
                    self.mem.freeze_readonly(&p)?
                } else {
                    p
                };
                frame.vars.insert(name.clone(), (p, ty.clone()));
                Ok(Flow::Normal)
            }
            TStmt::Expr(e) => {
                self.eval(frame, e)?;
                Ok(Flow::Normal)
            }
            TStmt::Block(body) => self.exec_block(frame, body),
            TStmt::If(c, t, e) => {
                let cv = self.eval(frame, c)?;
                if cv.truthy() {
                    self.exec(frame, t)
                } else if let Some(e) = e {
                    self.exec(frame, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            TStmt::While(c, body) => loop {
                let cv = self.eval(frame, c)?;
                if !cv.truthy() {
                    return Ok(Flow::Normal);
                }
                match self.exec(frame, body)? {
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                    Flow::Normal | Flow::Continue => {}
                }
            },
            TStmt::DoWhile(body, c) => loop {
                match self.exec(frame, body)? {
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                    Flow::Normal | Flow::Continue => {}
                }
                let cv = self.eval(frame, c)?;
                if !cv.truthy() {
                    return Ok(Flow::Normal);
                }
            },
            TStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.exec(frame, init)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval(frame, c)?.truthy() {
                            return Ok(Flow::Normal);
                        }
                    }
                    match self.exec(frame, body)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(s) = step {
                        self.eval(frame, s)?;
                    }
                }
            }
            TStmt::Switch(scrut, cases) => {
                let v = self.eval(frame, scrut)?;
                let n = v.as_int().map(IntVal::value).unwrap_or(0);
                let mut start = cases.iter().position(|(val, _)| *val == Some(n));
                if start.is_none() {
                    start = cases.iter().position(|(val, _)| val.is_none());
                }
                if let Some(start) = start {
                    for (_, body) in &cases[start..] {
                        match self.exec_block(frame, body)? {
                            Flow::Break => return Ok(Flow::Normal),
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Continue => return Ok(Flow::Continue),
                            Flow::Normal => {}
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            TStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(frame, e)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            TStmt::Break => Ok(Flow::Break),
            TStmt::Continue => Ok(Flow::Continue),
            TStmt::OptMemcpy { dst, src, n } => {
                let d = self.eval(frame, dst)?;
                let s = self.eval(frame, src)?;
                let n = self.eval(frame, n)?;
                let (d, s) = match (d.as_ptr(), s.as_ptr()) {
                    (Some(d), Some(s)) => (d.clone(), s.clone()),
                    _ => return Err(Stop::Bail("OptMemcpy operands".into())),
                };
                let n = n.as_int().map(IntVal::value).unwrap_or(0) as u64;
                self.mem.memcpy(&d, &s, n)?;
                Ok(Flow::Normal)
            }
            TStmt::Empty => Ok(Flow::Normal),
        }
    }

    fn eval_lvalue(&mut self, frame: &mut Frame<C>, e: &TExpr) -> EResult<(PtrVal<C>, Ty)> {
        match &e.kind {
            TExprKind::LvVar(name) => {
                if let Some((p, ty)) = frame.vars.get(name) {
                    return Ok((p.clone(), ty.clone()));
                }
                if let Some((p, ty)) = self.globals.get(name) {
                    return Ok((p.clone(), ty.clone()));
                }
                Err(Stop::Bail(format!("unbound variable `{name}`")))
            }
            TExprKind::LvDeref(p) => {
                let v = self.eval(frame, p)?;
                match v {
                    Value::Ptr { v, .. } => Ok((v, e.ty.clone())),
                    Value::Int { v, .. } => {
                        let p = self.mem.cast_int_to_ptr(&v);
                        Ok((p, e.ty.clone()))
                    }
                    Value::Float { .. } | Value::Void => {
                        Err(Stop::Bail("deref of non-pointer".into()))
                    }
                }
            }
            TExprKind::LvMember(base, off) => {
                let (p, _) = self.eval_lvalue(frame, base)?;
                Ok((self.mem.member_shift(&p, *off), e.ty.clone()))
            }
            _ => Err(Stop::Bail("expected lvalue".into())),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, frame: &mut Frame<C>, e: &TExpr) -> EResult<Value<C>> {
        self.tick()?;
        self.pos = e.pos;
        match &e.kind {
            TExprKind::ConstInt(v) => {
                let ity = e.ty.as_int().unwrap_or(IntTy::Int);
                Ok(Value::Int {
                    ity,
                    v: self.mk_int(ity, *v),
                })
            }
            TExprKind::ConstFloat(v) => Ok(Value::Float {
                fty: e.ty.as_float().unwrap_or(FloatTy::F64),
                v: *v,
            }),
            TExprKind::StrLit(s) => {
                let p = self.intern_string(s)?;
                Ok(Value::Ptr {
                    ty: e.ty.clone(),
                    v: p,
                })
            }
            TExprKind::LvVar(_) | TExprKind::LvDeref(_) | TExprKind::LvMember(..) => {
                let (p, _) = self.eval_lvalue(frame, e)?;
                Ok(Value::Ptr {
                    ty: Ty::ptr(e.ty.clone()),
                    v: p,
                })
            }
            TExprKind::Load(lv) => {
                let (p, ty) = self.eval_lvalue(frame, lv)?;
                self.pos = e.pos;
                self.load_value(&p, &ty)
            }
            TExprKind::AddrOf(lv) | TExprKind::Decay(lv) => {
                let (p, _) = self.eval_lvalue(frame, lv)?;
                let p = self.maybe_narrow_subobject(p, lv);
                Ok(Value::Ptr {
                    ty: e.ty.clone(),
                    v: p,
                })
            }
            TExprKind::FuncAddr(name) => {
                let p = self
                    .func_ptrs
                    .get(name)
                    .cloned()
                    .ok_or_else(|| Stop::Bail(format!("unknown function `{name}`")))?;
                Ok(Value::Ptr {
                    ty: e.ty.clone(),
                    v: p,
                })
            }
            TExprKind::Binary {
                op,
                lhs,
                rhs,
                derive,
            } => {
                let lv = self.eval(frame, lhs)?;
                let rv = self.eval(frame, rhs)?;
                self.pos = e.pos;
                if lv.as_float().is_some() || rv.as_float().is_some() {
                    return self.binary_float(*op, &lv, &rv, &e.ty);
                }
                self.binary_int(*op, &lv, &rv, e.ty.as_int().unwrap_or(IntTy::Int), *derive)
            }
            TExprKind::Logical { and, lhs, rhs } => {
                let l = self.eval(frame, lhs)?.truthy();
                let v = if *and {
                    l && self.eval(frame, rhs)?.truthy()
                } else {
                    l || self.eval(frame, rhs)?.truthy()
                };
                Ok(Value::Int {
                    ity: IntTy::Int,
                    v: IntVal::Num(i128::from(v)),
                })
            }
            TExprKind::Unary(op, a) => {
                let av = self.eval(frame, a)?;
                self.pos = e.pos;
                self.unary_int(*op, &av, e.ty.as_int().unwrap_or(IntTy::Int))
            }
            TExprKind::PtrAdd {
                ptr,
                idx,
                elem,
                neg,
            } => {
                let pv = self.eval(frame, ptr)?;
                let iv = self.eval(frame, idx)?;
                self.pos = e.pos;
                let p = pv
                    .as_ptr()
                    .ok_or_else(|| Stop::Bail("pointer arithmetic on non-pointer".into()))?;
                let mut i = iv.as_int().map(IntVal::value).unwrap_or(0);
                if *neg {
                    i = -i;
                }
                let q = self.mem.array_shift(p, *elem, i as i64)?;
                Ok(Value::Ptr {
                    ty: e.ty.clone(),
                    v: q,
                })
            }
            TExprKind::PtrDiff { a, b, elem } => {
                let av = self.eval(frame, a)?;
                let bv = self.eval(frame, b)?;
                self.pos = e.pos;
                let (ap, bp) = match (av.as_ptr(), bv.as_ptr()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Err(Stop::Bail("pointer difference operands".into())),
                };
                let d = self.mem.ptr_diff(ap, bp, *elem)?;
                Ok(Value::Int {
                    ity: IntTy::Long,
                    v: IntVal::Num(i128::from(d)),
                })
            }
            TExprKind::PtrCmp { op, a, b } => {
                let av = self.eval(frame, a)?;
                let bv = self.eval(frame, b)?;
                self.pos = e.pos;
                let (ap, bp) = match (av.as_ptr(), bv.as_ptr()) {
                    (Some(a), Some(b)) => (a.clone(), b.clone()),
                    _ => return Err(Stop::Bail("pointer comparison operands".into())),
                };
                let r = match op {
                    BinOp::Eq => self.mem.ptr_eq(&ap, &bp),
                    BinOp::Ne => !self.mem.ptr_eq(&ap, &bp),
                    _ => {
                        let ord = self.mem.ptr_rel_cmp(&ap, &bp)?;
                        match op {
                            BinOp::Lt => ord == std::cmp::Ordering::Less,
                            BinOp::Le => ord != std::cmp::Ordering::Greater,
                            BinOp::Gt => ord == std::cmp::Ordering::Greater,
                            BinOp::Ge => ord != std::cmp::Ordering::Less,
                            _ => return Err(Stop::Bail("comparison op".into())),
                        }
                    }
                };
                Ok(Value::Int {
                    ity: IntTy::Int,
                    v: IntVal::Num(i128::from(r)),
                })
            }
            TExprKind::Cast { kind, arg } => self.eval_cast(frame, e, *kind, arg),
            TExprKind::Assign { lv, rhs } => {
                let (p, ty) = self.eval_lvalue(frame, lv)?;
                if matches!(ty, Ty::Struct(_) | Ty::Union(_) | Ty::Array(..)) {
                    if let TExprKind::Load(src_lv) = &rhs.kind {
                        let (src, _) = self.eval_lvalue(frame, src_lv)?;
                        self.pos = e.pos;
                        let n = types_size(&self.prog.types, &ty);
                        self.mem.memcpy(&p, &src, n)?;
                        return Ok(Value::Void);
                    }
                    return Err(Stop::Bail("aggregate assignment".into()));
                }
                let v = self.eval(frame, rhs)?;
                self.pos = e.pos;
                self.store_value(&p, &ty, &v)?;
                Ok(v)
            }
            TExprKind::AssignOp {
                lv,
                op,
                rhs,
                common,
                derive,
            } => {
                let (p, ty) = self.eval_lvalue(frame, lv)?;
                if let Some(common_f) = common.as_float() {
                    let cur = self.load_value(&p, &ty)?;
                    let cur_f = match &cur {
                        Value::Float { v, .. } => *v,
                        Value::Int { v, .. } => v.value() as f64,
                        _ => return Err(Stop::Bail("compound float target".into())),
                    };
                    let rv = self.eval(frame, rhs)?;
                    self.pos = e.pos;
                    let res = self.binary_float(
                        *op,
                        &Value::Float {
                            fty: common_f,
                            v: cur_f,
                        },
                        &rv,
                        common,
                    )?;
                    let res_f = res.as_float().unwrap_or(0.0);
                    let out = match &ty {
                        Ty::Float(fty) => Value::Float {
                            fty: *fty,
                            v: if *fty == FloatTy::F32 {
                                f64::from(res_f as f32)
                            } else {
                                res_f
                            },
                        },
                        Ty::Int(it) => {
                            let t = res_f.trunc();
                            if !t.is_finite() || t < it.min() as f64 || t > it.max() as f64 {
                                return Err(
                                    self.ub(Ub::SignedOverflow, "float-to-int out of range")
                                );
                            }
                            Value::Int {
                                ity: *it,
                                v: self.mk_int(*it, t as i128),
                            }
                        }
                        t => return Err(Stop::Bail(format!("compound target {t}"))),
                    };
                    self.store_value(&p, &ty, &out)?;
                    return Ok(out);
                }
                let lt = ty
                    .as_int()
                    .ok_or_else(|| Stop::Bail("compound assignment on non-integer".into()))?;
                let Some(ct) = common.as_int() else {
                    return Err(Stop::Bail("compound common type".into()));
                };
                let cur = match self.load_value(&p, &ty)? {
                    Value::Int { v, .. } => v,
                    _ => return Err(Stop::Bail("compound assignment load".into())),
                };
                let cur_c = self.convert_int(&cur, lt, ct);
                let rv = self.eval(frame, rhs)?;
                self.pos = e.pos;
                let r = rv
                    .as_int()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("compound assignment rhs".into()))?;
                let res = self.binary_int(
                    *op,
                    &Value::Int { ity: ct, v: cur_c },
                    &Value::Int { ity: ct, v: r },
                    ct,
                    *derive,
                )?;
                let res_v = match &res {
                    Value::Int { v, .. } => self.convert_int(v, ct, lt),
                    _ => return Err(Stop::Bail("compound assignment result".into())),
                };
                let out = Value::Int { ity: lt, v: res_v };
                self.store_value(&p, &ty, &out)?;
                Ok(out)
            }
            TExprKind::PtrAssignAdd { lv, idx, elem, neg } => {
                let (p, ty) = self.eval_lvalue(frame, lv)?;
                let cur = match self.load_value(&p, &ty)? {
                    Value::Ptr { v, .. } => v,
                    _ => return Err(Stop::Bail("pointer compound assignment".into())),
                };
                let iv = self.eval(frame, idx)?;
                self.pos = e.pos;
                let mut i = iv.as_int().map(IntVal::value).unwrap_or(0);
                if *neg {
                    i = -i;
                }
                let q = self.mem.array_shift(&cur, *elem, i as i64)?;
                let out = Value::Ptr { ty: ty.clone(), v: q };
                self.store_value(&p, &ty, &out)?;
                Ok(out)
            }
            TExprKind::IncDec {
                lv,
                inc,
                prefix,
                elem,
            } => {
                let (p, ty) = self.eval_lvalue(frame, lv)?;
                self.pos = e.pos;
                let old = self.load_value(&p, &ty)?;
                let new = match (&old, *elem) {
                    (Value::Ptr { ty: pty, v }, elem) if elem > 0 => {
                        let q = self.mem.array_shift(v, elem, if *inc { 1 } else { -1 })?;
                        Value::Ptr {
                            ty: pty.clone(),
                            v: q,
                        }
                    }
                    (Value::Int { ity, v }, _) => {
                        let delta = if *inc { 1 } else { -1 };
                        let raw = v.value() + delta;
                        if ity.signed() && !ity.is_capability() && !ity.fits(raw) {
                            return Err(self.ub(Ub::SignedOverflow, "increment overflow"));
                        }
                        let nv = if ity.is_capability() {
                            self.derive_cap_result(v, *ity, raw)
                        } else {
                            IntVal::Num(ity.wrap(raw))
                        };
                        Value::Int { ity: *ity, v: nv }
                    }
                    _ => return Err(Stop::Bail("increment target".into())),
                };
                self.store_value(&p, &ty, &new)?;
                Ok(if *prefix { new } else { old })
            }
            TExprKind::Call { callee, args } => self.eval_call(frame, e, callee, args),
            TExprKind::Cond { c, t, f } => {
                if self.eval(frame, c)?.truthy() {
                    self.eval(frame, t)
                } else {
                    self.eval(frame, f)
                }
            }
            TExprKind::Comma(a, b) => {
                self.eval(frame, a)?;
                self.eval(frame, b)
            }
        }
    }

    fn eval_cast(
        &mut self,
        frame: &mut Frame<C>,
        e: &TExpr,
        kind: CastKind,
        arg: &TExpr,
    ) -> EResult<Value<C>> {
        let av = self.eval(frame, arg)?;
        self.pos = e.pos;
        match kind {
            CastKind::ToVoid => Ok(Value::Void),
            CastKind::ToBool => Ok(Value::Int {
                ity: IntTy::Bool,
                v: IntVal::Num(i128::from(av.truthy())),
            }),
            CastKind::IntToInt => {
                let to = e.ty.as_int().unwrap_or(IntTy::Int);
                let from = arg.ty.as_int().unwrap_or(IntTy::Int);
                let v = av
                    .as_int()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("int cast operand".into()))?;
                if from.is_capability() && !to.is_capability() && v.is_cap() {
                    self.note(
                        UbClass::Provenance,
                        "§2.2",
                        "(u)intptr_t narrowed to a plain integer: capability metadata and provenance stripped".to_string(),
                    );
                }
                Ok(Value::Int {
                    ity: to,
                    v: self.convert_int(&v, from, to),
                })
            }
            CastKind::PtrToInt => {
                let to = e.ty.as_int().unwrap_or(IntTy::Int);
                let p = av
                    .as_ptr()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("pointer cast operand".into()))?;
                if !to.is_capability() {
                    self.note(
                        UbClass::Provenance,
                        "§2.2",
                        "pointer cast to a non-capability integer type: round-tripping loses the capability".to_string(),
                    );
                }
                let size = types_size(&self.prog.types, &e.ty);
                let v = self
                    .mem
                    .cast_ptr_to_int(&p, to.is_capability(), to.signed(), size);
                Ok(Value::Int { ity: to, v })
            }
            CastKind::IntToPtr => {
                let v = av
                    .as_int()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("int-to-pointer operand".into()))?;
                if self.profile.mem.capabilities && !v.is_cap() && v.value() != 0 {
                    self.note(
                        UbClass::Provenance,
                        "§2.2/§4.3",
                        "int→pointer cast from a non-capability integer: provenance recovered by PNVI-ae-udi lookup, capability untagged".to_string(),
                    );
                }
                let p = self.mem.cast_int_to_ptr(&v);
                Ok(Value::Ptr {
                    ty: e.ty.clone(),
                    v: p,
                })
            }
            CastKind::IntToFloat => {
                let fty = e.ty.as_float().unwrap_or(FloatTy::F64);
                let n = av
                    .as_int()
                    .map(IntVal::value)
                    .ok_or_else(|| Stop::Bail("int-to-float operand".into()))?;
                let v = n as f64;
                let v = if fty == FloatTy::F32 {
                    f64::from(v as f32)
                } else {
                    v
                };
                Ok(Value::Float { fty, v })
            }
            CastKind::FloatToInt => {
                let to = e.ty.as_int().unwrap_or(IntTy::Int);
                let f = av
                    .as_float()
                    .ok_or_else(|| Stop::Bail("float-to-int operand".into()))?;
                let t = f.trunc();
                if !t.is_finite() || t < to.min() as f64 || t > to.max() as f64 {
                    return Err(self.ub(Ub::SignedOverflow, "float-to-int out of range"));
                }
                Ok(Value::Int {
                    ity: to,
                    v: self.mk_int(to, t as i128),
                })
            }
            CastKind::FloatToFloat => {
                let fty = e.ty.as_float().unwrap_or(FloatTy::F64);
                let f = av
                    .as_float()
                    .ok_or_else(|| Stop::Bail("float cast operand".into()))?;
                let v = if fty == FloatTy::F32 {
                    f64::from(f as f32)
                } else {
                    f
                };
                Ok(Value::Float { fty, v })
            }
            CastKind::PtrToPtr => {
                let p = av
                    .as_ptr()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("pointer cast operand".into()))?;
                Ok(Value::Ptr {
                    ty: e.ty.clone(),
                    v: p,
                })
            }
        }
    }

    fn binary_int(
        &mut self,
        op: BinOp,
        l: &Value<C>,
        r: &Value<C>,
        ity: IntTy,
        derive: DeriveFrom,
    ) -> EResult<Value<C>> {
        let (lv, rv) = match (l.as_int(), r.as_int()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(Stop::Bail("integer operation on non-integers".into())),
        };
        let a = lv.value();
        let b = rv.value();
        if op.is_comparison() {
            let res = match op {
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => return Err(Stop::Bail("comparison".into())),
            };
            return Ok(Value::Int {
                ity: IntTy::Int,
                v: IntVal::Num(i128::from(res)),
            });
        }
        let bits = ity.value_bits();
        let raw: i128 = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a
                .checked_mul(b)
                .ok_or_else(|| self.ub(Ub::SignedOverflow, "multiplication overflow"))?,
            BinOp::Div => {
                if b == 0 {
                    return Err(self.ub(Ub::DivisionByZero, "division by zero"));
                }
                if ity.signed() && a == ity.min() && b == -1 {
                    return Err(self.ub(Ub::SignedOverflow, "INT_MIN / -1"));
                }
                a / b
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(self.ub(Ub::DivisionByZero, "remainder by zero"));
                }
                if ity.signed() && a == ity.min() && b == -1 {
                    return Err(self.ub(Ub::SignedOverflow, "INT_MIN % -1"));
                }
                a % b
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl | BinOp::Shr => {
                if b < 0 || b >= i128::from(bits) {
                    return Err(self.ub(Ub::ShiftOutOfRange, format!("shift by {b}")));
                }
                if op == BinOp::Shl {
                    let v = a << b;
                    if ity.signed() && !ity.fits(v) {
                        return Err(self.ub(Ub::SignedOverflow, "left shift overflow"));
                    }
                    v
                } else if ity.signed() {
                    a >> b
                } else {
                    ((a as u128 & (u128::MAX >> (128 - bits))) >> b) as i128
                }
            }
            _ => return Err(Stop::Bail("binary operator".into())),
        };
        if ity.signed()
            && !ity.is_capability()
            && matches!(op, BinOp::Add | BinOp::Sub)
            && !ity.fits(raw)
        {
            return Err(self.ub(Ub::SignedOverflow, "arithmetic overflow"));
        }
        let v = if ity.is_capability() {
            let src = match derive {
                DeriveFrom::Left => lv.clone(),
                DeriveFrom::Right => rv.clone(),
            };
            self.derive_cap_result(&src, ity, raw)
        } else {
            IntVal::Num(ity.wrap(raw))
        };
        Ok(Value::Int { ity, v })
    }

    fn binary_float(
        &mut self,
        op: BinOp,
        l: &Value<C>,
        r: &Value<C>,
        res_ty: &Ty,
    ) -> EResult<Value<C>> {
        let (a, b) = match (l.as_float(), r.as_float()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(Stop::Bail("mixed float operands".into())),
        };
        if op.is_comparison() {
            let res = match op {
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => return Err(Stop::Bail("comparison".into())),
            };
            return Ok(Value::Int {
                ity: IntTy::Int,
                v: IntVal::Num(i128::from(res)),
            });
        }
        let fty = res_ty.as_float().unwrap_or(FloatTy::F64);
        let v = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            _ => return Err(Stop::Bail("float operator".into())),
        };
        let v = if fty == FloatTy::F32 {
            f64::from(v as f32)
        } else {
            v
        };
        Ok(Value::Float { fty, v })
    }

    fn unary_int(&mut self, op: UnOp, a: &Value<C>, ity: IntTy) -> EResult<Value<C>> {
        match op {
            UnOp::LogNot => Ok(Value::Int {
                ity: IntTy::Int,
                v: IntVal::Num(i128::from(!a.truthy())),
            }),
            UnOp::Plus => Ok(a.clone()),
            UnOp::Neg if a.as_float().is_some() => {
                let v = a.as_float().unwrap_or(0.0);
                match a {
                    Value::Float { fty, .. } => Ok(Value::Float { fty: *fty, v: -v }),
                    _ => Err(Stop::Bail("float negation".into())),
                }
            }
            UnOp::Neg | UnOp::BitNot => {
                let v = a
                    .as_int()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("unary arithmetic operand".into()))?;
                let raw = if op == UnOp::Neg {
                    -v.value()
                } else {
                    !v.value()
                };
                if ity.signed() && !ity.is_capability() && op == UnOp::Neg && !ity.fits(raw) {
                    return Err(self.ub(Ub::SignedOverflow, "negation overflow"));
                }
                let out = if ity.is_capability() {
                    self.derive_cap_result(&v, ity, raw)
                } else {
                    IntVal::Num(ity.wrap(raw))
                };
                Ok(Value::Int { ity, v: out })
            }
        }
    }

    fn eval_call(
        &mut self,
        frame: &mut Frame<C>,
        e: &TExpr,
        callee: &Callee,
        args: &[TExpr],
    ) -> EResult<Value<C>> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push((self.eval(frame, a)?, a.ty.clone()));
        }
        self.pos = e.pos;
        match callee {
            Callee::Direct(name) => {
                let f = self
                    .prog
                    .funcs
                    .get(name)
                    .ok_or_else(|| Stop::Bail(format!("call of undefined `{name}`")))?;
                self.call_function(f, argv)
            }
            Callee::Indirect(fe) => {
                let fv = self.eval(frame, fe)?;
                self.pos = e.pos;
                let p = fv
                    .as_ptr()
                    .ok_or_else(|| Stop::Bail("indirect call operand".into()))?;
                if self.profile.mem.capabilities {
                    if !p.cap.tag() {
                        return Err(Stop::Mem(MemError::ub(
                            Ub::CheriInvalidCap,
                            "call via untagged function pointer",
                        )));
                    }
                    if !p.cap.perms().contains(Perms::EXECUTE) {
                        return Err(Stop::Mem(MemError::ub(
                            Ub::CheriInsufficientPermissions,
                            "call via non-executable capability",
                        )));
                    }
                }
                let name = self
                    .addr_to_func
                    .get(&p.addr())
                    .cloned()
                    .ok_or_else(|| Stop::Bail("indirect call to non-function".into()))?;
                let f = self
                    .prog
                    .funcs
                    .get(&name)
                    .ok_or_else(|| Stop::Bail(format!("call of undefined `{name}`")))?;
                self.call_function(f, argv)
            }
            Callee::Builtin(b) => self.eval_builtin(*b, argv),
        }
    }

    fn call_function(&mut self, f: &TFunc, args: Vec<(Value<C>, Ty)>) -> EResult<Value<C>> {
        self.call_depth += 1;
        if self.call_depth > 256 {
            self.call_depth -= 1;
            return Err(Stop::Bail("call depth exceeded".into()));
        }
        let mut frame = Frame {
            vars: HashMap::new(),
            to_kill: Vec::new(),
        };
        for ((name, ty), (v, _)) in f.params.iter().zip(args) {
            let size = types_size(&self.prog.types, ty);
            let align = self.prog.types.align_of(ty);
            let pretty = name.split('#').next().unwrap_or(name);
            let p = self.mem.allocate_object(pretty, size, align, false, None)?;
            self.store_value(&p, ty, &v)?;
            frame.to_kill.push(p.clone());
            frame.vars.insert(name.clone(), (p, ty.clone()));
        }
        let flow = self.exec_block(&mut frame, &f.body);
        for p in frame.to_kill.drain(..).rev() {
            self.mem.kill(&p, false)?;
        }
        self.call_depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ if f.name == "main" => Ok(Value::Int {
                ity: IntTy::Int,
                v: IntVal::Num(0),
            }),
            _ => Ok(Value::Void),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval_builtin(&mut self, b: Builtin, mut args: Vec<(Value<C>, Ty)>) -> EResult<Value<C>> {
        use Builtin::*;
        let int_result = |ity: IntTy, v: i128| -> EResult<Value<C>> {
            Ok(Value::Int {
                ity,
                v: IntVal::Num(ity.wrap(v)),
            })
        };
        let cap_of = |v: &Value<C>| -> EResult<C> {
            v.cap()
                .cloned()
                .ok_or_else(|| Stop::Bail("capability argument expected".into()))
        };
        let rewrap = |orig: &Value<C>, cap: C| -> Value<C> {
            match orig {
                Value::Ptr { ty, v } => Value::Ptr {
                    ty: ty.clone(),
                    v: PtrVal::new(v.prov, cap),
                },
                Value::Int { ity, v } => Value::Int {
                    ity: *ity,
                    v: IntVal::Cap {
                        signed: ity.signed(),
                        cap,
                        prov: v.prov(),
                    },
                },
                Value::Float { .. } | Value::Void => Value::Void,
            }
        };
        match b {
            Printf | Fprintf => {
                let skip = usize::from(b == Fprintf);
                let fmt_ptr = args
                    .get(skip)
                    .and_then(|(v, _)| v.as_ptr())
                    .cloned()
                    .ok_or_else(|| Stop::Bail("format string expected".into()))?;
                let fmt = String::from_utf8_lossy(&self.read_c_string(&fmt_ptr)?).into_owned();
                let rendered = self.format(&fmt, &args[skip + 1..])?;
                if b == Fprintf {
                    self.stderr.push_str(&rendered);
                } else {
                    self.stdout.push_str(&rendered);
                }
                int_result(IntTy::Int, rendered.len() as i128)
            }
            Assert => {
                let (v, _) = &args[0];
                if v.truthy() {
                    Ok(Value::Void)
                } else {
                    Err(Stop::Assert)
                }
            }
            Abort => Err(Stop::Abort),
            Exit => {
                let code = args[0].0.as_int().map(IntVal::value).unwrap_or(0);
                Err(Stop::Exit(code as i64))
            }
            Malloc => {
                let n = args[0].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let p = self.mem.allocate_region(n, 16)?;
                Ok(Value::Ptr {
                    ty: Ty::ptr(Ty::Void),
                    v: p,
                })
            }
            Calloc => {
                let n = args[0].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let sz = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let total = n
                    .checked_mul(sz)
                    .ok_or_else(|| Stop::Mem(MemError::Fail("calloc size overflow".into())))?;
                let p = self.mem.allocate_region(total, 16)?;
                self.mem.memset(&p, 0, total)?;
                Ok(Value::Ptr {
                    ty: Ty::ptr(Ty::Void),
                    v: p,
                })
            }
            Free => {
                let p = args[0]
                    .0
                    .as_ptr()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("free of non-pointer".into()))?;
                self.mem.kill(&p, true)?;
                Ok(Value::Void)
            }
            Realloc => {
                let p = args[0]
                    .0
                    .as_ptr()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("realloc of non-pointer".into()))?;
                let n = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let q = self.mem.reallocate(&p, n)?;
                Ok(Value::Ptr {
                    ty: Ty::ptr(Ty::Void),
                    v: q,
                })
            }
            Memcpy | Memmove => {
                let d = args[0].0.as_ptr().cloned();
                let s = args[1].0.as_ptr().cloned();
                let n = args[2].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let (d, s) = match (d, s) {
                    (Some(d), Some(s)) => (d, s),
                    _ => return Err(Stop::Bail("memcpy operands".into())),
                };
                self.mem.memcpy(&d, &s, n)?;
                Ok(Value::Ptr {
                    ty: Ty::ptr(Ty::Void),
                    v: d,
                })
            }
            Memset => {
                let d = args[0]
                    .0
                    .as_ptr()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("memset operand".into()))?;
                let c = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u8;
                let n = args[2].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                self.mem.memset(&d, c, n)?;
                Ok(Value::Ptr {
                    ty: Ty::ptr(Ty::Void),
                    v: d,
                })
            }
            Memcmp => {
                let a = args[0].0.as_ptr().cloned();
                let bptr = args[1].0.as_ptr().cloned();
                let n = args[2].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let (a, bp) = match (a, bptr) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Err(Stop::Bail("memcmp operands".into())),
                };
                let r = self.mem.memcmp(&a, &bp, n)?;
                int_result(IntTy::Int, i128::from(r))
            }
            Strlen => {
                let p = args[0]
                    .0
                    .as_ptr()
                    .cloned()
                    .ok_or_else(|| Stop::Bail("strlen operand".into()))?;
                let s = self.read_c_string(&p)?;
                int_result(IntTy::ULong, s.len() as i128)
            }
            Strcmp => {
                let a = args[0].0.as_ptr().cloned();
                let bptr = args[1].0.as_ptr().cloned();
                let (a, bp) = match (a, bptr) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Err(Stop::Bail("strcmp operands".into())),
                };
                // Byte order is C's `unsigned char` order.
                let sa = self.read_c_string(&a)?;
                let sb = self.read_c_string(&bp)?;
                int_result(
                    IntTy::Int,
                    i128::from(match sa.cmp(&sb) {
                        std::cmp::Ordering::Less => -1,
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                    }),
                )
            }
            Strcpy => {
                let d = args[0].0.as_ptr().cloned();
                let s = args[1].0.as_ptr().cloned();
                let (d, s) = match (d, s) {
                    (Some(d), Some(s)) => (d, s),
                    _ => return Err(Stop::Bail("strcpy operands".into())),
                };
                let text = self.read_c_string(&s)?;
                self.mem.memcpy(&d, &s, text.len() as u64 + 1)?;
                Ok(Value::Ptr {
                    ty: Ty::ptr(Ty::Int(IntTy::Char)),
                    v: d,
                })
            }
            PrintCap => {
                // Output formatting touches no memory; the analyzer does
                // not reproduce the rendered text.
                Ok(Value::Void)
            }
            Fabs | Sqrt => {
                let x = args[0].0.as_float().unwrap_or(0.0);
                let v = if b == Fabs { x.abs() } else { x.sqrt() };
                Ok(Value::Float {
                    fty: FloatTy::F64,
                    v,
                })
            }
            CheriTagGet | CheriIsValid => {
                let c = cap_of(&args[0].0)?;
                let v = if c.ghost().tag_unspecified {
                    false
                } else {
                    c.tag()
                };
                int_result(IntTy::Bool, i128::from(v))
            }
            CheriTagClear => {
                let c = cap_of(&args[0].0)?;
                let orig = args.remove(0).0;
                Ok(rewrap(&orig, c.clear_tag()))
            }
            CheriSentryCreate => {
                let c = cap_of(&args[0].0)?;
                let orig = args.remove(0).0;
                Ok(rewrap(&orig, c.seal_entry()))
            }
            CheriAddressGet => {
                let c = cap_of(&args[0].0)?;
                int_result(IntTy::PtrAddr, i128::from(c.address()))
            }
            CheriBaseGet => {
                let c = cap_of(&args[0].0)?;
                let v = if c.ghost().bounds_unspecified {
                    0
                } else {
                    c.bounds().base
                };
                int_result(IntTy::PtrAddr, i128::from(v))
            }
            CheriLengthGet => {
                let c = cap_of(&args[0].0)?;
                let v = if c.ghost().bounds_unspecified {
                    0
                } else {
                    c.bounds().length()
                };
                int_result(IntTy::ULong, i128::from(v))
            }
            CheriOffsetGet => {
                let c = cap_of(&args[0].0)?;
                int_result(
                    IntTy::ULong,
                    i128::from(c.address().wrapping_sub(c.bounds().base)),
                )
            }
            CheriOffsetSet => {
                let c = cap_of(&args[0].0)?;
                let off = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let orig = args.remove(0).0;
                let new = c.with_address(c.bounds().base.wrapping_add(off));
                Ok(rewrap(&orig, new))
            }
            CheriAddressSet => {
                let c = cap_of(&args[0].0)?;
                let a = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let orig = args.remove(0).0;
                Ok(rewrap(&orig, c.with_address(a)))
            }
            CheriPermsGet => {
                let c = cap_of(&args[0].0)?;
                int_result(IntTy::ULong, i128::from(c.perms().bits()))
            }
            CheriPermsAnd => {
                let c = cap_of(&args[0].0)?;
                let mask = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u32;
                let orig = args.remove(0).0;
                Ok(rewrap(&orig, c.with_perms_and(Perms::from_bits_truncate(mask))))
            }
            CheriBoundsSet | CheriBoundsSetExact => {
                let c = cap_of(&args[0].0)?;
                let len = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                let orig = args.remove(0).0;
                let new = if b == CheriBoundsSetExact {
                    c.with_bounds_exact(c.address(), len)
                } else {
                    c.with_bounds(c.address(), len)
                };
                Ok(rewrap(&orig, new))
            }
            CheriIsEqualExact => {
                let a = cap_of(&args[0].0)?;
                let c = cap_of(&args[1].0)?;
                let v = if !a.ghost().is_clean() || !c.ghost().is_clean() {
                    false
                } else {
                    a.exact_eq(&c)
                };
                int_result(IntTy::Bool, i128::from(v))
            }
            CheriIsSubset => {
                let a = cap_of(&args[0].0)?;
                let c = cap_of(&args[1].0)?;
                let v = a.bounds().base >= c.bounds().base
                    && a.bounds().top <= c.bounds().top
                    && a.perms().is_subset_of(c.perms());
                int_result(IntTy::Bool, i128::from(v))
            }
            CheriReprLength => {
                let n = args[0].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                int_result(IntTy::ULong, i128::from(C::representable_length(n)))
            }
            CheriReprAlignMask => {
                let n = args[0].0.as_int().map(IntVal::value).unwrap_or(0) as u64;
                int_result(IntTy::ULong, i128::from(C::representable_alignment_mask(n)))
            }
            CheriSeal => {
                let c = cap_of(&args[0].0)?;
                let auth = cap_of(&args[1].0)?;
                let orig = args.remove(0).0;
                let new = c.seal(&auth).unwrap_or_else(|_| c.clear_tag());
                Ok(rewrap(&orig, new))
            }
            CheriUnseal => {
                let c = cap_of(&args[0].0)?;
                let auth = cap_of(&args[1].0)?;
                let orig = args.remove(0).0;
                let new = c.unseal(&auth).unwrap_or_else(|_| c.clear_tag());
                Ok(rewrap(&orig, new))
            }
            CheriIsSealed => {
                let c = cap_of(&args[0].0)?;
                int_result(IntTy::Bool, i128::from(c.is_sealed()))
            }
            CheriTypeGet => {
                let c = cap_of(&args[0].0)?;
                int_result(IntTy::Long, i128::from(c.otype().value()))
            }
            CheriFlagsGet => {
                let c = cap_of(&args[0].0)?;
                int_result(IntTy::ULong, i128::from(c.flags()))
            }
            CheriFlagsSet => {
                let c = cap_of(&args[0].0)?;
                let f = args[1].0.as_int().map(IntVal::value).unwrap_or(0) as u8;
                let orig = args.remove(0).0;
                Ok(rewrap(&orig, c.with_flags(f)))
            }
            CheriDdcGet | CheriPccGet => {
                let cap = if b == CheriDdcGet {
                    C::root().with_perms_and(!Perms::EXECUTE)
                } else {
                    C::root().with_perms_and(Perms::code() | Perms::LOAD)
                };
                Ok(Value::Ptr {
                    ty: Ty::ptr(Ty::Void),
                    v: PtrVal::new(Provenance::Empty, cap),
                })
            }
        }
    }

    /// The bytes of the NUL-terminated C string at `p`, terminator
    /// excluded; only `printf` decodes them.
    fn read_c_string(&mut self, p: &PtrVal<C>) -> EResult<Vec<u8>> {
        let mut out = Vec::new();
        for i in 0..65536i64 {
            let q = self.mem.array_shift(p, 1, i)?;
            let b = self.mem.load_int(&q, 1, false, false)?;
            let b = b.value() as u8;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
        }
        Err(Stop::Bail("unterminated string".into()))
    }

    /// Minimal printf-style formatting — mirrored because the *length* of
    /// the rendered text is the builtin's return value and `%s` arguments
    /// are read through the memory model (which can fault).
    fn format(&mut self, fmt: &str, args: &[(Value<C>, Ty)]) -> EResult<String> {
        let mut out = String::new();
        let mut it = fmt.chars();
        let mut arg_i = 0;
        let next = |i: &mut usize| -> Option<&(Value<C>, Ty)> {
            let v = args.get(*i);
            *i += 1;
            v
        };
        while let Some(c) = it.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            let mut conv = None;
            for c in it.by_ref() {
                match c {
                    'd' | 'i' | 'u' | 'x' | 'X' | 'p' | 's' | 'c' | '%' | 'f' | 'g' | 'e' => {
                        conv = Some(c);
                        break;
                    }
                    '0'..='9' | '-' | '+' | ' ' | '#' | '.' | 'l' | 'z' | 'h' | 'j' | 't' => {}
                    other => {
                        conv = Some(other);
                        break;
                    }
                }
            }
            match conv {
                Some('%') => out.push('%'),
                Some('d' | 'i') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        out.push_str(&v.as_int().map(IntVal::value).unwrap_or(0).to_string());
                    }
                }
                Some('u') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        let n = v.as_int().map(IntVal::value).unwrap_or(0);
                        out.push_str(&(n as u64).to_string());
                    }
                }
                Some('x') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        let n = v.as_int().map(IntVal::value).unwrap_or(0);
                        out.push_str(&format!("{:x}", n as u64));
                    }
                }
                Some('X') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        let n = v.as_int().map(IntVal::value).unwrap_or(0);
                        out.push_str(&format!("{:X}", n as u64));
                    }
                }
                Some('p') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        match v {
                            Value::Ptr { v, .. } => out.push_str(&format!("{:#x}", v.addr())),
                            Value::Int { v, .. } => {
                                out.push_str(&format!("{:#x}", v.value() as u64));
                            }
                            Value::Float { .. } | Value::Void => out.push_str("0x0"),
                        }
                    }
                }
                Some('f') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        let f = v.as_float().unwrap_or(0.0);
                        out.push_str(&format!("{f:.6}"));
                    }
                }
                Some('g' | 'e') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        let f = v.as_float().unwrap_or(0.0);
                        out.push_str(&format!("{f}"));
                    }
                }
                Some('c') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        let n = v.as_int().map(IntVal::value).unwrap_or(0) as u8;
                        out.push(n as char);
                    }
                }
                Some('s') => {
                    if let Some((v, _)) = next(&mut arg_i) {
                        if let Some(p) = v.as_ptr() {
                            let p = p.clone();
                            out.push_str(&String::from_utf8_lossy(&self.read_c_string(&p)?));
                        }
                    }
                }
                _ => out.push('%'),
            }
        }
        Ok(out)
    }
}
